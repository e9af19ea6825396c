"""Chat-completion client with tool calling, plus a scripted test backend.

Speaks the de-facto chat-completions wire shape over HTTPS with streamed
chunks.  The provider base URL and model name are configuration; nothing
provider-specific is hard-coded.  The HTTP stack (``urllib.request``,
``http.client``, ``ssl``, ``email``) loads when an ``HttpBackend`` is
built, not at import.  The scripted backend replays pre-authored
turns from a JSON file for deterministic, network-free runs.

Every request re-sends the whole conversation, and a message never
changes once the agent has appended it.  So messages are immutable, each
is encoded to JSON once, the first time a request carries it, and a
request body is joined from those encodings rather than re-encoded.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

from .errors import (
    AuthError,
    MalformedToolArgs,
    RateLimited,
    ScriptExhausted,
    ScriptParseError,
    TransportError,
)


SYSTEM = "system"
USER = "user"
ASSISTANT = "assistant"
TOOL = "tool"

SCRIPT_VERSION = 1


@dataclass
class ToolCallRequest:
    id: str
    name: str
    arguments: dict


@dataclass(frozen=True)
class ChatMessage:
    """One message of the conversation.

    Frozen, because ``wire_json`` caches its encoding: the conversation is
    re-sent whole with every request, and a message that changed after
    its first send would go out stale.  Its ``tool_calls`` list must not
    be changed either.
    """

    role: str
    content: str = ""
    tool_call_id: str | None = None           # Tool role only
    tool_calls: list[ToolCallRequest] = field(default_factory=list)

    @cached_property
    def wire_json(self) -> str:
        """``to_wire()`` as JSON, encoded on first use."""
        return json.dumps(self.to_wire())

    def to_wire(self) -> dict:
        msg: dict = {"role": self.role, "content": self.content}
        if self.tool_call_id is not None:
            msg["tool_call_id"] = self.tool_call_id
        if self.tool_calls:
            msg["tool_calls"] = [
                {
                    "id": c.id,
                    "type": "function",
                    "function": {"name": c.name,
                                 "arguments": json.dumps(c.arguments)},
                }
                for c in self.tool_calls
            ]
        return msg


@dataclass(frozen=True)
class ToolDef:
    """A callable the model may invoke; all parameters are text.  Frozen,
    like ``ChatMessage``, so that its encoding is computed once."""

    name: str
    description: str
    parameters: list[tuple[str, str]]  # (param name, param description)

    @cached_property
    def wire_json(self) -> str:
        return json.dumps(self.to_wire())

    def to_wire(self) -> dict:
        props = {name: {"type": "string", "description": desc}
                 for name, desc in self.parameters}
        return {
            "type": "function",
            "function": {
                "name": self.name,
                "description": self.description,
                "parameters": {
                    "type": "object",
                    "properties": props,
                    "required": [name for name, _ in self.parameters],
                },
            },
        }


@dataclass
class CompletionEvent:
    kind: str  # "text" | "tool_call" | "done"
    text: str = ""
    tool_call: ToolCallRequest | None = None
    finish_reason: str = ""


def _validate_tool_call(call: ToolCallRequest, tools: list[ToolDef]) -> None:
    spec = next((t for t in tools if t.name == call.name), None)
    if spec is None:
        raise MalformedToolArgs(f"unknown tool {call.name!r}")
    if not isinstance(call.arguments, dict):
        raise MalformedToolArgs(f"{call.name}: arguments are not an object")
    for name, _ in spec.parameters:
        if name not in call.arguments:
            raise MalformedToolArgs(f"{call.name}: missing argument {name!r}")
        if not isinstance(call.arguments[name], str):
            raise MalformedToolArgs(f"{call.name}: argument {name!r} is not text")


def validate_conversation(messages: list[ChatMessage]) -> None:
    """Check tool-call pairing: every issued call id gets exactly one
    Tool reply before any other non-Tool message appears."""
    pending: list[str] = []
    for msg in messages:
        if msg.role == TOOL:
            if msg.tool_call_id is None:
                raise ValueError("Tool message without tool_call_id")
            if not pending or pending[0] != msg.tool_call_id:
                raise ValueError(
                    f"Tool reply {msg.tool_call_id!r} does not match the "
                    f"pending call order {pending!r}")
            pending.pop(0)
            continue
        if pending:
            raise ValueError(f"unanswered tool calls: {pending!r}")
        if msg.role == ASSISTANT and msg.tool_calls:
            pending = [c.id for c in msg.tool_calls]
    if pending:
        raise ValueError(f"conversation ends with unanswered calls: {pending!r}")


# --------------------------------------------------------------------------
# HTTP backend
# --------------------------------------------------------------------------

TIMEOUT_S = 120.0  # per connection attempt and per stream read
RETRY_CAP = 3      # retries after a throttle or a failed connection


def _lines(response) -> Iterator[str]:
    """The response body line by line, decoded as UTF-8.  A read that fails
    part-way becomes a TransportError, which ends the chat turn only."""
    import http.client
    try:
        for raw in response:
            yield raw.decode("utf-8")
    except (OSError, http.client.HTTPException, UnicodeDecodeError) as exc:
        raise TransportError(f"stream read failed: {exc!r}") from exc


class HttpBackend:
    """Streams chat completions from an HTTP provider."""

    def __init__(self, base_url: str, model: str, key_env: str):
        # Load the HTTP stack now rather than in the first chat turn.
        import urllib.request
        self.base_url = base_url
        self.model = model
        self.key_env = key_env

    def describe(self) -> dict:
        return {"backend": "http", "base_url": self.base_url,
                "model": self.model}

    def complete(self, messages: list[ChatMessage],
                 tools: list[ToolDef]) -> Iterator[CompletionEvent]:
        key = os.environ.get(self.key_env, "")
        if not key:
            raise AuthError(
                f"no API key in ${self.key_env}; set it or use "
                "a scripted backend")
        # Byte for byte what json.dumps gives for the same dict, with its
        # default separators and ensure_ascii.
        body = ('{"model": ' + json.dumps(self.model)
                + ', "messages": [' + ", ".join(m.wire_json for m in messages)
                + '], "stream": true')
        if tools:
            body += ', "tools": [' + ", ".join(t.wire_json for t in tools) + "]"
        body += "}"

        response = self._post_with_retry(key, body.encode("utf-8"))
        try:
            yield from self._stream_events(response, tools)
        finally:
            response.close()

    def _post_with_retry(self, key: str, body: bytes):
        import http.client
        import urllib.request
        from urllib.error import HTTPError
        request = urllib.request.Request(
            self.base_url.rstrip("/") + "/chat/completions",
            data=body,
            headers={"Authorization": f"Bearer {key}",
                     "Content-Type": "application/json"},
            method="POST")
        attempt = 0
        while True:
            try:
                return urllib.request.urlopen(request, timeout=TIMEOUT_S)
            except HTTPError as exc:
                with exc:
                    if exc.code == 401:
                        raise AuthError("provider rejected the API key")
                    if exc.code != 429:
                        try:
                            detail = exc.read().decode("utf-8", "replace")
                        except (OSError, http.client.HTTPException):
                            detail = ""
                        raise TransportError(
                            f"HTTP {exc.code}: {detail[:400]}") from None
                    header = exc.headers.get("Retry-After")
                try:
                    retry_after = float(header) if header else None
                except ValueError:
                    retry_after = None
                attempt += 1
                if attempt > RETRY_CAP:
                    raise RateLimited("provider throttled the request",
                                      retry_after=retry_after) from None
                time.sleep(retry_after if retry_after is not None else 1.0)
            except (OSError, http.client.HTTPException) as exc:
                attempt += 1
                if attempt > RETRY_CAP:
                    raise TransportError(str(exc)) from exc
                time.sleep(min(2.0, 0.2 * attempt))

    def _stream_events(self, response, tools) -> Iterator[CompletionEvent]:
        partial: dict[int, dict] = {}
        finish = ""
        for line in _lines(response):
            if not line.startswith("data:"):
                continue
            data = line[len("data:"):].strip()
            if data == "[DONE]":
                break
            try:
                chunk = json.loads(data)
            except json.JSONDecodeError as exc:
                raise TransportError(f"bad stream chunk: {data[:200]}") from exc
            choices = chunk.get("choices") or []
            if not choices:
                continue
            choice = choices[0]
            delta = choice.get("delta") or {}
            if delta.get("content"):
                yield CompletionEvent(kind="text", text=delta["content"])
            for piece in delta.get("tool_calls") or []:
                slot = partial.setdefault(piece.get("index", 0),
                                          {"id": "", "name": "", "args": ""})
                if piece.get("id"):
                    slot["id"] = piece["id"]
                fn = piece.get("function") or {}
                if fn.get("name"):
                    slot["name"] += fn["name"]
                if fn.get("arguments"):
                    slot["args"] += fn["arguments"]
            if choice.get("finish_reason"):
                finish = choice["finish_reason"]
        for index in sorted(partial):
            slot = partial[index]
            try:
                arguments = json.loads(slot["args"] or "{}")
            except json.JSONDecodeError as exc:
                raise MalformedToolArgs(
                    f"{slot['name']}: undecodable arguments "
                    f"{slot['args'][:200]!r}") from exc
            call = ToolCallRequest(id=slot["id"] or f"call_{index}",
                                   name=slot["name"], arguments=arguments)
            _validate_tool_call(call, tools)
            yield CompletionEvent(kind="tool_call", tool_call=call)
        yield CompletionEvent(kind="done", finish_reason=finish or "stop")


# --------------------------------------------------------------------------
# Scripted backend
# --------------------------------------------------------------------------

class ScriptedBackend:
    """Replays pre-authored turns; turn k of the dialog yields entry k.

    Script format (JSON):
        {"version": 1,
         "turns": [[{"text": "..."} | {"tool_call": {"name": "...",
                                                     "arguments": {...}}},
                    ...], ...]}
    """

    def __init__(self, script_path: str):
        self.path = script_path
        try:
            with open(script_path, encoding="utf-8") as fh:
                script = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ScriptParseError(f"{script_path}: {exc}") from exc
        if not isinstance(script, dict) or script.get("version") != SCRIPT_VERSION:
            raise ScriptParseError(
                f"{script_path}: expected version {SCRIPT_VERSION}")
        turns = script.get("turns")
        if not isinstance(turns, list):
            raise ScriptParseError(f"{script_path}: turns must be a list")
        for i, turn in enumerate(turns):
            if not isinstance(turn, list):
                raise ScriptParseError(f"{script_path}: turn {i} not a list")
            for item in turn:
                if not isinstance(item, dict) or not (
                        "text" in item or "tool_call" in item):
                    raise ScriptParseError(
                        f"{script_path}: turn {i} has a bad item: {item!r}")
        self.turns: list[list[dict]] = turns
        self.turn_index = 0

    def describe(self) -> dict:
        return {"backend": "script", "script": os.path.basename(self.path),
                "turns": len(self.turns)}

    def complete(self, messages: list[ChatMessage],
                 tools: list[ToolDef]) -> Iterator[CompletionEvent]:
        if self.turn_index >= len(self.turns):
            raise ScriptExhausted(
                f"script has only {len(self.turns)} turn(s)")
        turn = self.turns[self.turn_index]
        index = self.turn_index
        self.turn_index += 1
        had_tool_call = False
        for i, item in enumerate(turn):
            if "text" in item:
                yield CompletionEvent(kind="text", text=item["text"])
                continue
            spec = item["tool_call"]
            call = ToolCallRequest(id=f"call_{index}_{i}",
                                   name=spec.get("name", ""),
                                   arguments=spec.get("arguments", {}))
            _validate_tool_call(call, tools)
            had_tool_call = True
            yield CompletionEvent(kind="tool_call", tool_call=call)
        yield CompletionEvent(
            kind="done",
            finish_reason="tool_calls" if had_tool_call else "stop")
