"""Chat-completion client with tool calling, plus the --script backend.

Speaks the de-facto chat-completions wire shape over HTTPS with streamed
chunks.  The provider base URL and model name are configuration; nothing
provider-specific is hard-coded.  The HTTP client is a small HTTP/1.1
client on ``socket``, with ``ssl`` for ``https:`` URLs only; both load
when an ``HttpBackend`` is built, not at import, and the standard
library's HTTP and mail modules never load.  The scripted backend
replays pre-authored turns from a JSON file for deterministic,
network-free runs.

A backend's ``complete`` yields the model's answer as it comes: each
piece of prose as a ``str`` and each tool call, validated against the
tools offered, as a ``ToolCallRequest``.  An answer that makes no call
is the model's last in its chat turn; how the provider labels its end
is not read.

Every request re-sends the whole conversation, and a message never
changes once the agent has appended it.  So messages are immutable, each
is encoded to JSON once, the first time a request carries it, and a
request body is joined from those encodings rather than re-encoded.
"""

from __future__ import annotations

import json
import os
import re
import time
from collections.abc import Iterator
from contextlib import suppress
from functools import cached_property

from .errors import LlmError, Record, refuse_change, split_lines


SYSTEM = "system"
USER = "user"
ASSISTANT = "assistant"
TOOL = "tool"

SCRIPT_VERSION = 1


class ToolCallRequest(Record):
    __slots__ = ("id", "name", "arguments")

    def __init__(self, id: str, name: str, arguments: dict):
        self.id = id
        self.name = name
        self.arguments = arguments


class ChatMessage(Record):
    """One message of the conversation.

    Immutable, because ``wire_json`` caches its encoding: the conversation
    is re-sent whole with every request, and a message that changed after
    its first send would go out stale.  Its ``tool_calls`` list must not
    be changed either.
    """

    __setattr__ = __delattr__ = refuse_change

    def __init__(self, role: str, content: str = "",
                 tool_call_id: str | None = None,
                 tool_calls: list[ToolCallRequest] | None = None):
        self.__dict__.update(
            role=role, content=content,
            tool_call_id=tool_call_id,  # Tool role only
            tool_calls=[] if tool_calls is None else tool_calls)

    def _fields(self) -> tuple:
        # wire_json, cached beside the fields, is not one of them.
        return (self.role, self.content, self.tool_call_id, self.tool_calls)

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


class ToolDef:
    """A callable the model may invoke; all parameters are text.
    Immutable, like ``ChatMessage``, so that its encoding is computed
    once."""

    __setattr__ = __delattr__ = refuse_change

    def __init__(self, name: str, description: str,
                 parameters: list[tuple[str, str]]):
        # parameters: (param name, param description)
        self.__dict__.update(name=name, description=description,
                             parameters=parameters)

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


def _validate_tool_call(call: ToolCallRequest, tools: list[ToolDef]) -> None:
    spec = next((t for t in tools if t.name == call.name), None)
    if spec is None:
        raise LlmError(f"unknown tool {call.name!r}")
    if not isinstance(call.arguments, dict):
        raise LlmError(f"{call.name}: arguments are not an object")
    for name, _ in spec.parameters:
        if name not in call.arguments:
            raise LlmError(f"{call.name}: missing argument {name!r}")
        value = call.arguments[name]
        if not isinstance(value, str):
            raise LlmError(f"{call.name}: argument {name!r} is not text")
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            # A lone surrogate, from a JSON \ud800 escape: no output could
            # show it, so the message quotes it escaped.
            raise LlmError(f"{call.name}: argument {name!r} is not UTF-8 "
                           f"text: {ascii(value)}") from None


# --------------------------------------------------------------------------
# HTTP backend
# --------------------------------------------------------------------------

TIMEOUT_S = 120.0  # for the connect and for each read
RETRY_CAP = 3      # retries after a throttle or a failed connection
_MAX_LINE = 65536  # longest status, header or chunk-size line accepted
_BLOCK = 65536     # most bytes of a body taken in one read


#: RFC 3986's IPv6address, H standing for h16 and L for ls32.
_IPV6 = (r"(?:(?:H:){6}|::(?:H:){5}|(?:H)?::(?:H:){4}|(?:(?:H:)?H)?::(?:H:){3}"
         r"|(?:(?:H:){0,2}H)?::(?:H:){2}|(?:(?:H:){0,3}H)?::H:"
         r"|(?:(?:H:){0,4}H)?::)L|(?:(?:H:){0,5}H)?::H|(?:(?:H:){0,6}H)?::"
         ).replace("L", r"(?:H:H|(?:D\.){3}D)").replace(
    "D", "(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])").replace(
    "H", "[0-9a-fA-F]{1,4}")
#: The base URLs HttpBackend takes: http: or https:, a host after any user
#: info, in brackets an IPv6 address, a port up to 65535, path and query.
_BASE_URL = re.compile(
    r"(?P<scheme>(?i:https?))://(?:[^][/?#]*@)?"
    rf"(?:(?P<name>[^][:/?#@]+)|\[(?P<ipv6>{_IPV6})(?P<zone>%[^]%/?#@]+)?\])"
    r"(?::0*(?P<port>[0-9]{1,4}|[1-5][0-9]{4}|6[0-4][0-9]{3}|65[0-4][0-9]{2}"
    r"|655[0-2][0-9]|6553[0-5])?)?(?P<path>/[^?#]*)?(?:\?(?P<query>[^#]*))?"
    r"(?:#.*)?")


def _env(name: str) -> str:
    """An environment variable as urllib read it: lower case first."""
    return os.environ.get(name, os.environ.get(name.upper(), ""))


def _proxy_setting(scheme: str) -> tuple[str, str]:
    """The variable that names the proxy for scheme, as urllib read it,
    lower case first, and its URL, with ``http://`` put before one that
    names no scheme; the URL is "" when the variable is unset or empty."""
    name = f"{scheme}_proxy"
    if name not in os.environ:
        name = name.upper()
    proxy = os.environ.get(name, "")
    return name, proxy if not proxy or "://" in proxy else "http://" + proxy


def _bypasses_proxy(authority: str, no_proxy: str) -> bool:
    """Whether ``no_proxy`` names the host, as urllib matched it: ``*``, or
    an entry equal to the host, with or without its port, or a domain
    suffix of it."""
    if no_proxy == "*":
        return True
    host = authority.lower()
    name, sep, port = host.rpartition(":")
    bare = name if sep and port.isdigit() else host
    for entry in no_proxy.split(","):
        entry = entry.strip().lstrip(".").lower()
        if entry and (entry in (host, bare) or host.endswith("." + entry)
                      or bare.endswith("." + entry)):
            return True
    return False


def _proxy(scheme: str, authority: str):
    """``(address, Proxy-Authorization header line)`` of the proxy that
    ``<scheme>_proxy`` names for the host, or None."""
    from urllib.parse import unquote, urlsplit
    proxy = _proxy_setting(scheme)[1]
    if not proxy or _bypasses_proxy(authority, _env("no_proxy")):
        return None
    url = urlsplit(proxy)
    port = url.port or (443 if url.scheme == "https" else 80)
    auth = ""
    if url.username and url.password:
        import binascii
        pair = f"{unquote(url.username)}:{unquote(url.password)}".encode()
        auth = ("Proxy-Authorization: Basic "
                + binascii.b2a_base64(pair, newline=False).decode() + "\r\n")
    return (url.hostname, port), auth


def _checked(line: bytes) -> bytes:
    if len(line) > _MAX_LINE:
        raise ValueError("response line too long")
    if not line.endswith(b"\n"):
        raise ConnectionError("response cut off" if line else "no response")
    return line


def _readline(file) -> bytes:
    return _checked(file.readline(_MAX_LINE + 1))


def _read_head(file, line: bytes) -> tuple[bytes, int, dict[str, str]]:
    """Version, status and headers of the final response whose status line
    is ``line``; 1xx responses are skipped.  Header names are lower case,
    and repeated headers are joined with commas."""
    while True:
        version, _, rest = _checked(line).partition(b" ")
        if not version.startswith(b"HTTP/") or not rest[:3].isdigit():
            raise ValueError(f"not an HTTP response: {line[:80]!r}")
        code = int(rest[:3])
        headers: dict[str, str] = {}
        while (line := _readline(file)) not in (b"\r\n", b"\n"):
            name, _, value = line.decode("latin-1").partition(":")
            name, value = name.strip().lower(), value.strip()
            headers[name] = (f"{headers[name]}, {value}" if name in headers
                             else value)
        if code >= 200:
            return version, code, headers
        line = file.readline(_MAX_LINE + 1)


def _exactly(file, size: int) -> Iterator[bytes]:
    """The next ``size`` bytes of ``file``, in blocks as they arrive."""
    while size > 0:
        block = file.read1(min(size, _BLOCK))
        if not block:
            raise ConnectionError(f"stream cut with {size} bytes to come")
        size -= len(block)
        yield block


def _lines(blocks: Iterator[bytes]) -> Iterator[str]:
    """The body's lines, without their newlines, decoded as UTF-8; a line
    may span blocks.  A read that fails part-way becomes an LlmError,
    which ends the chat turn only."""
    pieces: list[bytes] = []
    try:
        for block in blocks:
            for raw in split_lines(block, pieces):
                yield raw.decode("utf-8")
        if pieces:
            yield b"".join(pieces).decode("utf-8")
    except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise LlmError(f"stream read failed: {exc!r}") from exc


class HttpBackend:
    """Streams chat completions from an HTTP provider over HTTP/1.1.

    One connection is kept and reused while the provider allows it: after
    a response read to its end that did not say ``Connection: close``.  A
    kept connection that turns out closed before the first byte of the
    answer is reopened once, which is not counted as a retry.  Any error,
    a stream cut part-way or a stream left unfinished drops it.  For
    ``https:`` URLs one TLS context, verifying against the system CA store,
    is built here, so the debugger's boot hides its cost.  ``https_proxy``,
    ``http_proxy`` and ``no_proxy`` are honoured as urllib honoured them;
    redirects are not followed.  ``base_url`` must match ``_BASE_URL``, as
    the CLI checks --base-url before the spawn; requests go to its path with
    ``/chat/completions`` joined on, its query after that, and a fragment is
    not sent.  Every request carries ``key`` as its bearer token; the
    request head is encoded once, here, so a key that Latin-1 cannot
    encode fails before any request, never in one.
    """

    def __init__(self, base_url: str, model: str, key: str):
        # Load the socket module now rather than in the first chat turn.
        import socket  # noqa: F401
        self.base_url = base_url
        self.model = model
        url = _BASE_URL.fullmatch(base_url)
        if url is None:
            raise ValueError(f"not an http: or https: URL: {base_url!r}")
        self._tls = None
        if url["scheme"].lower() == "https":
            import ssl
            self._tls = ssl.create_default_context()
        self._host = (url["name"] or url["ipv6"]).lower() + (url["zone"] or "")
        default_port = 443 if self._tls else 80
        port = int(url["port"] or 0) or default_port
        host = f"[{self._host}]" if url["ipv6"] else self._host
        authority = host if port == default_port else f"{host}:{port}"
        target = ((url["path"] or "").rstrip("/") + "/chat/completions"
                  + (f"?{url['query']}" if url["query"] else ""))
        proxy = _proxy("https" if self._tls else "http", authority)
        self._address = (self._host, port)
        self._tunnel = b""
        auth = ""
        if proxy is not None and self._tls:
            self._address, tunnel_auth = proxy
            self._tunnel = (f"CONNECT {host}:{port} HTTP/1.1\r\n"
                            f"Host: {host}:{port}\r\n{tunnel_auth}\r\n"
                            ).encode("latin-1")
        elif proxy is not None:
            self._address, auth = proxy
            target = f"http://{authority}{target}"
        self._head = (f"POST {target} HTTP/1.1\r\nHost: {authority}\r\n"
                      f"{auth}Content-Type: application/json\r\n"
                      "Accept-Encoding: identity\r\n"
                      f"Authorization: Bearer {key}\r\n").encode("latin-1")
        self._sock = None
        self._file = None

    def describe(self) -> dict:
        return {"backend": "http", "base_url": self.base_url,
                "model": self.model}

    def close(self) -> None:
        """Close the kept connection, if there is one."""
        if self._sock is not None:
            self._file.close()
            self._sock.close()
            self._sock = self._file = None

    def complete(self, messages: list[ChatMessage], tools: list[ToolDef]
                 ) -> Iterator[str | ToolCallRequest]:
        """Stream the model's answer: each piece of prose as it arrives,
        then each tool call, validated, once the stream has ended."""
        # Byte for byte what json.dumps gives for the same dict, with its
        # default separators and ensure_ascii.
        body = ('{"model": ' + json.dumps(self.model)
                + ', "messages": [' + ", ".join(m.wire_json for m in messages)
                + '], "stream": true')
        if tools:
            body += ', "tools": [' + ", ".join(t.wire_json for t in tools) + "]"
        body += "}"

        blocks = self._post_with_retry(body.encode("utf-8"))
        lines = _lines(blocks)
        try:
            yield from self._stream_events(lines, tools)
            # What follows [DONE] ends the body; reading it frees the
            # connection for the next request, and a cut there loses nothing.
            with suppress(LlmError):
                for _ in lines:
                    pass
        finally:
            blocks.close()

    def _connect(self) -> None:
        import socket
        sock = socket.create_connection(self._address, timeout=TIMEOUT_S)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tunnel:
                sock.sendall(self._tunnel)
                with sock.makefile("rb") as reply:
                    _, code, _ = _read_head(reply, _readline(reply))
                if code != 200:
                    raise ConnectionError(
                        f"proxy refused the tunnel: HTTP {code}")
            if self._tls is not None:
                sock = self._tls.wrap_socket(sock, server_hostname=self._host)
        except BaseException:
            sock.close()
            raise
        self._sock, self._file = sock, sock.makefile("rb")

    def _send(self, request: bytes) -> tuple[bytes, int, dict[str, str]]:
        """Send the request and read the head of its answer, on the kept
        connection if there is one, else on a new one."""
        if self._sock is not None:
            try:
                self._sock.sendall(request)
                line = self._file.readline(_MAX_LINE + 1)
            except (BrokenPipeError, ConnectionResetError):
                line = b""
            if line:
                return _read_head(self._file, line)
            self.close()  # the provider closed it while it sat idle
        self._connect()
        self._sock.sendall(request)
        return _read_head(self._file, self._file.readline(_MAX_LINE + 1))

    def _body(self, version: bytes, status: int,
              headers: dict[str, str]) -> Iterator[bytes]:
        """The response body in blocks as they arrive: chunked, by
        Content-Length, or up to the close.  The connection is kept only
        once the body is read to its end and neither side asked to close."""
        chunked = "chunked" in headers.get("transfer-encoding", "").lower()
        length = headers.get("content-length")
        keep = (version == b"HTTP/1.1" and (chunked or length is not None)
                and "close" not in headers.get("connection", "").lower())
        file = self._file
        done = False
        try:
            if status in (204, 304):
                pass
            elif chunked:
                while size := int(_readline(file).split(b";", 1)[0], 16):
                    yield from _exactly(file, size)
                    _readline(file)
                while _readline(file) not in (b"\r\n", b"\n"):  # trailers
                    pass
            elif length is not None:
                yield from _exactly(file, int(length))
            else:
                while block := file.read1(_BLOCK):
                    yield block
            done = True
        finally:
            if not (done and keep):
                self.close()

    def _post_with_retry(self, body: bytes) -> Iterator[bytes]:
        """Post the body and yield the answer's body.  A 429 is retried
        after its Retry-After and a failed connection after a back-off, up
        to RETRY_CAP times in all; any other status of 300 or above fails."""
        request = (self._head + b"Content-Length: %d\r\n\r\n" % len(body)
                   + body)
        attempt = 0
        while True:
            try:
                version, status, headers = self._send(request)
            except (OSError, ValueError) as exc:
                self.close()
                attempt += 1
                if attempt > RETRY_CAP:
                    raise LlmError(str(exc)) from exc
                time.sleep(min(2.0, 0.2 * attempt))
                continue
            except BaseException:  # Ctrl-C while the answer is awaited
                self.close()
                raise
            if status < 300:
                break
            try:
                detail = b"".join(self._body(version, status, headers)
                                  ).decode("utf-8", "replace")
            except (OSError, ValueError):
                detail = ""
            header = headers.get("retry-after")
            try:
                retry_after = float(header) if header else None
            except ValueError:
                retry_after = None
            if status == 429 and attempt < RETRY_CAP:
                attempt += 1
                time.sleep(retry_after if retry_after is not None else 1.0)
                continue
            self.close()
            if status == 401:
                raise LlmError("provider rejected the API key")
            if status != 429:
                raise LlmError(f"HTTP {status}: {detail[:400]}")
            raise LlmError("provider throttled the request")
        yield from self._body(version, status, headers)

    def _stream_events(self, lines: Iterator[str], tools: list[ToolDef]
                       ) -> Iterator[str | ToolCallRequest]:
        partial: dict[int, dict] = {}
        for line in lines:
            if not line.startswith("data:"):
                continue
            data = line[len("data:"):].strip()
            if data == "[DONE]":
                break
            try:
                chunk = json.loads(data)
            except json.JSONDecodeError as exc:
                raise LlmError(f"bad stream chunk: {data[:200]}") from exc
            delta = (chunk.get("choices") or [{}])[0].get("delta") or {}
            if delta.get("content"):
                yield delta["content"]
            for piece in delta.get("tool_calls") or []:
                slot = partial.setdefault(piece.get("index", 0),
                                          {"id": "", "name": "", "args": ""})
                if piece.get("id"):
                    slot["id"] = piece["id"]
                fn = piece.get("function") or {}
                slot["name"] += fn.get("name") or ""
                slot["args"] += fn.get("arguments") or ""
        for index in sorted(partial):
            slot = partial[index]
            try:
                arguments = json.loads(slot["args"] or "{}")
            except json.JSONDecodeError as exc:
                raise LlmError(
                    f"{slot['name']}: undecodable arguments "
                    f"{slot['args'][:200]!r}") from exc
            call = ToolCallRequest(id=slot["id"] or f"call_{index}",
                                   name=slot["name"], arguments=arguments)
            _validate_tool_call(call, tools)
            yield call


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
            raise LlmError(f"{script_path}: {exc}") from exc
        if not isinstance(script, dict) or script.get("version") != SCRIPT_VERSION:
            raise LlmError(f"{script_path}: expected version {SCRIPT_VERSION}")
        turns = script.get("turns")
        if not isinstance(turns, list):
            raise LlmError(f"{script_path}: turns must be a list")
        for i, turn in enumerate(turns):
            if not isinstance(turn, list):
                raise LlmError(f"{script_path}: turn {i} not a list")
            for item in turn:
                if not isinstance(item, dict) or not (
                        isinstance(item["text"], str) if "text" in item
                        else "tool_call" in item):
                    raise LlmError(
                        f"{script_path}: turn {i} has a bad item: {item!r}")
        self.turns: list[list[dict]] = turns
        self.turn_index = 0

    def describe(self) -> dict:
        return {"backend": "script", "script": os.path.basename(self.path),
                "turns": len(self.turns)}

    def complete(self, messages: list[ChatMessage], tools: list[ToolDef]
                 ) -> Iterator[str | ToolCallRequest]:
        """Yield the next turn's items in order: each text as a ``str``,
        each tool call, validated, as a ``ToolCallRequest``."""
        if self.turn_index >= len(self.turns):
            raise LlmError(f"script has only {len(self.turns)} turn(s)")
        index = self.turn_index
        self.turn_index += 1
        for i, item in enumerate(self.turns[index]):
            if "text" in item:
                yield item["text"]
                continue
            spec = item["tool_call"]
            call = ToolCallRequest(id=f"call_{index}_{i}",
                                   name=spec.get("name", ""),
                                   arguments=spec.get("arguments", {}))
            _validate_tool_call(call, tools)
            yield call
