"""A loopback chat-completions server that streams scripted turns.

It serves ``POST /v1/chat/completions`` with the server-sent-event shape
that ``dbgchat.llm.HttpBackend`` parses: text in ``delta.content`` pieces,
tool calls as ``delta.tool_calls`` pieces whose arguments are split across
chunks, then ``finish_reason`` and ``data: [DONE]``.  Every response is
written at once; the stand-in never makes the client wait.

Control runs over this process's stdin and stdout, one JSON object a line:

    -> {"op": "load", "completions": [...], "reorder": false}
    <- {"ok": true}
    -> {"op": "take"}
    <- {"requests": [...]}      one record per request, then reset
    -> {"op": "quit"}

Completion k of the loaded script answers request k.  A completion is a
list of items, ``{"text": "..."}`` or ``{"tool": name, "args": {...}}``.
For each request the stand-in records when its body was complete, when the
answer was written, the body size, the messages after the last assistant
message, and the result of its own tool-pairing check.  ``reorder`` swaps
two tool replies before the check; the benchmark's tests use it to show
that the check catches a reordering.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

PIECE = 24  # characters of text or arguments per streamed chunk


def pairing_error(messages: list[dict]) -> str:
    """Every tool call is answered once, in order, before any other message."""
    pending: list[str] = []
    for i, msg in enumerate(messages):
        role = msg.get("role")
        if role == "tool":
            if not pending:
                return f"message {i}: tool reply with no call pending"
            if msg.get("tool_call_id") != pending[0]:
                return (f"message {i}: reply to {msg.get('tool_call_id')!r}, "
                        f"expected {pending[0]!r}")
            pending.pop(0)
            continue
        if pending:
            return f"message {i}: {role} message before replies to {pending}"
        if role == "assistant":
            pending = [c["id"] for c in msg.get("tool_calls") or []]
    if pending:
        return f"request ends with unanswered calls {pending}"
    return ""


def sse(payload) -> bytes:
    data = payload if isinstance(payload, str) else json.dumps(payload)
    return f"data: {data}\n\n".encode("utf-8")


def pieces(text: str) -> list[str]:
    return [text[i:i + PIECE] for i in range(0, len(text), PIECE)] or [""]


def stream_events(completion: list[dict], request_index: int) -> list[bytes]:
    """The server-sent events that answer one request."""
    events = []
    tool_index = 0
    for item in completion:
        if "text" in item:
            for piece in pieces(item["text"]):
                events.append({"choices": [{"index": 0,
                                            "delta": {"content": piece}}]})
            continue
        args = json.dumps(item["args"])
        call_id = f"call_{request_index}_{tool_index}"
        first, *rest = pieces(args)
        events.append({"choices": [{"index": 0, "delta": {"tool_calls": [{
            "index": tool_index, "id": call_id, "type": "function",
            "function": {"name": item["tool"], "arguments": first}}]}}]})
        for piece in rest:
            events.append({"choices": [{"index": 0, "delta": {"tool_calls": [{
                "index": tool_index, "function": {"arguments": piece}}]}}]})
        tool_index += 1
    finish = "tool_calls" if tool_index else "stop"
    events.append({"choices": [{"index": 0, "delta": {},
                                "finish_reason": finish}]})
    return [sse(e) for e in events] + [sse("[DONE]")]


def chunked(events: list[bytes]) -> bytes:
    """HTTP/1.1 chunked framing, one chunk per event."""
    return b"".join(b"%x\r\n%s\r\n" % (len(e), e) for e in events) + b"0\r\n\r\n"


class Script:
    def __init__(self):
        self.lock = threading.Lock()
        self.completions: list[list[dict]] = []
        self.reorder = False
        self.records: list[dict] = []

    def load(self, completions, reorder=False):
        with self.lock:
            self.completions = completions
            self.reorder = reorder
            self.records = []

    def take(self) -> list[dict]:
        with self.lock:
            records, self.records = self.records, []
            self.completions = []
            return records


def tail_of(messages: list[dict]) -> list[dict]:
    last = max((i for i, m in enumerate(messages) if m.get("role") == "assistant"),
               default=-1)
    return messages[last + 1:]


def make_handler(script: Script):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self):
            super().setup()
            self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

        def log_message(self, *args):
            pass

        def do_POST(self):
            raw = self.rfile.read(int(self.headers.get("Content-Length", "0")))
            arrived = time.perf_counter()
            try:
                body = json.loads(raw)
                messages = body["messages"]
            except (ValueError, KeyError):
                self.send_error(400, "bad request body")
                return
            record = {"arrived": arrived, "bytes": len(raw), "path": self.path}
            with script.lock:
                index = len(script.records)
                script.records.append(record)
                completion = (script.completions[index]
                              if index < len(script.completions) else None)
                reorder = script.reorder
            if reorder:
                tools = [i for i, m in enumerate(messages) if m.get("role") == "tool"]
                for a, b in zip(tools, tools[1:]):
                    if b == a + 1:
                        messages[a], messages[b] = messages[b], messages[a]
                        break
            record.update(tail=tail_of(messages), messages=len(messages),
                          pairing=pairing_error(messages))
            if completion is None:
                record["error"] = "no scripted completion left"
                payload = b'{"error": "script exhausted"}'
                self.send_response(500)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.send_header("Connection", "close")
                self.end_headers()
                self.wfile.write(payload)
            else:
                head = (b"HTTP/1.1 200 OK\r\n"
                        b"Content-Type: text/event-stream\r\n"
                        b"Transfer-Encoding: chunked\r\n"
                        b"Connection: close\r\n\r\n")
                self.wfile.write(head + chunked(stream_events(completion, index)))
                self.wfile.flush()
            self.close_connection = True
            record["ended"] = time.perf_counter()

    return Handler


def main() -> int:
    script = Script()
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(script))
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    out = sys.stdout
    out.write(json.dumps({"port": server.server_address[1]}) + "\n")
    out.flush()
    try:
        for line in sys.stdin:
            msg = json.loads(line)
            if msg["op"] == "load":
                script.load(msg["completions"], msg.get("reorder", False))
                reply = {"ok": True}
            elif msg["op"] == "take":
                reply = {"requests": script.take()}
            elif msg["op"] == "quit":
                break
            else:
                reply = {"error": f"unknown op {msg['op']!r}"}
            out.write(json.dumps(reply) + "\n")
            out.flush()
    finally:
        server.shutdown()
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
