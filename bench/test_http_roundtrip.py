"""One chat request of a long chat, sent over loopback HTTP and HTTPS.

Run with ``PYTHONPATH=src python -m pytest bench -q``.  Each round is one
``HttpBackend.complete`` call with a 46 kB body, a long-chat follow-up
(``test_request_body.session``), that streams back a long-chat-shaped
answer: prose, one tool call split across chunks, ``[DONE]``.  One backend
serves every round of a case, as one serves a whole session.  Cases:

- ``http``: a keep-alive HTTP/1.1 server on loopback.
- ``https``: the same server behind TLS, with a throwaway certificate
  that the installed ``openssl`` makes here; skipped without it.
  ``SSL_CERT_FILE`` names the system CA bundle with that certificate
  appended, so that a client context loads a real store.

The server runs on a thread of this process.  Only ``HttpBackend``'s
constructor and ``complete`` are used, so the file runs unchanged on
older trees.  ``extra_info`` holds the body size.  Nothing here asserts
on timing.
"""

from __future__ import annotations

import json
import socket
import ssl
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from dbgchat.agent import TOOLS
from dbgchat.llm import HttpBackend
from test_request_body import MODEL, session

sys.path.insert(0, str(Path(__file__).parent.parent / "tests"))
from conftest import make_certificate  # noqa: E402

BODY_BYTES = 46_000


def request_messages():
    """The shortest prefix of the session whose body is at least 46 kB."""
    messages, cuts = session()
    tools = [t.to_wire() for t in TOOLS]
    for n in cuts:
        body = json.dumps({"model": MODEL,
                           "messages": [m.to_wire() for m in messages[:n]],
                           "stream": True, "tools": tools})
        if len(body) >= BODY_BYTES:
            return messages[:n], len(body)
    raise AssertionError("the session is too short")


def answer() -> bytes:
    """A chunked event stream, one chunk per event."""
    events = [{"choices": [{"delta": {"content": f"Point {i}: the slot read "
                                                 "on ledger.c:52 is empty. "}}]}
              for i in range(6)]
    args = json.dumps({"command": "x/32xb buf"})
    events.append({"choices": [{"delta": {"tool_calls": [{
        "index": 0, "id": "call_0", "type": "function",
        "function": {"name": "debug", "arguments": args[:12]}}]}}]})
    events.append({"choices": [{"delta": {"tool_calls": [{
        "index": 0, "function": {"arguments": args[12:]}}]}}]})
    events.append({"choices": [{"delta": {}, "finish_reason": "tool_calls"}]})
    data = [f"data: {json.dumps(e)}\n\n".encode() for e in events]
    data.append(b"data: [DONE]\n\n")
    return b"".join(b"%x\r\n%s\r\n" % (len(d), d) for d in data) + b"0\r\n\r\n"


ANSWER = answer()


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.wfile.write(b"HTTP/1.1 200 OK\r\n"
                         b"Content-Type: text/event-stream\r\n"
                         b"Transfer-Encoding: chunked\r\n\r\n" + ANSWER)

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def servers(tmp_path_factory):
    """{scheme: server}, with SSL_CERT_FILE set while they run."""
    made = make_certificate(tmp_path_factory.mktemp("tls"))
    plain = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    running = {"http": plain}
    with pytest.MonkeyPatch.context() as mp:
        if made is not None:
            cert, key = made
            paths = ssl.get_default_verify_paths()
            system = Path(paths.cafile or paths.openssl_cafile)
            bundle = cert.parent / "bundle.pem"
            bundle.write_bytes((system.read_bytes() if system.is_file()
                                else b"") + cert.read_bytes())
            mp.setenv("SSL_CERT_FILE", str(bundle))
            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(cert, key)
            tls = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
            tls.socket = context.wrap_socket(tls.socket, server_side=True)
            running["https"] = tls
        for server in running.values():
            threading.Thread(target=server.serve_forever, daemon=True).start()
        yield running
        for server in running.values():
            server.shutdown()
            server.server_close()


@pytest.mark.parametrize("scheme", ["http", "https"])
def test_chat_request(benchmark, servers, scheme):
    if scheme not in servers:
        pytest.skip("openssl is required to make the certificate")
    host = "localhost" if scheme == "https" else "127.0.0.1"
    port = servers[scheme].server_address[1]
    backend = HttpBackend(f"{scheme}://{host}:{port}/v1", MODEL, "sk-bench")
    messages, size = request_messages()

    def request():
        return [e.kind for e in backend.complete(messages, TOOLS)]

    kinds = benchmark.pedantic(request, rounds=40, warmup_rounds=2)
    assert kinds == ["text"] * 6 + ["tool_call", "done"]
    benchmark.extra_info["body_bytes"] = size
    close = getattr(backend, "close", None)  # older trees have none
    if close is not None:
        close()
