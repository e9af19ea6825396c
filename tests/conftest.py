"""Shared fixtures: compile the C crashers once per session; a fake session."""

from __future__ import annotations

import json
import select
import shutil
import socket
import ssl
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from dbgchat.mi import DriverConfig
from dbgchat.session import DEFAULT_FRAME_CAP, DEPTH_PROBE_CAP, Binding

FIXTURES = Path(__file__).parent / "fixtures"
FAKE_GDB = Path(__file__).parent / "fake_gdb.py"
BUILD = FIXTURES / "build"

CRASHERS = ["crash_segv", "crash_assert", "crash_fpe", "recurse", "libframe"]

CFLAGS = ["-g", "-O0", "-fno-omit-frame-pointer"]


def _build_all() -> None:
    BUILD.mkdir(exist_ok=True)
    for name in CRASHERS:
        src = FIXTURES / f"{name}.c"
        out = BUILD / name
        if out.exists() and out.stat().st_mtime >= src.stat().st_mtime:
            continue
        subprocess.run(
            ["gcc", *CFLAGS, src.name, "-o", str(out)],
            cwd=FIXTURES, check=True,
        )
    proj = FIXTURES / "defproj"
    out = BUILD / "defproj"
    sources = [proj / "main.c", proj / "util.c"]
    if not out.exists() or any(s.stat().st_mtime > out.stat().st_mtime
                               for s in sources + [proj / "util.h"]):
        subprocess.run(
            ["gcc", *CFLAGS, "main.c", "util.c", "-o", str(out)],
            cwd=proj, check=True,
        )


@pytest.fixture(scope="session")
def fixture_bins() -> dict[str, Path]:
    """Map of fixture name to compiled executable path."""
    if shutil.which("gcc") is None or shutil.which("gdb") is None:
        pytest.skip("gcc and gdb are required for debugger fixtures")
    _build_all()
    bins = {name: BUILD / name for name in CRASHERS}
    bins["defproj"] = BUILD / "defproj"
    return bins


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


# -- a scripted MI child in gdb's place -------------------------------------

@pytest.fixture()
def fake_gdb(tmp_path):
    """``script(commands, **fields) -> (target, DriverConfig)``.

    Handing both to ``spawn_debugger`` or ``DebugSession`` starts
    ``tests/fake_gdb.py`` in gdb's place, answering from ``commands``;
    ``fields`` go into the script as well (``log``, ``boot``).
    """
    debugger = tmp_path / "gdb"
    debugger.write_text(
        f'#!/bin/sh\nexec "{sys.executable}" "{FAKE_GDB}" "$@"\n')
    debugger.chmod(0o755)

    def script(commands, **fields):
        target = tmp_path / "script.json"
        target.write_text(json.dumps({"commands": commands, **fields}))
        return str(target), DriverConfig(debugger=str(debugger))
    return script


class FakeSession:
    """Duck-typed stand-in for DebugSession; no debugger runs.

    Console commands are recorded and answered from ``outputs`` (an
    exception there is raised).  ``frames``, innermost first, make the
    target stopped; a frame's variables are ``variables[level]``, by
    default one ``x`` holding its level, and every file has one global
    ``g = 7``.  ``total`` counts frames beyond the list as well; like a
    session's stack snapshot, depth is counted up to ``DEPTH_PROBE_CAP``
    and at most ``DEFAULT_FRAME_CAP`` frames are listed.  ``symbols`` maps
    a name to the ``(fullname, line)`` of its definition in the debug
    info.  ``calls`` records each ``frame_variables``, ``evaluate`` and
    ``global_variables`` call as ``(method, frame level)``.
    """

    def __init__(self, outputs=None, frames=(), total=None, stop=None,
                 symbols=None, variables=None):
        self.commands = []
        self.calls = []
        self.outputs = dict(outputs or {})
        self.frames = list(frames)
        self.total = total if total is not None else len(self.frames)
        self.stopped = bool(self.frames)
        self.stop = stop
        self.symbols = dict(symbols or {})
        self.variables = dict(variables or {})

    def execute_console(self, command):
        self.commands.append(command)
        result = self.outputs.get(command, f"ran {command}")
        if isinstance(result, Exception):
            raise result
        return result

    def symbol_definition(self, name):
        return self.symbols.get(name)

    def stack_depth(self):
        return min(self.total, DEPTH_PROBE_CAP)

    def backtrace(self):
        return self.frames[:DEFAULT_FRAME_CAP]

    def frame_variables(self, level):
        self.calls.append(("frame_variables", level))
        return self.variables.get(
            level, [Binding(name="x", value=str(level), type="int")])

    def global_variables(self, fullname, frame):
        self.calls.append(("global_variables", frame))
        return [Binding(name="g", value="7", type="int")]

    def evaluate(self, expression, frame=None):
        self.calls.append(("evaluate", frame))
        return "0"

    def levels(self, method):
        """The frame levels of each recorded call to ``method``."""
        return [level for name, level in self.calls if name == method]


# -- a stub chat-completions provider ---------------------------------------

def sse(*chunks, ensure_ascii=True):
    """A server-sent-event body: one ``data:`` line per chunk, then [DONE]."""
    lines = []
    for chunk in chunks:
        lines.append("data: " + json.dumps(chunk, ensure_ascii=ensure_ascii))
        lines.append("")
    lines.extend(["data: [DONE]", ""])
    return "\n".join(lines)


_FIRST_EVENT = b'data: {"choices": [{"delta": {"content": "Hel"}}]}\n\n'

# A chunked 200 that delivers one event, then 12 of the 64 bytes its second
# chunk promises, then closes.
CUT_STREAM = (b"HTTP/1.1 200 OK\r\n"
              b"Content-Type: text/event-stream\r\n"
              b"Transfer-Encoding: chunked\r\n\r\n"
              + b"%x\r\n" % len(_FIRST_EVENT) + _FIRST_EVENT + b"\r\n"
              + b'40\r\ndata: {"choi')


class _ProviderHandler(BaseHTTPRequestHandler):
    """Answers each POST with the next ``(status, body)`` of the server's
    ``responses``, over HTTP/1.1 with a Content-Length.  A status of None
    sends ``body`` as the raw response and closes the connection; ``"raw"``
    sends it and keeps the connection open.  The server's ``closing`` is
    ``""`` to keep connections open, ``"announced"`` to send
    ``Connection: close`` and close, and ``"silent"`` to close without
    saying so.  Each request's client port goes to ``ports_seen``, so
    requests that share a connection share a port."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        self.server.requests_seen.append(json.loads(self.rfile.read(length)))
        self.server.auth_seen.append(self.headers.get("Authorization"))
        self.server.ports_seen.append(self.client_address[1])
        status, body = self.server.responses.pop(0)
        payload = body if isinstance(body, bytes) else body.encode()
        if status in (None, "raw"):
            self.wfile.write(payload)
            self.close_connection = status is None
            return
        self.send_response(status)
        for name, value in self.server.extra_headers.items():
            self.send_header(name, value)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Content-Length", str(len(payload)))
        if self.server.closing == "announced":
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)
        if self.server.closing:
            self.close_connection = True

    def log_message(self, *args):
        pass


def start_provider(tls=None) -> ThreadingHTTPServer:
    """A stub provider on a loopback port, served from a thread; ``tls``,
    a server-side SSLContext, makes it speak HTTPS."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ProviderHandler)
    if tls is not None:
        server.socket = tls.wrap_socket(server.socket, server_side=True)
    server.responses = []
    server.extra_headers = {}
    server.closing = ""
    server.requests_seen = []
    server.auth_seen = []
    server.ports_seen = []
    threading.Thread(target=server.serve_forever,
                     kwargs={"poll_interval": 0.05}, daemon=True).start()
    return server


def stop_provider(server: ThreadingHTTPServer) -> None:
    server.shutdown()
    server.server_close()


@pytest.fixture()
def stub_server():
    server = start_provider()
    yield server
    stop_provider(server)


def make_certificate(directory: Path) -> tuple[Path, Path] | None:
    """A throwaway self-signed certificate for localhost and 127.0.0.1,
    made by the installed ``openssl``: (certificate, key), or None if there
    is no ``openssl``."""
    if shutil.which("openssl") is None:
        return None
    cert, key = directory / "cert.pem", directory / "key.pem"
    subprocess.run(
        ["openssl", "req", "-x509", "-newkey", "ec",
         "-pkeyopt", "ec_paramgen_curve:prime256v1", "-nodes", "-days", "1",
         "-subj", "/CN=localhost",
         "-addext", "subjectAltName=DNS:localhost,IP:127.0.0.1",
         "-keyout", str(key), "-out", str(cert)],
        check=True, capture_output=True)
    return cert, key


@pytest.fixture(scope="session")
def certificate(tmp_path_factory) -> tuple[Path, Path]:
    made = make_certificate(tmp_path_factory.mktemp("tls"))
    if made is None:
        pytest.skip("openssl is required to make a test certificate")
    return made


@pytest.fixture()
def tls_stub_server(certificate, monkeypatch):
    """``stub_server`` over TLS, with ``SSL_CERT_FILE`` naming its
    certificate, so that a client's default context trusts it alone."""
    cert, key = certificate
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert, key)
    monkeypatch.setenv("SSL_CERT_FILE", str(cert))
    server = start_provider(context)
    yield server
    stop_provider(server)


class _Proxy:
    """A forwarding proxy on a loopback port.  ``CONNECT host:port`` opens
    a tunnel; a request with an absolute URL is passed on as it came.  The
    request line and headers of each first request go to ``heads``."""

    def __init__(self):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.heads: list[tuple[str, dict[str, str]]] = []
        self.threads: list[threading.Thread] = []
        accept = threading.Thread(target=self._accept, daemon=True)
        accept.start()

    def _accept(self):
        while True:
            try:
                client, _ = self.listener.accept()
            except OSError:  # closed
                return
            thread = threading.Thread(target=self._serve, args=(client,),
                                      daemon=True)
            self.threads.append(thread)
            thread.start()

    def _serve(self, client):
        with client:
            head = b""
            while b"\r\n\r\n" not in head:
                data = client.recv(65536)
                if not data:
                    return
                head += data
            text = head.partition(b"\r\n\r\n")[0]
            first, *lines = text.decode("latin-1").split("\r\n")
            headers = dict(line.split(": ", 1) for line in lines)
            self.heads.append((first, headers))
            method, target, _ = first.split(" ")
            if method == "CONNECT":
                host, port = target.rsplit(":", 1)
                client.sendall(b"HTTP/1.1 200 Connection established\r\n\r\n")
                forward = b""
            else:
                host, port = target.split("/")[2].rsplit(":", 1)
                forward = head
            with socket.create_connection((host, int(port))) as upstream:
                upstream.sendall(forward)
                self._relay(client, upstream)

    @staticmethod
    def _relay(a, b):
        peers = {a: b, b: a}
        while True:
            readable, _, _ = select.select(list(peers), [], [], 5)
            for sock in readable:
                data = sock.recv(65536)
                if not data:
                    return
                peers[sock].sendall(data)

    def close(self):
        self.listener.close()
        for thread in self.threads:
            thread.join(5)


@pytest.fixture()
def proxy():
    server = _Proxy()
    yield server
    server.close()
