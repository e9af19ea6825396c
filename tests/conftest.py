"""Shared fixtures: compile the C crashers once per session; the two
stand-ins for gdb; a stub provider; the benchmark provider's tool-pairing
check."""

from __future__ import annotations

import importlib.util
import json
import os
import re
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

from dbgchat.enrich import ElisionMarker
from dbgchat.session import DebugSession

FIXTURES = Path(__file__).parent / "fixtures"
FAKE_GDB = Path(__file__).parent / "fake_gdb.py"
PERFBENCH = Path(__file__).parent.parent / "perfbench"
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
def fake_gdb(tmp_path, monkeypatch):
    """``script(commands, **fields) -> target``.

    ``tests/fake_gdb.py`` is the ``gdb`` first on PATH, so that
    ``spawn_debugger(target)`` or ``DebugSession(target)`` starts it,
    answering from ``commands``; ``fields`` go into the script as well
    (``log``, ``boot``).
    """
    debugger = tmp_path / "gdb"
    debugger.write_text(
        f'#!/bin/sh\nexec "{sys.executable}" "{FAKE_GDB}" "$@"\n')
    debugger.chmod(0o755)
    monkeypatch.setenv("PATH", f"{tmp_path}{os.pathsep}{os.environ['PATH']}")

    def script(commands, **fields):
        target = tmp_path / "script.json"
        target.write_text(json.dumps({"commands": commands, **fields}))
        return str(target)
    return script


# -- perfbench's gdb stand-in, answering from a stack description ----------

def _perfbench(name: str):
    """A module of perfbench/, loaded from its file."""
    spec = importlib.util.spec_from_file_location(name,
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gdb_standin = _perfbench("gdb_standin")


def var(name, type_, value, aggregate=False, deref=None) -> dict:
    """One variable of a frame.  gdb leaves an aggregate's value out of
    ``-stack-list-variables --simple-values``, so the session evaluates
    it; ``deref`` answers ``*name``."""
    out = {"name": name, "type": type_, "value": value}
    if aggregate:
        out["aggregate"] = True
    if deref is not None:
        out["deref"] = deref
    return out


def stack_description(frames, variables=None, globals=None, symbols=None,
                      console=None) -> dict:
    """A stack description for ``perfbench/gdb_standin.py``.

    ``frames`` are Frames, innermost first, their level their index.  A
    frame's variables are ``variables[level]``, by default one ``x``
    holding its level.  ``globals`` maps a source fullname to the
    variables defined at its file scope, on lines 1, 2, ...  ``symbols``
    maps a function name to the ``(fullname, line)`` of its definition.
    ``console`` maps a console command to its output; the stand-in
    answers ``bt``, ``p``, ``info locals`` and ``ptype`` from the stack
    itself.  The target stops on SIGSEGV.
    """
    variables = variables or {}
    described = []
    for level, frame in enumerate(frames):
        described.append({
            "func": frame.func, "file": frame.file if frame.line else "",
            "fullname": frame.fullname, "line": frame.line,
            "addr": f"0x{0x401000 + 16 * level:016x}",
            "from": frame.shared_lib,
            "vars": variables.get(level, [var("x", "int", str(level))])})
    files = [{"filename": os.path.basename(fullname), "fullname": fullname,
              "symbols": [[line, v["name"], v["type"]]
                          for line, v in enumerate(defined, start=1)]}
             for fullname, defined in (globals or {}).items()]
    functions = [{"filename": os.path.basename(fullname),
                  "fullname": fullname,
                  "symbols": [[line, name, "int (void)"]]}
                 for name, (fullname, line) in (symbols or {}).items()]
    return {
        "frames": described,
        "globals": {v["name"]: {"type": v["type"], "value": v["value"]}
                    for defined in (globals or {}).values() for v in defined},
        "symbols": {"functions": functions, "variables": files},
        "symbols_mi": gdb_standin.symbols_record(files),
        "console": console or {},
        "stop": {"reason": "signal-received", "signal-name": "SIGSEGV",
                 "signal-meaning": "Segmentation fault"},
    }


class StandIn:
    """Starts real DebugSessions over the stand-in, ``gdb`` on PATH.

    ``standin(description)`` writes the description, starts a session on
    it, runs it to its stop and returns ``(session, sent)``: ``sent`` is
    every MI command the session sent, in order, recorded around
    ``session.handle.send_batch``, which ``send_command`` calls.
    ``check()`` closes each session and
    compares the commands it recorded with those the stand-in counted in
    its exit log, so that a command sent around the recorder fails the
    test rather than leaving ``sent`` short.
    """

    def __init__(self, directory: Path):
        self.directory = directory
        self.written = 0
        self.runs = []  # (session, sent, log path)

    def target(self, description: dict) -> str:
        """The description written to a file of its own: the target that
        ``DebugSession`` hands the stand-in."""
        self.written += 1
        target = self.directory / f"stack{self.written}.json"
        target.write_text(json.dumps({
            **description, "exec_name": str(target),
            "log": str(self.directory / f"stack{self.written}.log")}))
        return str(target)

    def __call__(self, description: dict):
        target = self.target(description)
        session = DebugSession(target)
        sent = []
        send = session.handle.send_batch

        def record(commands, *args, **kwargs):
            # Recorded after the call returns, so that the handshake's
            # -inferior-tty-set, sent within the first call, comes first.
            try:
                return send(commands, *args, **kwargs)
            finally:
                sent.extend(commands)
        session.handle.send_batch = record
        self.runs.append((session, sent, target[:-len(".json")] + ".log"))
        session.run_to_stop()
        return session, sent

    def check(self) -> None:
        runs, self.runs = self.runs, []
        for session, sent, log in runs:
            session.close()  # which sends -gdb-exit past the recorder
            with open(log, encoding="utf-8") as fh:
                counted = json.load(fh)["commands"]
            assert counted == len(sent) + 1, (
                f"the stand-in read {counted} commands, but {len(sent)} "
                "were recorded before -gdb-exit")


@pytest.fixture()
def standin(tmp_path, monkeypatch):
    """A StandIn whose ``gdb``, first on PATH, runs perfbench's stand-in
    under ``-SE`` as perfbench does; its sessions are checked at
    teardown."""
    debugger = tmp_path / "gdb"
    debugger.write_text(f"#!{sys.executable} -SE\n"
                        f"import sys\nsys.path.insert(0, {str(PERFBENCH)!r})\n"
                        "from gdb_standin import main\n"
                        "sys.exit(main(sys.argv[1:]))\n")
    debugger.chmod(0o755)
    monkeypatch.setenv("PATH", f"{tmp_path}{os.pathsep}{os.environ['PATH']}")
    made = StandIn(tmp_path)
    yield made
    made.check()


def frame_levels(sent, pattern: str) -> list[int]:
    """The ``--frame`` level of each sent command that ``pattern`` matches
    from its start."""
    return [int(re.search(r" --thread 1 --frame (\d+) ", command).group(1))
            for command in sent
            if re.match(pattern, command) and " --frame " in command]


def hidden_frames(stack) -> int:
    """The frames that an EnrichedStack's markers say are hidden."""
    return sum(e.hidden_count for e in stack.entries
               if isinstance(e, ElisionMarker))


def console_commands(sent) -> list[str]:
    """The console commands among the sent MI commands."""
    prefix = "-interpreter-exec console "
    return [json.loads(command[len(prefix):]) for command in sent
            if command.startswith(prefix)]


# -- a stub chat-completions provider ---------------------------------------

_provider = _perfbench("provider")


def pairing_error(messages) -> str:
    """The benchmark provider's tool-pairing check on a conversation of
    ChatMessages: "" when every tool call is answered once, in order,
    before any other message; else what is wrong."""
    return _provider.pairing_error([m.to_wire() for m in messages])


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
    saying so.  Each request's target goes to ``targets_seen`` and its
    client port to ``ports_seen``, so requests that share a connection
    share a port."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        self.server.requests_seen.append(json.loads(self.rfile.read(length)))
        self.server.auth_seen.append(self.headers.get("Authorization"))
        self.server.targets_seen.append(self.path)
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
    server.targets_seen = []
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
