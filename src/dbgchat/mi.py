r"""GDB machine-interface (MI) driver.

Spawns ``gdb``, as found on PATH, with ``--interpreter=mi`` and
serializes commands one at a time.  A ``gdb`` that cannot be started,
whether missing, not executable or missing its ``#!`` interpreter,
raises DebuggerNotFound.  Each answer's lines are kept as text and
parsed into structured records when first read; ``MIOutput.result``
decides whether an answer is usable.  ``file_symbols`` reads one
file's entries of a symbol table without parsing the rest.  The
inferior's own stdin/stdout/stderr are routed through a pty so that
target output never interleaves with protocol traffic.

Record grammar (one line each, mirroring the MI output syntax):

    (gdb)                prompt
    [token]^class,...    result record
    [token]*class,...    exec async record
    [token]=class,...    notify async record
    [token]+class,...    status async record (normalized to notify)
    ~"text"              console stream
    @"text"              target stream
    &"text"              log stream

Any line matching none of these degrades to a LogStream record tagged
``unparsed`` so that raw target chatter or future protocol extensions can
never break a session.

C-strings decode ``\n \t \r \f \v \a \b \e \" \' \\``, ``\x`` with one
or two hex digits and ``\`` with one to three octal digits.  Any other
escaped character, ``x`` included, stands for itself, except that ``\8``,
``\9`` or another non-octal digit leaves the line unparsed, as an
unterminated string does.
"""

from __future__ import annotations

import codecs
import os
import pty
import re
import select
import subprocess
import time
from collections import deque
from collections.abc import Callable
from enum import Enum
from functools import cached_property

from .errors import (
    CommandTimeout,
    DebuggerError,
    DebuggerExited,
    DebuggerNotFound,
    ProtocolError,
    TargetNotFound,
)

DEFAULT_COMMAND_TIMEOUT = 30.0
HANDSHAKE_TIMEOUT = 15.0

# Values are plain Python: unescaped strings for constants, insertion-ordered
# dicts for tuples, lists for lists.
MIValue = str | dict | list


class RecordKind(Enum):
    RESULT = "result"
    ASYNC_EXEC = "async-exec"
    ASYNC_NOTIFY = "async-notify"
    CONSOLE_STREAM = "console-stream"
    TARGET_STREAM = "target-stream"
    LOG_STREAM = "log-stream"
    PROMPT = "prompt"


_PROMPTS = ("(gdb) ", "(gdb)")

_STREAM_KINDS = {
    "~": RecordKind.CONSOLE_STREAM,
    "@": RecordKind.TARGET_STREAM,
    "&": RecordKind.LOG_STREAM,
}


class MIRecord:
    """One parsed record of the MI output stream."""

    __slots__ = ("kind", "token", "klass", "payload", "positional", "text",
                 "unparsed")

    def __init__(self, kind: RecordKind, token: int | None = None,
                 klass: str = "", payload: dict | None = None,
                 positional: list | None = None, text: str = "",
                 unparsed: bool = False):
        self.kind = kind
        self.token = token
        self.klass = klass
        self.payload = {} if payload is None else payload
        # Unnamed payload values, as emitted by legacy records like
        # +download,{...}.
        self.positional = [] if positional is None else positional
        self.text = text  # stream records only
        # LogStream fallback for lines outside the grammar
        self.unparsed = unparsed

    def _fields(self) -> tuple:
        return (self.kind, self.token, self.klass, self.payload,
                self.positional, self.text, self.unparsed)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return ("MIRecord(kind={!r}, token={!r}, klass={!r}, payload={!r}, "
                "positional={!r}, text={!r}, unparsed={!r})"
                ).format(*self._fields())


class MIOutput:
    """All lines produced by one command, ending with the prompt."""

    def __init__(self, lines: list[str], command: str = ""):
        self.lines = lines
        self.command = command

    @cached_property
    def records(self) -> list[MIRecord]:
        """The lines parsed, the first time they are asked for."""
        return [parse_mi_line(line) for line in self.lines]

    def result(self, error: Callable[[str], Exception]) -> MIRecord:
        """The answer's ``^done`` or ``^running`` record.  ``^error`` raises
        error with gdb's message; any other answer, also one with no result
        record, raises ProtocolError naming the command and quoting it."""
        for r in self.records:
            if r.kind is RecordKind.RESULT:
                if r.klass in ("done", "running"):
                    return r
                if r.klass == "error" and isinstance(r.payload.get("msg"), str):
                    raise error(r.payload["msg"])
                break
        start = "\n".join(self.lines)[:60]
        raise ProtocolError(f"unexpected answer to {self.command}: {start!r}")

    @property
    def console_text(self) -> str:
        """Concatenated console-stream text, for display."""
        return "".join(
            r.text for r in self.records if r.kind is RecordKind.CONSOLE_STREAM
        )


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------

_C_UNESCAPE = {
    "n": "\n", "t": "\t", "r": "\r", "f": "\f", "v": "\v",
    "a": "\a", "b": "\b", "e": "\x1b", '"': '"', "'": "'", "\\": "\\",
}

# A c-string is a run of plain characters and backslash pairs up to the
# closing quote; the body is group 1.
_CSTRING = re.compile(r'"([^"\\]*(?:\\.[^"\\]*)*)"', re.DOTALL)
_ESCAPE = re.compile(r"\\(?:x([0-9a-fA-F]{1,2})|([0-7]{1,3})|(.))", re.DOTALL)
_NAME = re.compile(r"[\w-]+")
# A tuple member name="value" whose value holds no escape, with the
# separator after it: most members of most records.
_PLAIN_PAIR = re.compile(r'([\w-]+)="([^"\\]*)"([,}]?)')


def _unescape(m: re.Match) -> str:
    """The character one _ESCAPE match stands for."""
    hex_digits, octal_digits, char = m.groups()
    if hex_digits:
        return chr(int(hex_digits, 16))
    if octal_digits:
        return chr(int(octal_digits, 8))
    if char.isdigit():
        raise ValueError(f"bad octal escape {char!r}")
    return _C_UNESCAPE.get(char, char)


def _decode(body: str) -> str:
    """The text a c-string body, quotes stripped, stands for."""
    if "\\" in body:
        body = _ESCAPE.sub(_unescape, body)
    return body


def _parse_cstring(line: str, pos: int) -> tuple[str, int]:
    """Decode the c-string starting at line[pos] (must be '\"')."""
    m = _CSTRING.match(line, pos)
    if m is None:
        raise ValueError("unterminated c-string")
    return _decode(m.group(1)), m.end()


def _parse_mi_value(line: str, pos: int) -> tuple[MIValue, int]:
    ch = line[pos]
    if ch == '"':
        return _parse_cstring(line, pos)
    if ch == "{":
        return _parse_tuple(line, pos)
    if ch == "[":
        return _parse_list(line, pos)
    raise ValueError(f"expected value at column {pos}")


def _parse_tuple(line: str, pos: int) -> tuple[dict, int]:
    assert line[pos] == "{"
    pos += 1
    out: dict = {}
    if line.startswith("}", pos):
        return out, pos + 1
    while True:
        m = _PLAIN_PAIR.match(line, pos)
        if m:
            name, value, sep = m.groups()
            out[name] = value
            pos = m.end()
        else:
            name, pos = _parse_name(line, pos)
            if not line.startswith("=", pos):
                raise ValueError(f"expected '=' at column {pos}")
            out[name], pos = _parse_mi_value(line, pos + 1)
            sep = line[pos:pos + 1]
            pos += 1
        if sep == "}":
            return out, pos
        if sep != ",":
            raise ValueError(f"expected ',' or '}}' at column {pos - 1}")


def _parse_list(line: str, pos: int) -> tuple[list, int]:
    assert line[pos] == "["
    pos += 1
    out: list = []
    if line.startswith("]", pos):
        return out, pos + 1
    while True:
        # List elements are either bare values or name=value results; the
        # latter are normalized to single-entry tuples so that repeated
        # names (e.g. frame=... entries) survive.
        if line[pos] in '"{[':
            value, pos = _parse_mi_value(line, pos)
        else:
            name, pos = _parse_name(line, pos)
            if not line.startswith("=", pos):
                raise ValueError(f"expected '=' at column {pos}")
            inner, pos = _parse_mi_value(line, pos + 1)
            value = {name: inner}
        out.append(value)
        sep = line[pos:pos + 1]
        if sep == "]":
            return out, pos + 1
        if sep != ",":
            raise ValueError(f"expected ',' or ']' at column {pos}")
        pos += 1


def _parse_name(line: str, pos: int) -> tuple[str, int]:
    m = _NAME.match(line, pos)
    if m is None:
        raise ValueError(f"expected name at column {pos}")
    return m.group(), m.end()


def _parse_results(line: str, pos: int) -> tuple[dict, list]:
    named: dict = {}
    positional: list = []
    while pos < len(line):
        if line[pos] in '"{[':
            value, pos = _parse_mi_value(line, pos)
            positional.append(value)
        else:
            name, pos = _parse_name(line, pos)
            if pos >= len(line) or line[pos] != "=":
                raise ValueError(f"expected '=' at column {pos}")
            value, pos = _parse_mi_value(line, pos + 1)
            named[name] = value
        if pos < len(line):
            if line[pos] != ",":
                raise ValueError(f"expected ',' at column {pos}")
            pos += 1
    return named, positional


def parse_mi_line(line: str) -> MIRecord:
    """Parse one complete MI output line (without trailing newline).

    Total by construction: anything outside the grammar comes back as a
    LogStream record tagged unparsed, never an exception.
    """
    try:
        return _parse_mi_line_strict(line)
    except Exception:
        return MIRecord(kind=RecordKind.LOG_STREAM, text=line, unparsed=True)


def _parse_mi_line_strict(line: str) -> MIRecord:
    if line in _PROMPTS:
        return MIRecord(kind=RecordKind.PROMPT)
    if not line:
        raise ValueError("empty line")

    stream = _STREAM_KINDS.get(line[0])
    if stream is not None:
        return MIRecord(kind=stream, text=_parse_whole_cstring(line, 1))

    pos = 0
    token: int | None = None
    while pos < len(line) and line[pos].isdigit():
        pos += 1
    if pos > 0:
        token = int(line[:pos])
    if pos >= len(line):
        raise ValueError("token with no record")

    sigil = line[pos]
    if sigil == "^":
        kind = RecordKind.RESULT
    elif sigil == "*":
        kind = RecordKind.ASYNC_EXEC
    elif sigil in "=+":
        kind = RecordKind.ASYNC_NOTIFY
    else:
        raise ValueError(f"unknown sigil {sigil!r}")
    pos += 1

    klass, pos = _parse_class(line, pos)
    payload: dict = {}
    positional: list = []
    if pos < len(line):
        if line[pos] != ",":
            raise ValueError(f"expected ',' after class at column {pos}")
        payload, positional = _parse_results(line, pos + 1)
    return MIRecord(kind=kind, token=token, klass=klass, payload=payload,
                    positional=positional)


def _parse_class(line: str, pos: int) -> tuple[str, int]:
    start = pos
    while pos < len(line) and (line[pos].isalnum() or line[pos] == "-"):
        pos += 1
    if pos == start:
        raise ValueError("empty class")
    return line[start:pos], pos


def _parse_whole_cstring(line: str, pos: int) -> str:
    if pos >= len(line) or line[pos] != '"':
        raise ValueError("stream record without c-string")
    text, end = _parse_cstring(line, pos)
    if end != len(line):
        raise ValueError("trailing bytes after c-string")
    return text


# --------------------------------------------------------------------------
# Symbol tables
# --------------------------------------------------------------------------

# A c-string body whose escapes _unescape decodes: a backslash before any
# digit but 0-7 leaves a line unparsed.
_CSTRING_BODY = r'[^"\\]*(?:\\[0-7\D][^"\\]*)*'
_STRING_MEMBER = rf'[\w-]+="{_CSTRING_BODY}"'
_STRINGS_TUPLE = rf'\{{(?:{_STRING_MEMBER}(?:,{_STRING_MEMBER})*)?\}}'
# One debug entry of a -symbol-info-* answer whose members hold strings or
# lists of tuples of strings, such as
# {filename="a.c",fullname="/src/a.c",symbols=[{line="3",name="g"}]}.
# Group 1 is the body of its last fullname, the one a parsed tuple keeps.
_SYMBOL_ENTRY = re.compile(
    rf'\{{(?:(?:fullname="({_CSTRING_BODY})"|(?!fullname=)[\w-]+='
    rf'(?:"{_CSTRING_BODY}"|\[(?:{_STRINGS_TUPLE}(?:,{_STRINGS_TUPLE})*)?\]))'
    rf'(?:,(?!\}})|(?=\}})))*\}}')
_RESULT_HEAD = re.compile(r"\d*\^")
# A ^done answer up to its first debug entry.
_SYMBOLS_HEAD = re.compile(r"\d*\^done,symbols=\{debug=\[(?!\])")


def file_symbols(out: MIOutput, fullname: str) -> list:
    """The symbols of each debug entry of a ``-symbol-info-*`` answer whose
    decoded fullname is fullname, in the answer's order.

    Only those entries are parsed: _SYMBOL_ENTRY steps over the others
    without decoding them, and a line holding an entry of another shape
    is parsed whole.  The answer's result line is the first that starts
    like one.  [] unless it is ``^done`` whose ``symbols`` begin with a
    non-empty debug list, and [] when the list's separators or the entries
    parsed are outside the grammar.  What follows the list is not read.
    """
    line = next((text for text in out.lines if _RESULT_HEAD.match(text)), "")
    m = _SYMBOLS_HEAD.match(line)
    if m is None:
        return []
    symbols: list = []
    pos = m.end()
    try:
        while True:
            m = _SYMBOL_ENTRY.match(line, pos)
            if m is None:
                return _parsed_file_symbols(line, fullname)
            if m.group(1) is not None and _decode(m.group(1)) == fullname:
                symbols.extend(_parse_tuple(line, pos)[0].get("symbols", []))
            pos = m.end()
            sep = line[pos:pos + 1]
            if sep == "]":
                return symbols
            if sep != ",":
                return []
            pos += 1
    except ValueError:
        return []


def _parsed_file_symbols(line: str, fullname: str) -> list:
    """file_symbols of a result line parsed whole."""
    debug = parse_mi_line(line).payload.get("symbols", {}).get("debug", [])
    return [sym for entry in debug
            if isinstance(entry, dict) and entry.get("fullname") == fullname
            for sym in entry.get("symbols", [])]


# --------------------------------------------------------------------------
# Process driver
# --------------------------------------------------------------------------

def _default_env() -> dict[str, str]:
    # Trimmed environment so that spawned sessions (and inferior stack
    # layouts) are reproducible across runs.
    env = {"LC_ALL": "C", "TERM": "dumb", "COLUMNS": "200"}
    for key in ("PATH", "HOME"):
        if key in os.environ:
            env[key] = os.environ[key]
    return env


class DebuggerHandle:
    """A live debugger child speaking MI on stdio, driven from one thread.

    One command may be in flight at a time.  Its caller reads stdout in
    ``read_until_prompt``, which keeps lines after the prompt for the next
    read and drains the pty the inferior is wired to meanwhile.

    Before its first command, ``send_command`` reads the child's boot
    prompt and points the inferior at ``tty_slave`` with
    ``-inferior-tty-set``; a failure there closes the handle and raises
    as it would for any command.
    """

    def __init__(self, proc: subprocess.Popen, tty_master: int,
                 tty_slave: int = -1):
        self._proc = proc
        assert proc.stdout is not None
        self._stdout = proc.stdout.fileno()
        self._partial: list[bytes] = []  # pieces of a line still being written
        self._lines: deque[str] = deque()
        self._eof = False
        self._tty_master = tty_master
        os.set_blocking(tty_master, False)
        self._tty_open = True
        # Held open so the master never sees EOF while the session lives.
        self._tty_slave = tty_slave
        self._target_text: list[str] = []
        self._decoder = codecs.getincrementaldecoder("utf-8")("replace")
        self._closed = False
        self._handshake_owed = True

    # -- reading -----------------------------------------------------------

    def _pump(self, deadline: float, feed: bytearray | None = None) -> bool:
        """Wait for bytes on the debugger's stdout and take them, draining
        the inferior's pty and writing feed into it meanwhile.  False if
        the deadline passed first."""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            tty = [self._tty_master] if self._tty_open else []
            readable, writable, _ = select.select(
                [self._stdout, *tty], tty if feed else [], [], remaining)
            if self._tty_master in readable:
                self._read_tty()
            if writable:
                try:
                    del feed[:os.write(self._tty_master, feed)]
                except BlockingIOError:
                    pass
                except OSError:  # nothing left to read the input
                    feed.clear()
            if self._stdout in readable:
                break
        chunk = os.read(self._stdout, 65536)
        self._eof = not chunk
        # Only the new chunk is split; a line written in many pieces is
        # joined once, when its newline arrives.
        *lines, rest = chunk.split(b"\n")
        if lines and self._partial:
            self._partial.append(lines[0])
            lines[0] = b"".join(self._partial)
            self._partial.clear()
        if rest:
            self._partial.append(rest)
        for raw in lines:
            self._lines.append(raw.decode("utf-8", "replace").rstrip("\r"))
        return True

    def _read_tty(self) -> bool:
        """Take one chunk of the inferior's output, so that a target that
        never stops writing cannot starve stdout; False if none was there."""
        if not self._tty_open:
            return False
        try:
            chunk = os.read(self._tty_master, 65536)
        except BlockingIOError:
            return False
        except OSError:  # EIO: no slave side is open any more
            chunk = b""
        if not chunk:
            self._tty_open = False
            return False
        self._target_text.append(self._decoder.decode(chunk))
        return True

    # -- target I/O --------------------------------------------------------

    def target_output(self) -> str:
        """Everything the inferior wrote to its tty so far: what the waits
        for the debugger took from the pty, plus what it holds right now."""
        while self._read_tty():
            pass
        return "".join(self._target_text).replace("\r\n", "\n")

    # -- protocol ----------------------------------------------------------

    def _finish_handshake(self) -> None:
        """Read the boot prompt, then wire the inferior to the pty."""
        self._handshake_owed = False
        try:
            self.read_until_prompt(HANDSHAKE_TIMEOUT)
            self.send_command(
                f"-inferior-tty-set {os.ttyname(self._tty_slave)}",
                timeout=HANDSHAKE_TIMEOUT,
            ).result(lambda msg: DebuggerError(f"tty setup failed: {msg}"))
        except Exception:
            self.close()
            raise

    def read_until_prompt(self, timeout: float,
                          feed: bytearray | None = None) -> list[str]:
        """Collect lines up to and including the next prompt, writing
        feed to the inferior's pty meanwhile; written bytes leave feed."""
        deadline = time.monotonic() + timeout
        lines: list[str] = []
        while True:
            while self._lines:
                line = self._lines.popleft()
                lines.append(line)
                if line in _PROMPTS:
                    return lines
            if self._eof:
                raise DebuggerExited("debugger closed its output stream")
            if not self._pump(deadline, feed):
                raise CommandTimeout(
                    f"no prompt within {timeout:g}s ({len(lines)} records so far)"
                )

    def send_command(self, command: str,
                     timeout: float = DEFAULT_COMMAND_TIMEOUT) -> MIOutput:
        """Send one MI command and return all lines up to the prompt."""
        if self._handshake_owed:
            self._finish_handshake()
        if self._eof or self._proc.poll() is not None:
            raise DebuggerExited("debugger is not running")
        try:
            assert self._proc.stdin is not None
            self._proc.stdin.write(command.encode() + b"\n")
            self._proc.stdin.flush()
        except (BrokenPipeError, ValueError) as exc:
            raise DebuggerExited(str(exc)) from exc
        return MIOutput(self.read_until_prompt(timeout), command)

    def wait_for_stop(self, timeout: float,
                      stdin: str | None = None) -> MIRecord:
        """Read prompt-terminated batches up to the ``*stopped`` record.

        stdin, newline-terminated and then EOF, goes to the inferior's pty
        as fast as the pty takes it; what is left when the target stops is
        dropped.
        """
        feed = bytearray()
        if stdin is not None:
            feed += stdin.encode()
            if not stdin.endswith("\n"):
                feed += b"\n"
            feed += b"\x04"  # pty EOF
        deadline = time.monotonic() + timeout
        while True:
            for line in self.read_until_prompt(deadline - time.monotonic(),
                                               feed):
                rec = parse_mi_line(line)
                if rec.kind is RecordKind.ASYNC_EXEC and rec.klass == "stopped":
                    return rec

    # -- shutdown ----------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._handshake_owed = False
        if self._proc.poll() is None:
            try:
                assert self._proc.stdin is not None
                self._proc.stdin.write(b"-gdb-exit\n")
                self._proc.stdin.flush()
            except (BrokenPipeError, ValueError, OSError):
                pass
            try:
                self._proc.wait(timeout=3)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait(timeout=3)
        self._tty_open = False
        for pipe in (self._proc.stdin, self._proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass
        for fd in (self._tty_master, self._tty_slave):
            if fd < 0:
                continue
            try:
                os.close(fd)
            except OSError:
                pass


def spawn_debugger(executable: str,
                   target_args: list[str] | None = None) -> DebuggerHandle:
    """Start gdb, found on PATH, on a target and return while it boots.

    The handshake waits for the first command, so the caller may do other
    work while the debugger reads the target's symbols.
    """
    if not os.path.exists(executable):
        raise TargetNotFound(f"target executable not found: {executable}")

    master, slave = pty.openpty()
    argv = ["gdb", "--nx", "--quiet", "--interpreter=mi",
            "--args", executable, *(target_args or [])]
    try:
        proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=_default_env(),
        )
    except OSError as exc:
        os.close(master)
        os.close(slave)
        raise DebuggerNotFound("debugger not found on PATH: gdb") from exc

    return DebuggerHandle(proc, tty_master=master, tty_slave=slave)
