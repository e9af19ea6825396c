r"""GDB machine-interface (MI) driver.

Spawns ``gdb``, as found on PATH, with ``--interpreter=mi`` and sends
it commands in batches: the batch is written at once, then each
command's answer is read up to its own prompt, in order.  A single
command is a batch of one.  Answers that a timed-out or interrupted
caller left unread are owed, and are read off before the next batch is
written.  A ``gdb`` that cannot be started,
whether missing, not executable or missing its ``#!`` interpreter,
raises DebuggerError.  Each answer's lines are kept as text and
parsed into structured records when first read; ``MIOutput.result``
decides whether an answer is usable.  ``file_symbols`` reads one
file's entries of a symbol table without parsing the rest.  The
inferior's own stdin/stdout/stderr are routed through a pty so that
target output never interleaves with protocol traffic.

Record grammar (one line each, after gdb's MI output syntax):

    (gdb)                      prompt
    [token]^class[,results]    result record
    [token]*class[,results]    exec async record
    [token]=class[,results]    notify async record
    [token]+class[,results]    status async record (normalized to notify)
    ~"text"                    console stream
    @"text"                    target stream
    &"text"                    log stream

results are ``name=value`` members separated by commas.  A value is a
c-string, a ``{...}`` tuple of such members, or a ``[...]`` list whose
elements are all values or all members.

Any line matching none of these degrades to a LogStream record tagged
``unparsed`` so that raw target chatter or future protocol extensions can
never break a session.  That includes an unnamed value among a record's
results, as in ``+download,{...}``.

C-strings decode ``\n \t \r \f \v \a \b \e \" \' \\``, ``\x`` with one
or two hex digits and ``\`` with one to three octal digits.  Any other
escaped character, ``x`` included, stands for itself, except that ``\8``,
``\9`` or a decimal digit of another script leaves the line unparsed, as
an unterminated string does.
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

from .errors import DebuggerError, DebuggerExited, ProtocolError, Record, \
    split_lines

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


class MIRecord(Record):
    """One parsed record of the MI output stream."""

    __slots__ = ("kind", "token", "klass", "payload", "text", "unparsed")

    def __init__(self, kind: RecordKind, token: int | None = None,
                 klass: str = "", payload: dict | None = None,
                 text: str = "", unparsed: bool = False):
        self.kind = kind
        self.token = token
        self.klass = klass
        self.payload = {} if payload is None else payload
        self.text = text  # stream records only
        # LogStream fallback for lines outside the grammar
        self.unparsed = unparsed

    def __repr__(self) -> str:
        return ("MIRecord(kind={!r}, token={!r}, klass={!r}, payload={!r}, "
                "text={!r}, unparsed={!r})").format(*self._fields())


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

_SIGILS = {
    "^": RecordKind.RESULT,
    "*": RecordKind.ASYNC_EXEC,
    "=": RecordKind.ASYNC_NOTIFY,
    "+": RecordKind.ASYNC_NOTIFY,
    "~": RecordKind.CONSOLE_STREAM,
    "@": RecordKind.TARGET_STREAM,
    "&": RecordKind.LOG_STREAM,
}

_C_UNESCAPE = {
    "n": "\n", "t": "\t", "r": "\r", "f": "\f", "v": "\v",
    "a": "\a", "b": "\b", "e": "\x1b", '"': '"', "'": "'", "\\": "\\",
}

# The body of a c-string: plain characters and backslash pairs up to the
# closing quote.  A backslash before a decimal digit that is not octal
# ends it, so that the line is left unparsed.
_CSTRING_BODY = r'[^"\\]*(?:\\[0-7\D][^"\\]*)*'
_CSTRING = re.compile(rf'"({_CSTRING_BODY})"')
_ESCAPE = re.compile(r"\\(?:x([0-9a-fA-F]{1,2})|([0-7]{1,3})|(.))", re.DOTALL)
_NAME = r"[\w-]+"
# A record's head: a stream sigil and its whole c-string, or the token,
# sigil, class and the comma before the results.  [^\W_] is str.isalnum.
_HEAD = re.compile(rf'([~@&])"({_CSTRING_BODY})"\Z'
                   r'|(\d*)([\^*=+])((?:[^\W_]|-)+)(?:(,)|\Z)')
# A member's name and "=", then, when its value is a c-string without
# escapes and a separator or the line's end follows, that value and the
# separator: most members of most records.
_MEMBER = re.compile(rf'({_NAME})=(?:"([^"\\]*)"([,}}]|\Z))?')


def _unescape(m: re.Match) -> str:
    """The character one _ESCAPE match stands for."""
    hex_digits, octal_digits, char = m.groups()
    if hex_digits:
        return chr(int(hex_digits, 16))
    if octal_digits:
        return chr(int(octal_digits, 8))
    return _C_UNESCAPE.get(char, char)


def _decode(body: str) -> str:
    """The text a c-string body, quotes stripped, stands for."""
    if "\\" in body:
        body = _ESCAPE.sub(_unescape, body)
    return body


def _parse_mi_value(line: str, pos: int) -> tuple[MIValue, int]:
    """The value starting at line[pos], and the position after it."""
    ch = line[pos]
    if ch == '"':
        m = _CSTRING.match(line, pos)
        if m is None:
            raise ValueError("unterminated c-string")
        return _decode(m.group(1)), m.end()
    if ch == "{":
        return _parse_tuple(line, pos + 1, "}")
    if ch == "[":
        return _parse_list(line, pos + 1)
    raise ValueError(f"expected value at column {pos}")


def _parse_tuple(line: str, pos: int, close: str) -> tuple[dict, int]:
    """The name=value members from line[pos] up to close, "}" for a tuple
    or "" for the end of the line, and the position after them."""
    out: dict = {}
    if close and line.startswith(close, pos):
        return out, pos + 1
    while True:
        m = _MEMBER.match(line, pos)
        if m is None:
            raise ValueError(f"expected name at column {pos}")
        name, value, sep = m.groups()
        pos = m.end()
        if value is None:
            value, pos = _parse_mi_value(line, pos)
            sep = line[pos:pos + 1]
            pos += 1
        out[name] = value
        if sep == close:
            return out, pos
        if sep != ",":
            raise ValueError(f"expected ',' or {close!r} at column {pos - 1}")


def _parse_list(line: str, pos: int) -> tuple[list, int]:
    """The elements from line[pos] up to "]", and the position after it."""
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
            m = _MEMBER.match(line, pos)
            if m is None:
                raise ValueError(f"expected name at column {pos}")
            inner, pos = _parse_mi_value(line, m.end(1) + 1)
            value = {m.group(1): inner}
        out.append(value)
        sep = line[pos:pos + 1]
        if sep == "]":
            return out, pos + 1
        if sep != ",":
            raise ValueError(f"expected ',' or ']' at column {pos}")
        pos += 1


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
    m = _HEAD.match(line)
    if m is None:
        raise ValueError("no record head")
    stream, text, token, sigil, klass, comma = m.groups()
    if stream:
        return MIRecord(kind=_SIGILS[stream], text=_decode(text))
    payload = _parse_tuple(line, m.end(), "")[0] if comma else {}
    return MIRecord(kind=_SIGILS[sigil], token=int(token) if token else None,
                    klass=klass, payload=payload)


# --------------------------------------------------------------------------
# Symbol tables
# --------------------------------------------------------------------------

_STRING_MEMBER = rf'{_NAME}="{_CSTRING_BODY}"'
_STRINGS_TUPLE = rf'\{{(?:{_STRING_MEMBER}(?:,{_STRING_MEMBER})*)?\}}'
# One debug entry of a -symbol-info-* answer whose members hold strings or
# lists of tuples of strings, such as
# {filename="a.c",fullname="/src/a.c",symbols=[{line="3",name="g"}]}.
# Group 1 is the body of its last fullname, the one a parsed tuple keeps.
_SYMBOL_ENTRY = re.compile(
    rf'\{{(?:(?:fullname="({_CSTRING_BODY})"|(?!fullname=){_NAME}='
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
    is parsed whole.  _SYMBOL_ENTRY is built from the parser's own
    c-string and name patterns, so every entry it matches parses.  The
    answer's result line is the first that starts like one.  [] unless it
    is ``^done`` whose ``symbols`` begin with a non-empty debug list, and
    [] when the list's separators are outside the grammar.  What follows
    the list is not read.
    """
    line = next((text for text in out.lines if _RESULT_HEAD.match(text)), "")
    m = _SYMBOLS_HEAD.match(line)
    if m is None:
        return []
    symbols: list = []
    pos = m.end()
    while True:
        m = _SYMBOL_ENTRY.match(line, pos)
        if m is None:
            return _parsed_file_symbols(line, fullname)
        if m.group(1) is not None and _decode(m.group(1)) == fullname:
            symbols.extend(
                _parse_tuple(line, pos + 1, "}")[0].get("symbols", []))
        pos = m.end()
        sep = line[pos:pos + 1]
        if sep == "]":
            return symbols
        if sep != ",":
            return []
        pos += 1


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

    ``send_batch`` writes several commands at once and reads their answers
    back in order, one prompt each: every command sent is synchronous, so
    gdb answers it with one result record and one prompt, and no MI tokens
    are needed to match answers to commands.  ``read_until_prompt`` keeps
    lines after the prompt for the next read and drains the pty the
    inferior is wired to meanwhile; commands the pipe to gdb did not take
    at once are written as it drains.

    The handle counts the answers still owed.  A caller that stops waiting,
    on a timeout or an interrupt, leaves its command's answer and those of
    the rest of its batch owed, and the next batch reads them off before
    its own write.  The later ``*stopped`` record and prompt of a target
    that was resumed are not counted.

    Before its first command, ``send_batch`` reads the child's boot
    prompt and points the inferior at ``tty_slave`` with
    ``-inferior-tty-set``; a failure there closes the handle and raises
    as it would for any command.
    """

    def __init__(self, proc: subprocess.Popen, tty_master: int,
                 tty_slave: int):
        self._proc = proc
        assert proc.stdin is not None and proc.stdout is not None
        self._stdin = proc.stdin.fileno()
        os.set_blocking(self._stdin, False)
        self._unsent = bytearray()  # commands the pipe to gdb has not taken
        self._owed = 0  # prompts still due to commands already sent
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
        the inferior's pty and writing feed into it, and unsent commands to
        the debugger, meanwhile.  False if the deadline passed first."""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            tty = [self._tty_master] if self._tty_open else []
            to_write = tty if feed else []
            if self._unsent:
                to_write = [*to_write, self._stdin]
            readable, writable, _ = select.select(
                [self._stdout, *tty], to_write, [], remaining)
            if self._tty_master in readable:
                self._read_tty()
            if self._tty_master in writable:
                try:
                    del feed[:os.write(self._tty_master, feed)]
                except BlockingIOError:
                    pass
                except OSError:  # nothing left to read the input
                    feed.clear()
            if self._stdin in writable:
                self._write()
            if self._stdout in readable:
                break
        chunk = os.read(self._stdout, 65536)
        self._eof = not chunk
        for raw in split_lines(chunk, self._partial):
            self._lines.append(raw.decode("utf-8", "replace").rstrip("\r"))
        return True

    def _write(self) -> None:
        """Write as much of the unsent commands as the pipe to the debugger
        takes now; DebuggerExited if the debugger has closed it."""
        try:
            del self._unsent[:os.write(self._stdin, self._unsent)]
        except BlockingIOError:
            pass
        except OSError as exc:
            raise DebuggerExited(str(exc)) from exc

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
                    # The boot prompt and those after async records such
                    # as *stopped answer no command.
                    self._owed = max(self._owed - 1, 0)
                    return lines
            if self._eof:
                raise DebuggerExited("debugger closed its output stream")
            if not self._pump(deadline, feed):
                raise DebuggerError(
                    f"no prompt within {timeout:g}s ({len(lines)} records so far)"
                )

    def send_command(self, command: str,
                     timeout: float = DEFAULT_COMMAND_TIMEOUT) -> MIOutput:
        """Send one MI command, a batch of one, and return all lines up to
        the prompt."""
        return self.send_batch([command], timeout)[0]

    def send_batch(self, commands: list[str],
                   timeout: float = DEFAULT_COMMAND_TIMEOUT) -> list[MIOutput]:
        """Write synchronous MI commands together and return each one's
        lines up to its own prompt, in order.  Each answer may take
        timeout; a command that runs past it raises DebuggerError and
        leaves its answer, and those of the commands after it, owed.

        Answers owed to earlier commands are read off first, within
        timeout in all.  If they do not come, later answers could not be
        told from theirs, and DebuggerExited ends the session.
        """
        if self._handshake_owed:
            self._finish_handshake()
        if self._eof or self._proc.poll() is not None:
            raise DebuggerExited("debugger is not running")
        self._read_owed(timeout)
        self._unsent += b"".join(command.encode() + b"\n"
                                 for command in commands)
        self._owed += len(commands)
        self._write()
        return [MIOutput(self.read_until_prompt(timeout), command)
                for command in commands]

    def _read_owed(self, timeout: float) -> None:
        """Read off and drop the answers owed to earlier commands."""
        deadline = time.monotonic() + timeout
        try:
            while self._owed:
                self.read_until_prompt(deadline - time.monotonic())
        except DebuggerExited:
            raise
        except DebuggerError:
            raise DebuggerExited(
                f"the debugger still owes {self._owed} answer(s) to earlier "
                f"commands after {timeout:g}s") from None

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
            # After the rest of any command the pipe has not yet taken.
            self._unsent += b"-gdb-exit\n"
            try:
                self._write()
            except DebuggerExited:
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
        raise DebuggerError(f"target executable not found: {executable}")

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
        raise DebuggerError("debugger not found on PATH: gdb") from exc

    return DebuggerHandle(proc, tty_master=master, tty_slave=slave)
