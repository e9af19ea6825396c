"""Stateful debugging session: run the target, inspect the stopped stack.

Wraps the machine-interface driver with typed queries (frames, variables,
expression evaluation, console passthrough) and the run-to-stop protocol,
including exit-code decoding and failed-assertion detection.

``MIOutput.result`` decides whether an answer is usable, and ``_read``
raises ProtocolError for a payload or ``*stopped`` field gdb never gives.
"""

from __future__ import annotations

import re
from collections.abc import Callable

from .errors import (
    DebuggerExited,
    EvaluationError,
    NotStopped,
    ProtocolError,
)
from .mi import (
    MIRecord,
    DebuggerHandle,
    file_symbols,
    spawn_debugger,
)
from .sanitizer import native_strict, sanitize

# Matches both common libc assertion-failure report styles; group 1 or 2
# captures the asserted expression.
ASSERT_PATTERN = re.compile(
    r"Assertion failed: ([^\n(]+?)(?: \(.*)?$"
    r"|Assertion `(.+)' failed"
)

ASSERT_SCAN_LINES = 50

# Seconds to wait for the target to stop after it was started or resumed.
RUN_TIMEOUT = 60.0

# Each stop's stack is fetched once: its depth, counted up to the probe
# cap, and its innermost frames up to the frame cap.
DEFAULT_FRAME_CAP = 200
DEPTH_PROBE_CAP = 10000
# File-scope variables read for the outermost shown frame.
DEFAULT_GLOBALS_CAP = 10


class Binding:
    """One variable visible in a frame, with gdb's textual value."""

    __slots__ = ("name", "value", "type")

    def __init__(self, name: str, value: str, type: str = ""):
        self.name = name
        self.value = value
        self.type = type

    @property
    def is_pointer(self) -> bool:
        return self.type.rstrip().endswith("*")


class Frame:
    __slots__ = ("level", "func", "file", "fullname", "line", "shared_lib")

    def __init__(self, level: int, func: str, file: str = "",
                 fullname: str = "", line: int | None = None,
                 shared_lib: str = ""):
        self.level = level
        self.func = func
        self.file = file
        self.fullname = fullname
        self.line = line
        self.shared_lib = shared_lib

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.level, self.func, self.file, self.fullname, self.line,
                 self.shared_lib)
                == (other.level, other.func, other.file, other.fullname,
                    other.line, other.shared_lib))

    @property
    def has_source(self) -> bool:
        return bool(self.fullname or self.file)

    def location(self) -> str:
        if self.file and self.line is not None:
            return f"{self.file}:{self.line}"
        if self.shared_lib:
            return f"in {self.shared_lib}"
        return "at unknown location"


class StopInfo:
    """Why execution stopped.

    An assertion failure is a derived reason: an abort signal whose captured
    output matches the assertion-message pattern.  signal_name stays set.
    """

    __slots__ = ("kind", "signal_name", "signal_meaning", "exit_code",
                 "frame", "assertion_text")

    def __init__(self, kind: str, signal_name: str = "",
                 signal_meaning: str = "", exit_code: int | None = None,
                 frame: Frame | None = None, assertion_text: str = ""):
        # kind: "signal" | "assertion" | "exited" | "breakpoint" | "other"
        self.kind = kind
        self.signal_name = signal_name
        self.signal_meaning = signal_meaning
        self.exit_code = exit_code
        self.frame = frame
        self.assertion_text = assertion_text

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.kind, self.signal_name, self.signal_meaning,
                 self.exit_code, self.frame, self.assertion_text)
                == (other.kind, other.signal_name, other.signal_meaning,
                    other.exit_code, other.frame, other.assertion_text))

    def describe(self) -> str:
        if self.kind == "assertion":
            return (f'failed the assertion "{self.assertion_text}" and '
                    f"stopped on {self.signal_name}")
        if self.kind == "signal":
            desc = f"stopped on {self.signal_name}"
            if self.signal_meaning:
                desc += f" ({self.signal_meaning})"
            return desc
        if self.kind == "exited":
            return f"exited with code {self.exit_code}"
        if self.kind == "breakpoint":
            return "stopped at a breakpoint"
        return "stopped"


def _read(what: str, read: Callable, value):
    """read(value); a field it finds missing or mistyped is a ProtocolError."""
    try:
        return read(value)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed {what}: {exc!r}") from exc


def _text(value) -> str | None:
    """A value gdb gives as a string, or None; TypeError for any other."""
    if value is not None and not isinstance(value, str):
        raise TypeError(f"not a string: {value!r:.40}")
    return value


def _frame_from_payload(payload: dict) -> Frame:
    # Source file and line travel together or not at all.
    file = _text(payload.get("file", ""))
    fullname = _text(payload.get("fullname", ""))
    line = payload.get("line")
    if not file or line is None:
        file, fullname, line = "", "", None
    return Frame(
        level=int(payload.get("level", "0")),
        func=_text(payload.get("func", "??")),
        file=file,
        fullname=fullname,
        line=int(line) if line is not None else None,
        shared_lib=_text(payload.get("from", "")),
    )


def _definition(payload: dict, name: str) -> tuple[str, int] | None:
    """(fullname, line) of the first symbol called name in a
    ``-symbol-info-*`` answer's debug entries, or None."""
    return next(((_text(entry.get("fullname") or entry.get("filename", "")),
                  int(sym["line"]))
                 for entry in payload.get("symbols", {}).get("debug", [])
                 for sym in entry.get("symbols", [])
                 if sym.get("name") == name and sym.get("line")), None)


class DebugSession:
    """One debugger child attached to one target executable."""

    def __init__(self, executable: str,
                 target_args: list[str] | None = None):
        self.handle: DebuggerHandle = spawn_debugger(executable, target_args)
        self._stop: StopInfo | None = None
        self._stack: tuple[int, list[Frame]] | None = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def stop(self) -> StopInfo | None:
        return self._stop

    @property
    def stopped(self) -> bool:
        """True when the inferior is paused with a live stack."""
        return self._stop is not None and self._stop.kind != "exited"

    def _ask(self, command: str, read: Callable):
        """read(payload) of command's usable answer; see MIOutput.result."""
        record = self.handle.send_command(command).result(EvaluationError)
        return _read(f"answer to {command}", read, record.payload)

    def _require_stack(self) -> None:
        if not self.stopped:
            raise NotStopped("no stopped inferior; run the target first")

    def close(self) -> None:
        self.handle.close()

    def __enter__(self) -> "DebugSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- running -----------------------------------------------------------

    def run_to_stop(self, stdin_text: str | None = None) -> StopInfo:
        """Start the target and block until it stops or exits.  What it
        has not read of stdin_text when it stops is dropped."""
        self.handle.send_command("-exec-run").result(DebuggerExited)
        return self._await_stop(stdin_text)

    def _await_stop(self, stdin_text: str | None = None) -> StopInfo:
        self._stack = None
        self._stop = _read("*stopped record", self._decode_stop,
                           self.handle.wait_for_stop(RUN_TIMEOUT, stdin_text))
        return self._stop

    def _decode_stop(self, rec: MIRecord) -> StopInfo:
        payload = rec.payload
        reason = payload.get("reason", "")
        frame = (_frame_from_payload(payload["frame"]) if "frame" in payload
                 else None)

        if reason == "signal-received":
            info = StopInfo(
                kind="signal",
                signal_name=_text(payload.get("signal-name", "")),
                signal_meaning=_text(payload.get("signal-meaning", "")),
                frame=frame,
            )
            if info.signal_name == "SIGABRT":
                info.assertion_text = self._detect_assertion()
                if info.assertion_text:
                    info.kind = "assertion"
            return info
        if reason in ("exited", "exited-normally", "exited-signalled"):
            # gdb reports inferior exit codes in octal.
            code = int(payload.get("exit-code", "0"), 8)
            return StopInfo(kind="exited", exit_code=code, frame=frame)
        if reason == "breakpoint-hit":
            return StopInfo(kind="breakpoint", frame=frame)
        return StopInfo(kind="other", frame=frame)

    def _detect_assertion(self) -> str:
        """Scan recent target output for a failed-assertion report."""
        text = self.handle.target_output()
        tail = text.splitlines()[-ASSERT_SCAN_LINES:]
        for line in reversed(tail):
            m = ASSERT_PATTERN.search(line)
            if m:
                return (m.group(1) or m.group(2)).strip()
        return ""

    # -- stack inspection --------------------------------------------------

    def _snapshot(self) -> tuple[int, list[Frame]]:
        """The stop's depth and innermost frames, asked of the debugger once."""
        self._require_stack()
        if self._stack is None:
            depth = self._ask(f"-stack-info-depth {DEPTH_PROBE_CAP}",
                              lambda payload: int(payload["depth"]))
            frames = []
            if depth:
                frames = self._ask(
                    f"-stack-list-frames 0 {min(depth, DEFAULT_FRAME_CAP) - 1}",
                    lambda payload: [_frame_from_payload(entry["frame"])
                                     for entry in payload["stack"]])
            self._stack = (depth, frames)
        return self._stack

    def stack_depth(self) -> int:
        """Frames on the stopped stack, counted up to DEPTH_PROBE_CAP."""
        return self._snapshot()[0]

    def backtrace(self) -> list[Frame]:
        """The innermost frames, at most DEFAULT_FRAME_CAP of them."""
        return list(self._snapshot()[1])

    def frame_variables(self, level: int) -> list[Binding]:
        """Locals and arguments of one frame, values filled in.

        Aggregate values (arrays, structs) are omitted by the listing
        command and fetched with a frame-scoped evaluation instead.
        """
        self._require_stack()
        listed = self._ask(
            f"-stack-list-variables --thread 1 --frame {level} --simple-values",
            lambda payload: [(_text(var["name"]), _text(var.get("value")),
                              _text(var.get("type", "")))
                             for var in payload["variables"]])
        return [Binding(name=name, type=type_, value=self._value(name, level)
                        if value is None else value)
                for name, value, type_ in listed]

    def evaluate(self, expression: str, frame: int | None = None) -> str:
        """Evaluate an expression, optionally in a specific frame's scope."""
        scope = f"--thread 1 --frame {frame} " if frame is not None else ""
        return self._ask(
            f"-data-evaluate-expression {scope}{_quote_mi_arg(expression)}",
            lambda payload: _text(payload["value"]))

    def global_variables(self, fullname: str, frame: int) -> list[Binding]:
        """The first DEFAULT_GLOBALS_CAP file-scope variables of one file.

        Values are read in the given frame's scope so file statics resolve.
        """
        self._require_stack()
        # file_symbols parses only this file's entries of the table.
        out = self.handle.send_command("-symbol-info-variables")
        symbols = _read("answer to -symbol-info-variables", lambda syms: sorted(
            (int(sym.get("line", "0")), _text(sym["name"]),
             _text(sym.get("type", ""))) for sym in syms),
            file_symbols(out, fullname))
        return [Binding(name=name, value=self._value(name, frame), type=type_)
                for _, name, type_ in symbols[:DEFAULT_GLOBALS_CAP]]

    def _value(self, name: str, frame: int) -> str:
        """The variable's value in the frame, or "<unreadable>"."""
        try:
            return self.evaluate(name, frame=frame)
        except EvaluationError:
            return "<unreadable>"

    def symbol_definition(self, name: str) -> tuple[str, int] | None:
        """Where a function, variable, or type with this name is defined.

        Returns (fullname, line) from the debug info, or None.
        """
        pattern = _quote_mi_arg("^" + re.escape(name) + "$")
        for kind in ("functions", "variables", "types"):
            try:
                found = self._ask(f"-symbol-info-{kind} --name {pattern}",
                                  lambda payload: _definition(payload, name))
            except EvaluationError:
                continue
            if found:
                return found
        return None

    # -- console passthrough ----------------------------------------------

    def execute_console(self, command: str) -> str:
        """Run one CLI debugger command, returning its console output.

        Commands that resume the target block until the next stop and
        refresh the recorded stop state.  The stack snapshot outlives only
        commands that the native-strict policy allows and that did not
        resume the target: others, like ``return``, may change the stack.
        """
        out = self.handle.send_command(
            f"-interpreter-exec console {_quote_mi_arg(command)}")
        if not sanitize(command, native_strict()).allowed:
            self._stack = None
        if out.result(EvaluationError).klass == "running":
            self._await_stop()
        return out.console_text


_CONTROL = re.compile(r"[\x00-\x1f\x7f]")


def _quote_mi_arg(text: str) -> str:
    """Quote an argument for the MI command line.

    Control characters are refused: a raw newline would end the MI line
    early and hand the rest to the debugger as a command of its own.
    """
    bad = _CONTROL.search(text)
    if bad:
        raise EvaluationError(f"control character {bad.group()!r} in "
                              f"{text!r}")
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
