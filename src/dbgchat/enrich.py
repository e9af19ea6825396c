"""Build the enriched stack trace sent to the model.

Takes a stopped session and produces, frame by frame: a numbered source
window with the current line marked, every variable with its declared type
and a depth/width-limited value, and (for the outermost user frame) global
variables.  Runs of library frames, frames without source, and frames
beyond the depth cap collapse into hidden-frame markers.

The model's tools read source through the same code: the reply to `code`
is this source window, and `definition` builds the reply to that tool.

Layout, top to bottom, outermost frame first:

    [... skipping 2 hidden frame(s)]

    main.c(31)main()
         26 ...
    ---> 31 ...

       Variables in this frame:
         argc: int = 1

       Global variables:
         table_size: int = 9

    > util.c(9)checksum()
      ...
"""

from __future__ import annotations

import functools
import os
import re
from collections.abc import Callable

from .errors import NotStopped, Record, SourceError, SourceUnavailable
from .session import Binding, Frame, shown_value
from .values import follows_pointer, render_value

DEFAULT_RADIUS = 5


def _read_source(path: str) -> list[str]:
    """The lines of a source file; SourceUnavailable if it cannot be read."""
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return fh.read().splitlines()
    except OSError as exc:
        raise SourceUnavailable(f"{path}: {exc.strerror or exc}") from exc


def source_window(path: str, line: int, radius: int = DEFAULT_RADIUS,
                  read: Callable[[str], list[str]] = _read_source) -> str:
    """A numbered source block around line, the line itself marked.

    The window spans 2*radius lines, clamped at file boundaries but kept at
    full size whenever the file allows it.  `read` gives the file's lines.
    """
    lines = read(path)
    if not 1 <= line <= len(lines):
        raise SourceUnavailable(f"{path}:{line} is past end of file")

    size = 2 * radius
    start = max(1, line - radius)
    end = min(len(lines), start + size - 1)
    start = max(1, end - size + 1)
    width = len(str(end))
    out = []
    for num in range(start, end + 1):
        prefix = "---> " if num == line else "     "
        out.append(f"{prefix}{str(num).rjust(width)} {lines[num - 1]}".rstrip())
    return "\n".join(out)


def definition(path: str, line: int, symbol: str, session,
               radius: int) -> str:
    """Where the symbol on that line is defined: its path:line, a newline,
    then the source window there.

    The symbol must occur as a whole word on the line; its definition
    comes from the session's debug info.
    """
    lines = _read_source(path)
    if line > len(lines):
        raise SourceUnavailable(f"{path} has only {len(lines)} lines")
    if not re.search(rf"\b{re.escape(symbol)}\b", lines[line - 1]):
        raise SourceError(f"{symbol!r} does not occur at {path}:{line}")
    found = session.symbol_definition(symbol)
    if found is None:
        raise SourceError(f"no definition found for {symbol!r}")
    def_path, def_line = found
    window = source_window(def_path, def_line, radius)
    return f"{def_path}:{def_line}\n{window}"


def _head(frame: Frame) -> str:
    return f"{frame.file}({frame.line}){frame.func}()"


class EnrichedFrame(Record):
    __slots__ = ("frame", "window", "bindings", "globals", "marked")

    def __init__(self, frame: Frame, window: str | None,
                 bindings: list[tuple[str, str, str]],
                 globals: list[tuple[str, str, str]] | None = None,
                 marked: bool = False):
        self.frame = frame
        self.window = window
        self.bindings = bindings  # (name, type, rendered value)
        self.globals = [] if globals is None else globals
        self.marked = marked

    def render(self) -> str:
        head = _head(self.frame)
        if self.marked:
            head = "> " + head
        parts = [head]
        if self.window:
            parts.append(self.window)
        body = "\n".join(parts)
        for title, bindings in (("Variables in this frame:", self.bindings),
                                ("Global variables:", self.globals)):
            if not bindings:
                continue
            lines = [f"   {title}"]
            for name, type_, value in bindings:
                decl = f"{name}: {type_}" if type_ else name
                lines.append(f"     {decl} = {value}")
            body += "\n\n" + "\n".join(lines)
        return body


class ElisionMarker(Record):
    __slots__ = ("hidden_count", "budget_cut")

    def __init__(self, hidden_count: int, budget_cut: bool = False):
        self.hidden_count = hidden_count
        # Dropped to fit the prompt, not hidden code.
        self.budget_cut = budget_cut

    def render(self) -> str:
        if self.budget_cut:
            return (f"[... {self.hidden_count} frame(s) omitted to fit the "
                    "token budget]")
        return f"[... skipping {self.hidden_count} hidden frame(s)]"


class EnrichedStack(Record):
    """Entries outermost-first.  A bare Frame is a user frame the budget
    left unfetched; it renders as nothing and is not counted as shown."""

    __slots__ = ("entries",)

    def __init__(self, entries: list[EnrichedFrame | ElisionMarker | Frame]):
        self.entries = entries

    @property
    def shown_count(self) -> int:
        return sum(1 for e in self.entries if isinstance(e, EnrichedFrame))

    def render(self) -> str:
        return "\n\n".join(e.render() for e in self.entries
                           if not isinstance(e, Frame))


def user_frame_test(workspace_root: str) -> Callable[[Frame], bool]:
    """A test for user code: a frame whose source file lives under the root.

    The debugger reports resolvable sources with absolute paths; library
    frames often carry relative build-tree paths, which never qualify.  The
    root is resolved once, here.  A path that starts with exactly two
    slashes has a root of its own, as in pathlib.
    """
    root = os.path.abspath(workspace_root)
    prefix = os.path.join(root, "")
    double_slash = root.startswith("//")

    def is_user_frame(frame: Frame) -> bool:
        if not frame.has_source or frame.line is None:
            return False
        path = frame.fullname or frame.file
        if not os.path.isabs(path):
            return False
        path = os.path.normpath(path)
        return ((path == root or path.startswith(prefix))
                and path.startswith("//") == double_slash)
    return is_user_frame


def _render_bindings(session, bindings: list[Binding],
                     level: int) -> list[tuple[str, str, str]]:
    """(name, type, rendered value) per binding; a repeated name keeps
    its first binding.

    One batch, in the frame's scope, evaluates the values that are None,
    then dereferences the pointers that follows_pointer picks.  gdb lists
    the value of every pointer, leaving out only those of arrays, structs
    and unions, so the pointers are known before the batch is written.
    """
    first: dict[str, Binding] = {}
    for b in bindings:
        first.setdefault(b.name, b)
    missing = [b for b in bindings if b.value is None]
    derefs = [f"*{b.name}" for b in first.values() if b.value is not None
              and follows_pointer(b.value, b.is_pointer)]
    answers = session.evaluate([b.name for b in missing] + derefs, level)
    for b, answer in zip(missing, answers):
        b.value = shown_value(answer)
    pointees = dict(zip(derefs, answers[len(missing):]))

    def lookup(expression: str) -> str:
        """A dereference's value as read above; the error its answer
        raised, or KeyError for one the batch did not hold."""
        answer = pointees[expression]
        if not isinstance(answer, str):
            raise answer
        return answer
    return [(b.name, b.type, render_value(b.name, b.value,
                                          is_pointer=b.is_pointer,
                                          evaluator=lookup))
            for b in first.values()]


def _cost(text: str) -> int:
    """Bytes an entry rendered as `text` adds to the stack, with the blank
    line that joins it to the next."""
    return len(text.encode("utf-8")) + 2


def build_enriched_stack(session, workspace_root: str,
                         radius: int = DEFAULT_RADIUS,
                         room: int | None = None) -> EnrichedStack:
    """Enrich the stopped session's stack.  Raises NotStopped otherwise.

    `room` is the bytes a prompt leaves for the entries, each counted with
    its separator.  User frames are then enriched innermost-out until the
    stack cannot fit even if every frame further out were cut behind the
    budget's note, or shown as a bare head line, whichever is smaller; the
    frame that overflows is the last one fetched, and the outermost
    frame's globals are fetched only if the walk gets past it.  Without
    `room` every frame is enriched.
    """
    if not session.stopped:
        raise NotStopped("cannot enrich a stack without a stopped target")
    total = session.stack_depth()
    frames = session.backtrace()

    is_user_frame = user_frame_test(workspace_root)
    entries: list[EnrichedFrame | ElisionMarker | Frame] = []
    pending_hidden = total - len(frames)  # frames beyond the cap, outermost
    for frame in reversed(frames):
        if not is_user_frame(frame):
            pending_hidden += 1
            continue
        if pending_hidden:
            entries.append(ElisionMarker(pending_hidden))
            pending_hidden = 0
        entries.append(frame)
    if pending_hidden:
        entries.append(ElisionMarker(pending_hidden))

    user = [i for i, e in enumerate(entries) if isinstance(e, Frame)]
    used = sum(_cost(e.render()) for e in entries
               if isinstance(e, ElisionMarker))
    outside = sum(_cost(_head(entries[i])) for i in user)
    read = functools.cache(_read_source)  # each file once per build
    for outer in reversed(range(len(user))):  # user frames outside this one
        frame = entries[user[outer]]
        outside -= _cost(_head(frame))
        enriched = _enrich_frame(session, frame, radius, read)
        enriched.marked = outer == len(user) - 1
        entries[user[outer]] = enriched
        used += _cost(enriched.render())
        if room is not None and used + min(
                outside,
                _cost(ElisionMarker(outer, budget_cut=True).render())) > room:
            break
    else:
        if user:
            outermost = entries[user[0]]
            level = outermost.frame.level
            outermost.globals = _render_bindings(
                session, session.global_variables(outermost.frame.fullname,
                                                  frame=level), level)
    return EnrichedStack(entries=entries)


def _enrich_frame(session, frame: Frame, radius: int,
                  read: Callable[[str], list[str]]) -> EnrichedFrame:
    try:
        window = source_window(frame.fullname or frame.file, frame.line,
                               radius, read)
    except SourceUnavailable:
        window = None
    bindings = _render_bindings(session, session.frame_variables(frame.level),
                                frame.level)
    return EnrichedFrame(frame=frame, window=window, bindings=bindings)
