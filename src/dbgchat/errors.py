"""The package's exception classes, the two helpers its records share,
and the line splitter its two stream readers share.

An exception class exists where code catches it, or where it is the base
of one that code catches; its message says the rest.  A failure that no
handler tells apart from its neighbours raises their common base with a
message of its own.
"""

from __future__ import annotations


class DbgChatError(Exception):
    """Base class for all errors raised by this package."""


# --- debugger process / protocol ---

class DebuggerError(DbgChatError):
    """The debugger or its target could not be started, or a command went
    unanswered."""


class DebuggerExited(DebuggerError):
    """The debugger child process died while a command was outstanding."""


class ProtocolError(DebuggerError):
    """A debugger answer had no usable result or not the shape expected."""


# --- session-level preconditions ---

class NotStopped(DebuggerError):
    """The operation requires a stopped target."""


class EvaluationError(DebuggerError):
    """Expression evaluation failed; carries the debugger's message."""


# --- source navigation ---

class SourceError(DbgChatError):
    """A tool's location is malformed, or its symbol or definition was not
    found."""


class SourceUnavailable(SourceError):
    """The requested source file cannot be read, or lies outside the
    workspace root."""


# --- LLM client ---

class LlmError(DbgChatError):
    """The API key, the provider, the transport, a tool call or the --script
    dialog failed."""


# --- prompt assembly ---

class BudgetImpossible(DbgChatError):
    """The untruncatable prompt sections alone exceed the token budget."""


# --- records ---

class Record:
    """Equality by fields: a record equals another of its own class whose
    fields, the values ``_fields`` gives, are equal.  Records are not
    hashable."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()


def refuse_change(record, name: str, value=None):
    """``__setattr__`` and ``__delattr__`` of a record that never changes
    once built."""
    raise AttributeError(f"cannot assign to field {name!r}")


def split_lines(chunk: bytes, pieces: list[bytes]) -> list[bytes]:
    """The lines, without newlines, that ``chunk`` completes.  ``pieces``
    keeps the unfinished line's pieces between calls, so that only the new
    chunk is split and a line is joined once, when its newline arrives."""
    *lines, rest = chunk.split(b"\n")
    if lines and pieces:
        pieces.append(lines[0])
        lines[0] = b"".join(pieces)
        pieces.clear()
    if rest:
        pieces.append(rest)
    return lines
