"""Exception hierarchy shared across the package."""

from __future__ import annotations


class DbgChatError(Exception):
    """Base class for all errors raised by this package."""


# --- debugger process / protocol ---

class DebuggerError(DbgChatError):
    pass


class DebuggerNotFound(DebuggerError):
    """The debugger binary could not be executed."""


class TargetNotFound(DebuggerError):
    """The target executable does not exist."""


class DebuggerExited(DebuggerError):
    """The debugger child process died while a command was outstanding."""


class CommandTimeout(DebuggerError):
    """A debugger command did not complete within its deadline."""


class ProtocolError(DebuggerError):
    """A debugger answer had no usable result or not the shape expected."""


# --- session-level preconditions ---

class NotStopped(DebuggerError):
    """The operation requires a stopped target."""


class EvaluationError(DebuggerError):
    """Expression evaluation failed; carries the debugger's message."""


# --- source navigation ---

class SourceError(DbgChatError):
    pass


class SourceUnavailable(SourceError):
    """The requested source file cannot be read."""


class BadLocSyntax(SourceError):
    """A location string does not have the form filename:lineno."""


class SymbolNotOnLine(SourceError):
    """The symbol does not occur on the given source line."""


class DefinitionNotFound(SourceError):
    """No definition could be resolved for the symbol."""


# --- LLM client ---

class LlmError(DbgChatError):
    pass


class AuthError(LlmError):
    """Missing or rejected API key."""


class TransportError(LlmError):
    """Network failure talking to the completion endpoint."""


class RateLimited(LlmError):
    """The provider throttled the request."""

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class MalformedToolArgs(LlmError):
    """The provider produced a tool call whose arguments do not parse."""


class ScriptParseError(LlmError):
    """A scripted-dialog file is not valid."""


class ScriptExhausted(LlmError):
    """The scripted dialog has no entry for this turn."""


# --- prompt assembly ---

class BudgetImpossible(DbgChatError):
    """The untruncatable prompt sections alone exceed the token budget."""
