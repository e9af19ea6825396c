"""Vet model-issued debugger commands before they reach the debugger.

Three policies: NativeStrict allows read-only inspection commands and
rejects anything containing a function call, an assignment or an
increment; Whitelist additionally permits calls to an explicit set of
function names; Unsafe allows everything and can only be constructed when
the user passed --unsafe.
Call detection is lexical and deliberately conservative: over-denial is
acceptable, silent execution of target code is not.
"""

from __future__ import annotations

import enum
import re

from .errors import refuse_change


class Mode(enum.Enum):
    NATIVE_STRICT = "native-strict"
    WHITELIST = "whitelist"
    UNSAFE = "unsafe"


#: Read-only inspection commands the model may run.
DEFAULT_PREFIXES = frozenset({
    "bt", "backtrace", "where", "up", "down", "frame", "f",
    "p", "print", "output", "list", "l", "info", "x",
    "ptype", "whatis", "display", "show", "help", "echo",
})

#: First words that would resume or otherwise alter target execution.
RESUME_COMMANDS = frozenset({
    "run", "r", "start", "continue", "c", "step", "s", "next", "n",
    "finish", "until", "u", "advance", "jump", "return", "call",
    "kill", "detach", "attach",
})

#: Second words that make `frame` or `f` run a command of its own: gdb's
#: `frame apply ... COMMAND`, by any unique prefix of "apply" ("a" alone
#: is ambiguous with "address").
_FRAME_APPLY = frozenset({"ap", "app", "appl", "apply"})


class Verdict:
    __slots__ = ("allowed", "reason")
    __setattr__ = __delattr__ = refuse_change

    def __init__(self, allowed: bool, reason: str = ""):
        object.__setattr__(self, "allowed", allowed)
        object.__setattr__(self, "reason", reason)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.allowed, self.reason)
                == (other.allowed, other.reason))


_ALLOW = Verdict(True)


def _deny(reason: str) -> Verdict:
    return Verdict(False, reason)


class SanitizerPolicy:
    __slots__ = ("mode", "functions", "unsafe_ack")
    __setattr__ = __delattr__ = refuse_change

    def __init__(self, mode: Mode, functions: frozenset[str] = frozenset(),
                 unsafe_ack: bool = False):
        if mode is Mode.UNSAFE and not unsafe_ack:
            raise ValueError("unsafe mode requires the --unsafe flag")
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "functions", functions)
        object.__setattr__(self, "unsafe_ack", unsafe_ack)


def native_strict() -> SanitizerPolicy:
    return SanitizerPolicy(Mode.NATIVE_STRICT)


def whitelist(functions) -> SanitizerPolicy:
    return SanitizerPolicy(Mode.WHITELIST, functions=frozenset(functions))


def unsafe_policy(flag_given: bool) -> SanitizerPolicy:
    if not flag_given:
        raise ValueError("unsafe mode requires the --unsafe flag")
    return SanitizerPolicy(Mode.UNSAFE, unsafe_ack=True)


# An identifier directly before "(" is a call; sizeof and friends are
# operators with call-like spelling.  ")(" and "](" catch calls through
# pointers, at the cost of over-denying parenthesized casts.
_CALL = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
_INDIRECT_CALL = re.compile(r"[\)\]]\s*\(")
_CALL_EXEMPT = frozenset({
    "sizeof", "alignof", "_Alignof", "typeof", "__typeof__", "offsetof",
})


# Assignment, compound assignment and increment/decrement write to the
# target; ==, !=, <= and >= are the only operators spelled with "=" that
# merely compare.
_SIDE_EFFECT = re.compile(r"\+\+|--|<<=|>>=|[!=<>]=|[-+*/%&|^]?=")
_COMPARISONS = frozenset({"==", "!=", "<=", ">="})


def called_functions(text: str) -> list[str]:
    """Names of all functions a command would call, in order."""
    return [m.group(1) for m in _CALL.finditer(text)
            if m.group(1) not in _CALL_EXEMPT]


def sanitize(command: str, policy: SanitizerPolicy) -> Verdict:
    """Decide whether the debugger may see this command.  Pure and total."""
    if policy.mode is Mode.UNSAFE:
        return _ALLOW
    text = command.strip()
    if not text:
        return _deny("empty command")
    # "p/x foo" carries its format in the first word; strip it for lookup.
    parts = text.split(None, 1)
    expression = parts[1] if len(parts) > 1 else ""
    word = parts[0].split("/", 1)[0]
    if word not in DEFAULT_PREFIXES:
        if word in RESUME_COMMANDS:
            return _deny(f"'{word}' resumes or alters target execution")
        return _deny(f"'{word}' is not an allowed command")
    if (word in ("frame", "f") and expression
            and expression.split(None, 1)[0].lower() in _FRAME_APPLY):
        return _deny(f"'{word} apply' runs a command of its own")
    for match in _SIDE_EFFECT.finditer(expression):
        if match.group() not in _COMPARISONS:
            return _deny(f"'{match.group()}' would modify the program")
    if _INDIRECT_CALL.search(expression):
        return _deny("indirect function call")
    permitted = policy.functions if policy.mode is Mode.WHITELIST \
        else frozenset()
    for name in called_functions(expression):
        if name not in permitted:
            if policy.mode is Mode.WHITELIST:
                return _deny(f"calls function '{name}', which is not on "
                             "the whitelist")
            return _deny(f"calls function '{name}'")
    return _ALLOW


def load_whitelist(path: str) -> frozenset[str]:
    """Read one function name per line; blanks and # comments ignored."""
    names = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not re.fullmatch(r"[A-Za-z_]\w*", line):
                raise ValueError(
                    f"{path}:{lineno}: not a function name: {line!r}")
            names.add(line)
    return frozenset(names)
