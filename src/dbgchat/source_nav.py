"""Source navigation tools: windows by location and definition lookup.

`code` reuses the stack renderer's source window so both views are
byte-identical.  `definition` resolves a symbol occurring at a location
through the debugger's symbol tables, that is, the target's debug info.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .enrich import DEFAULT_RADIUS, _read_source, source_window
from .errors import (
    BadLocSyntax,
    DefinitionNotFound,
    SourceUnavailable,
    SymbolNotOnLine,
)


@dataclass(frozen=True)
class SourceLoc:
    file: str
    line: int

    def __post_init__(self):
        if self.line < 1:
            raise BadLocSyntax(f"line must be positive: {self.line}")

    def __str__(self) -> str:
        return f"{self.file}:{self.line}"


def parse_loc(text: str) -> SourceLoc:
    """Parse the textual form "filename:lineno"."""
    file, sep, lineno = text.rpartition(":")
    if not sep or not file:
        raise BadLocSyntax(f"expected filename:lineno, got {text!r}")
    try:
        line = int(lineno)
    except ValueError:
        raise BadLocSyntax(f"line number is not an integer in {text!r}")
    if line < 1:
        raise BadLocSyntax(f"line number must be positive in {text!r}")
    return SourceLoc(file=file, line=line)


def code(loc: SourceLoc, radius: int = DEFAULT_RADIUS) -> str:
    """The numbered source window around a location."""
    return source_window(loc.file, loc.line, radius)


# --------------------------------------------------------------------------
# Definition lookup
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Definition:
    loc: SourceLoc
    source: str


def _require_on_line(loc: SourceLoc, symbol: str) -> None:
    """Raise unless the symbol occurs as a whole word on the line at loc."""
    lines = _read_source(loc.file)
    if loc.line > len(lines):
        raise SourceUnavailable(f"{loc.file} has only {len(lines)} lines")
    text = lines[loc.line - 1]
    if not re.search(rf"\b{re.escape(symbol)}\b", text):
        raise SymbolNotOnLine(f"{symbol!r} does not occur at {loc}")


def definition(loc: SourceLoc, symbol: str, session,
               radius: int = DEFAULT_RADIUS) -> Definition:
    """Resolve where the symbol at loc is defined and show that source.

    The symbol must occur on the line at loc; its definition comes from
    the session's debug info.
    """
    _require_on_line(loc, symbol)
    found = session.symbol_definition(symbol)
    if found is None:
        raise DefinitionNotFound(f"no definition found for {symbol!r}")
    target = SourceLoc(file=found[0], line=found[1])
    return Definition(loc=target,
                      source=source_window(target.file, target.line, radius))
