"""Render the debugger's textual value output under depth and width limits.

The debugger prints C values in a small grammar: scalars, quoted strings,
`{...}` aggregates (positional for arrays, `name = value` for structs),
run-length segments like `'R' <repeats 100 times>`, and pointers with an
optional string or symbol annotation.  Values stay text until they are
rendered: each aggregate level is split into its elements' texts, and
only the elements that are shown are rendered in turn.  The limits:

- structure deeper than three levels collapses to "...";
- aggregates with more than six elements show the first three and last
  three around a "..." marker;
- char arrays printed in run form render as a character list, e.g.
  `['R', 'R', 'R', ..., 'B', 'B', 'B']`;
- pointer bindings are dereferenced one level (`addr → value`); null
  pointers and failed dereferences stay a bare address.

Rendering is total: unrecognized text is shown as it is.
"""

from __future__ import annotations

import re

MAX_DEPTH = 3
MAX_WIDTH = 6
HEAD = 3
TAIL = 3

_REPEATS = re.compile(r"^(.*?) <repeats (\d+) times>$")
_POINTER = re.compile(r'^(0x[0-9a-fA-F]+)(?: (".*"|<.+>))?$')
_ADDRESS = re.compile(r"0x[0-9a-fA-F]+")
_STRUCT_FIELD = re.compile(r"^([A-Za-z_$][A-Za-z0-9_$]*) = (.*)$", re.DOTALL)


def _split_top_level(text: str) -> list[str]:
    """Split on ", " outside braces, brackets, and quotes."""
    parts: list[str] = []
    depth = 0
    quote = ""
    start = 0
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if quote:
            if ch == "\\" and quote == '"':
                i += 2
                continue
            if ch == quote:
                quote = ""
        elif ch in "\"'":
            quote = ch
        elif ch in "{[(<":
            depth += 1
        elif ch in "}])>":
            depth = max(0, depth - 1)
        elif ch == "," and depth == 0 and text[i:i + 2] == ", ":
            parts.append(text[start:i])
            i += 2
            start = i
            continue
        i += 1
    parts.append(text[start:])
    return [p for p in parts if p != ""]


def _element(text: str) -> tuple[str, int]:
    """One element's text and count, honoring `<repeats N times>` runs."""
    m = _REPEATS.match(text)
    return (m.group(1), int(m.group(2))) if m else (text, 1)


def _aggregate(text: str) -> tuple[bool, list] | None:
    """(is_array, runs) for an aggregate's top level; None for a leaf.

    Each run is ((label, element text), count): array elements are
    unlabelled, and each struct field is a run of one.  The element texts
    are not looked into.
    """
    if text.startswith("{") and text.endswith("}"):
        elements = _split_top_level(text[1:-1].strip())
        if all(map(_STRUCT_FIELD.match, elements)):
            # A field keeps only the text of a `<repeats N times>` value.
            return False, [((f"{m.group(1)} = ", _element(m.group(2))[0]), 1)
                           for m in map(_STRUCT_FIELD.match, elements)]
        return True, [(("", element), count)
                      for element, count in map(_element, elements)]
    segments = _split_top_level(text)
    if len(segments) > 1 or (segments and _REPEATS.match(segments[0])):
        # Run/segment form used for char arrays, no surrounding braces.
        runs = []
        for seg in segments:
            if seg.startswith('"') and seg.endswith('"'):
                runs.extend((("", f"'{ch}'"), 1) for ch in seg[1:-1])
            else:
                element, count = _element(seg)
                runs.append((("", element), count))
        return True, runs
    return None


def _take(runs: list[tuple[object, int]], k: int) -> list:
    """The first k elements of a run-length list, runs expanded."""
    out: list = []
    for element, count in runs:
        out.extend([element] * min(count, k - len(out)))
        if len(out) == k:
            break
    return out


def _render(text: str, depth: int = 1) -> str:
    """Render value text; depth is the nesting level its top sits at."""
    shape = _aggregate(text)
    if shape is None:
        return text
    array, runs = shape
    if depth >= MAX_DEPTH:
        return "[...]" if array else "{...}"

    def show(entry: tuple[str, str]) -> str:
        return entry[0] + _render(entry[1], depth + 1)

    if sum(count for _, count in runs) > MAX_WIDTH:
        parts = [*map(show, _take(runs, HEAD)), "...",
                 *map(show, _take(runs[::-1], TAIL)[::-1])]
    else:
        parts = [shown for element, count in runs
                 for shown in [show(element)] * count]
    body = ", ".join(parts)
    return f"[{body}]" if array else f"{{{body}}}"


def follows_pointer(raw_value: str, is_pointer: bool) -> bool:
    """Whether a binding gets a one-level dereference: a pointer binding
    whose value is a bare address other than null."""
    text = raw_value.strip()
    return (is_pointer and _ADDRESS.fullmatch(text) is not None
            and int(text, 16) != 0)


def render_value(name: str, raw_value: str, is_pointer: bool = False,
                 evaluator=None) -> str:
    """Render one binding's value under the depth and width limits.

    evaluator, when given, maps an expression string to value text and is
    used for the one-level dereference that follows_pointer calls for.
    Rendering is total: evaluator failures degrade to the bare address.
    """
    text = raw_value.strip()
    if evaluator is not None and follows_pointer(text, is_pointer):
        try:
            return f"{text} → {_render(evaluator(f'*{name}').strip(), 2)}"
        except Exception:
            return text
    pointer = _POINTER.match(text)
    try:
        # Pointer-shaped text that also splits as an aggregate is one.
        if pointer is None or _aggregate(text) is not None:
            return _render(text)
    except ValueError:  # a repeat count too long for int()
        return text
    address, annot = pointer.groups()
    if int(address, 16) == 0:
        return address
    if annot and annot.startswith('"'):
        return f"{address} → {annot}"
    return text
