"""Parse and re-render the debugger's textual value output.

The debugger prints C values in a small grammar: scalars, quoted strings,
`{...}` aggregates (positional for arrays, `name = value` for structs),
run-length segments like `'R' <repeats 100 times>`, and pointers with an
optional string or symbol annotation.  This module parses that text into a
small tree and renders it back as plain text, under depth and width
limits:

- structure deeper than three levels collapses to "...";
- aggregates with more than six elements show the first three and last
  three around a "..." marker;
- char arrays printed in run form render as a character list, e.g.
  `['R', 'R', 'R', ..., 'B', 'B', 'B']`;
- pointer bindings are dereferenced one level (`addr → value`); null
  pointers and failed dereferences stay a bare address.

Parsing is total: unrecognized text becomes an opaque scalar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

MAX_DEPTH = 3
MAX_WIDTH = 6
HEAD = 3
TAIL = 3

_REPEATS = re.compile(r"^(.*?) <repeats (\d+) times>$")
_POINTER = re.compile(r"^0x[0-9a-fA-F]+$")
_POINTER_STRING = re.compile(r'^(0x[0-9a-fA-F]+) (".*")$')
_POINTER_SYMBOL = re.compile(r"^(0x[0-9a-fA-F]+) (<.+>)$")
_STRUCT_FIELD = re.compile(r"^([A-Za-z_$][A-Za-z0-9_$]*) = (.*)$", re.DOTALL)


@dataclass
class ValueNode:
    """One node of a parsed value: scalar, string, pointer, array, struct.

    Arrays store (element, count) runs so huge repeat counts never expand.
    """

    kind: str  # "scalar" | "string" | "pointer" | "array" | "struct"
    text: str = ""    # scalar text, string literal, or pointer address
    annot: str = ""   # pointer annotation: quoted string or <symbol>
    fields: list[tuple[str, "ValueNode"]] = field(default_factory=list)
    items: list[tuple["ValueNode", int]] = field(default_factory=list)

    @property
    def is_null_pointer(self) -> bool:
        return self.kind == "pointer" and int(self.text, 16) == 0


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------

def parse_value(text: str) -> ValueNode:
    """Parse one value as printed by the debugger.  Never raises."""
    try:
        return _parse(text.strip())
    except Exception:
        return ValueNode(kind="scalar", text=text.strip())


def _parse(text: str) -> ValueNode:
    if text.startswith("{") and text.endswith("}"):
        return _parse_braced(text[1:-1])

    segments = _split_top_level(text)
    if len(segments) > 1 or (segments and _REPEATS.match(segments[0])):
        # Run/segment form used for char arrays, no surrounding braces.
        return _parse_char_segments(segments)

    m = _POINTER_STRING.match(text)
    if m:
        return ValueNode(kind="pointer", text=m.group(1), annot=m.group(2))
    m = _POINTER_SYMBOL.match(text)
    if m:
        return ValueNode(kind="pointer", text=m.group(1), annot=m.group(2))
    if _POINTER.match(text):
        return ValueNode(kind="pointer", text=text)
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return ValueNode(kind="string", text=text)
    return ValueNode(kind="scalar", text=text)


def _parse_braced(inner: str) -> ValueNode:
    inner = inner.strip()
    if not inner:
        return ValueNode(kind="struct")
    elements = _split_top_level(inner)
    if all(_STRUCT_FIELD.match(e) for e in elements):
        fields = []
        for e in elements:
            m = _STRUCT_FIELD.match(e)
            fields.append((m.group(1), _parse_element(m.group(2))[0]))
        return ValueNode(kind="struct", fields=fields)
    items = [_parse_element(e) for e in elements]
    return ValueNode(kind="array", items=items)


def _parse_element(text: str) -> tuple[ValueNode, int]:
    """Parse one array element, honoring `<repeats N times>` runs."""
    m = _REPEATS.match(text)
    if m:
        return _parse(m.group(1)), int(m.group(2))
    return _parse(text), 1


def _parse_char_segments(segments: list[str]) -> ValueNode:
    """Brace-free char array: quoted chunks and repeat runs, comma-joined."""
    items: list[tuple[ValueNode, int]] = []
    for seg in segments:
        if seg.startswith('"') and seg.endswith('"'):
            items.extend((ValueNode(kind="scalar", text=f"'{ch}'"), 1)
                         for ch in seg[1:-1])
        else:
            items.append(_parse_element(seg))
    return ValueNode(kind="array", items=items)


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


# --------------------------------------------------------------------------
# Rendering
# --------------------------------------------------------------------------

def _take(runs: list[tuple[object, int]], k: int) -> list:
    """The first k elements of a run-length list, runs expanded."""
    out: list = []
    for element, count in runs:
        out.extend([element] * min(count, k - len(out)))
        if len(out) == k:
            break
    return out


def render_node(node: ValueNode, depth: int = 1) -> str:
    """Render a parsed value; depth is the nesting level node sits at."""
    if node.kind in ("scalar", "string"):
        return node.text
    if node.kind == "pointer":
        return f"{node.text} {node.annot}" if node.annot else node.text
    array = node.kind == "array"
    if depth >= MAX_DEPTH:
        return "[...]" if array else "{...}"
    # Runs of (label, child): array elements are unlabelled, and each
    # struct field is a run of one.
    runs = ([(("", child), count) for child, count in node.items] if array
            else [((f"{name} = ", child), 1) for name, child in node.fields])

    def show(entry: tuple[str, ValueNode]) -> str:
        return entry[0] + render_node(entry[1], depth + 1)

    if sum(count for _, count in runs) > MAX_WIDTH:
        parts = [*map(show, _take(runs, HEAD)), "...",
                 *map(show, _take(runs[::-1], TAIL)[::-1])]
    else:
        parts = [text for element, count in runs
                 for text in [show(element)] * count]
    body = ", ".join(parts)
    return f"[{body}]" if array else f"{{{body}}}"


def render_value(name: str, raw_value: str, is_pointer: bool = False,
                 evaluator=None) -> str:
    """Render one binding's value under the depth and width limits.

    evaluator, when given, maps an expression string to value text and is
    used for the one-level dereference of pointer bindings.  Rendering is
    total: evaluator failures degrade to the bare address.
    """
    node = parse_value(raw_value)
    if node.kind != "pointer":
        return render_node(node)
    if node.is_null_pointer:
        return node.text
    if node.annot.startswith('"'):
        return f"{node.text} → {node.annot}"
    if node.annot or not is_pointer or evaluator is None:
        return render_node(node)
    try:
        pointee = parse_value(evaluator(f"*{name}"))
    except Exception:
        return node.text
    return f"{node.text} → {render_node(pointee, depth=2)}"
