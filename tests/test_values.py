"""Depth- and width-limited rendering of value text."""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from hypothesis import given, settings
from hypothesis import strategies as st

from dbgchat.values import (
    _REPEATS,
    _STRUCT_FIELD,
    HEAD,
    MAX_DEPTH,
    MAX_WIDTH,
    TAIL,
    _render,
    _split_top_level,
    render_value,
)


def render_text(raw, **kw):
    return render_value("v", raw, **kw)


# -- fixed oracles ---------------------------------------------------------

def test_scalar_int():
    assert render_value("x", "5") == "5"


def test_char_array_run_form_matches_reference_shape():
    raw = "'R' <repeats 100 times>, 'B' <repeats 50 times>"
    out = render_value("marbles", raw)
    assert out == "['R', 'R', 'R', ..., 'B', 'B', 'B']"


def test_small_array_fully_shown():
    assert render_text("{1, 2, 3}") == "[1, 2, 3]"
    assert render_text("{1, 2, 3, 4, 5, 6}") == "[1, 2, 3, 4, 5, 6]"


def test_seven_element_array_truncates():
    assert render_text("{1, 2, 3, 4, 5, 6, 7}") == "[1, 2, 3, ..., 5, 6, 7]"


def test_eight_element_array():
    assert render_text("{1, 2, 3, 4, 5, 6, 7, 8}") == "[1, 2, 3, ..., 6, 7, 8]"


def test_repeats_inside_braces():
    assert render_text("{0 <repeats 32 times>}") == "[0, 0, 0, ..., 0, 0, 0]"


def test_nested_struct_depth_limit():
    raw = ("{part = {nested = {depth3_a = 41, depth3_b = 42}, "
           "depth2_x = 7}, depth1_id = 99}")
    out = render_value("snap", raw)
    assert out == "{part = {nested = {...}, depth2_x = 7}, depth1_id = 99}"
    assert max_open_depth(out) == MAX_DEPTH


def test_two_deep_struct_untouched():
    raw = "{nested = {depth3_a = 41}, depth2_x = 7}"
    assert render_value("v", raw) == raw


def test_nested_array_of_arrays():
    assert render_text("{{{1, 2}, {3, 4}}, {{5, 6}, {7, 8}}}") == (
        "[[[...], [...]], [[...], [...]]]")


def test_struct_field_width_rule():
    raw = "{a = 1, b = 2, c = 3, d = 4, e = 5, f = 6, g = 7}"
    assert render_text(raw) == "{a = 1, b = 2, c = 3, ..., e = 5, f = 6, g = 7}"


def test_string_value_passes_through():
    assert render_text('"demo"') == '"demo"'


def test_mixed_string_and_run_segments():
    raw = "\"ab\", 'x' <repeats 20 times>"
    assert render_text(raw) == "['a', 'b', 'x', ..., 'x', 'x', 'x']"


def test_null_pointer_stays_bare():
    out = render_value("cursor", "0x0", is_pointer=True,
                       evaluator=lambda e: "should not be called")
    assert out == "0x0"


def test_pointer_dereferences_one_level():
    out = render_value("p", "0x7ffc000011a4", is_pointer=True,
                       evaluator=lambda e: "42" if e == "*p" else "?")
    assert out == "0x7ffc000011a4 → 42"


def test_pointer_failed_deref_stays_bare():
    def boom(expr):
        raise RuntimeError("Cannot access memory")
    out = render_value("p", "0x7ffc000011a4", is_pointer=True, evaluator=boom)
    assert out == "0x7ffc000011a4"


def test_pointer_without_evaluator_stays_bare():
    assert render_text("0x7ffc000011a4", is_pointer=True) == "0x7ffc000011a4"


def test_char_pointer_string_annotation():
    out = render_value("s", '0x55555555600a "hello"', is_pointer=True)
    assert out == '0x55555555600a → "hello"'


def test_function_pointer_keeps_symbol():
    out = render_value("fp", "0x555555555229 <main>", is_pointer=True)
    assert out == "0x555555555229 <main>"


def test_deref_counts_against_depth():
    # The pointee starts at depth 2: its direct aggregate children sit at
    # depth 3 and render opaque.
    out = render_value("p", "0x1000", is_pointer=True,
                       evaluator=lambda e: "{inner = {x = 1}, y = 2}")
    assert out == "0x1000 → {inner = {...}, y = 2}"


def test_optimized_out_passthrough():
    assert render_text("<optimized out>") == "<optimized out>"


def test_char_scalar_passthrough():
    assert render_text("82 'R'") == "82 'R'"


def test_gdb_own_ellipsis_survives():
    assert render_text("{1, 2, 3...}") == "[1, 2, 3...]"


# -- properties ------------------------------------------------------------

@given(st.text(max_size=80))
def test_parse_and_render_total(raw):
    assert isinstance(render_value("v", raw), str)


@dataclass
class Node:
    """One node of a parsed value: scalar, string, pointer, array, struct.

    Arrays store (element, count) runs so huge repeat counts never expand.
    The reference parser below builds these; the properties draw them and
    hand their gdb text to the renderer.
    """

    kind: str  # "scalar" | "string" | "pointer" | "array" | "struct"
    text: str = ""    # scalar text, string literal, or pointer address
    annot: str = ""   # pointer annotation: quoted string or <symbol>
    fields: list[tuple[str, "Node"]] = field(default_factory=list)
    items: list[tuple["Node", int]] = field(default_factory=list)

    @property
    def is_null_pointer(self) -> bool:
        return self.kind == "pointer" and int(self.text, 16) == 0


def gdb_text(node: Node) -> str:
    """The value as gdb prints it."""
    if node.kind == "array":
        return "{" + ", ".join(
            gdb_text(child) + (f" <repeats {count} times>" if count > 1
                               else "")
            for child, count in node.items) + "}"
    if node.kind == "struct":
        return "{" + ", ".join(f"{name} = {gdb_text(child)}"
                               for name, child in node.fields) + "}"
    return f"{node.text} {node.annot}" if node.annot else node.text


_scalars = st.integers(-999, 999).map(lambda i: Node("scalar", str(i)))


def _nodes(depth):
    if depth == 0:
        return _scalars
    sub = _nodes(depth - 1)
    return st.one_of(
        _scalars,
        st.builds(lambda items: Node("array", items=items),
                  st.lists(st.tuples(sub, st.integers(1, 30)), min_size=1,
                           max_size=5)),
        st.builds(lambda fields: Node("struct", fields=fields),
                  st.lists(st.tuples(st.from_regex(r"[a-z]{1,6}",
                                                   fullmatch=True), sub),
                           min_size=1, max_size=9)),
    )


@settings(max_examples=300)
@given(_nodes(3))
def test_depth_bound_holds_for_any_tree(node):
    # No more than MAX_DEPTH nesting levels appear in the text, and an
    # aggregate at level MAX_DEPTH shows nothing but its elision.
    text = render_text(gdb_text(node))
    assert max_open_depth(text) <= MAX_DEPTH
    assert set(bodies_at(text, MAX_DEPTH)) <= {"..."}


def max_open_depth(text: str) -> int:
    depth = best = 0
    for ch in text:
        if ch in "[{":
            depth += 1
            best = max(best, depth)
        elif ch in "]}":
            depth -= 1
    return best


def bodies_at(text: str, level: int) -> list[str]:
    """The text inside each bracket pair opened at nesting level."""
    bodies: list[str] = []
    depth = 0
    for ch in text:
        if ch in "]}":
            depth -= 1
        if depth >= level:
            bodies[-1] += ch
        if ch in "[{":
            depth += 1
            if depth == level:
                bodies.append("")
    return bodies


@settings(max_examples=300)
@given(st.lists(st.integers(-999, 999), min_size=7, max_size=60))
def test_width_rule_exact_for_flat_arrays(values):
    node = Node("array", items=[(Node("scalar", str(v)), 1) for v in values])
    inner = render_text(gdb_text(node))[1:-1].split(", ")
    assert len(inner) == HEAD + TAIL + 1
    assert inner[HEAD] == "..."
    assert inner[:HEAD] == [str(v) for v in values[:HEAD]]
    assert inner[-TAIL:] == [str(v) for v in values[-TAIL:]]


@settings(max_examples=300)
@given(st.lists(st.integers(-999, 999), min_size=1, max_size=MAX_WIDTH))
def test_small_arrays_conserved(values):
    node = Node("array", items=[(Node("scalar", str(v)), 1) for v in values])
    assert render_text(gdb_text(node)) == (
        "[" + ", ".join(str(v) for v in values) + "]")


@settings(max_examples=200)
@given(st.lists(st.tuples(st.sampled_from("abcxyz"),
                          st.integers(1, 40)), min_size=1, max_size=6))
def test_run_length_arrays_match_expanded_equivalent(runs):
    expanded = [ch for ch, count in runs for _ in range(count)]
    run_node = Node("array", items=[(Node("scalar", f"'{c}'"), n)
                                    for c, n in runs])
    flat_node = Node("array", items=[(Node("scalar", f"'{c}'"), 1)
                                     for c in expanded])
    assert (render_text(gdb_text(run_node))
            == render_text(gdb_text(flat_node)))


def test_rendering_tells_the_kinds_apart():
    # Only a pointer is dereferenced; a struct keeps its braces, an array
    # takes brackets, and strings and scalars pass through.
    deref = {"is_pointer": True, "evaluator": lambda expression: "7"}
    assert render_text("0x10", **deref) == "0x10 → 7"
    assert render_text("{x = 1}", **deref) == "{x = 1}"
    assert render_text("{1, 2}", **deref) == "[1, 2]"
    assert render_text('"hi"', **deref) == '"hi"'
    assert render_text("3.25", **deref) == "3.25"
    assert re.match(r"\['R'(, 'R'){5}\]",
                    render_text("'R' <repeats 6 times>"))


def test_nesting_past_the_recursion_limit_still_collapses():
    # Text below the collapsed level is never split, so a value nested
    # deeper than Python's recursion limit renders like any deep struct.
    raw = "{a = " * 400 + "1" + "}" * 400
    assert render_text(raw) == "{a = {a = {...}}}"


# -- differential: the renderer that kept a flag record, as reference ------
#
# The value path as it was while rendering also returned whether anything
# was elided and how deep it went.  The text is all any caller prints, and
# it must not change; the flags are dropped here too.  It parsed the whole
# value into a Node tree first, and keeps its own pointer regexes; only
# the top-level split and the repeat and field regexes are shared.

_REF_POINTER = re.compile(r"^0x[0-9a-fA-F]+$")
_REF_POINTER_STRING = re.compile(r'^(0x[0-9a-fA-F]+) (".*")$')
_REF_POINTER_SYMBOL = re.compile(r"^(0x[0-9a-fA-F]+) (<.+>)$")


def _ref_parse_value(text: str) -> Node:
    try:
        return _ref_parse(text.strip())
    except Exception:
        return Node(kind="scalar", text=text.strip())


def _ref_parse(text: str) -> Node:
    if text.startswith("{") and text.endswith("}"):
        return _ref_parse_braced(text[1:-1])
    segments = _split_top_level(text)
    if len(segments) > 1 or (segments and _REPEATS.match(segments[0])):
        return _ref_parse_char_segments(segments)
    m = _REF_POINTER_STRING.match(text)
    if m:
        return Node(kind="pointer", text=m.group(1), annot=m.group(2))
    m = _REF_POINTER_SYMBOL.match(text)
    if m:
        return Node(kind="pointer", text=m.group(1), annot=m.group(2))
    if _REF_POINTER.match(text):
        return Node(kind="pointer", text=text)
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return Node(kind="string", text=text)
    return Node(kind="scalar", text=text)


def _ref_parse_braced(inner: str) -> Node:
    inner = inner.strip()
    if not inner:
        return Node(kind="struct")
    elements = _split_top_level(inner)
    if all(_STRUCT_FIELD.match(e) for e in elements):
        fields = []
        for e in elements:
            m = _STRUCT_FIELD.match(e)
            fields.append((m.group(1), _ref_parse_element(m.group(2))[0]))
        return Node(kind="struct", fields=fields)
    return Node(kind="array",
                     items=[_ref_parse_element(e) for e in elements])


def _ref_parse_element(text: str) -> tuple[Node, int]:
    m = _REPEATS.match(text)
    if m:
        return _ref_parse(m.group(1)), int(m.group(2))
    return _ref_parse(text), 1


def _ref_parse_char_segments(segments: list[str]) -> Node:
    items: list[tuple[Node, int]] = []
    for seg in segments:
        m = _REPEATS.match(seg)
        if m:
            items.append((_ref_parse(m.group(1)), int(m.group(2))))
        elif seg.startswith('"') and seg.endswith('"'):
            for ch in seg[1:-1]:
                items.append((Node(kind="scalar", text=f"'{ch}'"), 1))
        else:
            items.append((_ref_parse(seg), 1))
    return Node(kind="array", items=items)


class _RefRender:
    def __init__(self) -> None:
        self.truncated = False
        self.depth_reached = 0

    def node(self, node: Node, depth: int) -> str:
        self.depth_reached = max(self.depth_reached, min(depth, MAX_DEPTH))
        if node.kind in ("scalar", "string"):
            return node.text
        if node.kind == "pointer":
            return f"{node.text} {node.annot}" if node.annot else node.text
        if depth >= MAX_DEPTH:
            self.truncated = True
            return "[...]" if node.kind == "array" else "{...}"
        if node.kind == "array":
            return self.array(node, depth)
        return self.struct(node, depth)

    def array(self, node: Node, depth: int) -> str:
        total = sum(count for _, count in node.items)
        if total > MAX_WIDTH:
            self.truncated = True
            head = self._take(node.items, HEAD)
            tail = self._take(list(reversed(node.items)), TAIL)[::-1]
            parts = ([self.node(e, depth + 1) for e in head]
                     + ["..."]
                     + [self.node(e, depth + 1) for e in tail])
        else:
            parts = []
            for element, count in node.items:
                parts.extend(self.node(element, depth + 1)
                             for _ in range(count))
        return "[" + ", ".join(parts) + "]"

    @staticmethod
    def _take(runs, k):
        out = []
        for element, count in runs:
            for _ in range(min(count, k - len(out))):
                out.append(element)
            if len(out) == k:
                break
        return out

    def struct(self, node: Node, depth: int) -> str:
        fields = node.fields
        if len(fields) > MAX_WIDTH:
            self.truncated = True
            shown = ([*fields[:HEAD]], ["..."], [*fields[-TAIL:]])
            parts = ([f"{n} = {self.node(v, depth + 1)}" for n, v in shown[0]]
                     + shown[1]
                     + [f"{n} = {self.node(v, depth + 1)}"
                        for n, v in shown[2]])
        else:
            parts = [f"{n} = {self.node(v, depth + 1)}" for n, v in fields]
        return "{" + ", ".join(parts) + "}"


def _ref_render_node(node: Node, depth: int = 1) -> str:
    return _RefRender().node(node, depth)


def _ref_render_value(name, raw_value, is_pointer=False,
                      evaluator=None) -> str:
    node = _ref_parse_value(raw_value)
    if node.kind == "pointer":
        if node.is_null_pointer:
            return node.text
        if node.annot.startswith('"'):
            return f"{node.text} → {node.annot}"
        if node.annot:
            return f"{node.text} {node.annot}"
        if is_pointer and evaluator is not None:
            try:
                pointee = _ref_parse_value(evaluator(f"*{name}"))
            except Exception:
                return node.text
            return f"{node.text} → {_ref_render_node(pointee, depth=2)}"
        return node.text
    return _ref_render_node(node)


_idents = st.sampled_from(["a", "len", "depth2_x", "_p", "$1", "next"])
_strings = st.text(alphabet="abR x,={}<>'\"\\", max_size=8).map(
    lambda t: '"' + t.replace("\\", "\\\\").replace('"', '\\"') + '"')
# Null addresses come with and without annotations: either way they
# render bare.
_pointers = st.builds(
    str.__add__,
    st.sampled_from(["0x0", "0x00", "0x1000", "0x7ffc000011a4", "0xBEEF"]),
    st.sampled_from(["", ' "s"', ' "a, b"', ' "{x}"', " <main>",
                     " <buf+16>"]))
_leaves = st.one_of(
    st.sampled_from(["5", "-12", "<optimized out>", "82 'R'", "0 '\\000'",
                     "3.25", "true", "<unreadable>", "{1, 2, 3...}", "{}",
                     "", "<repeats 3 times>"]),
    _strings, _pointers)


def _with_repeats(values):
    return st.one_of(values, st.builds(
        lambda v, n: f"{v} <repeats {n} times>", values,
        st.integers(0, 300)))


_aggregates = st.recursive(_leaves, lambda inner: st.one_of(
    st.lists(_with_repeats(inner), max_size=8).map(
        lambda xs: "{" + ", ".join(xs) + "}"),
    st.lists(st.tuples(_idents, inner), max_size=8).map(
        lambda fs: "{" + ", ".join(f"{n} = {v}" for n, v in fs) + "}"),
), max_leaves=12)
_char_segments = st.lists(
    st.one_of(_strings, st.builds(
        lambda ch, n: f"{ch} <repeats {n} times>",
        st.sampled_from(["'R'", "'x'", "0 '\\000'", "66 'B'"]),
        st.integers(0, 300))),
    min_size=1, max_size=5).map(", ".join)
_raw_values = st.one_of(_pointers, _aggregates, _char_segments,
                        st.text(max_size=40))


def _boom(expression):
    raise RuntimeError("Cannot access memory")


_evaluators = st.one_of(
    st.none(), st.just(_boom),
    _raw_values.map(lambda text: lambda expression: text))


@settings(max_examples=1000, deadline=None)
@given(_raw_values, st.booleans(), _evaluators)
def test_render_value_matches_the_reference(raw, is_pointer, evaluator):
    assert (render_value("p", raw, is_pointer=is_pointer,
                         evaluator=evaluator)
            == _ref_render_value("p", raw, is_pointer=is_pointer,
                                 evaluator=evaluator))


@settings(max_examples=200, deadline=None)
@given(_nodes(2), st.integers(1, MAX_DEPTH))
def test_render_node_matches_the_reference(node, depth):
    text = gdb_text(node)
    assert _ref_parse_value(text) == node
    assert _render(text, depth) == _ref_render_node(node, depth)
