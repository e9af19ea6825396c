"""Source windows, frame classification, and enriched-stack assembly."""

from __future__ import annotations

import os
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbgchat import enrich
from dbgchat.enrich import (
    ElisionMarker,
    EnrichedFrame,
    EnrichedStack,
    build_enriched_stack,
    source_window,
    user_frame_test,
)
from dbgchat.errors import BudgetImpossible, NotStopped, SourceUnavailable
from dbgchat.prompts import (
    PromptBundle,
    estimate_tokens,
    instructions_text,
    make_initial_prompt,
    render_messages,
    stack_room,
    truncate_bundle,
)
from dbgchat.session import DEFAULT_FRAME_CAP, Binding, DebugSession, Frame

from conftest import FakeSession
from test_prompts import _minimal_stack

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def numbered_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("src") / "thirty.c"
    path.write_text("".join(f"line {n}\n" for n in range(1, 31)))
    return str(path)


# -- source windows --------------------------------------------------------

def test_window_centered(numbered_file):
    text = source_window(numbered_file, 19)
    lines = text.splitlines()
    assert len(lines) == 10
    assert lines[0] == "     14 line 14"
    assert lines[5] == "---> 19 line 19"
    assert lines[-1] == "     23 line 23"


def test_window_clamped_at_start(numbered_file):
    lines = source_window(numbered_file, 2).splitlines()
    assert lines[0] == "      1 line 1"
    assert len(lines) == 10
    assert lines[1].startswith("--->  2")


def test_window_clamped_at_end(numbered_file):
    lines = source_window(numbered_file, 29).splitlines()
    assert len(lines) == 10
    assert lines[0] == "     21 line 21"
    assert lines[-1] == "     30 line 30"


def test_window_short_file(tmp_path):
    path = tmp_path / "tiny.c"
    path.write_text("a\nb\nc\n")
    lines = source_window(str(path), 2).splitlines()
    assert len(lines) == 3
    assert lines[1] == "---> 2 b"


def test_window_missing_file():
    with pytest.raises(SourceUnavailable):
        source_window("/no/such/file.c", 5)


def test_window_past_eof(numbered_file):
    with pytest.raises(SourceUnavailable):
        source_window(numbered_file, 99)


def test_window_radius_config(numbered_file):
    lines = source_window(numbered_file, 19, radius=2).splitlines()
    assert len(lines) == 4
    assert lines[0] == "     17 line 17"


@given(st.integers(1, 30))
def test_window_always_marks_requested_line(line):
    path = FIXTURES / "crash_segv.c"
    text = source_window(str(path), line)
    assert re.search(rf"^---> +{line}(?: |$)", text, re.M)


# -- classification --------------------------------------------------------

def _frame(level, func="f", fullname="", file="", line=1):
    return Frame(level=level, func=func, file=file or fullname,
                 fullname=fullname, line=line if (file or fullname) else None)


def test_user_frame_requires_absolute_path_under_root():
    is_user_frame = user_frame_test("/ws/app")
    assert is_user_frame(_frame(0, fullname="/ws/app/main.c"))
    assert not is_user_frame(_frame(0, fullname="/other/main.c"))
    assert not is_user_frame(_frame(0, fullname="./nptl/pthread_kill.c"))
    assert not is_user_frame(_frame(0, fullname="/ws/apple/main.c"))
    assert not is_user_frame(Frame(level=0, func="??"))


def _is_user_frame_with_pathlib(frame: Frame, workspace_root: str) -> bool:
    """The classification as pathlib gives it, resolving the root per frame."""
    if not frame.has_source or frame.line is None:
        return False
    path = frame.fullname or frame.file
    if not os.path.isabs(path):
        return False
    root = os.path.abspath(workspace_root)
    try:
        return Path(os.path.normpath(path)).is_relative_to(root)
    except ValueError:
        return False


_SEGMENTS = st.sampled_from(["a", "b", "bc", "b.c", "..", ".", ""])
_PATHS = st.builds(
    lambda lead, parts, tail: lead + "/".join(parts) + tail,
    st.sampled_from(["", "/", "//", "///", "./", "../", "@/"]),
    st.lists(_SEGMENTS, max_size=5), st.sampled_from(["", "/", "//"]))


@settings(max_examples=2000)
@given(root=_PATHS, paths=st.lists(_PATHS, min_size=1, max_size=8),
       use_file=st.booleans())
def test_user_frame_matches_pathlib(root, paths, use_file):
    # Roots and paths from few names, so that equal, nested, sibling
    # (a/b against a/bc) and unrelated pairs all come up.  "@" is the
    # working directory, which relative roots resolve against.
    root = root.replace("@", os.getcwd())
    is_user_frame = user_frame_test(root)
    for path in (p.replace("@", os.getcwd()) for p in paths):
        frame = (_frame(0, file=path) if use_file
                 else _frame(0, fullname=path, file="other.c"))
        assert is_user_frame(frame) == \
            _is_user_frame_with_pathlib(frame, root), (root, path)


# -- synthetic assembly properties ----------------------------------------

def _synthetic(pattern: str, extra_hidden: int = 0) -> FakeSession:
    """pattern: one char per frame innermost-first, 'u' user / 'l' library."""
    frames = []
    for level, ch in enumerate(pattern):
        if ch == "u":
            frames.append(_frame(level, func=f"fn{level}",
                                 fullname=f"/ws/src/f{level}.c", line=1))
        else:
            frames.append(_frame(level, func=f"lib{level}",
                                 fullname="./lib/inner.c", line=1))
    return FakeSession(frames=frames, total=len(frames) + extra_hidden)


@settings(max_examples=1000, deadline=None)
@given(
    pattern=st.text(alphabet="ul", min_size=1, max_size=40),
    extra=st.integers(0, 30),
)
def test_conservation_over_synthetic_backtraces(pattern, extra):
    session = _synthetic(pattern, extra_hidden=extra)
    stack = build_enriched_stack(session, "/ws/src")
    assert stack.shown_count + stack.hidden_count == stack.total_frames
    assert stack.shown_count == pattern.count("u")
    assert stack.hidden_count == pattern.count("l") + extra
    entries = stack.entries
    # Markers never sit adjacent and never report zero hidden frames.
    for a, b in zip(entries, entries[1:]):
        assert not (isinstance(a, ElisionMarker) and isinstance(b, ElisionMarker))
    for e in entries:
        if isinstance(e, ElisionMarker):
            assert e.hidden_count > 0
            assert re.fullmatch(r"\[\.\.\. skipping \d+ hidden frame\(s\)\]",
                                e.render())


def test_marked_frame_is_innermost_user():
    stack = build_enriched_stack(_synthetic("lluul"), "/ws/src")
    shown = [e for e in stack.entries if isinstance(e, EnrichedFrame)]
    # Render order is outermost-first, so the last shown frame is innermost.
    assert [e.frame.level for e in shown] == [3, 2]
    assert shown[-1].marked and not shown[0].marked
    assert shown[0].globals and not shown[-1].globals


def test_beyond_cap_frames_counted_outermost():
    # The session lists only the 10 innermost of its 30 frames.
    session = _synthetic("u" * 10, extra_hidden=20)
    stack = build_enriched_stack(session, "/ws/src")
    assert stack.total_frames == 30
    assert stack.shown_count == 10
    assert isinstance(stack.entries[0], ElisionMarker)
    assert stack.entries[0].hidden_count == 20
    shown = [e for e in stack.entries if isinstance(e, EnrichedFrame)]
    assert [e.frame.level for e in shown] == list(range(9, -1, -1))


def test_each_source_file_is_read_once_per_build(tmp_path, monkeypatch):
    recursive = tmp_path / "rec.c"
    recursive.write_text("".join(f"line {i}\n" for i in range(1, 31)))
    (tmp_path / "main.c").write_text("int main(void)\n{\n}\n")
    frames = [_frame(level, func="rec", fullname=str(recursive),
                     line=10 + level) for level in range(5)]
    frames.append(_frame(5, func="main", fullname=str(tmp_path / "main.c"),
                         line=2))
    reads = []
    read_source = enrich._read_source
    monkeypatch.setattr(enrich, "_read_source",
                        lambda path: reads.append(path) or read_source(path))
    session = FakeSession(frames=frames)

    first = build_enriched_stack(session, str(tmp_path))
    assert sorted(reads) == [str(tmp_path / "main.c"), str(recursive)]
    windows = [e.window for e in first.entries if isinstance(e, EnrichedFrame)]
    assert windows == [source_window(f.fullname, f.line)
                       for f in reversed(frames)]
    # A source edited between builds is read afresh.
    recursive.write_text("".join(f"edited {i}\n" for i in range(1, 31)))
    second = build_enriched_stack(session, str(tmp_path))
    assert len(reads) == 4
    assert "edited 14" in second.render()


def test_not_stopped_raises():
    session = _synthetic("u")
    session.stopped = False
    with pytest.raises(NotStopped):
        build_enriched_stack(session, "/ws/src")


def test_all_library_stack_renders_single_marker():
    stack = build_enriched_stack(_synthetic("lll"), "/ws/src")
    assert stack.shown_count == 0
    assert stack.render() == "[... skipping 3 hidden frame(s)]"


# -- budgeted enrichment ----------------------------------------------------

_SOURCE_LINES = (3, 12, 40)


@pytest.fixture(scope="module")
def source_root(tmp_path_factory):
    """Sources of three lengths; a tiny frame names a file that is not there."""
    root = tmp_path_factory.mktemp("ws")
    for n in _SOURCE_LINES:
        (root / f"s{n}.c").write_text(
            "".join(f"int v{i} = {i};\n" for i in range(n)))
    return root


_TYPES = {"int": "5", "int *": "0x10", "char": "99 'c'"}

# One frame: ("lib",), ("tiny",) with no source and no variables, or
# ("user", source length, line, variable types), a pointer costing one
# evaluation.
_frame_specs = st.one_of(
    st.just(("lib",)),
    st.just(("tiny",)),
    st.tuples(st.just("user"), st.sampled_from(_SOURCE_LINES),
              st.integers(1, 3),
              st.lists(st.sampled_from(sorted(_TYPES)), max_size=3)),
)


def _budget_session(specs, extra, root) -> FakeSession:
    frames, variables = [], {}
    for level, spec in enumerate(specs):
        if spec[0] == "lib":
            frames.append(_frame(level, func=f"lib{level}",
                                 fullname="./lib/inner.c"))
        elif spec[0] == "tiny":
            frames.append(_frame(level, func="t", file=f"t{level}.c",
                                 fullname=f"{root}/gone{level}.c", line=2))
            variables[level] = []
        else:
            _, lines, line, types = spec
            frames.append(_frame(level, func=f"fn{level}", file=f"s{lines}.c",
                                 fullname=f"{root}/s{lines}.c", line=line))
            variables[level] = [Binding(f"v{i}", _TYPES[t], t)
                                for i, t in enumerate(types)]
    return FakeSession(frames=frames, total=len(frames) + extra,
                       variables=variables)


_texts = st.text(alphabet="abc xyz\n", max_size=60)


@st.composite
def _budget_cases(draw):
    specs = draw(st.lists(_frame_specs, min_size=1, max_size=60).filter(
        lambda s: any(spec[0] != "lib" for spec in s)))
    extra = draw(st.one_of(st.just(0), st.integers(1, 2 * DEFAULT_FRAME_CAP)))
    bundle = PromptBundle(
        instructions=instructions_text(),
        enriched_stack=EnrichedStack([], 0),
        inputs=draw(_texts),
        error=draw(st.text(alphabet="abc xyz", min_size=1, max_size=80)),
        history=draw(st.lists(st.tuples(st.just("p x"), _texts),
                              max_size=4)),
        user_text=draw(st.text(alphabet="abc xyz", min_size=1,
                               max_size=80)),
    )
    # The budget in percent of the way from a prompt whose stack is cut to
    # the stopped frame to one that shows the whole stack.
    return specs, extra, bundle, draw(st.integers(-5, 110))


def _tokens(bundle: PromptBundle, stack: EnrichedStack) -> int:
    """Tokens of the first request with `stack` and no Inputs or History."""
    alone = bundle.replace(enriched_stack=stack, inputs="", history=[])
    return sum(estimate_tokens(m.content) for m in render_messages(alone))


@settings(max_examples=400, deadline=None)
@given(case=_budget_cases())
def test_budgeted_enrichment_gives_the_same_first_request(source_root, case):
    specs, extra, bundle, share = case
    root = str(source_root)
    full_session = _budget_session(specs, extra, root)
    full = bundle.replace(
        enriched_stack=build_enriched_stack(full_session, root))
    least = _tokens(bundle, _minimal_stack(full.enriched_stack))
    budget = least + share * (_tokens(bundle, full.enriched_stack) - least) // 100
    session = _budget_session(specs, extra, root)
    budgeted = bundle.replace(enriched_stack=build_enriched_stack(
        session, root, room=stack_room(bundle, budget)))

    user = [level for level, spec in enumerate(specs) if spec[0] != "lib"]
    try:
        expected = make_initial_prompt(full, budget)
    except BudgetImpossible:
        with pytest.raises(BudgetImpossible):
            make_initial_prompt(budgeted, budget)
        kept, fits = user[:1], False
    else:
        assert make_initial_prompt(budgeted, budget) == expected
        kept = [e.frame.level
                for e in truncate_bundle(full, budget).enriched_stack.entries
                if isinstance(e, EnrichedFrame)]
        kept.reverse()
        fits = True

    # Frames are fetched innermost-out, every kept frame among them.
    fetched = session.levels("frame_variables")
    assert fetched == user[:len(fetched)]
    assert fetched[:len(kept)] == kept
    assert set(session.levels("evaluate")) <= set(fetched)
    globals_at = session.levels("global_variables")
    assert globals_at in ([], user[-1:])
    if kept == user:
        assert fetched == user
        if fits:
            assert globals_at == user[-1:]
        return
    # Past the first dropped frame nothing is fetched, unless every frame
    # outside it could still have been shown as a bare head line.
    overflow = user[len(kept)]
    heads = EnrichedStack(
        [e if not isinstance(e, EnrichedFrame) or e.frame.level in kept
         or e.frame.level == overflow else EnrichedFrame(e.frame, None, [])
         for e in full.enriched_stack.entries], 0)
    if _tokens(bundle, heads) > budget:
        assert fetched[len(kept):] in ([], [overflow])
    # The outermost frame's globals come only with the frame itself.
    if user[-1] not in fetched:
        assert globals_at == []


def test_tiny_frames_that_fit_only_without_the_note_are_all_fetched(
        source_root):
    # Frames without source or variables are smaller than the note that
    # would replace them, so the walk cannot stop on the note.
    specs = [("user", 12, 2, ["int"])] + [("tiny",)] * 5
    root = str(source_root)
    full = build_enriched_stack(_budget_session(specs, 0, root), root)
    note = ElisionMarker(1, budget_cut=True).render()
    assert all(len(e.render()) < len(note) for e in full.entries[1:-1])
    bundle = PromptBundle(instructions_text(), full, "", "err", [], "why?")
    budget = estimate_tokens(bundle.instructions) + estimate_tokens(
        render_messages(bundle)[1].content)
    session = _budget_session(specs, 0, root)
    stack = build_enriched_stack(session, root,
                                 room=stack_room(bundle, budget))
    assert stack == full
    assert session.levels("frame_variables") == list(range(6))
    assert session.levels("global_variables") == [5]
    # One token less and the note stands for the two outermost frames,
    # which only the outermost frame's globals could tell.
    session = _budget_session(specs, 0, root)
    stack = build_enriched_stack(session, root,
                                 room=stack_room(bundle, budget - 1))
    assert session.levels("frame_variables") == list(range(6))
    assert session.levels("global_variables") == [5]
    cut = make_initial_prompt(bundle.replace(enriched_stack=stack),
                              budget - 1)
    assert cut == make_initial_prompt(bundle, budget - 1)
    assert "[... 2 frame(s) omitted" in cut[1].content


def test_single_user_frame_gets_its_globals_only_with_room_left(
        source_root):
    specs = [("lib",), ("user", 40, 3, ["int *"]), ("lib",)]
    root = str(source_root)
    for room in (None, 10**6, 0):
        session = _budget_session(specs, 0, root)
        stack = build_enriched_stack(session, root, room=room)
        assert stack.shown_count == 1
        expected = [] if room == 0 else [1]
        assert session.levels("global_variables") == expected, room
        assert session.levels("frame_variables") == [1]
        assert session.levels("evaluate") == [1]


def test_unfetched_frames_render_as_nothing(source_root):
    specs = [("user", 12, 2, ["int"])] * 4
    root = str(source_root)
    stack = build_enriched_stack(_budget_session(specs, 0, root), root,
                                 room=0)
    assert [type(e) for e in stack.entries] == [Frame] * 3 + [EnrichedFrame]
    assert stack.shown_count == 1 and stack.hidden_count == 0
    assert stack.render() == stack.entries[-1].render()


# -- live fixtures ---------------------------------------------------------

def test_segv_stack_structure(fixture_bins, fixtures_dir):
    with DebugSession(str(fixture_bins["crash_segv"])) as s:
        s.run_to_stop()
        stack = build_enriched_stack(s, str(fixtures_dir))
    assert stack.total_frames == 3
    assert stack.shown_count == 3 and stack.hidden_count == 0
    shown = stack.entries
    assert [e.frame.func for e in shown] == ["main", "summarize", "tally_reds"]
    assert shown[-1].marked
    assert shown[0].globals and not shown[1].globals
    text = stack.render()
    assert "> crash_segv.c(28)tally_reds()" in text
    assert "---> 28" in text
    assert "   Variables in this frame:" in text
    assert "   Global variables:" in text
    assert "['R', 'R', 'R', ..., 'B', 'B', 'B']" in text
    assert "counts: int [8] = [1, 2, 3, ..., 6, 7, 8]" in text
    assert "cursor: const char * = 0x0" in text
    assert "{part = {nested = {...}, depth2_x = 7}, depth1_id = 99}" in text


def test_assert_stack_elides_libc_run(fixture_bins, fixtures_dir):
    with DebugSession(str(fixture_bins["crash_assert"])) as s:
        s.run_to_stop()
        stack = build_enriched_stack(s, str(fixtures_dir))
    kinds = ["frame" if isinstance(e, EnrichedFrame) else f"hide{e.hidden_count}"
             for e in stack.entries]
    assert kinds == ["frame", "frame", "frame", "hide5"]
    assert stack.shown_count + stack.hidden_count == stack.total_frames
    text = stack.render()
    assert text.endswith("[... skipping 5 hidden frame(s)]")
    assert "> crash_assert.c(18)check_len()" in text


def test_libframe_marker_mid_stack(fixture_bins, fixtures_dir):
    with DebugSession(str(fixture_bins["libframe"])) as s:
        s.run_to_stop()
        stack = build_enriched_stack(s, str(fixtures_dir))
        text = stack.render()
    kinds = ["frame" if isinstance(e, EnrichedFrame) else "marker"
             for e in stack.entries]
    assert kinds == ["frame", "marker", "frame"]
    assert re.search(r"main\(\)[\s\S]*skipping 5 hidden frame\(s\)"
                     r"[\s\S]*cmp_levels\(\)", text)
    # Typed pointers into the sorted array dereference to their ints; void
    # pointers cannot be dereferenced and stay bare addresses.
    assert re.search(r"left: const int \* = 0x[0-9a-f]+ → \d+", text)
    assert re.search(r"a: const void \* = 0x[0-9a-f]+$", text, re.M)
    assert re.search(r"wild: int \* = 0x0$", text, re.M)


def test_deep_recursion_hits_cap(fixture_bins, fixtures_dir):
    with DebugSession(str(fixture_bins["recurse"]), ["300"]) as s:
        s.run_to_stop()
        stack = build_enriched_stack(s, str(fixtures_dir))
    assert stack.total_frames == 302
    assert stack.shown_count == 200
    assert stack.hidden_count == 102
    assert isinstance(stack.entries[0], ElisionMarker)


GOLDEN = Path(__file__).parent / "data" / "golden"


def build_fixture_stack(fixture_bins, fixtures_dir, name: str) -> str:
    with DebugSession(str(fixture_bins[name])) as s:
        s.run_to_stop()
        return build_enriched_stack(s, str(fixtures_dir)).render() + "\n"


@pytest.mark.parametrize("name", ["crash_segv", "crash_fpe", "crash_assert"])
def test_enriched_stack_matches_golden(fixture_bins, fixtures_dir, name):
    golden = (GOLDEN / f"{name}.stack.txt").read_text()
    assert build_fixture_stack(fixture_bins, fixtures_dir, name) == golden


def test_enriched_stack_deterministic(fixture_bins, fixtures_dir):
    first = build_fixture_stack(fixture_bins, fixtures_dir, "crash_segv")
    second = build_fixture_stack(fixture_bins, fixtures_dir, "crash_segv")
    assert first == second


def test_windows_match_shared_renderer(fixture_bins, fixtures_dir):
    with DebugSession(str(fixture_bins["crash_segv"])) as s:
        s.run_to_stop()
        stack = build_enriched_stack(s, str(fixtures_dir))
    crash = stack.entries[-1]
    expected = source_window(str(fixtures_dir / "crash_segv.c"), 28)
    assert crash.window == expected
