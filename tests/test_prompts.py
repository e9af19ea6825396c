"""Prompt assembly, fixed instructions, and budget-driven truncation."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbgchat import PROMPT
from dbgchat.enrich import ElisionMarker, EnrichedFrame, EnrichedStack
from dbgchat.errors import BudgetImpossible
from dbgchat.llm import SYSTEM, USER
from dbgchat.prompts import (
    PromptBundle,
    error_section,
    estimate_tokens,
    format_history,
    format_inputs,
    instructions_text,
    make_followup_prompt,
    make_initial_prompt,
    render_messages,
    truncate_bundle,
)
from dbgchat.session import Frame, StopInfo

# -- instructions ----------------------------------------------------------

def tool_paragraphs():
    return instructions_text().split("\n\n")[1:4]


def test_instructions_role_sentence():
    assert instructions_text().startswith("You are a debugging assistant.")


def test_instructions_tool_names_exactly_once():
    text = "\n\n".join(tool_paragraphs())
    for name in ("debug", "code", "definition"):
        assert len(re.findall(rf"\b{name}\b", text)) == 1, name


def test_instructions_user_code_focus():
    assert ("likely due to a problem in the source code from the user"
            in instructions_text())


def test_instructions_closing_rule():
    text = instructions_text()
    assert '"Recommendation"' in text
    assert "1-3 suggestions" in text


def test_instructions_byte_stable():
    assert instructions_text() == instructions_text()


# -- error section ---------------------------------------------------------

def _frame():
    return Frame(level=0, func="tally_reds", file="crash_segv.c",
                 fullname="/ws/crash_segv.c", line=28)


def test_error_section_signal_names_signal_and_frame():
    stop = StopInfo(kind="signal", signal_name="SIGSEGV",
                    signal_meaning="Segmentation fault", frame=_frame())
    text = error_section(stop)
    assert "SIGSEGV" in text
    assert "tally_reds" in text and "crash_segv.c:28" in text


def test_error_section_assertion_quotes_and_protects():
    stop = StopInfo(kind="assertion", signal_name="SIGABRT",
                    assertion_text="len == n", frame=_frame())
    text = error_section(stop)
    assert '"len == n"' in text
    assert "is correct and must not be changed" in text


def test_error_section_clean_exit():
    assert error_section(StopInfo(kind="exited", exit_code=0)) == (
        "The program exited normally with code 0.")
    assert "code 3" in error_section(StopInfo(kind="exited", exit_code=3))


# -- history and inputs formatting ----------------------------------------

def test_format_history_uses_tool_prompt():
    text = format_history([("p x", "5")])
    assert text == f"{PROMPT}p x\n5"


def test_format_history_preserves_order():
    text = format_history([("bt", "#0 main"), ("p y", "7")])
    assert text.index("bt") < text.index("p y")


def test_format_inputs():
    assert format_inputs(["--fast", "data.txt"], None) == (
        "Command-line arguments: --fast data.txt")
    assert "Standard input:\nhello" in format_inputs([], "hello\n")
    assert format_inputs([], None) == ""


# -- assembly --------------------------------------------------------------

def _stack(n: int, markers: tuple[int, ...] = (),
           funcs: list[str] | None = None) -> EnrichedStack:
    """A synthetic stack of n frames, innermost last and marked.

    Frame i renders as "f{i}.c({10 + i})fn{i}()" (or funcs[i] in place
    of fn{i}), a one-line source window and one variable; a marker after
    frame i hides i + 1 frames.
    """
    entries: list[EnrichedFrame | ElisionMarker] = []
    for i in range(n):
        func = funcs[i] if funcs else f"fn{i}"
        frame = Frame(level=n - 1 - i, func=func, file=f"f{i}.c",
                      fullname=f"/ws/f{i}.c", line=10 + i)
        entries.append(EnrichedFrame(
            frame=frame, window=f"     {10 + i} source line {i}",
            bindings=[("x", "int", str(i))],
            marked=i == n - 1))
        if i in markers:
            entries.append(ElisionMarker(i + 1))
    hidden = sum(e.hidden_count for e in entries
                 if isinstance(e, ElisionMarker))
    return EnrichedStack(entries=entries, total_frames=n + hidden)


def _bundle(**kw) -> PromptBundle:
    defaults = dict(
        instructions=instructions_text(),
        enriched_stack=_stack(3),
        inputs="Command-line arguments: data.txt",
        error="The program stopped on SIGSEGV in fn2 at f2.c:12.",
        history=[("p x", "5")],
        user_text="why?",
    )
    defaults.update(kw)
    return PromptBundle(**defaults)


def joined(messages) -> str:
    return "\n\n".join(m.content for m in messages)


def test_initial_prompt_roles_and_order():
    messages = make_initial_prompt(_bundle())
    assert [m.role for m in messages] == [SYSTEM, USER]
    assert messages[0].content == instructions_text()
    body = messages[1].content
    positions = [body.index(h) for h in (
        "Enriched Stack Trace:", "Inputs:", "Error:", "History:", "User Text:")]
    assert positions == sorted(positions)
    assert body.endswith("why?")


def test_empty_sections_omitted():
    messages = make_initial_prompt(_bundle(history=[], inputs=""))
    body = messages[1].content
    assert "History:" not in body
    assert "Inputs:" not in body
    assert "Error:" in body and "User Text:" in body


def test_initial_prompt_requires_instructions_and_text():
    with pytest.raises(ValueError):
        make_initial_prompt(_bundle(user_text=""))
    with pytest.raises(ValueError):
        make_initial_prompt(_bundle(instructions=""))


def test_followup_empty_history_is_bare_text():
    messages = make_followup_prompt([], "continue")
    assert len(messages) == 1
    assert messages[0].role == USER
    assert messages[0].content == "continue"


def test_followup_embeds_history():
    messages = make_followup_prompt([("p x", "5")], "and?")
    assert f"{PROMPT}p x\n5" in messages[0].content
    assert messages[0].content.endswith("User Text:\nand?")


def test_followup_history_renders_as_in_the_first_prompt():
    history = [("bt", "#0 main ()\n"), ("p y", "")]
    content = make_followup_prompt(history, "go on")[0].content
    assert content == (
        "History:\nThis is the history of some debugger commands I ran "
        f"and the results:\n{PROMPT}bt\n#0 main ()\n{PROMPT}p y\n\n"
        "User Text:\ngo on")
    first = make_initial_prompt(_bundle(history=history, user_text="go on"))
    assert content in first[1].content


def test_followup_preserves_order():
    history = [("bt", "#0"), ("p y", "7")]
    content = make_followup_prompt(history, "go on")[0].content
    assert content.index(f"{PROMPT}bt") < content.index(f"{PROMPT}p y")


# -- truncation ------------------------------------------------------------

def _fit_budget(bundle: PromptBundle) -> int:
    messages = make_initial_prompt(bundle, 10**9)
    return sum(estimate_tokens(m.content) for m in messages)


def test_no_truncation_when_fitting():
    bundle = _bundle()
    budget = _fit_budget(bundle)
    messages = make_initial_prompt(bundle, budget)
    assert f"{PROMPT}p x\n5" in messages[1].content
    assert "Inputs:" in messages[1].content
    assert truncate_bundle(bundle, budget) == bundle


def test_history_dropped_oldest_first():
    entries = [("p a", "A" * 400), ("p b", "B"), ("p c", "C")]
    bundle = _bundle(history=entries)
    budget = _fit_budget(bundle) - 50
    body = make_initial_prompt(bundle, budget)[1].content
    assert f"{PROMPT}p a" not in body
    assert f"{PROMPT}p b\nB" in body
    assert f"{PROMPT}p c\nC" in body


def test_inputs_dropped_after_history():
    bundle = _bundle(history=[("p a", "A" * 100)],
                     inputs="Command-line arguments: " + "x" * 400)
    floor = _fit_budget(_bundle(history=[], inputs=""))
    budget = floor + 2
    body = make_initial_prompt(bundle, budget)[1].content
    assert "History:" not in body
    assert "Inputs:" not in body
    assert "Error:" in body


def test_stack_frames_dropped_outermost_first_with_note():
    bundle = _bundle(enriched_stack=_stack(20), history=[], inputs="")
    keep5 = _fit_budget(_bundle(enriched_stack=_stack(5), history=[],
                                inputs=""))
    body = make_initial_prompt(bundle, keep5)[1].content
    assert re.search(r"\[\.\.\. \d+ frame\(s\) omitted to fit the token "
                     r"budget\]", body)
    assert "> f19.c(29)fn19()" in body      # stopped frame survives
    assert "f0.c(10)fn0()" not in body      # outermost dropped first
    assert estimate_tokens(instructions_text()) + estimate_tokens(body) \
        <= keep5


def test_stopped_frame_never_dropped():
    bundle = _bundle(enriched_stack=_stack(2), history=[], inputs="")
    small = _fit_budget(bundle) - 1
    body = make_initial_prompt(bundle, small)[1].content
    assert "> f1.c(11)fn1()" in body
    assert "f0.c(10)fn0()" not in body


def test_library_markers_survive_truncation():
    bundle = _bundle(enriched_stack=_stack(6, markers=(1,)), history=[],
                     inputs="")
    keep = _fit_budget(_bundle(enriched_stack=_stack(3), history=[],
                               inputs=""))
    body = make_initial_prompt(bundle, keep + 40)[1].content
    assert "[... skipping 2 hidden frame(s)]" in body


_CPP_FUNCS = ["main", "(anonymous namespace)::walk",
              "std::vector<int, std::allocator<int> >::at",
              "(anonymous namespace)::walk", "check"]


def test_frames_with_spaces_in_names_are_counted():
    bundle = _bundle(enriched_stack=_stack(5, funcs=_CPP_FUNCS), history=[],
                     inputs="")
    floor = _fit_budget(_bundle(enriched_stack=_stack(1), history=[],
                                inputs=""))
    seen = 0
    for budget_tokens in range(floor, _fit_budget(bundle) + 1):
        try:
            messages = make_initial_prompt(bundle, budget_tokens)
        except BudgetImpossible:
            continue
        seen += 1
        body = messages[1].content
        shown = sum(f"f{i}.c({10 + i}){func}()" in body
                    for i, func in enumerate(_CPP_FUNCS))
        note = re.search(r"\[\.\.\. (\d+) frame\(s\) omitted", body)
        omitted = int(note.group(1)) if note else 0
        assert shown + omitted == 5, body
        assert "> f4.c(14)check()" in body
    assert seen > 5


def test_history_output_line_like_prompt_stays_with_its_entry():
    entries = [("p a", "A" * 400 + f"\n{PROMPT}not a command"), ("p b", "B")]
    bundle = _bundle(history=entries)
    budget = _fit_budget(bundle) - 50
    body = make_initial_prompt(bundle, budget)[1].content
    assert f"{PROMPT}p a" not in body
    assert "not a command" not in body
    assert f"{PROMPT}p b\nB" in body


def test_budget_impossible():
    bundle = _bundle(enriched_stack=_stack(1), history=[], inputs="",
                     user_text="x" * 4000)
    with pytest.raises(BudgetImpossible):
        make_initial_prompt(bundle, 100)


def test_protected_sections_never_altered():
    bundle = _bundle(enriched_stack=_stack(12),
                     history=[("p a", "1"), ("p b", "2")])
    floor = _fit_budget(_bundle(enriched_stack=_stack(1), history=[],
                                inputs=""))
    seen = 0
    for budget_tokens in range(floor + 5, _fit_budget(bundle) + 60, 13):
        try:
            messages = make_initial_prompt(bundle, budget_tokens)
        except BudgetImpossible:
            continue
        seen += 1
        assert messages[0].content == bundle.instructions
        body = messages[1].content
        assert "Error:\n" + bundle.error in body
        assert body.endswith("User Text:\n" + bundle.user_text)
    assert seen > 5


# -- properties ------------------------------------------------------------

@given(st.text(max_size=200), st.text(max_size=200))
def test_estimator_monotone(a, b):
    assert estimate_tokens(a) <= estimate_tokens(a + b)
    assert estimate_tokens(a) >= 0


_HEADINGS = ("Enriched Stack Trace:", "Inputs:", "Error:", "History:",
             "User Text:")


def _clean(s: str) -> bool:
    """Reject texts that would mimic a section heading or prompt marker."""
    return PROMPT not in s and not any(h in s for h in _HEADINGS)


_words = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
    max_size=40).filter(_clean)
_entries = st.lists(
    st.tuples(_words.filter(lambda s: "\n" not in s), _words), max_size=6)


@st.composite
def bundles(draw):
    n_frames = draw(st.integers(1, 24))
    marker_at = draw(st.sets(st.integers(0, max(0, n_frames - 2)), max_size=2))
    return PromptBundle(
        instructions=draw(st.text(min_size=1, max_size=300).filter(_clean)),
        enriched_stack=_stack(n_frames, tuple(sorted(marker_at))),
        inputs=draw(_words),
        error=draw(st.text(min_size=1, max_size=150).filter(_clean)),
        history=draw(_entries),
        user_text=draw(st.text(min_size=1, max_size=150).filter(_clean)),
    )


def _minimal_stack(stack: EnrichedStack) -> EnrichedStack:
    """The stack with every unmarked frame omitted behind one count note."""
    dropped = [i for i, e in enumerate(stack.entries)
               if isinstance(e, EnrichedFrame) and not e.marked]
    if not dropped:
        return stack
    entries = [e for i, e in enumerate(stack.entries) if i not in dropped]
    entries.insert(dropped[0], ElisionMarker(len(dropped), budget_cut=True))
    return EnrichedStack(entries=entries, total_frames=stack.total_frames)


@settings(max_examples=1000, deadline=None)
@given(bundle=bundles(), budget_tokens=st.integers(50, 6000))
def test_budget_safety_and_protection(bundle, budget_tokens):
    try:
        messages = make_initial_prompt(bundle, budget_tokens)
    except BudgetImpossible:
        # Only legal when even the fully-truncated form cannot fit.
        floor = PromptBundle(
            instructions=bundle.instructions,
            enriched_stack=_minimal_stack(bundle.enriched_stack),
            inputs="", error=bundle.error, history=[],
            user_text=bundle.user_text)
        total = sum(estimate_tokens(m.content)
                    for m in render_messages(floor))
        assert total > budget_tokens
        return
    total = sum(estimate_tokens(m.content) for m in messages)
    assert total <= budget_tokens
    assert messages[0].content == bundle.instructions
    body = messages[1].content
    assert body.endswith("User Text:\n" + bundle.user_text)
    assert ("Error:\n" + bundle.error) in body
    headings = [h for h in ("Enriched Stack Trace:", "Inputs:", "Error:",
                            "History:", "User Text:")
                if re.search(rf"^{h}", body, re.M)]
    positions = [body.index(h) for h in headings]
    assert positions == sorted(positions)


@settings(max_examples=300, deadline=None)
@given(bundle=bundles(), budget_tokens=st.integers(200, 6000))
def test_truncation_idempotent(bundle, budget_tokens):
    try:
        once = truncate_bundle(bundle, budget_tokens)
    except BudgetImpossible:
        return
    assert truncate_bundle(once, budget_tokens) == once


@settings(max_examples=100)
@given(bundle=bundles())
def test_construction_order_irrelevant(bundle):
    names = ("instructions", "enriched_stack", "inputs", "error", "history",
             "user_text")
    values = {name: getattr(bundle, name) for name in names}
    shuffled = PromptBundle(**dict(reversed(list(values.items()))))
    big = 10**9
    assert make_initial_prompt(shuffled, big) == make_initial_prompt(bundle, big)
