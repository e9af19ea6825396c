"""First-prompt assembly on a 200-frame stack, with and without a room,
and the budget cut alone.

Run with ``PYTHONPATH=src python -m pytest bench -q``.  Each
``test_first_prompt`` case times ``build_enriched_stack`` plus
``make_initial_prompt`` at the default budget over ``tests/conftest.py``'s
``FakeSession``, whose answers cost no round trip, so the times show the
enrichment and budgeting work alone.  ``extra_info`` holds the session
calls per build (``frame_variables``, ``evaluate`` and
``global_variables``, one debugger command each) and the frames the build
enriched.  ``test_truncate_bundle`` times ``truncate_bundle`` on the
fully enriched stack, which it must cut to fit.  Nothing here asserts on
timing.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from dbgchat.enrich import EnrichedStack, build_enriched_stack
from dbgchat.prompts import (
    DEFAULT_MAX_TOKENS,
    PromptBundle,
    instructions_text,
    make_initial_prompt,
    stack_room,
    truncate_bundle,
)
from dbgchat.session import Binding, Frame

sys.path.insert(0, str(Path(__file__).parent.parent / "tests"))
from conftest import FakeSession  # noqa: E402

FRAMES = 200


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("ws")
    (root / "walk.c").write_text(
        "".join(f"    total += step(node->next, {n}); /* line {n} */\n"
                for n in range(1, 61)))
    return root


def _session(root: Path) -> FakeSession:
    """A recursion 200 frames deep: each frame has two ints, an array and
    a pointer that is dereferenced once."""
    frames = [Frame(level=n, func="walk", file="walk.c",
                    fullname=str(root / "walk.c"), line=20 + n % 30)
              for n in range(FRAMES)]
    variables = {n: [Binding("depth", str(n), "int"),
                     Binding("total", str(7 * n), "int"),
                     Binding("seen", "{1, 2, 3, 4, 5, 6, 7, 8}", "int [8]"),
                     Binding("node", "0x55550000", "struct node *")]
                 for n in range(FRAMES)}
    return FakeSession(frames=frames, variables=variables)


BUNDLE = PromptBundle(
    instructions=instructions_text(),
    enriched_stack=EnrichedStack([], 0),
    inputs="Command-line arguments: 200",
    error="The program stopped on SIGSEGV in walk at walk.c:20.",
    history=[("bt 3", "#0 walk\n#1 walk\n#2 walk")],
    user_text="Why did the program stop here?")


def _with_stack(stack: EnrichedStack) -> PromptBundle:
    return PromptBundle(BUNDLE.instructions, stack, BUNDLE.inputs,
                        BUNDLE.error, BUNDLE.history, BUNDLE.user_text)


@pytest.mark.parametrize("room", [False, True], ids=["full", "room"])
def test_first_prompt(benchmark, workspace, room):
    builds = []

    def first_prompt():
        session = _session(workspace)
        stack = build_enriched_stack(
            session, str(workspace),
            room=stack_room(BUNDLE, DEFAULT_MAX_TOKENS) if room else None)
        builds.append((len(session.calls), stack.shown_count))
        return make_initial_prompt(_with_stack(stack))

    benchmark(first_prompt)
    calls, shown = builds[-1]
    benchmark.extra_info["session_calls_per_build"] = calls
    benchmark.extra_info["frames_enriched"] = shown


def test_truncate_bundle(benchmark, workspace):
    stack = build_enriched_stack(_session(workspace), str(workspace))
    bundle = _with_stack(stack)
    cut = benchmark(truncate_bundle, bundle, DEFAULT_MAX_TOKENS)
    benchmark.extra_info["frames_before"] = stack.shown_count
    benchmark.extra_info["frames_after"] = cut.enriched_stack.shown_count
