"""First-prompt assembly on a 200-frame stack, with and without a room,
and the budget cut alone.

Run with ``PYTHONPATH=src python -m pytest bench -q``.  Each
``test_first_prompt`` case times ``build_enriched_stack`` plus
``make_initial_prompt`` at the default budget on a real ``DebugSession``
over ``perfbench/gdb_standin.py``, started afresh for each build outside
the timed part, so the times hold the MI round trips as well as the
enrichment and budgeting work.  In ``extra_info``,
``session_calls_per_build`` is the MI commands one build sent, the stack
snapshot's two included, ``blocking_reads_per_build`` the batches they
went out in, each written at once and then waited for, and
``frames_enriched`` the frames it enriched.
``test_truncate_bundle`` times ``truncate_bundle`` on the fully enriched
stack, which it must cut to fit.  Nothing here asserts on timing.
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
from dbgchat.session import Frame

sys.path.insert(0, str(Path(__file__).parent.parent / "tests"))
# standin is a fixture, found by name.
from conftest import stack_description, standin, var  # noqa: E402, F401

FRAMES = 200
ROUNDS = 20


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("ws")
    (root / "walk.c").write_text(
        "".join(f"    total += step(node->next, {n}); /* line {n} */\n"
                for n in range(1, 61)))
    return root


def _stack(root: Path) -> dict:
    """A recursion 200 frames deep: each frame has two ints, an array
    whose value the listing leaves out and a pointer that is dereferenced
    once, both read in one batch."""
    frames = [Frame(level=n, func="walk", file="walk.c",
                    fullname=str(root / "walk.c"), line=20 + n % 30)
              for n in range(FRAMES)]
    variables = {n: [var("depth", "int", str(n)),
                     var("total", "int", str(7 * n)),
                     var("seen", "int [8]", "{1, 2, 3, 4, 5, 6, 7, 8}",
                         aggregate=True),
                     var("node", "struct node *", "0x55550000",
                         deref=f"{{next = 0x0, depth = {n}}}")]
                 for n in range(FRAMES)}
    return stack_description(frames, variables)


BUNDLE = PromptBundle(
    instructions=instructions_text(),
    enriched_stack=EnrichedStack([]),
    inputs="Command-line arguments: 200",
    error="The program stopped on SIGSEGV in walk at walk.c:20.",
    history=[("bt 3", "#0 walk\n#1 walk\n#2 walk")],
    user_text="Why did the program stop here?")


def _with_stack(stack: EnrichedStack) -> PromptBundle:
    return PromptBundle(BUNDLE.instructions, stack, BUNDLE.inputs,
                        BUNDLE.error, BUNDLE.history, BUNDLE.user_text)


@pytest.mark.parametrize("room", [False, True], ids=["full", "room"])
def test_first_prompt(benchmark, standin, workspace, room):
    description = _stack(workspace)
    builds = []

    def start():
        standin.check()  # closes the earlier rounds' sessions
        return standin(description), {}

    def first_prompt(session, sent):
        before = len(sent)
        batches = []
        send = session.handle.send_batch
        session.handle.send_batch = lambda commands, *args, **kwargs: (
            batches.append(commands), send(commands, *args, **kwargs))[1]
        stack = build_enriched_stack(
            session, str(workspace),
            room=stack_room(BUNDLE, DEFAULT_MAX_TOKENS) if room else None)
        builds.append((len(sent) - before, len(batches), stack.shown_count))
        return make_initial_prompt(_with_stack(stack))

    benchmark.pedantic(first_prompt, setup=start, rounds=ROUNDS)
    commands, waits, shown = builds[-1]
    benchmark.extra_info["session_calls_per_build"] = commands
    benchmark.extra_info["blocking_reads_per_build"] = waits
    benchmark.extra_info["frames_enriched"] = shown


def test_truncate_bundle(benchmark, standin, workspace):
    session, _ = standin(_stack(workspace))
    stack = build_enriched_stack(session, str(workspace))
    bundle = _with_stack(stack)
    cut = benchmark(truncate_bundle, bundle, DEFAULT_MAX_TOKENS)
    benchmark.extra_info["frames_before"] = stack.shown_count
    benchmark.extra_info["frames_after"] = cut.enriched_stack.shown_count
