"""One test per acceptance criterion; each prints a single PASS line.

Criterion 7 has two: its gdb-free checks, and the definition oracle,
which needs gdb like criteria 2, 5 and 6.  Criteria 1-7 are gating.
Criterion 8 talks to a real model provider and only runs when
DBGCHAT_LIVE_SMOKE=1 and an API key are present.
"""

import copy
import json
import os
import random
import time
from pathlib import Path

import pytest

from dbgchat.agent import Agent, AgentConfig, code_window, parse_loc
from dbgchat.enrich import build_enriched_stack, definition, source_window
from dbgchat.errors import BudgetImpossible, DefinitionNotFound
from dbgchat.llm import ScriptedBackend
from dbgchat.mi import parse_mi_line
from dbgchat.prompts import (
    PromptBundle,
    estimate_tokens,
    instructions_text,
    make_initial_prompt,
    render_messages,
    truncate_bundle,
)
from dbgchat.sanitizer import native_strict, sanitize, unsafe_policy, whitelist
from dbgchat.session import DebugSession
from dbgchat.values import HEAD, MAX_DEPTH, TAIL, render_value

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"


def test_criterion_1_protocol_corpus():
    from mi_serialize import serialize

    lines = (DATA / "mi_corpus.txt").read_text().splitlines()
    assert len(lines) >= 500
    start = time.monotonic()
    for line in lines:
        record = parse_mi_line(line)
        assert parse_mi_line(serialize(record)) == record
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"PASS criterion 1: {len(lines)} recorded machine-interface "
          f"lines parsed and round-tripped in {elapsed:.2f}s")


def _random_tree(rng, depth):
    """A random value as gdb prints it: scalars, arrays and structs."""
    if depth == 0 or rng.random() < 0.3:
        return str(rng.randint(-99, 99))
    if rng.random() < 0.5:
        return "{" + ", ".join(_random_tree(rng, depth - 1)
                               for _ in range(rng.randint(1, 4))) + "}"
    return "{" + ", ".join(f"f{i} = {_random_tree(rng, depth - 1)}"
                           for i in range(rng.randint(1, 4))) + "}"


def _bracket_depth(text):
    depth = best = 0
    for ch in text:
        if ch in "[{":
            depth += 1
            best = max(best, depth)
        elif ch in "]}":
            depth -= 1
    return best


def test_criterion_2_enriched_stack_goldens(fixture_bins, fixtures_dir):
    from test_enrich import _synthetic, build_fixture_stack

    for name in ("crash_segv", "crash_fpe", "crash_assert"):
        golden = (GOLDEN / f"{name}.stack.txt").read_text()
        assert build_fixture_stack(fixture_bins, fixtures_dir, name) == \
            golden, name

    rng = random.Random(2025)
    for _ in range(1000):
        pattern = "".join(rng.choice("ul")
                          for _ in range(rng.randint(1, 40)))
        extra = rng.randint(0, 30)
        stack = build_enriched_stack(_synthetic(pattern, extra), "/ws/src")
        assert stack.shown_count + stack.hidden_count == stack.total_frames
        assert stack.shown_count == pattern.count("u")

        tree = _random_tree(rng, 5)
        assert _bracket_depth(render_value("v", tree)) <= MAX_DEPTH

        values = [rng.randint(-999, 999) for _ in range(rng.randint(7, 40))]
        wide = "{" + ", ".join(map(str, values)) + "}"
        parts = render_value("v", wide)[1:-1].split(", ")
        assert len(parts) == HEAD + TAIL + 1
        assert parts[HEAD] == "..."
        assert parts[:HEAD] == [str(v) for v in values[:HEAD]]
        assert parts[-TAIL:] == [str(v) for v in values[-TAIL:]]
    print("PASS criterion 2: 3 goldens byte-identical; 1000 synthetic "
          "trials hold conservation, the depth-3 bound, and the "
          "3-head/3-tail rule")


def test_criterion_3_prompt_budget():
    from test_prompts import _HEADINGS, _minimal_stack, _stack

    rng = random.Random(7)

    def soup(lo, hi):
        return " ".join(
            "".join(rng.choice("abcdefghijklmnopqrstuvwxyz")
                    for _ in range(rng.randint(1, 8)))
            for _ in range(rng.randint(lo, hi)))

    truncated = impossible = 0
    for _ in range(1000):
        history = [(soup(1, 3), soup(1, 6))
                   for _ in range(rng.randint(0, 5))]
        bundle = PromptBundle(
            instructions=instructions_text(),
            enriched_stack=_stack(rng.randint(1, 24)),
            inputs=soup(0, 8),
            error=soup(1, 10),
            history=history,
            user_text=soup(1, 12),
        )
        budget = rng.randint(60, 6000)
        try:
            messages = make_initial_prompt(bundle, budget)
        except BudgetImpossible:
            floor = PromptBundle(
                instructions=bundle.instructions,
                enriched_stack=_minimal_stack(bundle.enriched_stack),
                inputs="", error=bundle.error, history=[],
                user_text=bundle.user_text)
            total = sum(estimate_tokens(m.content)
                        for m in render_messages(floor))
            assert total > budget
            impossible += 1
            continue
        total = sum(estimate_tokens(m.content) for m in messages)
        assert total <= budget
        assert messages[0].content == bundle.instructions
        assert messages[1].content.endswith(bundle.user_text)
        positions = [p for p in (messages[1].content.find(h)
                                 for h in _HEADINGS) if p >= 0]
        assert positions == sorted(positions)
        once = truncate_bundle(bundle, budget)
        assert truncate_bundle(once, budget) == once
        truncated += 1
    assert truncated + impossible == 1000
    print(f"PASS criterion 3: 1000 randomized bundles stayed within "
          f"budget with protected sections intact "
          f"({impossible} correctly judged impossible)")


def test_criterion_4_sanitizer_table_and_monotonicity():
    from test_sanitizer import _policy, _random_command

    cases = json.loads((DATA / "sanitizer_cases.json").read_text())
    assert len(cases) == 63
    mismatches = [c["command"] for c in cases
                  if sanitize(c["command"], _policy(c)).allowed
                  is not (c["verdict"] == "allow")]
    assert mismatches == []

    names = ["strlen", "strnlen", "checksum", "helper", "reader", "fp"]
    rng = random.Random(99)
    unsafe = unsafe_policy(True)
    for _ in range(10000):
        command = _random_command(rng)
        small = frozenset(n for n in names if rng.random() < 0.4)
        big = small | frozenset(n for n in names if rng.random() < 0.4)
        in_small = sanitize(command, whitelist(small)).allowed
        in_big = sanitize(command, whitelist(big)).allowed
        in_native = sanitize(command, native_strict()).allowed
        if in_small:
            assert in_big
        if in_native:
            assert in_small and in_big
        assert sanitize(command, unsafe).allowed
    print("PASS criterion 4: 63-case verdict table exact; monotonicity "
          "and unsafe-superset held over 10000 randomized trials")


def test_criterion_5_wheel_loop_replay(fixture_bins, fixtures_dir,
                                       tmp_path):
    from test_agent import audit_tool_flow, read_transcript, run_replay

    segv = fixture_bins["crash_segv"]
    agent, ui, history_before, stop_before, stop_after = run_replay(
        segv, fixtures_dir, tmp_path, "one.jsonl")
    run_replay(segv, fixtures_dir, tmp_path, "two.jsonl")
    assert (tmp_path / "one.jsonl").read_bytes() == \
        (tmp_path / "two.jsonl").read_bytes()

    events = read_transcript(tmp_path / "one.jsonl")
    tool_events = [e for e in events if e["event"] == "tool_call"]
    assert len(tool_events) >= 3
    assert any(e["name"] == "debug"
               and e["arguments"]["command"].startswith("p ")
               and "150" in e["output"] for e in tool_events)
    assert "Recommendation" in ui.prose_text()

    audit_tool_flow(ui, agent.messages, events)
    assert history_before == 1 and len(agent.history) == 0
    assert stop_before == stop_after
    print(f"PASS criterion 5: replay byte-identical across runs; "
          f"{len(tool_events)} tool calls with a print returning 150; "
          f"echo and history audits hold")


def test_criterion_6_stop_state_preservation(fixture_bins, fixtures_dir,
                                             tmp_path):
    from test_agent import RecordingUi, debug_call, write_script

    turns = []
    for i in range(100):
        turns.append([debug_call("p drawn_count")])
        turns.append([{"text": f"ok {i}"}])
    script = write_script(tmp_path, turns, name="hundred.json")
    with DebugSession(str(fixture_bins["crash_segv"])) as session:
        session.run_to_stop()
        agent = Agent(session, ScriptedBackend(script), native_strict(),
                      AgentConfig(workspace_root=str(fixtures_dir)),
                      RecordingUi())
        baseline = copy.deepcopy(session.stop)
        for i in range(100):
            agent.handle_input(f"round {i}?")
            assert session.stop == baseline, f"turn {i}"
            assert session.stopped
    print("PASS criterion 6: stop reason and frame identical across "
          "100 scripted chat turns")


def test_criterion_7_definition_and_code_tools(fixtures_dir):
    from test_source_nav import oracle_session

    main_c = str(fixtures_dir / "defproj" / "main.c")
    assert code_window(main_c, 7) == source_window(main_c, 7)

    generated = fixtures_dir / "generated"
    with pytest.raises(DefinitionNotFound):
        definition(str(generated / "parser.c"), 8, "yy_reduce",
                   oracle_session(), 5)
    print("PASS criterion 7: code matches the shared renderer; generated "
          "code yields DefinitionNotFound")


def test_criterion_7_definition_oracle(fixture_bins, fixtures_dir):
    defproj = fixtures_dir / "defproj"
    oracle = json.loads((DATA / "definition_oracle.json").read_text())
    assert len(oracle) >= 5
    with DebugSession(str(fixture_bins["defproj"])) as session:
        for case in oracle:
            path, line = parse_loc(case["loc"], str(defproj))
            reply = definition(path, line, case["symbol"], session, 5)
            where, window = reply.split("\n", 1)
            found_path, found_line = parse_loc(where, "")
            expect_path, expect_line = parse_loc(case["def"], str(defproj))
            assert Path(found_path).resolve() == \
                Path(expect_path).resolve(), case["symbol"]
            assert found_line == expect_line, case["symbol"]
            assert window == source_window(found_path, found_line)
    print(f"PASS criterion 7: {len(oracle)} symbols resolved through the "
          "debugger to recorded locations")


LIVE_READY = (os.environ.get("DBGCHAT_LIVE_SMOKE") == "1"
              and bool(os.environ.get("OPENAI_API_KEY")))


@pytest.mark.skipif(not LIVE_READY,
                    reason="live smoke needs DBGCHAT_LIVE_SMOKE=1 and "
                           "OPENAI_API_KEY (informational, not gating)")
def test_criterion_8_live_smoke(fixture_bins, fixtures_dir):
    from test_agent import RecordingUi

    from dbgchat.cli import build_parser
    from dbgchat.llm import HttpBackend

    ns = build_parser().parse_args([str(fixture_bins["crash_segv"])])
    with DebugSession(str(fixture_bins["crash_segv"])) as session:
        session.run_to_stop()
        ui = RecordingUi()
        backend = HttpBackend(ns.base_url, ns.model,
                              os.environ[ns.key_env])
        agent = Agent(session, backend, native_strict(),
                      AgentConfig(workspace_root=str(fixtures_dir)), ui)
        start = time.monotonic()
        agent.handle_input("Why did this program crash? Take the wheel "
                           "and investigate.")
        elapsed = time.monotonic() - start
        backend.close()
    assert elapsed < 120.0
    assert "Recommendation" in ui.prose_text()
    print(f"PASS criterion 8: live session produced a Recommendation "
          f"section in {elapsed:.1f}s")
