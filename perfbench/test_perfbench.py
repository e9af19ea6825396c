"""The benchmark's own tests: each workload passes its checks, and answers
corrupted on purpose make the matching check fail.

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import io
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import gdb_standin  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402


def run_round(tmp_path, workload, seed=7, mutate=None):
    """Set up a workload, run its first round; [(plan, result, problems)]."""
    out = str(tmp_path / workload)
    plans, provider, bin_dir = run.setup(workload, seed, out)
    env = run.session_env(out, bin_dir)
    results = []
    try:
        for plan in plans:
            if mutate is not None:
                mutate(plan)
            result = run.run_session(plan, provider, env, out)
            results.append((plan, result, checks.check_session(plan, result)))
    finally:
        provider.close()
    return results


def corrupt_target(plan, **corruption):
    """Change what the gdb stand-in answers, not what the checks expect."""
    with open(plan["target"], encoding="utf-8") as fh:
        desc = json.load(fh)
    desc["corrupt"] = corruption
    with open(plan["target"], "w", encoding="utf-8") as fh:
        json.dump(desc, fh)


@pytest.mark.parametrize("workload,failed", [
    ("triage", 0), ("deep-stack", 0), ("long-chat", 3)])
def test_workload_passes_every_check(tmp_path, workload, failed):
    results = run_round(tmp_path, workload)
    for plan, result, problems in results:
        assert problems == [], (plan["name"], problems)
        assert result["exit_code"] == 0
    assert sum(run.timings(p, r)["failed"] for p, r, _ in results) == failed


def test_wrong_value_fails_the_value_check(tmp_path):
    def mutate(plan):
        if plan["name"] == "segv":
            corrupt_target(plan, value=[0, "seen", "999"])
    problems = {p["name"]: found for p, _, found in
                run_round(tmp_path, "triage", mutate=mutate)}
    assert any("level 0: seen" in p for p in problems["segv"]), problems["segv"]
    assert problems["fpe"] == [] and problems["assert"] == []


def test_uncounted_dropped_frame_fails_the_accounting_check(tmp_path):
    def mutate(plan):
        corrupt_target(plan, drop_frame=100)
    [(_, _, problems)] = run_round(tmp_path, "deep-stack", mutate=mutate)
    assert any("frames; the target has" in p or "described" in p
               for p in problems), problems


def test_reordered_tool_replies_fail_the_pairing_check(tmp_path):
    def mutate(plan):
        plan["reorder"] = plan["name"] == "segv"
    problems = {p["name"]: found for p, _, found in
                run_round(tmp_path, "triage", mutate=mutate)}
    assert any(p.startswith("tool pairing") for p in problems["segv"])
    assert problems["fpe"] == []


def standin_answers(lines, desc=None):
    desc = desc or {
        "exec_name": "t", "frames": [{
            "func": "f", "file": "a.c", "fullname": "/a.c", "line": 3,
            "addr": "0x1",
            "vars": [{"name": "xs", "type": "int [2]", "value": "{1, 2}",
                      "aggregate": True},
                     {"name": "n", "type": "int", "value": "5"}]}],
        "globals": {}, "console": {}, "symbols": {}, "symbols_mi": ""}
    out = io.BytesIO()
    stand_in = gdb_standin.StandIn(desc, out)
    for line in lines:
        stand_in.handle(line)
    return out.getvalue().decode(), stand_in


def test_standin_echoes_tokens_and_rejects_unknown_commands():
    text, stand_in = standin_answers(["12-stack-info-depth", "-no-such-thing",
                                      '-interpreter-exec console "p n"'])
    assert '12^done,depth="1"' in text
    assert '^error,msg="Undefined MI command: no-such-thing"' in text
    assert '~"$1 = 5\\n"' in text
    assert stand_in.commands == 3 and stand_in.console == ["p n"]
    assert stand_in.bytes_out == len(text.encode())


def test_standin_lists_aggregates_only_with_all_values():
    simple, _ = standin_answers(
        ["-stack-list-variables --thread 1 --frame 0 --simple-values"])
    full, _ = standin_answers(["-stack-list-variables --all-values"])
    assert 'name="xs",type="int [2]"}' in simple
    assert 'value="{1, 2}"' in full


def test_gauge_scales_each_timing_by_the_probes_around_it():
    gauge = speed.Gauge()
    gauge.starts, gauge.times = [0.0, 1.0, 2.0, 3.0], [5.0, 10.0, 10.0, 2.5]
    # Between the probes at 1.0 and 2.0, the machine ran at half speed.
    assert gauge.factor(1.5, 1.8) == speed.REF_MS / 10.0
    assert gauge.scaled_median([(100.0, 1.5, 1.8)]) == 100.0 * speed.REF_MS / 10.0
    # A longer interval takes every probe from the last before to the first after.
    assert gauge.factor(0.5, 2.5) == speed.REF_MS / 6.875
