"""The command sanitizer over its 63-row verdict table.

Run with ``PYTHONPATH=src python -m pytest bench -q``.  One round vets
every command of ``tests/data/sanitizer_cases.json`` under its row's
policy, built once outside the timed call, as the agent vets each tool
command.  ``extra_info`` holds the rows and how many were denied.
Nothing here asserts on timing.
"""

from __future__ import annotations

import json
from pathlib import Path

from dbgchat.sanitizer import native_strict, sanitize, unsafe_policy, whitelist

CASES = json.loads((Path(__file__).parent.parent / "tests" / "data"
                    / "sanitizer_cases.json").read_text())


def _policy(case):
    if case["mode"] == "native":
        return native_strict()
    if case["mode"] == "whitelist":
        return whitelist(case["functions"])
    return unsafe_policy()


def test_sanitize_verdict_table(benchmark):
    rows = [(case["command"], _policy(case)) for case in CASES]

    def vet_all():
        return [sanitize(command, policy).allowed for command, policy in rows]

    allowed = benchmark(vet_all)
    benchmark.extra_info["rows"] = len(rows)
    benchmark.extra_info["denied"] = allowed.count(False)
