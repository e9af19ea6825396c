"""Command vetting: the 63-case verdict table plus policy properties."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbgchat.sanitizer import (
    DEFAULT_PREFIXES,
    Mode,
    SanitizerPolicy,
    load_whitelist,
    native_strict,
    sanitize,
    unsafe_policy,
    whitelist,
)

CASES = json.loads(
    (Path(__file__).parent / "data" / "sanitizer_cases.json").read_text())


def _policy(case) -> SanitizerPolicy:
    mode = case["mode"]
    if mode == "native":
        return native_strict()
    if mode == "whitelist":
        return whitelist(case["functions"])
    return unsafe_policy()


def test_table_has_sixty_three_cases():
    assert len(CASES) == 63


@pytest.mark.parametrize("case", CASES,
                         ids=[f"{c['mode']}:{c['command'] or '<empty>'}"
                              for c in CASES])
def test_verdict_table(case):
    verdict = sanitize(case["command"], _policy(case))
    assert verdict.allowed == (case["verdict"] == "allow"), verdict.reason
    if "reason_contains" in case:
        assert case["reason_contains"] in verdict.reason


def test_verdicts_are_pure():
    for case in CASES:
        policy = _policy(case)
        assert sanitize(case["command"], policy) == sanitize(case["command"],
                                                             policy)


# -- policy construction ---------------------------------------------------

def test_unsafe_policy_mode():
    assert unsafe_policy().mode is Mode.UNSAFE


def test_allowed_prefixes_native():
    for word in ("bt", "up", "down", "p", "frame", "list", "info", "x"):
        assert word in DEFAULT_PREFIXES
    for word in ("run", "continue", "shell", "set", "call"):
        assert word not in DEFAULT_PREFIXES


def test_load_whitelist(tmp_path):
    path = tmp_path / "allow.txt"
    path.write_text("strlen\n\n# readers\nmemcmp\n  strnlen  \n")
    assert load_whitelist(str(path)) == frozenset(
        {"strlen", "memcmp", "strnlen"})


def test_load_whitelist_rejects_non_identifiers(tmp_path):
    path = tmp_path / "allow.txt"
    path.write_text("strlen\nrm -rf /\n")
    with pytest.raises(ValueError):
        load_whitelist(str(path))


# -- randomized properties -------------------------------------------------

_FUNCS = ["strlen", "strnlen", "memcmp", "helper", "checksum", "fmt", "grab"]
_PREFIX_POOL = sorted(DEFAULT_PREFIXES) + [
    "run", "continue", "shell", "set", "call", "step", "quit", "garbage", ""]


def _random_command(rng: random.Random) -> str:
    prefix = rng.choice(_PREFIX_POOL)
    pieces = []
    for _ in range(rng.randint(0, 3)):
        kind = rng.randrange(6)
        if kind == 0:
            pieces.append(rng.choice(["x", "counts[2]", "*cursor", "s.f"]))
        elif kind == 1:
            pieces.append(f"{rng.choice(_FUNCS)}({rng.choice(['s', '1'])})")
        elif kind == 2:
            pieces.append("(int)v")
        elif kind == 3:
            pieces.append("sizeof(struct sample)")
        elif kind == 4:
            pieces.append("(*fp)(3)")
        else:
            pieces.append(rng.choice(["+", "-", "=="]))
    return (prefix + " " + " ".join(pieces)).strip()


def test_monotonicity_and_unsafe_ten_thousand_trials():
    rng = random.Random(42)
    native = native_strict()
    unsafe = unsafe_policy()
    for _ in range(10_000):
        command = _random_command(rng)
        small = set(rng.sample(_FUNCS, rng.randint(0, 3)))
        big = small | set(rng.sample(_FUNCS, rng.randint(0, 4)))
        verdict_small = sanitize(command, whitelist(small))
        verdict_big = sanitize(command, whitelist(big))
        if verdict_small.allowed:
            assert verdict_big.allowed, (command, small, big)
        if sanitize(command, native).allowed:
            assert verdict_small.allowed, (command, small)
        assert sanitize(command, unsafe).allowed, command


@settings(max_examples=300)
@given(st.text(max_size=80))
def test_sanitize_total_and_deterministic(command):
    for policy in (native_strict(), whitelist({"strlen"}),
                   unsafe_policy()):
        verdict = sanitize(command, policy)
        assert verdict == sanitize(command, policy)
        if not verdict.allowed:
            assert verdict.reason


@settings(max_examples=300)
@given(st.text(max_size=80))
def test_native_deny_superset_of_whitelist_deny(command):
    if sanitize(command, native_strict()).allowed:
        assert sanitize(command, whitelist(set(_FUNCS))).allowed
