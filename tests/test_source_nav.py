"""The code and definition tools: location parsing, source windows, and
definition lookup."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dbgchat.agent import code_window, parse_loc
from dbgchat.enrich import definition, source_window
from dbgchat.errors import (
    BadLocSyntax,
    DefinitionNotFound,
    SourceUnavailable,
    SymbolNotOnLine,
)
from dbgchat.session import DebugSession

from conftest import FakeSession

HERE = Path(__file__).parent
DEFPROJ = HERE / "fixtures" / "defproj"
GENERATED = HERE / "fixtures" / "generated"
ORACLE = json.loads((HERE / "data" / "definition_oracle.json").read_text())


# -- locations -------------------------------------------------------------

def test_parse_loc():
    assert parse_loc("fixture.c:118", "/ws") == ("/ws/fixture.c", 118)
    assert parse_loc("/src/fixture.c:118", "/ws") == ("/src/fixture.c", 118)


def test_parse_loc_keeps_path_colons():
    assert parse_loc("dir/od:d.c:7", "") == ("dir/od:d.c", 7)


@pytest.mark.parametrize("bad", ["fixture.c", ":5", "a.c:", "a.c:x",
                                 "a.c:0", "a.c:-3", ""])
def test_parse_loc_rejects(bad):
    with pytest.raises(BadLocSyntax):
        parse_loc(bad, "/ws")


@given(file=st.text(min_size=1, max_size=30), line=st.integers(1, 10**6))
def test_loc_round_trips(file, line):
    assert parse_loc(f"{file}:{line}", "") == (file, line)


def test_code_matches_stack_window(fixtures_dir):
    path = str(fixtures_dir / "crash_segv.c")
    for line in (1, 5, 28):
        assert code_window(path, line) == source_window(path, line, 5)


def test_code_window_radius():
    path = str(DEFPROJ / "util.c")
    assert code_window(path, 8, 2) == source_window(path, 8, 2)


def test_code_unreadable():
    with pytest.raises(SourceUnavailable):
        code_window("nope.c", 5)
    with pytest.raises(SourceUnavailable):
        code_window(str(DEFPROJ / "util.c"), 9999)


# -- definition ------------------------------------------------------------

def oracle_session() -> FakeSession:
    """A session whose debug info places each oracle symbol where the
    oracle records its definition."""
    symbols = {}
    for case in ORACLE:
        symbols[case["symbol"]] = parse_loc(case["def"], str(DEFPROJ))
    return FakeSession(symbols=symbols)


def _define(case, session) -> str:
    path, line = parse_loc(case["loc"], str(DEFPROJ))
    return definition(path, line, case["symbol"], session, 5)


@pytest.mark.parametrize("case", ORACLE,
                         ids=[c["symbol"] for c in ORACLE])
def test_definition_through_session(case):
    path, line = parse_loc(case["def"], str(DEFPROJ))
    assert _define(case, oracle_session()) == \
        f"{path}:{line}\n{source_window(path, line, 5)}"


def test_definition_symbol_not_on_line():
    with pytest.raises(SymbolNotOnLine):
        definition(str(DEFPROJ / "main.c"), 7, "table_size",
                   oracle_session(), 5)


def test_definition_unreadable_source():
    with pytest.raises(SourceUnavailable, match=r"^nope\.c$"):
        definition("nope.c", 5, "checksum", oracle_session(), 5)
    with pytest.raises(SourceUnavailable):
        definition(str(DEFPROJ / "main.c"), 9999, "checksum",
                   oracle_session(), 5)


def test_definition_generated_code_not_found():
    with pytest.raises(DefinitionNotFound):
        definition(str(GENERATED / "parser.c"), 8, "yy_reduce",
                   oracle_session(), 5)


def test_definition_is_deterministic():
    session = oracle_session()
    assert _define(ORACLE[0], session) == _define(ORACLE[0], session)


# -- through gdb's debug info ----------------------------------------------

@pytest.fixture(scope="module")
def defproj_session(fixture_bins):
    with DebugSession(str(fixture_bins["defproj"])) as session:
        yield session


@pytest.mark.parametrize("symbol,file,line", [
    ("checksum", "util.c", 8),
    ("make_record", "util.c", 16),
    ("print_record", "util.c", 24),
    ("table_size", "util.c", 4),
    ("main", "main.c", 4),
])
def test_symbol_definition_from_debug_info(defproj_session, symbol, file,
                                           line):
    found = defproj_session.symbol_definition(symbol)
    assert found is not None
    fullname, got_line = found
    assert fullname.endswith(file)
    assert abs(got_line - line) <= 1


def test_definition_not_in_debug_info(defproj_session):
    with pytest.raises(DefinitionNotFound):
        definition(str(GENERATED / "parser.c"), 8, "yy_reduce",
                   defproj_session, 5)
