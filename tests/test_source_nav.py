"""The code and definition tools: location parsing, source windows, and
definition lookup."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dbgchat.agent import code_window, parse_loc
from dbgchat.enrich import definition, source_window
from dbgchat.errors import SourceError, SourceUnavailable
from dbgchat.session import DebugSession, Frame

from conftest import stack_description

HERE = Path(__file__).parent
DEFPROJ = HERE / "fixtures" / "defproj"
GENERATED = HERE / "fixtures" / "generated"
ORACLE = json.loads((HERE / "data" / "definition_oracle.json").read_text())


# -- locations -------------------------------------------------------------

def test_parse_loc():
    assert parse_loc("fixture.c:118", "/ws") == ("/ws/fixture.c", 118)
    assert parse_loc("/ws/src/fixture.c:118", "/ws") == \
        ("/ws/src/fixture.c", 118)
    assert parse_loc("src/../fixture.c:118", "/ws") == \
        ("/ws/src/../fixture.c", 118)


@pytest.mark.parametrize("loc", ["/src/fixture.c:118", "../fixture.c:3",
                                 "src/../../ws2/fixture.c:3", "/ws2/a.c:1",
                                 "..:1"])
def test_parse_loc_refuses_paths_outside_the_root(loc):
    file = loc.rpartition(":")[0]
    with pytest.raises(SourceUnavailable) as raised:
        parse_loc(loc, "/ws")
    assert str(raised.value) == f"{file} is outside the workspace root /ws"


def test_parse_loc_refuses_a_link_out_of_the_root(tmp_path):
    # The kernel resolves lnk/.. to other/, not to ws/.
    ws, deep = tmp_path / "ws", tmp_path / "other" / "deep"
    ws.mkdir()
    deep.mkdir(parents=True)
    (tmp_path / "other" / "secret.c").write_text("int secret;\n")
    (ws / "lnk").symlink_to(deep)
    with pytest.raises(SourceUnavailable) as raised:
        parse_loc("lnk/../secret.c:1", str(ws))
    assert str(raised.value) == \
        f"lnk/../secret.c is outside the workspace root {ws}"


def test_a_root_that_is_a_link_serves_its_files(tmp_path):
    real, root = tmp_path / "real", tmp_path / "root"
    real.mkdir()
    (real / "app.c").write_text("int x;\n")
    root.symlink_to(real)
    for loc in ("app.c:1", f"{root}/app.c:1"):
        assert parse_loc(loc, str(root)) == (f"{root}/app.c", 1)
        assert "int x;" in code_window(*parse_loc(loc, str(root)))


def test_parse_loc_keeps_path_colons():
    assert parse_loc("dir/od:d.c:7", "") == ("dir/od:d.c", 7)


#: Each location parse_loc refuses, and the start of its message.
BAD_LOCS = {
    "fixture.c": "expected filename:lineno, got",
    ":5": "expected filename:lineno, got",
    "a.c:": "line number is not an integer in",
    "a.c:x": "line number is not an integer in",
    "a.c:0": "line number must be positive in",
    "a.c:-3": "line number must be positive in",
    "": "expected filename:lineno, got",
    "a\0.c:1": "no file can be named as in",
    "\ud800.c:1": "no file can be named as in",
}


@pytest.mark.parametrize("bad", list(BAD_LOCS))
def test_parse_loc_rejects(bad):
    with pytest.raises(SourceError,
                       match=f"^{re.escape(f'{BAD_LOCS[bad]} {bad!r}')}$"):
        parse_loc(bad, "/ws")


@given(file=st.text(st.characters(blacklist_categories=["Cs"],
                                   blacklist_characters="/\0"), min_size=1,
                   max_size=30).filter(lambda file: file != ".."),
       line=st.integers(1, 10**6))
def test_loc_round_trips(file, line):
    assert parse_loc(f"{file}:{line}", "/ws") == (f"/ws/{file}", line)


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


@pytest.mark.parametrize("name, reason", [
    ("nope.c", "No such file or directory"),
    ("", "Is a directory"),
])
def test_unreadable_source_says_why(oracle_session, name, reason):
    path = str(DEFPROJ / name)
    for read in (lambda: code_window(path, 5),
                 lambda: definition(path, 5, "checksum", oracle_session, 5)):
        with pytest.raises(SourceUnavailable) as raised:
            read()
        assert str(raised.value) == f"{path}: {reason}"


# -- definition ------------------------------------------------------------

def oracle_description() -> dict:
    """A stack whose debug info places each oracle symbol where the
    oracle records its definition."""
    symbols = {}
    for case in ORACLE:
        symbols[case["symbol"]] = parse_loc(case["def"], str(DEFPROJ))
    return stack_description([Frame(level=0, func="main")], symbols=symbols)


@pytest.fixture()
def oracle_session(standin) -> DebugSession:
    session, _ = standin(oracle_description())
    return session


def _define(case, session) -> str:
    path, line = parse_loc(case["loc"], str(DEFPROJ))
    return definition(path, line, case["symbol"], session, 5)


@pytest.mark.parametrize("case", ORACLE,
                         ids=[c["symbol"] for c in ORACLE])
def test_definition_through_session(oracle_session, case):
    path, line = parse_loc(case["def"], str(DEFPROJ))
    assert _define(case, oracle_session) == \
        f"{path}:{line}\n{source_window(path, line, 5)}"


def test_definition_symbol_not_on_line(oracle_session):
    with pytest.raises(SourceError, match=r"^'table_size' does not occur at "
                       rf"{re.escape(str(DEFPROJ / 'main.c'))}:7$"):
        definition(str(DEFPROJ / "main.c"), 7, "table_size",
                   oracle_session, 5)


def test_definition_unreadable_source(oracle_session):
    with pytest.raises(SourceUnavailable,
                       match=r"^nope\.c: No such file or directory$"):
        definition("nope.c", 5, "checksum", oracle_session, 5)
    with pytest.raises(SourceUnavailable):
        definition(str(DEFPROJ / "main.c"), 9999, "checksum",
                   oracle_session, 5)


def test_definition_generated_code_not_found(oracle_session):
    with pytest.raises(SourceError,
                       match="^no definition found for 'yy_reduce'$"):
        definition(str(GENERATED / "parser.c"), 8, "yy_reduce",
                   oracle_session, 5)


def test_definition_is_deterministic(oracle_session):
    assert _define(ORACLE[0], oracle_session) == \
        _define(ORACLE[0], oracle_session)


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
    with pytest.raises(SourceError,
                       match="^no definition found for 'yy_reduce'$"):
        definition(str(GENERATED / "parser.c"), 8, "yy_reduce",
                   defproj_session, 5)
