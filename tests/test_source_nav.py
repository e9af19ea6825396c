"""Location parsing, JSON-RPC framing, and definition lookup."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbgchat.enrich import source_window
from dbgchat.errors import (
    BadLocSyntax,
    DefinitionNotFound,
    LspErrorResponse,
    LspNotInitialized,
    LspTimeout,
    LspTransportError,
    LspUnavailable,
    SourceUnavailable,
    SymbolNotOnLine,
)
from dbgchat.session import DebugSession
from dbgchat.source_nav import (
    LspConnection,
    SourceLoc,
    code,
    decode_frames,
    definition,
    encode_frame,
    parse_loc,
)

HERE = Path(__file__).parent
STUB = HERE / "lsp_stub.py"
DEFPROJ = HERE / "fixtures" / "defproj"
GENERATED = HERE / "fixtures" / "generated"
ORACLE = json.loads((HERE / "data" / "definition_oracle.json").read_text())


# -- locations -------------------------------------------------------------

def test_parse_loc():
    loc = parse_loc("fixture.c:118")
    assert loc == SourceLoc(file="fixture.c", line=118)
    assert str(loc) == "fixture.c:118"


def test_parse_loc_keeps_path_colons():
    assert parse_loc("dir/od:d.c:7") == SourceLoc(file="dir/od:d.c", line=7)


@pytest.mark.parametrize("bad", ["fixture.c", ":5", "a.c:", "a.c:x",
                                 "a.c:0", "a.c:-3", ""])
def test_parse_loc_rejects(bad):
    with pytest.raises(BadLocSyntax):
        parse_loc(bad)


@given(file=st.text(min_size=1, max_size=30), line=st.integers(1, 10**6))
def test_loc_round_trips(file, line):
    loc = SourceLoc(file=file, line=line)
    assert parse_loc(str(loc)) == loc


def test_code_matches_stack_window(fixtures_dir):
    path = str(fixtures_dir / "crash_segv.c")
    for line in (1, 5, 28):
        assert code(SourceLoc(path, line)) == source_window(path, line, 5)


def test_code_window_radius():
    path = str(DEFPROJ / "util.c")
    assert code(SourceLoc(path, 8), radius=2) == source_window(path, 8, 2)


def test_code_unreadable():
    with pytest.raises(SourceUnavailable):
        code(SourceLoc("nope.c", 5))
    with pytest.raises(SourceUnavailable):
        code(SourceLoc(str(DEFPROJ / "util.c"), 9999))


# -- framing ---------------------------------------------------------------

def test_frame_round_trip_fixed():
    payload = {"jsonrpc": "2.0", "id": 1, "method": "x", "params": {"a": "ü"}}
    frames, rest = decode_frames(encode_frame(payload))
    assert frames == [payload]
    assert rest == b""


def test_frame_decode_is_incremental():
    data = encode_frame({"id": 1}) + encode_frame({"id": 2})
    frames, rest = decode_frames(data[:-1])
    assert frames == [{"id": 1}]
    assert rest == data[len(encode_frame({"id": 1})):-1]
    frames2, rest2 = decode_frames(rest + data[-1:])
    assert frames2 == [{"id": 2}]
    assert rest2 == b""


def test_frame_decode_rejects_garbage():
    with pytest.raises(LspTransportError):
        decode_frames(b"Content-Length: zap\r\n\r\n{}")
    with pytest.raises(LspTransportError):
        decode_frames(b"Content-Type: json\r\n\r\n{}")
    with pytest.raises(LspTransportError):
        decode_frames(b"Content-Length: 4\r\n\r\nnope")


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6)
    | st.text(max_size=20),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=10)


@settings(max_examples=200)
@given(payloads=st.lists(st.dictionaries(st.text(max_size=8), _json_values,
                                         max_size=4), max_size=4))
def test_frame_round_trip_property(payloads):
    stream = b"".join(encode_frame(p) for p in payloads)
    frames, rest = decode_frames(stream)
    assert frames == payloads
    assert rest == b""


# -- client against the stub server ---------------------------------------

def _connect(root=DEFPROJ, timeout=10.0, initialize=True) -> LspConnection:
    conn = LspConnection([sys.executable, str(STUB)], root=str(root),
                         timeout=timeout)
    if initialize:
        conn.initialize()
    return conn


def test_initialize_handshake():
    with _connect(initialize=False) as conn:
        assert not conn.initialized
        result = conn.initialize()
        assert result["capabilities"]["definitionProvider"] is True
        assert conn.initialized


def test_request_before_initialize_rejected():
    with _connect(initialize=False) as conn:
        with pytest.raises(LspNotInitialized):
            conn.request("textDocument/definition", {})


def test_unknown_method_is_error_response():
    with _connect() as conn:
        with pytest.raises(LspErrorResponse) as info:
            conn.request("no/such/method", {})
        assert info.value.code == -32601


def test_timeout_on_silent_server():
    with _connect(timeout=0.5) as conn:
        with pytest.raises(LspTimeout):
            conn.request("test/never", {})


def test_dead_server_is_transport_error():
    conn = _connect()
    conn.proc.kill()
    conn.proc.wait()
    with pytest.raises(LspTransportError):
        conn.request("textDocument/definition", {
            "textDocument": {"uri": "file:///x.c"},
            "position": {"line": 0, "character": 0}})
    conn.close()


def test_no_orphan_after_close():
    conn = _connect()
    conn.close()
    assert conn.proc.poll() is not None


def test_did_open_tracked():
    with _connect() as conn:
        path = str(DEFPROJ / "main.c")
        conn.did_open(path)
        conn.did_open(path)
        assert conn.open_documents == {path}


# -- definition ------------------------------------------------------------

@pytest.fixture()
def lsp():
    with _connect() as conn:
        yield conn


def _case_loc(case) -> SourceLoc:
    raw = parse_loc(case["loc"])
    return SourceLoc(file=str(DEFPROJ / raw.file), line=raw.line)


@pytest.mark.parametrize("case", ORACLE,
                         ids=[c["symbol"] for c in ORACLE])
def test_definition_via_language_server(case, lsp):
    result = definition(_case_loc(case), case["symbol"], lsp=lsp)
    expected = parse_loc(case["def"])
    assert Path(result.loc.file).resolve() == (DEFPROJ / expected.file).resolve()
    assert result.loc.line == expected.line
    assert result.source == source_window(result.loc.file, result.loc.line, 5)


def test_definition_symbol_not_on_line(lsp):
    with pytest.raises(SymbolNotOnLine):
        definition(SourceLoc(str(DEFPROJ / "main.c"), 7), "table_size",
                   lsp=lsp)


def test_definition_generated_code_not_found(lsp):
    with pytest.raises(DefinitionNotFound):
        definition(SourceLoc(str(GENERATED / "parser.c"), 8), "yy_reduce",
                   lsp=lsp)


def test_definition_requires_some_resolver():
    with pytest.raises(LspUnavailable):
        definition(SourceLoc(str(DEFPROJ / "main.c"), 7), "checksum")


def test_definition_is_deterministic(lsp):
    loc = _case_loc(ORACLE[0])
    first = definition(loc, ORACLE[0]["symbol"], lsp=lsp)
    second = definition(loc, ORACLE[0]["symbol"], lsp=lsp)
    assert first == second


# -- debugger fallback -----------------------------------------------------

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


def test_definition_falls_back_to_debugger(defproj_session, tmp_path):
    # A server over an empty workspace finds nothing; the session answers.
    with _connect(root=tmp_path) as empty_lsp:
        result = definition(SourceLoc(str(DEFPROJ / "main.c"), 7), "checksum",
                            lsp=empty_lsp, session=defproj_session)
    assert result.loc.file.endswith("util.c")
    assert result.source == source_window(result.loc.file, result.loc.line, 5)


def test_definition_fallback_not_found(defproj_session):
    with pytest.raises(DefinitionNotFound):
        definition(SourceLoc(str(GENERATED / "parser.c"), 8), "yy_reduce",
                   session=defproj_session)
