"""Machine-interface layer: parsing oracles, round-trips, live sessions."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib.util
import os
import pty
import select
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbgchat import mi
from dbgchat.errors import (
    DebuggerError,
    DebuggerExited,
    EvaluationError,
    ProtocolError,
    split_lines,
)
from dbgchat.mi import (
    DebuggerHandle,
    MIOutput,
    MIRecord,
    RecordKind,
    file_symbols,
    parse_mi_line,
    spawn_debugger,
)

from conftest import FAKE_GDB
from mi_serialize import serialize

# -- fixed oracle lines ----------------------------------------------------

def test_result_done_with_value():
    rec = parse_mi_line('^done,value="42"')
    assert rec.kind is RecordKind.RESULT
    assert rec.klass == "done"
    assert rec.payload == {"value": "42"}
    assert rec.token is None


def test_prompt_line():
    assert parse_mi_line("(gdb) ").kind is RecordKind.PROMPT
    assert parse_mi_line("(gdb)").kind is RecordKind.PROMPT


def test_stopped_signal_record():
    line = ('*stopped,reason="signal-received",signal-name="SIGSEGV",'
            'signal-meaning="Segmentation fault"')
    rec = parse_mi_line(line)
    assert rec.kind is RecordKind.ASYNC_EXEC
    assert rec.klass == "stopped"
    assert rec.payload["reason"] == "signal-received"
    assert rec.payload["signal-name"] == "SIGSEGV"


def test_tokened_result():
    rec = parse_mi_line('7^error,msg="No symbol table is loaded."')
    assert rec.token == 7
    assert rec.klass == "error"
    assert rec.payload["msg"] == "No symbol table is loaded."


def test_console_stream_unescapes():
    rec = parse_mi_line('~"line one\\nline two\\t!"')
    assert rec.kind is RecordKind.CONSOLE_STREAM
    assert rec.text == "line one\nline two\t!"


def test_log_and_target_streams():
    assert parse_mi_line('&"warning\\n"').kind is RecordKind.LOG_STREAM
    assert parse_mi_line('@"out"').kind is RecordKind.TARGET_STREAM


def test_notify_async_record():
    rec = parse_mi_line('=thread-group-added,id="i1"')
    assert rec.kind is RecordKind.ASYNC_NOTIFY
    assert rec.klass == "thread-group-added"
    assert rec.payload == {"id": "i1"}


def test_status_async_normalizes_to_notify():
    rec = parse_mi_line('+download,section=".text",section-size="6668"')
    assert rec.kind is RecordKind.ASYNC_NOTIFY
    assert rec.klass == "download"
    assert rec.payload == {"section": ".text", "section-size": "6668"}


def test_nested_tuple_payload():
    line = ('*stopped,reason="breakpoint-hit",frame={addr="0x08048564",'
            'func="main",args=[{name="argc",value="1"}],file="demo.c",line="4"}')
    rec = parse_mi_line(line)
    frame = rec.payload["frame"]
    assert frame["func"] == "main"
    assert frame["args"] == [{"name": "argc", "value": "1"}]
    assert frame["line"] == "4"


def test_result_list_with_repeated_names():
    line = ('^done,stack=[frame={level="0",func="inner"},'
            'frame={level="1",func="main"}]')
    rec = parse_mi_line(line)
    stack = rec.payload["stack"]
    assert [f["frame"]["func"] for f in stack] == ["inner", "main"]


def test_empty_list_and_tuple():
    rec = parse_mi_line('^done,locals=[],frame={}')
    assert rec.payload == {"locals": [], "frame": {}}


def test_octal_and_hex_escapes():
    assert parse_mi_line('~"\\033[0m"').text == "\x1b[0m"
    assert parse_mi_line('~"tab:\\x09."').text == "tab:\t."


def test_junk_line_degrades_to_unparsed_log():
    rec = parse_mi_line("Reading symbols from ./a.out...")
    assert rec.kind is RecordKind.LOG_STREAM
    assert rec.unparsed
    assert rec.text == "Reading symbols from ./a.out..."


def test_unparsed_serializes_to_identity():
    raw = "some stray target output"
    rec = parse_mi_line(raw)
    assert serialize(rec) == raw


def _stream(text):
    return MIRecord(kind=RecordKind.CONSOLE_STREAM, text=text)


def _unparsed(line):
    return MIRecord(kind=RecordKind.LOG_STREAM, text=line, unparsed=True)


@pytest.mark.parametrize("line, record", [
    ('~"a\\xzb"', _stream("axzb")),             # \x without a hex digit
    ('~"\\x"', _stream("x")),
    ('~"\\x414"', _stream("A4")),               # at most two hex digits
    ('~"\\1011"', _stream("A1")),               # at most three octal digits
    ('~"\\0"', _stream("\0")),
    ('~"\\8"', _unparsed('~"\\8"')),
    ('~"a\\9b"', _unparsed('~"a\\9b"')),
    ('~"\\\u0663"', _unparsed('~"\\\u0663"')),     # a non-ASCII digit
    ('~"abc\\', _unparsed('~"abc\\')),         # backslash ends the line
    ('~"abc\\"', _unparsed('~"abc\\"')),       # escaped closing quote
    ('~"\\e[0m\\a\\v\\\'"', _stream("\x1b[0m\a\v'")),
    ('~"\\q\\""', _stream('q"')),               # unknown escape
    ('^done,gr\u00f6\u00dfe="1",t={n\u0663="2"}',
     MIRecord(kind=RecordKind.RESULT, klass="done",
              payload={"gr\u00f6\u00dfe": "1", "t": {"n\u0663": "2"}})),
    ('^done,a\u00b7b="1"', _unparsed('^done,a\u00b7b="1"')),
    # gdb's load progress line: an unnamed value among the results.
    ('+download,{section=".text",section-size="6668"}',
     _unparsed('+download,{section=".text",section-size="6668"}')),
    ('^done,', _unparsed('^done,')),            # a comma and no result
    ('^done,a="1",', _unparsed('^done,a="1",')),
    ('~"\\\u00b2"', _stream("\u00b2")),       # a digit, but not decimal
])
def test_escape_and_name_edge_cases(line, record):
    assert parse_mi_line(line) == record


CORPUS = Path(__file__).parent / "data" / "mi_corpus.txt"
# sha256 of the records' reprs, one a line, as an earlier character-at-a-
# time parser produced them for the corpus, less their positional=[] field.
CORPUS_RECORDS_SHA256 = \
    "70f7d527d9d116b48f4b71ad16288416560a0ba80d0fb956655bc02c57968df0"


def test_corpus_parses_to_pinned_records():
    lines = CORPUS.read_text(encoding="utf-8").rstrip("\n").split("\n")
    reprs = "\n".join(repr(parse_mi_line(line)) for line in lines)
    assert hashlib.sha256(reprs.encode()).hexdigest() == CORPUS_RECORDS_SHA256


def symbol_table(count, per_file=50):
    """A -symbol-info-variables payload; every 9th type holds quotes."""
    debug = []
    for f in range(0, count, per_file):
        symbols = []
        for i in range(f, min(f + per_file, count)):
            type_ = 'char [4] /* "\\q" */' if i % 9 == 0 else "struct node *"
            symbols.append({"line": str(10 + i), "name": f"var_{i}",
                            "type": type_,
                            "description": f"static {type_} var_{i};"})
        debug.append({"filename": f"unit_{f}.c",
                      "fullname": f"/src/unit_{f}.c", "symbols": symbols})
    return {"symbols": {"debug": debug}}


def test_large_symbol_table_record():
    payload = symbol_table(2000)
    line = serialize(MIRecord(kind=RecordKind.RESULT, klass="done",
                              payload=payload))
    assert '\\"\\\\q\\"' in line
    rec = parse_mi_line(line)
    assert not rec.unparsed
    assert rec.payload == payload


# -- the one accessor of an answer's result --------------------------------

class Refused(Exception):
    """Stands for the error a caller hands MIOutput.result."""


@pytest.mark.parametrize("lines, outcome", [
    (['=thread-created,id="1"', '^done,value="2"', "(gdb) "], "done"),
    (['~"Starting program"', "^running", "(gdb) "], "running"),
    (['~"x"', r'^error,msg="No symbol \"x\" in current context."', "(gdb) "],
     (Refused, r'^No symbol "x" in current context\.$')),
    (['~"2\\n"', "(gdb) "],
     (ProtocolError, r"""^unexpected answer to -data-evaluate-expression x: """
                     r"""'~"2\\\\n"\\n\(gdb\) '$""")),
    (['^done,value="{1, 2', "(gdb) "],
     (ProtocolError, r"""^unexpected answer to -data-evaluate-expression x: """
                     r"""'\^done,value="{1, 2\\n\(gdb\) '$""")),
    (["^exit"],
     (ProtocolError, r"^unexpected answer to -data-evaluate-expression x: "
                     r"'\^exit'$")),
    (["^error", "(gdb) "], (ProtocolError, r"'\^error\\n\(gdb\) '$")),
    (["~" + "a" * 500, "(gdb) "], (ProtocolError, r": '~a{59}'$")),
], ids=["done", "running", "error", "no-result-line", "cut-result-line",
        "exit", "error-without-msg", "long-answer-quoted-in-part"])
def test_result_gives_done_or_running_and_raises_for_the_rest(lines,
                                                              outcome):
    out = MIOutput(lines, "-data-evaluate-expression x")
    if isinstance(outcome, str):
        record = out.result(Refused)
        assert (record.kind, record.klass) == (RecordKind.RESULT, outcome)
        return
    error, message = outcome
    with pytest.raises(error, match=message) as caught:
        out.result(Refused)
    assert type(caught.value) is error


# -- one file's entries of a symbol table ----------------------------------

def _result(lines):
    return next((r for r in map(parse_mi_line, lines)
                 if r.kind is RecordKind.RESULT), None)


def _debug(lines):
    """The debug entries of the answer parsed whole, [] unless ^done."""
    result = _result(lines)
    if result is None or result.klass != "done":
        return []
    return result.payload.get("symbols", {}).get("debug", [])


def _symbols_by_parse(debug, fullname):
    """What file_symbols must return: the debug entries filtered on their
    decoded fullname."""
    return [sym for entry in debug if isinstance(entry, dict)
            and entry.get("fullname") == fullname
            for sym in entry.get("symbols", [])]


def _fullnames(debug):
    """The fullname of each debug entry that has one, decoded."""
    return {entry["fullname"] for entry in debug if "fullname" in entry}


_SIMPLE_ESCAPES = {"\n": ["\\n"], "\t": ["\\t"], '"': ['\\"'],
                   "\\": ["\\\\"]}


def _cstring(text, rnd):
    """text as a c-string, each character written plainly or, chosen by
    rnd, in one of the escape forms that stand for it: octal, as gdb
    writes a non-ASCII byte, hex, a named escape, or an unknown escape of
    a punctuation mark."""
    out = ['"']
    for ch in text:
        forms = _SIMPLE_ESCAPES.get(ch, [ch])
        if ord(ch) < 0o400:
            forms = [*forms, f"\\{ord(ch):03o}", f"\\x{ord(ch):02x}"]
        if ch in "{}[],=/. ":
            forms = [*forms, "\\" + ch]
        out.append(rnd.choice(forms))
    return "".join(out) + '"'


_TEXT = st.lists(st.sampled_from([
    "{filename=", ',fullname="', '"', "\\", "struct {...}", "\n", "\u00e9",
    "\u00fc", "[", "]", "}", "a", "b", "/", ".c", " ", "int"]),
    max_size=6).map("".join)
_FULLNAMES = st.one_of(
    st.sampled_from(["/src/a.c", "/src/caf\u00e9.c", '/src/"q".c',
                     "C:\\src\\b.c", "/src/{filename=x}.c",
                     '/s,fullname="a.c"']),
    _TEXT)


@st.composite
def _entry(draw):
    """One debug entry; its fullname may be missing or shared with others."""
    rnd = draw(st.randoms(use_true_random=False))
    members = []
    if draw(st.booleans()):
        members.append(f"filename={_cstring(draw(_TEXT), rnd)}")
    fullname = draw(st.one_of(st.none(), _FULLNAMES))
    if fullname is not None:
        members.append(f"fullname={_cstring(fullname, rnd)}")
    symbols = []
    for _ in range(draw(st.integers(0, 3))):
        fields = [("line", str(draw(st.integers(1, 999)))),
                  ("name", draw(_TEXT)), ("type", draw(_TEXT)),
                  ("description", draw(_TEXT))]
        symbols.append("{" + ",".join(f"{key}={_cstring(text, rnd)}"
                                      for key, text in fields) + "}")
    members.append(f"symbols=[{','.join(symbols)}]")
    return "{" + ",".join(members) + "}"


_DEBUG_HEAD = "^done,symbols={debug=["
_debug_lists = st.lists(_entry(), max_size=6).map(",".join)


@st.composite
def _symbol_answer(draw):
    """The lines of a -symbol-info-* answer: stream records, a result
    (now and then not ^done) and the prompt."""
    rnd = draw(st.randoms(use_true_random=False))
    token = draw(st.sampled_from(["", "7"]))
    result = f"{token}{_DEBUG_HEAD}{draw(_debug_lists)}]"
    if draw(st.booleans()):
        name = _cstring(draw(_TEXT), rnd)
        result += f',nondebug=[{{address="0x4010",name={name}}}]'
    result += "}"
    if draw(st.integers(0, 4)) == 0:
        result = draw(st.sampled_from([
            f"{token}^done", "^running",
            f"{token}^error,msg={_cstring(draw(_TEXT), rnd)}"]))
    streams = draw(st.lists(st.sampled_from(['&"warning: x\\n"', '~"ok"']),
                            max_size=2))
    return [*streams, result, "(gdb) "]


@settings(max_examples=400)
@given(_symbol_answer())
def test_file_symbols_matches_the_full_parse(lines):
    assert not any(parse_mi_line(line).unparsed for line in lines)
    out = MIOutput(lines)
    debug = _debug(lines)
    fullnames = _fullnames(debug) | {"/no/such/file.c", ""}
    parsed = []
    mi.parse_mi_line = lambda line: parsed.append(line) or parse_mi_line(line)
    try:
        found = {name: file_symbols(out, name) for name in fullnames}
    finally:
        mi.parse_mi_line = parse_mi_line
    assert parsed == []  # no line was parsed whole
    for fullname in fullnames:
        assert found[fullname] == _symbols_by_parse(debug, fullname)


@settings(max_examples=100)
@given(_debug_lists, st.data())
def test_file_symbols_of_an_answer_cut_in_its_debug_list_is_empty(debug,
                                                                  data):
    whole = f"{_DEBUG_HEAD}{debug}]}}"
    cut = whole[:data.draw(st.integers(0, len(_DEBUG_HEAD) + len(debug)))]
    assert _debug([cut]) == []
    for fullname in _fullnames(_debug([whole])):
        assert file_symbols(MIOutput([cut, "(gdb) "]), fullname) == []


SYMBOL_ANSWERS = [line for line in CORPUS.read_text(encoding="utf-8")
                  .split("\n") if line.startswith("^done,symbols=")]


@pytest.mark.parametrize("line", SYMBOL_ANSWERS,
                         ids=lambda line: f"{len(line)}-bytes")
def test_file_symbols_matches_the_full_parse_on_the_corpus(line):
    debug = _debug([line])
    assert debug
    for fullname in _fullnames(debug):
        assert file_symbols(MIOutput([line, "(gdb) "]), fullname) \
            == _symbols_by_parse(debug, fullname) != []


def test_corpus_holds_six_symbol_answers():
    assert len(SYMBOL_ANSWERS) == 6


@pytest.mark.parametrize("line, expected", [
    # A bad escape in an entry that is not read still rejects the line.
    pytest.param('^done,symbols={debug=[{fullname="b\\8"},'
                 '{fullname="a",symbols=[{name="g"}]}]}', [],
                 id="bad-escape-elsewhere"),
    # A line holding an entry of another shape is parsed whole.
    pytest.param('^done,symbols={debug=[{x={y={z=[{}]}}},'
                 '{fullname="a",symbols=[{name="g"}]}]}', [{"name": "g"}],
                 id="deep-entry"),
    pytest.param('^done,symbols={debug=["a",{fullname="a",symbols=["s"]}]}',
                 ["s"], id="bare-string-entry"),
    # A repeated name keeps its last value.
    pytest.param('^done,symbols={debug=[{fullname="a",fullname="b",'
                 'symbols=["s"]},{fullname="b",fullname="a",'
                 'symbols=[{name="g"}]}]}', [{"name": "g"}],
                 id="repeated-fullname"),
    pytest.param('^done,symbols={debug=[{fullname="a",symbols=[]}', [],
                 id="unclosed-list"),
    pytest.param('^done,symbols={debug=[{fullname="a",symbols=[]},]}', [],
                 id="trailing-comma"),
    pytest.param('^done,symbols={debug=[{fullname="a",symbols=["s"]}{}]}',
                 [], id="missing-comma"),
    # A backslash before a digit that is not decimal stands for the digit.
    pytest.param('^done,symbols={debug=[{fullname="b",'
                 'symbols=[{type="x\\\u00b2"}]},{fullname="a",'
                 'symbols=[{line="3",name="g",type="int"}]}]}',
                 [{"line": "3", "name": "g", "type": "int"}],
                 id="escaped-superscript-elsewhere"),
])
def test_file_symbols_edge_cases(line, expected):
    assert file_symbols(MIOutput([line, "(gdb) "]), "a") == expected
    assert _symbols_by_parse(_debug([line]), "a") == expected


# -- round-trip invariants -------------------------------------------------

FIXED_LINES = [
    '^done,value="42"',
    '^done',
    '^running',
    '(gdb) ',
    '*running,thread-id="all"',
    '*stopped,reason="exited",exit-code="03"',
    '=breakpoint-created,bkpt={number="1",type="breakpoint"}',
    '~"Reading symbols...\\n"',
    '&"set confirm off\\n"',
    '@"inferior says hi"',
    '12^done,threads=[]',
    '^done,stack=[frame={level="0"},frame={level="1"}]',
    '^done,chars="\'R\' <repeats 100 times>, \'B\' <repeats 50 times>"',
    '^error,msg="Cannot access memory at address 0x0"',
    'garbage that matches nothing',
    '',
]


@pytest.mark.parametrize("line", FIXED_LINES)
def test_round_trip_fixed(line):
    first = parse_mi_line(line)
    again = parse_mi_line(serialize(first))
    assert again == first


@given(st.text(max_size=200))
def test_parse_is_total_and_round_trips(line):
    line = line.replace("\n", " ")
    first = parse_mi_line(line)
    again = parse_mi_line(serialize(first))
    assert again == first


_names = st.from_regex(r"[a-z][a-z0-9-]{0,8}", fullmatch=True)
_strings = st.text(max_size=12)


def _values(depth=3):
    if depth == 0:
        return _strings
    sub = _values(depth - 1)
    return st.one_of(
        _strings,
        st.dictionaries(_names, sub, max_size=3),
        st.lists(sub, max_size=3),
        st.lists(st.dictionaries(_names, sub, min_size=1, max_size=1), max_size=3),
    )


@settings(max_examples=200)
@given(
    kind=st.sampled_from([RecordKind.RESULT, RecordKind.ASYNC_EXEC,
                          RecordKind.ASYNC_NOTIFY]),
    token=st.one_of(st.none(), st.integers(min_value=0, max_value=10**6)),
    klass=_names,
    payload=st.dictionaries(_names, _values(), max_size=4),
)
def test_serialize_parse_round_trip_generated(kind, token, klass, payload):
    rec = MIRecord(kind=kind, token=token, klass=klass, payload=payload)
    assert parse_mi_line(serialize(rec)) == rec


@given(_strings)
def test_stream_text_round_trips(text):
    rec = MIRecord(kind=RecordKind.CONSOLE_STREAM, text=text.replace("\r", ""))
    assert parse_mi_line(serialize(rec)) == rec


# -- the driver against a scripted MI child --------------------------------

_STOP = '*stopped,reason="signal-received",signal-name="SIGSEGV"'


@contextlib.contextmanager
def _handle_on_fake_child(tty_text=b""):
    """A DebuggerHandle on an unscripted fake child, with no handshake.

    ``tty_text`` is written to the pty before the handle exists, as an
    inferior writes before it stops, and has reached the master side.
    The slave side is yielded too, for writing more."""
    master, slave = pty.openpty()
    if tty_text:
        os.write(slave, tty_text)
        select.select([master], [], [], 5)
    child = subprocess.Popen([sys.executable, str(FAKE_GDB)],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    with child, contextlib.closing(DebuggerHandle(
            child, tty_master=master, tty_slave=slave)) as handle:
        yield handle, slave


def _until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not met in time"
        time.sleep(0.01)


def test_target_output_returns_at_once_on_empty_tty():
    with _handle_on_fake_child() as (handle, _):
        start = time.monotonic()
        assert handle.target_output() == ""
        assert time.monotonic() - start < 0.25


def test_target_output_keeps_text_written_before_the_call():
    text = b"checking lengths\nAssertion failed: len == n\n"
    with _handle_on_fake_child(text) as (handle, _):
        assert handle.target_output() == text.decode()


def test_target_output_joins_a_character_split_across_reads():
    with _handle_on_fake_child() as (handle, slave):
        os.write(slave, b"caf\xc3")
        _until(lambda: handle.target_output().startswith("caf"))
        os.write(slave, b"\xa9 au lait\n")
        _until(lambda: handle.target_output().endswith("\n"))
        assert handle.target_output() == "caf\u00e9 au lait\n"


def test_close_closes_the_child_pipes():
    master, slave = pty.openpty()
    child = subprocess.Popen([sys.executable, str(FAKE_GDB)],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        handle = DebuggerHandle(child, tty_master=master, tty_slave=slave)
        handle.close()
        handle.close()
        assert child.stdin.closed and child.stdout.closed
        del handle, child
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_records_after_a_prompt_wait_for_the_next_read(fake_gdb):
    target = fake_gdb({"-exec-run": [
        "^running", "(gdb) ", "=thread-created,id=\"1\"", "(gdb) ",
        _STOP, "(gdb) "]})
    with contextlib.closing(spawn_debugger(target)) as dbg:
        out = dbg.send_command("-exec-run")
        assert [r.kind for r in out.records] == [RecordKind.RESULT,
                                                 RecordKind.PROMPT]
        assert out.result(EvaluationError).klass == "running"
        assert dbg.wait_for_stop(5).payload["signal-name"] == "SIGSEGV"
        out = dbg.send_command("-data-evaluate-expression 1")
        with pytest.raises(EvaluationError, match="^not recorded$"):
            out.result(EvaluationError)


def test_an_unparsed_download_line_leaves_the_result_readable(fake_gdb):
    download = '+download,{section=".text",section-size="6668"}'
    target = fake_gdb({"-target-download": [
        download, '^done,address="0x401000"', "(gdb) "]})
    with contextlib.closing(spawn_debugger(target)) as dbg:
        out = dbg.send_command("-target-download")
    assert out.records[0].unparsed and out.records[0].text == download
    assert out.result(EvaluationError).payload == {"address": "0x401000"}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([b"a", b"\n", b"\r", b"\xc3\xa9"])
                ).map(b"".join),
       st.lists(st.integers(0, 40)))
def test_split_lines_gives_the_same_lines_however_the_bytes_are_cut(data,
                                                                   cuts):
    bounds = sorted({0, len(data), *(c for c in cuts if c < len(data))})
    pieces: list[bytes] = []
    lines = []
    for start, end in zip(bounds, bounds[1:]):
        lines += split_lines(data[start:end], pieces)
    *whole, rest = data.split(b"\n")
    assert lines == whole
    assert b"".join(pieces) == rest


def _lines_of_the_old_reader(data: bytes, size: int) -> list[str]:
    """The lines the reader gave before it kept pieces: each read joined
    onto the unfinished line, and the whole split again."""
    partial, out = b"", []
    for start in range(0, len(data), size):
        *lines, partial = (partial + data[start:start + size]).split(b"\n")
        out += [raw.decode("utf-8", "replace").rstrip("\r") for raw in lines]
    return out


def test_a_long_line_written_in_pieces_reads_as_before(fake_gdb):
    # Over 1 MB in 4 kB writes; the UTF-8 character and the CRLF fall
    # across piece boundaries.
    entry = '{name="café_%06d",type="int"},'
    line = "^done,symbols=[" + "".join(entry % i for i in range(40000)) + "]"
    text = f"=thread-created,id=\"1\"\r\n{line}\n(gdb) \n"
    assert len(line) > 1_000_000
    target = fake_gdb({"-symbol-info-variables": [
        {"pieces": text, "size": 4096}]})
    with contextlib.closing(spawn_debugger(target)) as dbg:
        out = dbg.send_command("-symbol-info-variables")
    assert out.lines == _lines_of_the_old_reader(text.encode(), 4096)
    assert out.lines[1] == line


def test_command_timeout_reports_the_records_so_far(fake_gdb):
    target = fake_gdb({"-slow": ['~"one"', '~"two"']})
    with contextlib.closing(spawn_debugger(target)) as dbg:
        with pytest.raises(DebuggerError,
                           match=r"no prompt within 0\.3s \(2 records so far\)"):
            dbg.send_command("-slow", timeout=0.3)


def test_debugger_exit_mid_command_raises(fake_gdb):
    target = fake_gdb({"-die": ['~"bye"', {"exit": 3}]})
    with contextlib.closing(spawn_debugger(target)) as dbg:
        with pytest.raises(DebuggerExited):
            dbg.send_command("-die")
        with pytest.raises(DebuggerExited):
            dbg.send_command("-data-evaluate-expression 1")


def _answer(value: str) -> list[str]:
    return [f'^done,value="{value}"', "(gdb) "]


# "slow" answers after 0.3 s; each other command names its own answer.
_OWED = {"slow": [{"sleep": 0.3}, *_answer("slow")],
         **{name: _answer(name) for name in "abc"}}


def _values(outputs) -> list[str]:
    return [out.result(EvaluationError).payload["value"] for out in outputs]


def _interrupt(signum, frame):
    raise KeyboardInterrupt


@pytest.mark.parametrize("stop", ["timeout", "interrupt"])
def test_an_abandoned_answer_is_read_off_before_the_next_command(fake_gdb,
                                                                stop):
    with contextlib.closing(spawn_debugger(fake_gdb(_OWED))) as dbg:
        dbg.send_command("a")  # the handshake, done before the timing
        if stop == "timeout":
            with pytest.raises(DebuggerError, match="no prompt within 0.1s"):
                dbg.send_command("slow", timeout=0.1)
        else:
            previous = signal.signal(signal.SIGALRM, _interrupt)
            try:
                signal.setitimer(signal.ITIMER_REAL, 0.1)
                with pytest.raises(KeyboardInterrupt):
                    dbg.send_command("slow")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        assert _values(dbg.send_command(name) for name in "abc") == \
            ["a", "b", "c"]


def test_a_batch_cut_short_leaves_the_next_answer_right(fake_gdb):
    with contextlib.closing(spawn_debugger(fake_gdb(_OWED))) as dbg:
        with pytest.raises(DebuggerError, match="no prompt within 0.1s"):
            dbg.send_batch(["a", "slow", "b"], timeout=0.1)
        assert _values([dbg.send_command("c")]) == ["c"]
        assert _values(dbg.send_batch(["b", "a"])) == ["b", "a"]


def test_a_batch_is_read_to_its_end_in_order(fake_gdb):
    target = fake_gdb({**_OWED, "err": ['^error,msg="No symbol"', "(gdb) "],
                       "odd": ['~"no result"', "(gdb) "]})
    with contextlib.closing(spawn_debugger(target)) as dbg:
        a, err, odd, b = dbg.send_batch(["a", "err", "odd", "b"])
        assert _values([a, b]) == ["a", "b"]
        with pytest.raises(EvaluationError, match="^No symbol$"):
            err.result(EvaluationError)
        with pytest.raises(ProtocolError, match="unexpected answer to odd"):
            odd.result(EvaluationError)


def test_an_answer_that_never_comes_ends_the_session(fake_gdb):
    target = fake_gdb({**_OWED, "never": ['~"half"']})
    with contextlib.closing(spawn_debugger(target)) as dbg:
        with pytest.raises(DebuggerError, match="no prompt within 0.1s"):
            dbg.send_command("never", timeout=0.1)
        with pytest.raises(DebuggerExited,
                           match=r"^the debugger still owes 1 answer\(s\) to "
                                 r"earlier commands after 0\.2s$"):
            dbg.send_command("a", timeout=0.2)


def test_target_output_is_drained_while_a_command_waits(fake_gdb):
    # Far more than a pty buffers: the target blocks unless it is drained.
    text = "".join(f"line {i}\n" for i in range(30000))
    target = fake_gdb({"-exec-run": [
        "^running", "(gdb) ", {"tty": text}, _STOP, "(gdb) "]})
    with contextlib.closing(spawn_debugger(target)) as dbg:
        dbg.send_command("-exec-run")
        dbg.wait_for_stop(10)
        assert dbg.target_output() == text


def _corpus_recorder():
    """``tools/record_mi_corpus.py``, loaded as a module."""
    path = Path(__file__).parent.parent / "tools" / "record_mi_corpus.py"
    spec = importlib.util.spec_from_file_location("record_mi_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_recorders_wrapper_copies_what_gdb_wrote(fake_gdb, tmp_path,
                                                     monkeypatch):
    log = tmp_path / "child.log"
    symbols = ",".join(f'{{name="v{i}",line="{i}"}}' for i in range(20000))
    answer = f"^done,symbols=[{symbols}]"
    target = fake_gdb({
        "-symbol-info-variables": [answer, "(gdb) "],
        "-exec-run": ["^running", "(gdb) ", '@"caf\u00e9"', _STOP, "(gdb) "],
    }, log=str(log))
    wrapper_dir = tmp_path / "wrapper"
    wrapper_dir.mkdir()
    transcript = tmp_path / "mi.log"
    monkeypatch.setenv("PATH", os.environ["PATH"])  # restored after the test
    _corpus_recorder().wrap_gdb(wrapper_dir, transcript)
    with contextlib.closing(spawn_debugger(target)) as dbg:
        out = dbg.send_command("-symbol-info-variables")
        dbg.send_command("-exec-run")
        dbg.wait_for_stop(5)
        dbg.send_command("-unknown")
    assert out.lines == [answer, "(gdb) "]
    copied = transcript.read_bytes()
    assert '@"caf\u00e9"\n'.encode() in copied
    assert copied.endswith(b"^exit\n")
    assert copied == log.read_bytes()


def test_a_handle_starts_no_thread(fake_gdb):
    before = threading.active_count()
    target = fake_gdb({"-exec-run": [
        "^running", "(gdb) ", {"read_tty": True}, _STOP, "(gdb) "]})
    with contextlib.closing(spawn_debugger(target)) as dbg:
        dbg.send_command("-exec-run")
        dbg.wait_for_stop(5, stdin="input\n")
        assert "read 6 bytes" in dbg.target_output()
        assert threading.active_count() == before
    assert threading.active_count() == before


# -- the handshake, read before the first reply ----------------------------

def test_boot_output_is_not_a_reply(fake_gdb):
    target = fake_gdb({"-data-evaluate-expression": [
        '^done,value="2"', "(gdb) "]},
        boot=['=thread-group-added,id="i1"', '~"Reading symbols"'])
    with contextlib.closing(spawn_debugger(target)) as dbg:
        out = dbg.send_command("-data-evaluate-expression 1+1")
        assert out.result(EvaluationError).payload == {"value": "2"}


def test_tty_setup_error_fails_the_handshake(fake_gdb):
    target = fake_gdb({"-inferior-tty-set": [
        '^error,msg="Cannot open tty"', "(gdb) "]})
    dbg = spawn_debugger(target)
    with pytest.raises(DebuggerError,
                       match="^tty setup failed: Cannot open tty$"):
        dbg.send_command("-exec-run")
    assert dbg._proc.poll() is not None
    with pytest.raises(DebuggerExited):
        dbg.send_command("-exec-run")


@pytest.mark.parametrize("boot", [[{"exit": 1}],
                                  [{"sleep": 0.05}, {"exit": 1}]])
def test_exit_during_boot_fails_the_handshake(fake_gdb, boot):
    target = fake_gdb({}, boot=boot)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dbg = spawn_debugger(target)
        with pytest.raises(DebuggerExited):
            dbg.send_command("-exec-run")
        del dbg
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_closing_before_the_handshake_reaps_the_child(fake_gdb):
    target = fake_gdb({}, boot=[{"sleep": 0.1}])
    dbg = spawn_debugger(target)
    dbg.close()
    assert dbg._proc.poll() is not None


# -- live debugger sessions ------------------------------------------------

def test_spawn_missing_target_raises():
    with pytest.raises(DebuggerError,
                       match="^target executable not found: /no/such/binary$"):
        spawn_debugger("/no/such/binary")


@pytest.mark.parametrize("script, mode", [
    (None, 0),
    ("#!/no/such/interpreter\n", 0o755),
    ("#!/bin/sh\nexit 0\n", 0o644),
], ids=["no-gdb", "no-interpreter", "not-executable"])
def test_spawn_without_a_runnable_gdb_raises_and_leaks_nothing(
        tmp_path, monkeypatch, script, mode):
    if script is not None:
        gdb = tmp_path / "gdb"
        gdb.write_text(script)
        gdb.chmod(mode)
    monkeypatch.setenv("PATH", str(tmp_path))
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    fds = set(os.listdir("/proc/self/fd"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        with pytest.raises(DebuggerError,
                           match="^debugger not found on PATH: gdb$"):
            spawn_debugger(sys.executable)
        gc.collect()
    assert set(os.listdir("/proc/self/fd")) == fds
    assert [u.exc_value for u in unraisable] == []


def test_live_evaluate(fixture_bins):
    with contextlib.closing(
            spawn_debugger(str(fixture_bins["crash_segv"]))) as dbg:
        out = dbg.send_command("-data-evaluate-expression 1+1")
        assert out.result(EvaluationError).klass == "done"
        assert out.result(EvaluationError).payload["value"] == "2"


def test_live_batch_answers_as_one_command_at_a_time(fixture_bins):
    evaluate = "-data-evaluate-expression --thread 1 --frame"
    commands = [f"{evaluate} 0 len", f"{evaluate} 0 counts",
                f"{evaluate} 0 *cursor", f"{evaluate} 0 no_such_symbol",
                f"{evaluate} 1 snap", f"{evaluate} 1 count",
                f"{evaluate} 2 marbles", f'{evaluate} 2 "drawn_count + 1"']
    with contextlib.closing(
            spawn_debugger(str(fixture_bins["crash_segv"]))) as dbg:
        dbg.send_command("-exec-run")
        dbg.wait_for_stop(timeout=20)
        one_at_a_time = [dbg.send_command(c).lines for c in commands]
        batched = [out.lines for out in dbg.send_batch(commands)]
        again = [dbg.send_command(c).lines for c in commands]
    assert batched == one_at_a_time == again
    assert '^done,value="150"' in one_at_a_time[0]


def test_live_run_captures_target_output(fixture_bins):
    with contextlib.closing(
            spawn_debugger(str(fixture_bins["crash_segv"]))) as dbg:
        out = dbg.send_command("-exec-run")
        assert out.result(EvaluationError).klass == "running"
        stop = dbg.wait_for_stop(timeout=20)
        assert stop.payload["signal-name"] == "SIGSEGV"
        assert stop.payload["frame"]["func"] == "tally_reds"
        # Inferior stdout goes to the pty, never the MI stream.
        assert "drew 150 marbles" in dbg.target_output()


def test_live_commands_after_close_raise(fixture_bins):
    dbg = spawn_debugger(str(fixture_bins["crash_segv"]))
    dbg.close()
    with pytest.raises(DebuggerExited):
        dbg.send_command("-data-evaluate-expression 1")
