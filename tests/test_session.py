"""Session layer against live debugger children and a scripted handle."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dbgchat import session as session_module
from dbgchat.cli import stop_report
from dbgchat.enrich import build_enriched_stack
from dbgchat.errors import EvaluationError, NotStopped
from dbgchat.session import (
    DebugSession,
    _frame_from_payload,
    _quote_mi_arg,
)


@pytest.fixture(scope="module")
def segv(fixture_bins):
    with DebugSession(str(fixture_bins["crash_segv"])) as s:
        s.run_to_stop()
        yield s


def test_segv_stop_info(segv):
    stop = segv.stop
    assert stop.kind == "signal"
    assert stop.signal_name == "SIGSEGV"
    assert stop.frame.func == "tally_reds"
    assert stop.frame.file == "crash_segv.c"
    assert stop.assertion_text == ""


def test_backtrace_user_frames(segv):
    frames = segv.backtrace()
    assert [f.func for f in frames] == ["tally_reds", "summarize", "main"]
    assert frames[0].level == 0
    assert all(f.fullname.endswith("crash_segv.c") for f in frames)


def test_stack_depth(segv):
    assert segv.stack_depth() == 3


def test_frame_variables_fill_aggregates(segv):
    by_name = {b.name: b for b in segv.frame_variables(0)}
    assert by_name["len"].value == "150"
    assert by_name["counts"].value == "{1, 2, 3, 4, 5, 6, 7, 8}"
    assert by_name["cursor"].value == "0x0"


def test_frame_variables_struct(segv):
    by_name = {b.name: b for b in segv.frame_variables(1)}
    assert by_name["snap"].value == (
        "{part = {nested = {depth3_a = 41, depth3_b = 42}, "
        "depth2_x = 7}, depth1_id = 99}")


def test_evaluate_in_frames(segv):
    assert segv.evaluate("1+1") == "2"
    assert segv.evaluate("count", frame=1) == "150"
    with pytest.raises(EvaluationError):
        segv.evaluate("no_such_symbol_here")


def test_char_array_repeats_form(segv):
    value = segv.evaluate("marbles")
    assert value == "'R' <repeats 100 times>, 'B' <repeats 50 times>"


def test_global_variables_capped_and_scoped(segv):
    frames = segv.backtrace()
    outer = frames[-1]
    bindings = segv.global_variables(outer.fullname, frame=outer.level)
    names = [b.name for b in bindings]
    assert "marbles" in names and "drawn_count" in names and "total_runs" in names
    values = {b.name: b.value for b in bindings}
    assert values["drawn_count"] == "150"
    assert len(bindings) <= 10


def test_console_passthrough(segv):
    text = segv.execute_console("p drawn_count")
    assert "150" in text
    with pytest.raises(EvaluationError):
        segv.execute_console("p not_a_symbol_at_all")


def test_selected_frame_moves_with_console(segv):
    assert segv.execute_console("frame").startswith("#0 ")
    segv.execute_console("up")
    try:
        text = segv.execute_console("frame")
        assert text.startswith("#1 ")
        assert "summarize" in text
    finally:
        segv.execute_console("down")
    assert segv.execute_console("frame").startswith("#0 ")


def test_assertion_detection(fixture_bins):
    with DebugSession(str(fixture_bins["crash_assert"])) as s:
        stop = s.run_to_stop()
        assert stop.kind == "assertion"
        assert stop.signal_name == "SIGABRT"
        assert stop.assertion_text == "len == n"
        # Innermost frames are libc's kill path, user code further down.
        funcs = [f.func for f in s.backtrace()]
        assert "check_len" in funcs and "main" in funcs
        assert funcs[0] != "check_len"


def test_fpe_stop(fixture_bins):
    with DebugSession(str(fixture_bins["crash_fpe"])) as s:
        stop = s.run_to_stop()
        assert stop.signal_name == "SIGFPE"
        assert stop.frame.func == "scale_by"


def test_exit_code_decoded_from_octal(fixture_bins):
    with DebugSession(str(fixture_bins["recurse"]), ["0"]) as s:
        # depth 0: countdown(0) dereferences NULL immediately; use a clean
        # exit instead via a harmless argument? recurse always crashes, so
        # check octal decoding with the stop payload path directly.
        stop = s.run_to_stop()
        assert stop.kind == "signal"


def test_exit_decoding_unit():
    from dbgchat.mi import parse_mi_line
    rec = parse_mi_line('*stopped,reason="exited",exit-code="03"')
    session_stop = _decode_via_session(rec)
    assert session_stop.kind == "exited"
    assert session_stop.exit_code == 3
    rec = parse_mi_line('*stopped,reason="exited",exit-code="0177"')
    assert _decode_via_session(rec).exit_code == 127
    rec = parse_mi_line('*stopped,reason="exited-normally"')
    assert _decode_via_session(rec).exit_code == 0


def _decode_via_session(rec):
    class Shim:
        _decode_stop = DebugSession._decode_stop

        def _detect_assertion(self):
            return ""

    return Shim()._decode_stop(rec)


def test_clean_exit(fixture_bins):
    with DebugSession("/bin/true") as s:
        stop = s.run_to_stop()
        assert stop.kind == "exited"
        assert stop.exit_code == 0
        assert not s.stopped


def test_binding_pointer_flag(segv):
    by_name = {b.name: b for b in segv.frame_variables(0)}
    assert by_name["cursor"].is_pointer
    assert not by_name["counts"].is_pointer
    assert not by_name["seen"].is_pointer


def test_evaluate_never_resumes(segv):
    before = (segv.stop.kind, segv.stop.signal_name,
              segv.stop.frame.func, segv.stop.frame.line)
    segv.evaluate("drawn_count + 1")
    segv.execute_console("info locals")
    after = (segv.stop.kind, segv.stop.signal_name,
             segv.stop.frame.func, segv.stop.frame.line)
    assert before == after
    assert segv.backtrace() == segv.backtrace()


def test_queries_require_stopped(fixture_bins):
    with DebugSession(str(fixture_bins["crash_segv"])) as s:
        with pytest.raises(NotStopped):
            s.backtrace()
        with pytest.raises(NotStopped):
            s.frame_variables(0)


def test_recursion_backtrace(fixture_bins):
    with DebugSession(str(fixture_bins["recurse"]), ["30"]) as s:
        s.run_to_stop()
        frames = s.backtrace()
        countdowns = [f for f in frames if f.func == "countdown"]
        assert len(countdowns) == 31
        assert frames[-1].func == "main"


def test_frame_payload_decoding_unit():
    frame = _frame_from_payload({
        "level": "2", "func": "main", "file": "a.c",
        "fullname": "/x/a.c", "line": "14",
    })
    assert (frame.level, frame.func, frame.line) == (2, "main", 14)
    assert frame.location() == "a.c:14"
    libframe = _frame_from_payload({"level": "5", "func": "??",
                                    "from": "/lib/libc.so.6"})
    assert not libframe.has_source
    assert libframe.location() == "in /lib/libc.so.6"


def test_quote_mi_arg_rejects_newline():
    with pytest.raises(EvaluationError, match="control character"):
        _quote_mi_arg("bt\nshell id #")


def test_quote_mi_arg_escapes_quotes_and_backslashes():
    assert _quote_mi_arg('p "a\\b"') == '"p \\"a\\\\b\\""'


@given(st.text())
def test_quote_mi_arg_never_emits_control_characters(text):
    try:
        quoted = _quote_mi_arg(text)
    except EvaluationError:
        return
    assert not any(c < " " or c == "\x7f" for c in quoted)


# -- one stack snapshot per stop, through a scripted MI child ---------------

_RUN = ["^running", "(gdb) "]
_STOPPED = ('*stopped,reason="signal-received",signal-name="SIGSEGV",'
            'frame={level="0",func="inner",file="app.c",line="5"}')


def _scripted_commands(root) -> dict:
    """fake_gdb answers for a target stopped three frames deep."""
    frames = ",".join(
        f'frame={{level="{i}",func="{func}",file="app.c",'
        f'fullname="{root}/app.c",line="{5 + i}"}}'
        for i, func in enumerate(["inner", "middle", "main"]))
    return {
        "-exec-run": [*_RUN, _STOPPED, "(gdb) "],
        "-stack-info-depth": ['^done,depth="3"', "(gdb) "],
        "-stack-list-frames": [f"^done,stack=[{frames}]", "(gdb) "],
        "-stack-list-variables": [
            '^done,variables=[{name="x",type="int",value="1"}]', "(gdb) "],
        "-symbol-info-variables": ["^done,symbols={debug=[]}", "(gdb) "],
        '-interpreter-exec console "next"': [*_RUN, _STOPPED, "(gdb) "],
        "": ['~"ok\\n"', "^done", "(gdb) "],
    }


@pytest.fixture()
def scripted(fake_gdb, tmp_path):
    """A stopped DebugSession over fake_gdb, and ``count(prefix)``: how
    many lines the child wrote that start with ``prefix``."""
    log = tmp_path / "stdout.log"
    target = fake_gdb(_scripted_commands(tmp_path), log=str(log))
    session = DebugSession(target)
    session.run_to_stop()

    def count(prefix):
        return sum(line.startswith(prefix)
                   for line in log.read_text().splitlines())
    yield session, count
    session.close()


def test_stop_report_and_enrichment_share_one_stack_snapshot(scripted,
                                                             tmp_path):
    session, count = scripted
    assert "in inner()" in stop_report(session, str(tmp_path))
    stack = build_enriched_stack(session, str(tmp_path))
    assert (stack.total_frames, stack.shown_count) == (3, 3)
    session.execute_console("p x")
    assert len(session.backtrace()) == 3
    assert count("^done,depth=") == 1
    assert count("^done,stack=") == 1


@pytest.mark.parametrize("command", ["next", "return"])
def test_console_command_that_may_change_the_stack_drops_the_snapshot(
        scripted, command):
    session, count = scripted
    session.backtrace()
    session.execute_console(command)
    assert len(session.backtrace()) == 3
    assert count("^done,depth=") == 2
    assert count("^done,stack=") == 2


# The stopped file, /ws/app.c, in two entries (the second writes its
# fullname with an octal escape), with twelve symbols out of line order;
# other files' texts hold escapes, braces and a decoy fullname.
_SYMBOL_TABLE = (
    r'^done,symbols={debug=['
    r'{filename="app.c",fullname="/ws/app.c",symbols=['
    r'{line="40",name="g_limit",type="int",description="int g_limit;"},'
    r'{line="12",name="g_count",type="int",description="int g_count;"},'
    r'{line="33",name="g_name",type="const char *",'
    r'description="static const char *g_name;"},'
    r'{line="7",name="g_flag",type="int",description="int g_flag;"},'
    r'{line="58",name="g_last",type="int",description="int g_last;"},'
    r'{line="21",name="g_buf",type="char [8]",description="char g_buf[8];"},'
    r'{line="3",name="g_first",type="int",description="int g_first;"}]},'
    r'{filename="lib/caf\303\251.c",fullname="/ws/lib/caf\303\251.c",symbols=['
    r'{line="1",name="quoted",type="char [4] /* \"q\\\" */",'
    r'description="x ,fullname=\"/ws/app.c\",symbols=[{name=\"trap\"}]"}]},'
    r'{filename="../{filename=z}.c",fullname="/ws/{filename=z}.c",symbols=['
    r'{line="5",name="anon",type="struct {...}",'
    r'description="static struct {\n    int a;\n} anon;"}]},'
    r'{filename="app.c",fullname="/ws/app\056c",symbols=['
    r'{line="15",name="g_mode",type="int",description="int g_mode;"},'
    r'{line="2",name="g_zero",type="int",description="int g_zero;"},'
    r'{line="44",name="g_tail",type="int",description="int g_tail;"},'
    r'{line="9",name="g_b",type="int",description="int g_b;"},'
    r'{line="9",name="g_a",type="int",description="int g_a;"}]}]}'
)
# The first DEFAULT_GLOBALS_CAP of them by line, then name.
_GLOBALS = [("g_zero", "int"), ("g_first", "int"), ("g_flag", "int"),
            ("g_a", "int"), ("g_b", "int"), ("g_count", "int"),
            ("g_mode", "int"), ("g_buf", "char [8]"),
            ("g_name", "const char *"), ("g_limit", "int")]


def test_global_variables_reads_one_file_capped_and_in_line_order(fake_gdb):
    evaluate = "-data-evaluate-expression --thread 1 --frame 2 "
    values = {name: [f'^done,value="{i}"', "(gdb) "]
              for i, (name, _) in enumerate(_GLOBALS)}
    values["g_name"] = [r'^done,value="0x4006f4 \"run\""', "(gdb) "]
    values["g_buf"] = ['^error,msg="Cannot access memory"', "(gdb) "]
    target = fake_gdb({
        "-exec-run": [*_RUN, _STOPPED, "(gdb) "],
        "-symbol-info-variables": [_SYMBOL_TABLE, "(gdb) "],
        **{f'{evaluate}"{name}"': steps for name, steps in values.items()}})
    with DebugSession(target) as s:
        s.run_to_stop()
        sent = []
        send = s.handle.send_command
        s.handle.send_command = lambda command, **kw: (
            sent.append(command), send(command, **kw))[1]
        bindings = s.global_variables("/ws/app.c", frame=2)
    assert len(_GLOBALS) == session_module.DEFAULT_GLOBALS_CAP
    assert [(b.name, b.type) for b in bindings] == _GLOBALS
    assert [b.value for b in bindings] == [
        "0", "1", "2", "3", "4", "5", "6", "<unreadable>",
        '0x4006f4 "run"', "9"]
    assert sent == ["-symbol-info-variables",
                    *(f'{evaluate}"{name}"' for name, _ in _GLOBALS)]


def test_run_to_stop_waits_out_a_slow_boot(fake_gdb):
    target = fake_gdb({"-exec-run": [*_RUN, _STOPPED, "(gdb) "]},
                           boot=[{"sleep": 0.3}])
    started = time.monotonic()
    with DebugSession(target) as s:
        assert time.monotonic() - started < 0.15
        assert s.run_to_stop().signal_name == "SIGSEGV"
        assert time.monotonic() - started >= 0.3


@pytest.mark.parametrize("report, kind, expression", [
    ("x: x.c:5: main: Assertion `len == n' failed.\n", "assertion",
     "len == n"),
    ("Assertion failed: len == n (x.c: main: 5)\n", "assertion", "len == n"),
    (None, "signal", ""),
], ids=["glibc", "musl", "no-report"])
def test_sigabrt_reads_the_assertion_report(fake_gdb, report, kind,
                                            expression):
    abort = ('*stopped,reason="signal-received",signal-name="SIGABRT",'
             'frame={level="0",func="raise"}')
    tty = [{"tty": report}] if report else []
    target = fake_gdb({"-exec-run": [*_RUN, *tty, abort, "(gdb) "]})
    with DebugSession(target) as s:
        stop = s.run_to_stop()
    assert (stop.kind, stop.assertion_text) == (kind, expression)


# -- the target's standard input, through a scripted MI child ---------------


def test_stdin_reaches_the_target_then_eof(fake_gdb):
    target = fake_gdb({"-exec-run": [*_RUN, {"read_tty": True},
                                          _STOPPED, "(gdb) "]})
    with DebugSession(target) as s:
        assert s.run_to_stop("first\nsecond").kind == "signal"
        assert "read 13 bytes" in s.handle.target_output()


_RUN_WITH_UNREAD_STDIN = """
import sys
from dbgchat.session import DebugSession
with DebugSession(sys.argv[1]) as s:
    print(s.run_to_stop("".join(f"record {i}\\n" for i in range(6000))).kind)
"""


def test_stdin_the_target_never_reads_does_not_block_the_stop(fake_gdb):
    # 71 kB, far more than a pty takes unread; the target stops at once.
    target = fake_gdb({"-exec-run": [*_RUN, _STOPPED, "(gdb) "]})
    src = str(Path(session_module.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    try:
        done = subprocess.run(
            [sys.executable, "-c", _RUN_WITH_UNREAD_STDIN, target],
            env=env, capture_output=True, text=True, timeout=30)
    except subprocess.TimeoutExpired:
        pytest.fail("run_to_stop blocked on stdin the target never read")
    assert (done.returncode, done.stdout) == (0, "signal\n"), done.stderr
