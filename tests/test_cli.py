"""CLI behavior: flags, rendering, exit codes, end-to-end replays."""

import copy
import functools
import gc
import io
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import dbgchat
from dbgchat import PROMPT
from dbgchat import session as session_module
from dbgchat.cli import (
    MAX_STDIN_LINE,
    TerminalUi,
    build_parser,
    main,
    run_repl,
    stop_report,
)
from dbgchat.mi import parse_mi_line
from dbgchat.session import DebugSession, Frame

from conftest import stack_description
from mi_serialize import serialize

DATA = Path(__file__).parent / "data"
REPLAY_SCRIPT = DATA / "replay_segv.json"
REPLAY_INPUT = "p total_runs\nWhy did the program stop here?\nquit\n"


# -- flags and config -------------------------------------------------------

def test_parser_defaults():
    ns = build_parser().parse_args(["./prog"])
    assert ns.target == "./prog"
    assert ns.target_args == []
    assert ns.model == "gpt-4o"
    assert ns.key_env == "OPENAI_API_KEY"
    assert ns.script is None
    assert ns.unsafe is False


def test_parser_target_args_after_separator():
    ns = build_parser().parse_args(["./prog", "--", "a", "--verbose"])
    assert ns.target == "./prog"
    assert ns.target_args == ["a", "--verbose"]


def test_config_defaults_root_to_cwd():
    ns = build_parser().parse_args(["./prog"])
    assert os.path.abspath(ns.root) == os.getcwd()


def test_config_rejects_unsafe_with_whitelist(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--unsafe", "--whitelist", "fns.txt", "./prog"])
    assert excinfo.value.code == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_config_rejects_nonpositive_budget(capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["--budget", "0", "./prog"])
    assert excinfo.value.code == 2
    assert "--budget: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    [],
    ["--unsafe", "--whitelist", "f.txt", "./prog"],
    ["--budget", "-5", "./prog"],
    ["--radius", "0", "./prog"],
    ["--budget", "0", "./prog"],
])
def test_usage_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2


@pytest.mark.parametrize("length, message", [
    (MAX_STDIN_LINE + 1, "longer than 4095 bytes"),
    (MAX_STDIN_LINE, "target executable not found"),
])
def test_stdin_file_line_limit_checked_before_the_debugger(
        tmp_path, capsys, length, message):
    stdin = tmp_path / "stdin.txt"
    stdin.write_text("short\n" + "x" * length + "\nshort\n")
    assert main(["--script", str(REPLAY_SCRIPT), "--stdin-file", str(stdin),
                 "/no/such/binary"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("dbgchat: ")
    assert message in err


@pytest.mark.parametrize("char", ["\x7f", "\x15", "\x17", "\x04", "\x03",
                                  "\x1c", "\x1a", "\x00", "\x1b"])
def test_stdin_file_control_characters_refused_before_the_debugger(
        tmp_path, capsys, char):
    stdin = tmp_path / "stdin.txt"
    stdin.write_bytes(b"tab\tis fine\n" + f"ab{char}cd\n".encode())
    assert main(["--script", str(REPLAY_SCRIPT), "--stdin-file", str(stdin),
                 "/no/such/binary"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"dbgchat: {stdin}: line 2 holds the control "
                          f"character {char!r}")


def test_debugger_exit_during_boot_is_a_one_line_error(fake_gdb, capsys):
    target = fake_gdb({}, boot=[{"sleep": 0.05}, {"exit": 1}])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--script", str(REPLAY_SCRIPT), target]) == 1
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    captured = capsys.readouterr()
    assert captured.err.startswith("dbgchat: ")
    assert "Traceback" not in captured.err
    assert PROMPT not in captured.out


def test_no_gdb_on_path_is_a_one_line_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PATH", str(tmp_path))
    assert main(["--script", str(REPLAY_SCRIPT), sys.executable]) == 1
    assert capsys.readouterr().err == \
        "dbgchat: debugger not found on PATH: gdb\n"


def test_failed_spawn_closes_the_log(tmp_path, monkeypatch, capsys):
    # The log is opened before the debugger starts, and closed when the
    # start fails; an unclosed file would show as a ResourceWarning.
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        assert main(["--script", str(REPLAY_SCRIPT),
                     "--log", str(tmp_path / "x.jsonl"),
                     "/no/such/binary"]) == 1
        gc.collect()
    assert [u.exc_value for u in unraisable] == []
    assert capsys.readouterr().err.startswith(
        "dbgchat: target executable not found")


HTTP_STACK = ("http.client", "urllib.request", "ssl", "email")


def loaded_after(code, *args, input_text="",
                 modules=HTTP_STACK + ("logging",), flags=()):
    """Which of modules a subprocess running code, with the interpreter
    flags given, has loaded by its end; code reads its arguments from
    sys.argv[1:]."""
    src = str(Path(dbgchat.__file__).parent.parent)
    probe = (f"{code}\nimport sys\nprint([m for m in "
             f"{tuple(modules)!r} if m in sys.modules], file=sys.stderr)")
    result = subprocess.run([sys.executable, *flags, "-c", probe, *args],
                            input=input_text, text=True, capture_output=True,
                            timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    return result.stderr.strip().splitlines()[-1]


def test_import_does_not_load_logging():
    # Nothing logs, so importing the entry point must not pay for logging.
    assert "logging" not in loaded_after("import dbgchat.cli")


#: Modules that only class-building machinery needs, then ``shutil`` and
#: the modules it imports, which only a PATH probe needed.  Under -S,
#: since a site-packages .pth file may import typing or shutil at every
#: interpreter start.
NOT_NEEDED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing",
              "shutil", "bz2", "lzma", "fnmatch")


def test_import_does_not_load_the_class_machinery():
    assert loaded_after("import dbgchat.cli", modules=NOT_NEEDED,
                        flags=["-S"]) == "[]"


def test_a_session_does_not_load_the_class_machinery(fake_gdb, tmp_path):
    (tmp_path / "app.c").write_text(
        "".join(f"int line_{i};\n" for i in range(1, 13)))
    script = tmp_path / "turns.json"
    script.write_text(json.dumps({"version": 1, "turns": _TURNS}))
    answers = json.dumps({**_ANSWERS, **_PRINT_X})
    target = fake_gdb(json.loads(answers.replace("ROOT", str(tmp_path))))
    code = ("import sys\nfrom dbgchat.cli import main\n"
            "assert main(sys.argv[1:]) == 0")
    assert loaded_after(code, "--script", str(script), "--root",
                        str(tmp_path), target,
                        input_text=_CHAT_THEN_PRINT_X,
                        modules=NOT_NEEDED, flags=["-S"]) == "[]"


def test_import_does_not_load_the_http_stack():
    assert loaded_after("import dbgchat.cli") == "[]"


@pytest.mark.parametrize("flags, loaded", [
    (["--script", str(REPLAY_SCRIPT)], []),
    (["--key-env", "DBGCHAT_TEST_KEY",
      "--base-url", "http://127.0.0.1:9/v1"], []),
    # The TLS context is built while the debugger boots, so no chat turn
    # pays for it.
    (["--key-env", "DBGCHAT_TEST_KEY",
      "--base-url", "https://127.0.0.1:9/v1"], ["ssl"]),
])
def test_only_http_sessions_load_the_http_stack(fake_gdb, flags, loaded):
    target = fake_gdb({"-exec-run": [
        "^running", "(gdb) ", '*stopped,reason="signal-received",'
        'signal-name="SIGSEGV"', "(gdb) "]})
    code = ("import os, sys\n"
            "os.environ['DBGCHAT_TEST_KEY'] = 'sk-test'\n"
            "from dbgchat.cli import main\n"
            "assert main(sys.argv[1:]) == 0")
    assert loaded_after(code, *flags, target,
                        input_text="quit\n") == str(loaded)


# -- terminal rendering -----------------------------------------------------

def make_ui():
    out = io.StringIO()
    return TerminalUi(out), out


def test_prose_streams_verbatim_and_turn_end_closes_line():
    ui, out = make_ui()
    ui.on_prose("Hello ")
    ui.on_prose("there.")
    ui.on_turn_end()
    assert out.getvalue() == "Hello there.\n"


def test_empty_prose_renders_nothing():
    ui, out = make_ui()
    ui.on_prose("")
    ui.on_turn_end()
    assert out.getvalue() == ""


def test_multiparagraph_prose_preserves_blank_lines():
    ui, out = make_ui()
    ui.on_prose("First.\n\nSecond.\n")
    ui.on_turn_end()
    assert out.getvalue() == "First.\n\nSecond.\n"


def test_echo_renders_command_then_indented_output():
    ui, out = make_ui()
    ui.on_echo("p drawn_count", "$2 = 150")
    assert out.getvalue() == "→ p drawn_count\n   $2 = 150\n"


def test_echo_mid_prose_breaks_the_line_first():
    ui, out = make_ui()
    ui.on_prose("Thinking")
    ui.on_echo("bt", "#0 main ()")
    assert out.getvalue() == "Thinking\n→ bt\n   #0 main ()\n"


def test_notice_and_debugger_output():
    ui, out = make_ui()
    ui.on_debugger("p x", "$1 = 3")
    ui.on_notice("turn aborted")
    assert out.getvalue() == "$1 = 3\n[turn aborted]\n"


# -- stop report ------------------------------------------------------------

def test_stop_report_names_innermost_user_frame(standin, tmp_path):
    user_file = str(tmp_path / "app.c")
    frames = [
        Frame(level=0, func="memcpy", file="memcpy.c", line=12,
              fullname="string/memcpy.c"),
        Frame(level=1, func="copy_all", file="app.c", line=40,
              fullname=user_file),
    ]
    session, _ = standin(stack_description(frames))
    report = stop_report(session, str(tmp_path))
    assert report == ("The program stopped on SIGSEGV "
                      "(Segmentation fault).\n"
                      "  at app.c:40 in copy_all()")


def test_stop_report_exited_has_no_frame_line(fake_gdb):
    # gdb gives the exit code in octal.
    target = fake_gdb({"-exec-run": [
        "^running", "(gdb) ", '*stopped,reason="exited",exit-code="01"',
        "(gdb) "]})
    with DebugSession(target) as session:
        session.run_to_stop()
        assert stop_report(session, "/nowhere") == \
            "The program exited with code 1."


def test_stop_report_without_stop(standin):
    target = standin.target(stack_description([Frame(level=0, func="main")]))
    with DebugSession(target) as session:
        assert stop_report(session, "/nowhere") == \
            "The program did not stop."


# -- repl loop --------------------------------------------------------------

class LineStream:
    def __init__(self, lines, interrupts=0):
        self._lines = list(lines)
        self._interrupts = interrupts

    def isatty(self):
        return False

    def readline(self):
        if self._interrupts:
            self._interrupts -= 1
            raise KeyboardInterrupt
        if not self._lines:
            return ""
        return self._lines.pop(0) + "\n"


class FakeAgent:
    def __init__(self, raise_on=None):
        self.lines = []
        self.raise_on = raise_on

    def handle_input(self, line):
        if line == self.raise_on:
            raise KeyboardInterrupt
        self.lines.append(line)


def test_repl_echoes_piped_input_and_stops_at_quit():
    agent = FakeAgent()
    out = io.StringIO()
    run_repl(agent, LineStream(["p x", "quit", "never seen"]), out)
    assert agent.lines == ["p x"]
    assert out.getvalue() == f"{PROMPT}p x\n{PROMPT}quit\n"


def test_repl_ends_cleanly_on_eof():
    agent = FakeAgent()
    out = io.StringIO()
    run_repl(agent, LineStream(["bt"]), out)
    assert agent.lines == ["bt"]
    assert out.getvalue().endswith("\n")


def test_repl_interrupt_aborts_turn_not_session():
    agent = FakeAgent(raise_on="slow question")
    out = io.StringIO()
    run_repl(agent, LineStream(["slow question", "p x", "quit"]), out)
    assert agent.lines == ["p x"]
    assert "[turn interrupted]" in out.getvalue()


def test_repl_interrupt_at_prompt_continues():
    agent = FakeAgent()
    out = io.StringIO()
    run_repl(agent, LineStream(["p x", "quit"], interrupts=1), out)
    assert agent.lines == ["p x"]


# -- end-to-end replays -----------------------------------------------------

def run_cli(args, input_text="", env=None, timeout=120):
    cmd = [sys.executable, "-m", "dbgchat.cli", *args]
    return subprocess.run(cmd, input=input_text, text=True,
                          capture_output=True, timeout=timeout, env=env)


@pytest.fixture()
def segv_binary(fixture_bins):
    return fixture_bins["crash_segv"]


def replay_args(segv_binary, fixtures_dir, log_path, extra=()):
    return ["--script", str(REPLAY_SCRIPT), "--root", str(fixtures_dir),
            "--log", str(log_path), *extra, str(segv_binary)]


def test_cli_replay_session(segv_binary, fixtures_dir, tmp_path):
    result = run_cli(replay_args(segv_binary, fixtures_dir,
                                 tmp_path / "log.jsonl"), REPLAY_INPUT)
    assert result.returncode == 0, result.stderr
    out = result.stdout
    assert out.startswith("The program stopped on SIGSEGV")
    assert "  at crash_segv.c:28 in tally_reds()" in out
    assert f"{PROMPT}p total_runs\n$1 = 3\n" in out
    assert "→ p drawn_count\n   $2 = 150\n" in out
    assert "\nRecommendation\n" in out
    assert out.endswith(f"{PROMPT}quit\n")

    events = [json.loads(line)
              for line in (tmp_path / "log.jsonl").read_text().splitlines()]
    assert [e["event"] for e in events] == [
        "config", "debugger", "send", "tool_call", "tool_call", "tool_call",
        "tool_call", "prose"]


def test_cli_replay_is_deterministic(segv_binary, fixtures_dir, tmp_path):
    first = run_cli(replay_args(segv_binary, fixtures_dir,
                                tmp_path / "one.jsonl"), REPLAY_INPUT)
    second = run_cli(replay_args(segv_binary, fixtures_dir,
                                 tmp_path / "two.jsonl"), REPLAY_INPUT)
    assert first.returncode == 0 and second.returncode == 0
    assert (tmp_path / "one.jsonl").read_bytes() == \
        (tmp_path / "two.jsonl").read_bytes()
    assert first.stdout == second.stdout


def test_cli_missing_key_exits_before_repl(segv_binary):
    env = dict(os.environ)
    env.pop("OPENAI_API_KEY", None)
    result = run_cli([str(segv_binary)], env=env)
    assert result.returncode == 1
    assert "no API key" in result.stderr
    assert PROMPT not in result.stdout


@pytest.mark.parametrize("key", ["sk-\u20ac", "sk-a\r\nX-Injected: 1",
                                 "sk-\x7f", "sk-\x85"])
def test_a_key_no_header_can_carry_is_refused_before_the_spawn(
        tmp_path, monkeypatch, capsys, key):
    # No gdb on PATH: a spawn would fail with a message of its own.
    monkeypatch.setenv("PATH", str(tmp_path))
    monkeypatch.setenv("DBGCHAT_TEST_KEY", key)
    assert main(["--key-env", "DBGCHAT_TEST_KEY", sys.executable]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "dbgchat: the API key in DBGCHAT_TEST_KEY holds a control character "
        "or a character outside Latin-1, which an HTTP header cannot "
        "carry\n")
    assert captured.out == ""


@pytest.mark.parametrize("url", ["http://\u4f8b\u3048.jp/v1",
                                 "http://127.0.0.1:9/v1\r\nX-Injected: 1"])
def test_a_base_url_no_request_can_carry_is_refused_before_the_spawn(
        tmp_path, monkeypatch, capsys, url):
    # No gdb on PATH: a spawn would fail with a message of its own.
    monkeypatch.setenv("PATH", str(tmp_path))
    monkeypatch.setenv("DBGCHAT_TEST_KEY", "sk-test")
    assert main(["--key-env", "DBGCHAT_TEST_KEY", "--base-url", url,
                 sys.executable]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"dbgchat: --base-url {url!r} holds a control character or a "
        "character outside Latin-1, which an HTTP request cannot carry\n")
    assert captured.out == ""


@pytest.mark.parametrize("url", ["http://127.0.0.1:9/v1#frag",
                                 "http://127.0.0.1:9/v 1",
                                 "http://127.0.0.1:9/v1?a b",
                                 "http://127.0.0.1:9/v1\xa0"])
def test_a_base_url_with_whitespace_or_a_fragment_is_refused_before_the_spawn(
        tmp_path, monkeypatch, capsys, url):
    # No gdb on PATH: a spawn would fail with a message of its own.
    monkeypatch.setenv("PATH", str(tmp_path))
    monkeypatch.setenv("DBGCHAT_TEST_KEY", "sk-test")
    assert main(["--key-env", "DBGCHAT_TEST_KEY", "--base-url", url,
                 sys.executable]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"dbgchat: --base-url {url!r} holds whitespace or a fragment "
        "('#'), which a request line cannot carry\n")
    assert captured.out == ""


@pytest.mark.parametrize("url", ["http://127.0.0.1:99999/v1",
                                 "http://127.0.0.1:x/v1",
                                 "ftp://127.0.0.1/v1",
                                 "http://[1]/v1"])
def test_a_base_url_without_an_http_host_and_port_is_refused_before_the_spawn(
        tmp_path, monkeypatch, capsys, url):
    # No gdb on PATH: a spawn would fail with a message of its own.
    monkeypatch.setenv("PATH", str(tmp_path))
    monkeypatch.setenv("DBGCHAT_TEST_KEY", "sk-test")
    assert main(["--key-env", "DBGCHAT_TEST_KEY", "--base-url", url,
                 sys.executable]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"dbgchat: --base-url {url!r} is not an http: or https: URL naming "
        "a host and, if any, a port up to 65535\n")
    assert captured.out == ""


def test_a_base_url_with_an_ipv6_host_gets_past_the_check(tmp_path,
                                                          monkeypatch, capsys):
    # No gdb on PATH: the spawn's own message shows the check let it by.
    monkeypatch.setenv("PATH", str(tmp_path))
    monkeypatch.setenv("DBGCHAT_TEST_KEY", "sk-test")
    assert main(["--key-env", "DBGCHAT_TEST_KEY", "--base-url",
                 "http://[::1]:9/v1", sys.executable]) == 1
    captured = capsys.readouterr()
    assert captured.err == "dbgchat: debugger not found on PATH: gdb\n"
    assert captured.out == ""


def _proxy_environment(monkeypatch, empty_dir, settings: dict[str, str]):
    """No gdb on PATH, a test key, and the proxy variables settings sets."""
    monkeypatch.setenv("PATH", str(empty_dir))
    monkeypatch.setenv("DBGCHAT_TEST_KEY", "sk-test")
    for name in ("https_proxy", "http_proxy", "HTTPS_PROXY", "HTTP_PROXY"):
        monkeypatch.delenv(name, raising=False)
    for name, value in settings.items():
        monkeypatch.setenv(name, value)


@pytest.mark.parametrize("name, proxy", [
    ("http_proxy", "http://proxy:99999"),
    ("HTTPS_PROXY", "user:secret@proxy:x"),
    ("https_proxy", "socks5h://proxy:1080"),
    ("HTTP_PROXY", "http://[1]:80"),
])
def test_a_proxy_no_request_can_use_is_refused_before_the_spawn(
        tmp_path, monkeypatch, capsys, name, proxy):
    _proxy_environment(monkeypatch, tmp_path, {name: proxy})
    assert main(["--key-env", "DBGCHAT_TEST_KEY", "--base-url",
                 "http://127.0.0.1:9/v1", sys.executable]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"dbgchat: the proxy in {name} is not an http: or https: URL naming "
        "a host and, if any, a port up to 65535\n")
    assert captured.out == ""


@pytest.mark.parametrize("settings", [
    {"http_proxy": "proxy:3128", "HTTPS_PROXY": "http://u:p@[::1]:8080/"},
    # The lower-case variable is read first, even when it is empty.
    {"https_proxy": "", "HTTPS_PROXY": "http://proxy:99999"},
])
def test_a_proxy_a_request_can_use_gets_past_the_check(tmp_path, monkeypatch,
                                                       capsys, settings):
    _proxy_environment(monkeypatch, tmp_path, settings)
    assert main(["--key-env", "DBGCHAT_TEST_KEY", sys.executable]) == 1
    assert capsys.readouterr().err == (
        "dbgchat: debugger not found on PATH: gdb\n")


def test_a_typed_line_that_is_not_utf8_costs_only_its_character(standin,
                                                                tmp_path):
    script = tmp_path / "turns.json"
    script.write_text(json.dumps({"version": 1, "turns": []}))
    target = standin.target(stack_description(
        [Frame(level=0, func="main", file="app.c",
               fullname=str(tmp_path / "app.c"), line=3)]))
    stdin = io.TextIOWrapper(io.BytesIO(b"p x\np \xff\np x\nquit\n"),
                             encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", stdin), redirect_stdout(out), \
            redirect_stderr(err):
        code = main(["--script", str(script), "--root", str(tmp_path),
                     target])
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue().endswith(
        f'{PROMPT}p \ufffd\nerror: No symbol "\ufffd" in current context.\n'
        f"{PROMPT}p x\n$1 = 0\n{PROMPT}quit\n")


def test_a_tool_argument_that_is_not_utf8_ends_only_that_turn(standin,
                                                              tmp_path):
    script = tmp_path / "turns.json"
    script.write_text(json.dumps({"version": 1, "turns": [[{"tool_call": {
        "name": "code", "arguments": {"loc": "\ud800.c:1"}}}]]}))
    target = standin.target(stack_description(
        [Frame(level=0, func="main", file="app.c",
               fullname=str(tmp_path / "app.c"), line=3)]))
    # A terminal's stdout, which cannot encode a lone surrogate.
    raw, err = io.BytesIO(), io.StringIO()
    out = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
    with mock.patch.object(sys, "stdin", io.StringIO("why?\np x\nquit\n")), \
            redirect_stdout(out), redirect_stderr(err):
        code = main(["--script", str(script), "--root", str(tmp_path),
                     target])
    assert (code, err.getvalue()) == (0, "")
    text = raw.getvalue().decode("utf-8")
    assert ("[chat turn ended: code: argument 'loc' is not UTF-8 text: "
            "'\\ud800.c:1']\n") in text
    assert f"{PROMPT}p x\n$1 = 0\n" in text


def test_cli_missing_target_exits_1():
    result = run_cli(["--script", str(REPLAY_SCRIPT), "/no/such/binary"])
    assert result.returncode == 1
    assert "target executable not found" in result.stderr


def test_cli_missing_stdin_file_exits_1(segv_binary):
    result = run_cli(["--script", str(REPLAY_SCRIPT),
                      "--stdin-file", "/no/such/input", str(segv_binary)])
    assert result.returncode == 1
    assert "/no/such/input" in result.stderr


def test_cli_whitelist_flag_accepted(segv_binary, fixtures_dir, tmp_path):
    allow = tmp_path / "allow.txt"
    allow.write_text("# helpers\nchecksum\n")
    result = run_cli(replay_args(segv_binary, fixtures_dir,
                                 tmp_path / "log.jsonl",
                                 extra=["--whitelist", str(allow)]),
                     REPLAY_INPUT)
    assert result.returncode == 0, result.stderr
    config = json.loads(
        (tmp_path / "log.jsonl").read_text().splitlines()[0])
    assert config["policy"] == "whitelist"


def test_cli_leaves_no_debugger_behind(segv_binary, tmp_path):
    target = tmp_path / "hygiene_target"
    shutil.copy(segv_binary, target)
    target.chmod(0o755)
    result = run_cli(["--script", str(REPLAY_SCRIPT), str(target)],
                     "p total_runs\nquit\n")
    assert result.returncode == 0, result.stderr
    scan = subprocess.run(["pgrep", "-f", "hygiene_target"],
                          capture_output=True, text=True)
    assert scan.stdout.strip() == ""


def test_an_interrupt_before_the_first_stop_ends_with_one_line(fake_gdb,
                                                               tmp_path):
    log = tmp_path / "gdb.out"
    target = fake_gdb({"-exec-run": ["^running", "(gdb) ", {"sleep": 30}]},
                      log=str(log))
    script = tmp_path / "turns.json"
    script.write_text(json.dumps({"version": 1, "turns": []}))
    # SIGINT raises KeyboardInterrupt, as at a terminal, even where the
    # test runner's own parent ignores it.
    code = ("import signal, sys\n"
            "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
            "from dbgchat.cli import main\n"
            "sys.exit(main(sys.argv[1:]))")
    src = str(Path(dbgchat.__file__).parent.parent)
    cli = subprocess.Popen(
        [sys.executable, "-c", code, "--script", str(script), target],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env={**os.environ, "PYTHONPATH": src})
    deadline = time.monotonic() + 30
    while not (log.exists() and "^running" in log.read_text()):
        assert cli.poll() is None and time.monotonic() < deadline
        time.sleep(0.05)
    cli.send_signal(signal.SIGINT)
    out, err = cli.communicate(timeout=30)
    assert (cli.returncode, err, out) == (130, "dbgchat: interrupted\n", "")
    scan = subprocess.run(["pgrep", "-f", target], capture_output=True,
                          text=True)
    assert scan.stdout.strip() == ""


# -- one bad debugger answer, over the fake gdb ----------------------------

# A SIGSEGV two frames deep in ROOT/app.c, ROOT standing for the --root
# directory.  One chat line enriches the stack and the model calls
# ``debug bt``; then the user's ``p x`` must get its own answer.
_FRAME = 'file="app.c",fullname="ROOT/app.c",line="{line}"'
_ANSWERS = {
    "-exec-run": [
        "^running", "(gdb) ",
        '*stopped,reason="signal-received",signal-name="SIGSEGV",'
        'signal-meaning="Segmentation fault",frame={level="0",func="inner",'
        + _FRAME.format(line=5) + "}", "(gdb) "],
    "-stack-info-depth": ['^done,depth="2"', "(gdb) "],
    "-stack-list-frames": [
        '^done,stack=[frame={level="0",func="inner",' + _FRAME.format(line=5)
        + '},frame={level="1",func="main",' + _FRAME.format(line=9) + "}]",
        "(gdb) "],
    "-stack-list-variables": [
        '^done,variables=[{name="x",type="int",value="1"},'
        '{name="v",type="int [2]"}]', "(gdb) "],
    "-data-evaluate-expression": ['^done,value="{1, 2}"', "(gdb) "],
    "-symbol-info-variables": [
        '^done,symbols={debug=[{filename="app.c",fullname="ROOT/app.c",'
        'symbols=[{line="2",name="g",type="int",description="int g;"}]}]}',
        "(gdb) "],
    '-interpreter-exec console "bt"': [
        '~"#0  inner () at app.c:5\\n"', "^done", "(gdb) "],
}
_PRINT_X = {'-interpreter-exec console "p x"': ['~"$1 = 1\\n"', "^done",
                                                 "(gdb) "]}
_TURNS = [[{"tool_call": {"name": "debug", "arguments": {"command": "bt"}}}],
          [{"text": "x is 1."}]]
_PRINTED_X = f"{PROMPT}p x\n$1 = 1\n"
_CHAT_THEN_PRINT_X = "why did it crash?\np x\nquit\n"


@pytest.fixture()
def faulty_session(fake_gdb, tmp_path, monkeypatch):
    """``run(answers, lines, flags) -> (exit code, stdout, stderr)`` of one
    in-process ``--script`` session over the fake gdb, by default a chat
    line, ``p x``, quit.  A stop the debugger never reports times out
    after 1 s, not 60 s."""
    monkeypatch.setattr(session_module, "RUN_TIMEOUT", 1.0)
    (tmp_path / "app.c").write_text(
        "".join(f"int line_{i};\n" for i in range(1, 13)))
    script = tmp_path / "turns.json"
    script.write_text(json.dumps({"version": 1, "turns": _TURNS}))

    def run(answers, lines=_CHAT_THEN_PRINT_X, flags=()):
        text = json.dumps({**answers, **_PRINT_X})
        target = fake_gdb(json.loads(text.replace("ROOT", str(tmp_path))))
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(sys, "stdin", io.StringIO(lines)), \
                redirect_stdout(out), redirect_stderr(err):
            code = main(["--script", str(script), "--root", str(tmp_path),
                         *flags, target])
        return code, out.getvalue(), err.getvalue()
    return run


def test_the_faultless_session_gets_through(faulty_session):
    code, out, err = faulty_session(_ANSWERS)
    assert (code, err) == (0, "")
    assert "  at app.c:5 in inner()\n" in out
    assert "→ bt\n   #0  inner () at app.c:5\n" in out
    assert "x is 1.\n" in out
    assert "chat turn ended" not in out
    assert _PRINTED_X in out


_CUT_FRAMES = _ANSWERS["-stack-list-frames"][0][:40]


@pytest.mark.parametrize("command, line, notice", [
    ("-stack-list-frames", _CUT_FRAMES,
     "unexpected answer to -stack-list-frames 0 1: "
     + repr(f"{_CUT_FRAMES}\n(gdb) "[:60])),
    ("-stack-list-variables", '^done,variables=[{type="int",value="1"}]',
     "malformed answer to -stack-list-variables --thread 1 --frame 0 "
     "--simple-values: KeyError('name')"),
    ("-stack-info-depth", '^done,depth="two"',
     "malformed answer to -stack-info-depth 10000: ValueError(\"invalid "
     "literal for int() with base 10: 'two'\")"),
    ("-stack-list-variables", '^error,msg="No frame at level 0."',
     "No frame at level 0."),
    ("-stack-info-depth", '^error,msg="No stack."', "No stack."),
], ids=["frames-cut-short", "variable-without-name", "depth-not-a-number",
        "variables-error", "depth-error"])
def test_a_bad_answer_to_the_first_chat_line_ends_only_that_turn(
        faulty_session, command, line, notice):
    code, out, err = faulty_session({**_ANSWERS, command: [line, "(gdb) "]})
    assert (code, err) == (0, "")
    assert re.findall(r"\[chat turn ended: .*\]\n", out) == [
        f"[chat turn ended: {notice}]\n"]
    assert _PRINTED_X in out


_CLOSED = "debugger closed its output stream"


@pytest.mark.parametrize("lines, running", [
    ("bt\np x\ninfo locals\nquit\n",
     {"event": "debugger", "command": "bt", "output": f"error: {_CLOSED}"}),
    (_CHAT_THEN_PRINT_X,
     {"event": "tool_call", "id": "call_0_0", "name": "debug",
      "arguments": {"command": "bt"}, "output": f"error: {_CLOSED}"}),
], ids=["typed", "tool-call"])
def test_a_debugger_that_exits_ends_the_session(faulty_session, tmp_path,
                                                lines, running):
    log = tmp_path / "session.log"
    code, out, err = faulty_session(
        {**_ANSWERS, '-interpreter-exec console "bt"': [{"exit": 0}]}, lines,
        flags=["--log", str(log)])
    assert (code, err) == (1, f"dbgchat: {_CLOSED}\n")
    assert "$1 = 1" not in out
    assert "error:" not in out
    # The log names the command that was running, then why the session
    # ended.
    events = [json.loads(line) for line in log.read_text().splitlines()]
    assert events[-2:] == [running,
                           {"event": "session_error", "error": _CLOSED}]


def test_a_chat_line_past_the_budget_ends_only_that_turn(faulty_session):
    # The instructions alone take more than 50 tokens.
    code, out, err = faulty_session(_ANSWERS, flags=["--budget", "50"])
    assert (code, err) == (0, "")
    assert re.findall(r"\[chat turn ended: .*\]\n", out) == [
        "[chat turn ended: cannot fit the prompt in 50 tokens: instructions, "
        "error, and user text alone exceed the budget]\n"]
    assert _PRINTED_X in out


# The result record of each answer, and the stop record.
_TARGETS = [(command, i) for command, steps in _ANSWERS.items()
            for i, step in enumerate(steps) if step[:1] in "^*"]


def _members(value, path=()):
    """The path to each named member of a parsed MI value."""
    if isinstance(value, dict):
        for name, member in value.items():
            yield path + (name,)
            yield from _members(member, path + (name,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _members(item, path + (i,))


def _spoil(steps, index, fault, pick, other):
    """steps with the line at index spoiled by fault."""
    steps, line = list(steps), steps[index]
    if fault == "cut":
        steps[index] = line[:pick % len(line)]
    elif fault == "drop":
        del steps[index]
    elif fault == "error":
        steps[index] = '^error,msg="injected"'
    elif fault == "exit":
        steps[index:] = [{"exit": 3}]
    else:
        record = parse_mi_line(line)
        paths = list(_members(record.payload))
        if paths:
            path = paths[pick % len(paths)]
            owner = functools.reduce(lambda v, k: v[k], path[:-1],
                                     record.payload)
            if fault == "delete":
                del owner[path[-1]]
            else:
                owner[path[-1]] = copy.deepcopy(other)
        steps[index] = serialize(record)
    return steps


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
# A string field that comes as a tuple or a list: a frame's fullname, a
# variable's type, an evaluated value.  pick counts _members in order.
@example(target=("-stack-list-frames", 0), fault="retype", pick=5,
         other={"x": "1"})
@example(target=("-stack-list-variables", 0), fault="retype", pick=2,
         other=[])
@example(target=("-data-evaluate-expression", 0), fault="retype", pick=0,
         other={})
@given(target=st.sampled_from(_TARGETS),
       fault=st.sampled_from(["cut", "drop", "delete", "retype", "error",
                              "exit"]),
       pick=st.integers(0, 10 ** 6),
       other=st.sampled_from(["two", {}, {"x": "1"}, []]))
def test_one_bad_answer_ends_as_a_message_never_a_traceback(
        faulty_session, target, fault, pick, other):
    command, index = target
    # An exception out of main is what the command line shows as a
    # traceback; it fails the test by itself.
    code, out, err = faulty_session(
        {**_ANSWERS, command: _spoil(_ANSWERS[command], index, fault, pick,
                                     other)})
    if code == 1:
        assert re.fullmatch(r"dbgchat: [^\n]*\n", err), err
        return
    assert (code, err) == (0, "")
    assert out.count("[chat turn ended: ") <= 1
    if fault != "exit":
        assert _PRINTED_X in out
