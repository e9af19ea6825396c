"""Command loop: routing, history discipline, echoes, caps, replays."""

import copy
import json
import re
from pathlib import Path

import pytest

from dbgchat import PROMPT
from dbgchat import agent as agent_module
from dbgchat.agent import (
    Agent,
    AgentConfig,
    Transcript,
    is_debugger_command,
)
from dbgchat.enrich import source_window
from dbgchat.errors import DebuggerExited, EvaluationError
from dbgchat.llm import (
    ASSISTANT,
    SYSTEM,
    TOOL,
    USER,
    HttpBackend,
    ScriptedBackend,
    validate_conversation,
)
from dbgchat.prompts import estimate_tokens
from dbgchat.sanitizer import native_strict
from dbgchat.session import DebugSession, Frame, StopInfo

from conftest import CUT_STREAM, FakeSession, sse

DATA = Path(__file__).parent / "data"
REPLAY_SCRIPT = DATA / "replay_segv.json"


class RecordingUi:
    """Captures every UI callback as a (kind, *payload) tuple."""

    def __init__(self):
        self.events = []

    def on_prose(self, chunk):
        self.events.append(("prose", chunk))

    def on_echo(self, command, output):
        self.events.append(("echo", command, output))

    def on_debugger(self, command, output):
        self.events.append(("debugger", command, output))

    def on_notice(self, text):
        self.events.append(("notice", text))

    def on_turn_end(self):
        self.events.append(("end",))

    def kind(self, name):
        return [e for e in self.events if e[0] == name]

    def prose_text(self):
        return "".join(e[1] for e in self.kind("prose"))


def write_script(tmp_path, turns, name="script.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"version": 1, "turns": turns}),
                    encoding="utf-8")
    return str(path)


def debug_call(command):
    return {"tool_call": {"name": "debug", "arguments": {"command": command}}}


_open_transcripts = []


@pytest.fixture(autouse=True)
def _close_transcripts():
    yield
    while _open_transcripts:
        _open_transcripts.pop().close()


def make_agent(tmp_path, turns, session=None, transcript_name=None, **config):
    session = session or FakeSession()
    ui = RecordingUi()
    transcript = None
    if transcript_name:
        transcript = Transcript(str(tmp_path / transcript_name))
        _open_transcripts.append(transcript)
    agent = Agent(session, ScriptedBackend(write_script(tmp_path, turns)),
                  native_strict(),
                  AgentConfig(**{"workspace_root": str(tmp_path), **config}),
                  ui, transcript=transcript)
    return agent, session, ui


def read_transcript(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def audit_tool_flow(ui, messages, events):
    """Executed calls echo once and get exactly one Tool reply each."""
    tool_events = [e for e in events if e["event"] == "tool_call"]
    echoes = ui.kind("echo")
    assert len(echoes) == len(tool_events)
    ids = [e["id"] for e in tool_events]
    assert len(ids) == len(set(ids))
    reply_ids = [m.tool_call_id for m in messages if m.role == TOOL]
    for call_id in ids:
        assert reply_ids.count(call_id) == 1
    validate_conversation(messages)


# -- input routing ----------------------------------------------------------

@pytest.mark.parametrize("line, expected", [
    ("p x", True),
    ("p/x flags", True),
    ("bt", True),
    ("info locals", True),
    ("break main", True),
    ("continue", True),
    ("list crash_segv.c:20", True),
    ("Why doesn't stats have 5 elements?", False),
    ("explain this crash", False),
    ("what is cursor?", False),
    ("", False),
    ("   ", False),
])
def test_is_debugger_command(line, expected):
    assert is_debugger_command(line) is expected


def test_blank_input_is_ignored(tmp_path):
    agent, session, ui = make_agent(tmp_path, [[{"text": "unused"}]])
    agent.handle_input("")
    agent.handle_input("   ")
    assert ui.events == []
    assert session.commands == []
    assert len(agent.history) == 0


def test_debugger_command_routes_to_session(tmp_path):
    agent, session, ui = make_agent(tmp_path, [[{"text": "unused"}]],
                                    transcript_name="t.jsonl")
    agent.handle_input("p x")
    assert session.commands == ["p x"]
    assert ui.events == [("debugger", "p x", "ran p x")]
    assert agent.history == [("p x", "ran p x")]
    assert agent.messages == []


def test_debugger_command_error_is_reported_not_raised(tmp_path):
    session = FakeSession({"p bad": EvaluationError('No symbol "bad"')})
    agent, _, ui = make_agent(tmp_path, [[{"text": "unused"}]],
                              session=session)
    agent.handle_input("p bad")
    assert ui.events == [("debugger", "p bad", 'error: No symbol "bad"')]
    assert agent.history == [("p bad", 'error: No symbol "bad"')]


# -- history discipline -----------------------------------------------------

def test_history_accumulates_then_clears_on_send(tmp_path):
    agent, _, ui = make_agent(tmp_path, [[{"text": "because"}]])
    for cmd in ["p a", "p b", "bt"]:
        agent.handle_input(cmd)
    assert len(agent.history) == 3
    assert [c for c, _ in agent.history] == ["p a", "p b", "bt"]

    agent.handle_input("why is that?")
    assert len(agent.history) == 0
    user = [m for m in agent.messages if m.role == USER][-1]
    for cmd in ["p a", "p b", "bt"]:
        assert f"{PROMPT}{cmd}\n" in user.content
        assert f"ran {cmd}" in user.content
    assert user.content.endswith("why is that?")
    assert agent.messages


def test_followup_prompt_after_first_chat(tmp_path):
    turns = [[{"text": "one"}], [{"text": "two"}], [{"text": "three"}]]
    agent, _, ui = make_agent(tmp_path, turns)

    agent.handle_input("first question")
    systems = [m for m in agent.messages if m.role == SYSTEM]
    assert len(systems) == 1

    agent.handle_input("second question")
    assert len([m for m in agent.messages if m.role == SYSTEM]) == 1
    user = [m for m in agent.messages if m.role == USER][-1]
    assert user.content == "second question"

    agent.handle_input("p x")
    agent.handle_input("third question")
    user = [m for m in agent.messages if m.role == USER][-1]
    assert f"{PROMPT}p x" in user.content
    assert "ran p x" in user.content
    assert user.content.endswith("third question")
    assert len(agent.history) == 0
    validate_conversation(agent.messages)


def test_first_request_over_budget_is_cut_to_fit(tmp_path):
    frames = []
    for level in range(40):
        source = tmp_path / f"f{level}.c"
        source.write_text("int x;\n" * 12)
        frames.append(Frame(level=level, func=f"fn{level}", file=source.name,
                            fullname=str(source), line=3))
    stop = StopInfo(kind="signal", signal_name="SIGSEGV", frame=frames[0])
    session = FakeSession(frames=frames, stop=stop)
    agent, _, _ = make_agent(tmp_path, [[{"text": "ok"}]], session=session,
                             budget=1500)
    agent.handle_input("p x")
    agent.handle_input("why?")

    first = agent.messages[:2]
    assert [m.role for m in first] == [SYSTEM, USER]
    assert sum(estimate_tokens(m.content) for m in first) <= 1500
    body = first[1].content
    assert "> f0.c(3)fn0()" in body
    assert "f39.c(3)fn39()" not in body
    note = re.search(r"^\[\.\.\. (\d+) frame\(s\) omitted to fit the "
                     r"token budget\]$", body, re.M)
    assert note
    shown = len(re.findall(r"^(?:> )?f\d+\.c\(3\)fn\d+\(\)$", body, re.M))
    assert shown + int(note.group(1)) == 40
    assert f"{PROMPT}p x" not in body
    assert body.endswith("User Text:\nwhy?")
    # Only the shown frames and the one that overflowed were fetched; the
    # outermost frame was cut, so its globals were never asked for.
    assert session.levels("frame_variables") == list(range(shown + 1))
    assert session.levels("evaluate") == []
    assert session.levels("global_variables") == []


# -- plain chat turns -------------------------------------------------------

def test_prose_turn_streams_and_commits(tmp_path):
    agent, _, ui = make_agent(
        tmp_path, [[{"text": "Hello "}, {"text": "there."}]],
        transcript_name="t.jsonl")
    agent.handle_input("what happened?")
    assert [e[1] for e in ui.kind("prose")] == ["Hello ", "there."]
    assert ui.kind("end") == [("end",)]

    events = read_transcript(tmp_path / "t.jsonl")
    kinds = [e["event"] for e in events]
    assert kinds == ["config", "send", "prose"]
    assert events[0]["policy"] == "native-strict"
    assert events[0]["backend"]["backend"] == "script"
    assert events[2]["text"] == "Hello there."

    roles = [m.role for m in agent.messages]
    assert roles == [SYSTEM, USER, ASSISTANT]
    assert agent.messages[-1].content == "Hello there."
    validate_conversation(agent.messages)


def test_tool_calls_execute_echo_and_reply(tmp_path):
    session = FakeSession({"bt": "#0 main ()", "info locals": "   \n"})
    turns = [
        [debug_call("bt"), debug_call("info locals")],
        [{"text": "All done."}],
    ]
    agent, _, ui = make_agent(tmp_path, turns, session=session,
                              transcript_name="t.jsonl")
    agent.handle_input("take a look around")

    assert session.commands == ["bt", "info locals"]
    echoes = ui.kind("echo")
    assert echoes == [("echo", "bt", "#0 main ()"),
                      ("echo", "info locals", "(no output)")]
    assert ui.prose_text() == "All done."

    events = read_transcript(tmp_path / "t.jsonl")
    audit_tool_flow(ui, agent.messages, events)
    replies = [m for m in agent.messages if m.role == TOOL]
    assert [m.content for m in replies] == ["#0 main ()", "(no output)"]


def test_denied_tool_calls_feed_reason_back(tmp_path):
    turns = [
        [debug_call("continue"), debug_call('p system("x")')],
        [{"text": "done"}],
    ]
    agent, session, ui = make_agent(tmp_path, turns,
                                    transcript_name="t.jsonl")
    agent.handle_input("poke at it")

    assert session.commands == []
    outputs = [e[2] for e in ui.kind("echo")]
    assert outputs[0].startswith("command not allowed: ")
    assert "resumes or alters target execution" in outputs[0]
    assert outputs[1].startswith("command not allowed: ")
    assert "calls function 'system'" in outputs[1]
    assert ui.prose_text() == "done"

    events = read_transcript(tmp_path / "t.jsonl")
    audit_tool_flow(ui, agent.messages, events)
    replies = [m.content for m in agent.messages if m.role == TOOL]
    assert replies == outputs


@pytest.mark.parametrize("loc, fragment", [
    ("nope.c:3", "error:"),
    ("garbage", "error:"),
])
def test_code_tool_errors_become_outputs(tmp_path, loc, fragment):
    turns = [
        [{"tool_call": {"name": "code", "arguments": {"loc": loc}}}],
        [{"text": "moving on"}],
    ]
    agent, _, ui = make_agent(tmp_path, turns)
    agent.handle_input("read the crash site for me")
    (echo,) = ui.kind("echo")
    assert echo[1] == f"code {loc}"
    assert echo[2].startswith(fragment)
    assert ui.prose_text() == "moving on"


@pytest.mark.parametrize("name, loc, reply", [
    ("code", "nope.c:3", "error: {root}/nope.c: No such file or directory"),
    ("code", "../hello.c:1",
     "error: ../hello.c is outside the workspace root {root}"),
    ("definition", "{outside}/hello.c:1",
     "error: {outside}/hello.c is outside the workspace root {root}"),
    ("code", "{root}/hello.c:1", "---> 1 int foo;\n     2 int bar;"),
])
def test_tool_locations_stay_inside_the_root(tmp_path, name, loc, reply):
    root, outside = tmp_path / "ws", tmp_path / "other"
    for directory in (root, outside):
        directory.mkdir()
        (directory / "hello.c").write_text("int foo;\nint bar;\n")
    loc, reply = (text.format(root=root, outside=outside)
                  for text in (loc, reply))
    turns = [
        [{"tool_call": {"name": name,
                        "arguments": {"loc": loc, "symbol": "foo"}}}],
        [{"text": "ok"}],
    ]
    agent, _, ui = make_agent(tmp_path, turns, workspace_root=str(root))
    agent.handle_input("read it for me")
    (echo,) = ui.kind("echo")
    assert echo[2] == reply


def test_definition_tool_not_found_becomes_output(tmp_path):
    (tmp_path / "hello.c").write_text("int foo;\nint bar;\n")
    turns = [
        [{"tool_call": {"name": "definition",
                        "arguments": {"loc": "hello.c:1", "symbol": "foo"}}}],
        [{"text": "ok"}],
    ]
    agent, _, ui = make_agent(tmp_path, turns)
    agent.handle_input("in which file is foo defined?")
    (echo,) = ui.kind("echo")
    assert echo[1] == "definition hello.c:1 foo"
    assert echo[2].startswith("error:")
    assert "foo" in echo[2]


# -- caps and failures ------------------------------------------------------

def test_tool_loop_cap_single_completion(tmp_path, monkeypatch):
    monkeypatch.setattr(agent_module, "TOOL_LOOP_CAP", 4)
    turns = [[debug_call(f"p v{i}") for i in range(5)], [{"text": "unused"}]]
    agent, session, ui = make_agent(tmp_path, turns,
                                    transcript_name="t.jsonl")
    agent.handle_input("dig in")

    assert session.commands == [f"p v{i}" for i in range(4)]
    assert len(ui.kind("echo")) == 4
    notices = ui.kind("notice")
    assert len(notices) == 1
    assert "tool-call limit (4)" in notices[0][1]
    assert ui.kind("end") == [("end",)]

    replies = [m for m in agent.messages if m.role == TOOL]
    assert len(replies) == 5
    assert "was not executed" in replies[-1].content
    validate_conversation(agent.messages)

    events = read_transcript(tmp_path / "t.jsonl")
    assert events[-1] == {"event": "turn_aborted", "calls": 5}
    assert len([e for e in events if e["event"] == "tool_call"]) == 4


def test_tool_loop_cap_spans_completions(tmp_path, monkeypatch):
    monkeypatch.setattr(agent_module, "TOOL_LOOP_CAP", 2)
    turns = [[debug_call("p a")], [debug_call("p b")], [debug_call("p c")],
             [{"text": "unused"}]]
    agent, session, ui = make_agent(tmp_path, turns)
    agent.handle_input("dig in")
    assert session.commands == ["p a", "p b"]
    assert len(ui.kind("echo")) == 2
    assert any("tool-call limit (2)" in e[1] for e in ui.kind("notice"))
    validate_conversation(agent.messages)


def test_backend_failure_ends_turn_gracefully(tmp_path):
    # One scripted completion of tool calls, then the script runs dry.
    turns = [[debug_call("bt")]]
    agent, session, ui = make_agent(tmp_path, turns,
                                    transcript_name="t.jsonl")
    agent.handle_input("have a look")

    assert session.commands == ["bt"]
    notices = ui.kind("notice")
    assert len(notices) == 1
    assert notices[0][1].startswith("chat turn ended: ")
    assert ui.kind("end") == [("end",)]

    events = read_transcript(tmp_path / "t.jsonl")
    assert events[-1]["event"] == "turn_error"
    validate_conversation(agent.messages)
    assert [m.role for m in agent.messages] == \
        [SYSTEM, USER, ASSISTANT, TOOL]
    assert agent.messages


def test_stream_cut_ends_turn_not_session(tmp_path, stub_server):
    stub_server.responses = [(None, CUT_STREAM), (200, sse(
        {"choices": [{"delta": {"content": "still here"}}]}))]
    backend = HttpBackend(
        f"http://127.0.0.1:{stub_server.server_address[1]}/v1", "test-model",
        "sk-test")
    session, ui = FakeSession(), RecordingUi()
    agent = Agent(session, backend, native_strict(),
                  AgentConfig(workspace_root=str(tmp_path)), ui)

    agent.handle_input("why did it crash?")
    assert ui.prose_text() == "Hel"
    notices = ui.kind("notice")
    assert len(notices) == 1
    assert notices[0][1].startswith("chat turn ended: ")

    agent.handle_input("p x")
    assert session.commands == ["p x"]
    agent.handle_input("try again")
    assert ui.prose_text() == "Helstill here"
    assert len(ui.kind("notice")) == 1
    assert len(stub_server.requests_seen) == 2
    backend.close()


def test_a_failed_answer_to_the_first_chat_line_ends_only_that_turn(
        fake_gdb, tmp_path):
    frame = (f'frame={{level="0",func="main",file="app.c",'
             f'fullname="{tmp_path}/app.c",line="3"}}')
    target = fake_gdb({
        "-exec-run": ["^running", "(gdb) ",
                      f'*stopped,reason="signal-received",'
                      f'signal-name="SIGSEGV",{frame}', "(gdb) "],
        "-stack-info-depth": ['^done,depth="1"', "(gdb) "],
        "-stack-list-frames": [f"^done,stack=[{frame}]", "(gdb) "],
        "-stack-list-variables": [
            ['^error,msg="No frame at level 0."', "(gdb) "],
            ['^done,variables=[{name="x",type="int",value="1"}]', "(gdb) "]],
        "-symbol-info-variables": ["^done,symbols={debug=[]}", "(gdb) "],
        '-interpreter-exec console "p x"': ['~"$1 = 1\\n"', "^done",
                                             "(gdb) "],
    })
    with DebugSession(target) as session:
        session.run_to_stop()
        agent, _, ui = make_agent(tmp_path, [[{"text": "x is 1."}]],
                                  session=session, transcript_name="t.jsonl")
        agent.handle_input("p x")
        agent.handle_input("why did it crash?")
        assert ui.events[-2:] == [
            ("notice", "chat turn ended: No frame at level 0."), ("end",)]
        assert agent.messages == []
        assert agent.history == [("p x", "$1 = 1\n")]

        agent.handle_input("p x")
        assert ui.events[-1] == ("debugger", "p x", "$1 = 1\n")
        agent.handle_input("why did it crash?")
    assert ui.prose_text() == "x is 1."
    assert [m.role for m in agent.messages] == [SYSTEM, USER, ASSISTANT]
    assert agent.history == []
    events = read_transcript(tmp_path / "t.jsonl")
    assert [e["event"] for e in events] == [
        "config", "debugger", "turn_error", "debugger", "send", "prose"]
    assert events[2] == {"event": "turn_error",
                         "error": "No frame at level 0."}
    system, user = events[4]["messages"]
    assert (system["role"], user["role"]) == ("system", "user")
    assert "x: int = 1" in user["content"]
    assert user["content"].count("$1 = 1") == 2


@pytest.mark.parametrize("line", ["bt", "why did it crash?"],
                         ids=["typed", "tool-call"])
def test_a_debugger_that_exits_ends_the_session(fake_gdb, tmp_path, line):
    # gdb dies on bt, typed by the user or called by the model: no later
    # command could reach it, so the session ends rather than the turn.
    frame = (f'frame={{level="0",func="main",file="app.c",'
             f'fullname="{tmp_path}/app.c",line="3"}}')
    target = fake_gdb({
        "-exec-run": ["^running", "(gdb) ",
                      f'*stopped,reason="signal-received",'
                      f'signal-name="SIGSEGV",{frame}', "(gdb) "],
        "-stack-info-depth": ['^done,depth="1"', "(gdb) "],
        "-stack-list-frames": [f"^done,stack=[{frame}]", "(gdb) "],
        "-stack-list-variables": [
            '^done,variables=[{name="x",type="int",value="1"}]', "(gdb) "],
        "-symbol-info-variables": ["^done,symbols={debug=[]}", "(gdb) "],
        '-interpreter-exec console "bt"': [{"exit": 0}],
    })
    with DebugSession(target) as session:
        session.run_to_stop()
        agent, _, ui = make_agent(tmp_path, [[debug_call("bt")]],
                                  session=session)
        with pytest.raises(DebuggerExited,
                           match="^debugger closed its output stream$"):
            agent.handle_input(line)
    assert ui.kind("debugger") == ui.kind("echo") == ui.kind("notice") == []


def test_malformed_scripted_call_ends_turn(tmp_path):
    turns = [[{"tool_call": {"name": "debug", "arguments": {"cmd": "bt"}}}]]
    agent, session, ui = make_agent(tmp_path, turns)
    agent.handle_input("have a look")
    assert session.commands == []
    assert len(ui.kind("notice")) == 1
    assert [m.role for m in agent.messages] == [SYSTEM, USER]


# -- live replays -----------------------------------------------------------

@pytest.fixture()
def segv_binary(fixture_bins):
    return fixture_bins["crash_segv"]


def run_replay(segv_binary, fixtures_dir, tmp_path, name):
    """The canonical walkthrough: one command, one question, four calls."""
    with DebugSession(str(segv_binary)) as session:
        session.run_to_stop()
        ui = RecordingUi()
        transcript = Transcript(str(tmp_path / name))
        agent = Agent(session, ScriptedBackend(str(REPLAY_SCRIPT)),
                      native_strict(),
                      AgentConfig(workspace_root=str(fixtures_dir)),
                      ui, transcript=transcript)
        agent.handle_input("p total_runs")
        history_size = len(agent.history)
        stop_before = copy.deepcopy(session.stop)
        agent.handle_input("Why did the program stop here?")
        stop_after = copy.deepcopy(session.stop)
        transcript.close()
        return agent, ui, history_size, stop_before, stop_after


def test_replay_walkthrough(segv_binary, fixtures_dir, tmp_path):
    agent, ui, history_size, stop_before, stop_after = run_replay(
        segv_binary, fixtures_dir, tmp_path, "replay.jsonl")

    (debugger,) = ui.kind("debugger")
    assert debugger[1] == "p total_runs"
    assert "= 3" in debugger[2]
    assert history_size == 1
    assert len(agent.history) == 0

    events = read_transcript(tmp_path / "replay.jsonl")
    tool_events = [e for e in events if e["event"] == "tool_call"]
    assert len(tool_events) == 4
    by_command = {e["arguments"].get("command", e["name"]): e
                  for e in tool_events}
    assert "tally_reds" in by_command["bt"]["output"]
    assert "150" in by_command["p drawn_count"]["output"]
    source = str(fixtures_dir / "crash_segv.c")
    assert by_command["code"]["output"] == source_window(source, 28)
    first_line = by_command["definition"]["output"].splitlines()[0]
    assert re.search(r"crash_segv\.c:1[45]$", first_line)
    assert "int drawn_count = 150;" in by_command["definition"]["output"]

    prose = ui.prose_text()
    assert "Recommendation" in prose
    assert "SIGSEGV" in prose

    sends = [e for e in events if e["event"] == "send"]
    assert len(sends) == 1
    roles = [m["role"] for m in sends[0]["messages"]]
    assert roles == ["system", "user"]
    prompt_text = sends[0]["messages"][1]["content"]
    assert f"{PROMPT}p total_runs" in prompt_text
    assert "= 3" in prompt_text
    assert "Variables in this frame:" in prompt_text
    assert prompt_text.endswith("Why did the program stop here?")

    audit_tool_flow(ui, agent.messages, events)
    assert [e[1] for e in ui.kind("echo")] == [
        "bt", "p drawn_count", "code crash_segv.c:28",
        "definition crash_segv.c:43 drawn_count"]

    assert stop_before == stop_after
    assert stop_before.kind == "signal"
    assert stop_before.signal_name == "SIGSEGV"


def test_replay_transcripts_are_byte_identical(segv_binary, fixtures_dir,
                                               tmp_path):
    run_replay(segv_binary, fixtures_dir, tmp_path, "one.jsonl")
    run_replay(segv_binary, fixtures_dir, tmp_path, "two.jsonl")
    first = (tmp_path / "one.jsonl").read_bytes()
    second = (tmp_path / "two.jsonl").read_bytes()
    assert first == second
    assert len(first) > 0


def test_stop_state_preserved_across_hundred_turns(segv_binary, fixtures_dir,
                                                   tmp_path):
    turns = []
    for i in range(100):
        turns.append([debug_call("p drawn_count")])
        turns.append([{"text": f"ok {i}"}])
    script = write_script(tmp_path, turns, name="hundred.json")
    with DebugSession(str(segv_binary)) as session:
        session.run_to_stop()
        ui = RecordingUi()
        agent = Agent(session, ScriptedBackend(script), native_strict(),
                      AgentConfig(workspace_root=str(fixtures_dir)), ui)
        baseline = copy.deepcopy(session.stop)
        for i in range(100):
            agent.handle_input(f"tell me about round {i}")
            assert session.stop == baseline
            assert session.stopped
        validate_conversation(agent.messages)
    assert len(ui.kind("echo")) == 100
    assert len(ui.kind("end")) == 100
