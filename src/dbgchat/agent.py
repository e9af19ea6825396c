"""The command-processing loop: route input, run tool calls, stream prose.

User input is either a debugger command (executed directly, recorded in
the session history) or free text (sent to the model).  During a chat
turn the model may call the debug/code/definition tools; every executed
call is echoed to the user once and returned to the model once.  The
"filename:lineno" of a code or definition call is parsed here, a relative
filename taken from the workspace root and a file outside that root
refused.  The history accumulates between sends and is cleared exactly
when a prompt goes out.  A debugger answer that fails or is malformed
while the first prompt is built ends that chat turn only, as a model
failure does, and so does a first prompt that cannot fit the token
budget.  A debugger that has exited ends the session, whoever ran the
command; that command goes to the log with its error, but not to the
screen.
"""

from __future__ import annotations

import json
import os

from .enrich import DEFAULT_RADIUS, EnrichedStack, build_enriched_stack, \
    definition, source_window as code_window
from .errors import BadLocSyntax, BudgetImpossible, DbgChatError, \
    DebuggerError, DebuggerExited, EvaluationError, LlmError, NotStopped, \
    ProtocolError, SourceUnavailable
from .llm import ASSISTANT, TOOL, ChatMessage, ToolCallRequest, ToolDef
from .prompts import (
    DEFAULT_MAX_TOKENS,
    PromptBundle,
    error_section,
    format_inputs,
    instructions_text,
    make_followup_prompt,
    make_initial_prompt,
    stack_room,
)
from .sanitizer import DEFAULT_PREFIXES, RESUME_COMMANDS, SanitizerPolicy, \
    sanitize

TOOL_LOOP_CAP = 16

TOOLS = [
    ToolDef("debug",
            "Run a debugger command on the stopped program and return "
            "its output.",
            [("command", "the debugger command to run")]),
    ToolDef("code",
            "Show the source lines surrounding a location.",
            [("loc", "the location, in the form filename:lineno")]),
    ToolDef("definition",
            "Show where the symbol occurring at a location is defined.",
            [("loc", "the location, in the form filename:lineno"),
             ("symbol", "the symbol to look up")]),
]

#: First words routed to the debugger instead of the chat.
KNOWN_COMMANDS = frozenset(DEFAULT_PREFIXES) | frozenset(RESUME_COMMANDS) | \
    frozenset({
        "break", "b", "tbreak", "delete", "disable", "enable", "condition",
        "watch", "rwatch", "awatch", "undisplay", "set", "disassemble",
        "directory", "source", "file", "ignore",
    })


def is_debugger_command(line: str) -> bool:
    words = line.split()
    if not words:
        return False
    return words[0].split("/", 1)[0] in KNOWN_COMMANDS


def parse_loc(text: str, root: str) -> tuple[str, int]:
    """The (path, line) of a tool's "filename:lineno"; a relative
    filename is taken from root.  The path, with symbolic links followed
    and ".." steps resolved as the kernel resolves them, must lie under
    root, likewise resolved, so that the model reads no source but the
    workspace's.  A filename holding a NUL or a lone surrogate, which no
    file can be named, is refused."""
    file, sep, lineno = text.rpartition(":")
    if not sep or not file:
        raise BadLocSyntax(f"expected filename:lineno, got {text!r}")
    try:
        line = int(lineno)
    except ValueError:
        raise BadLocSyntax(f"line number is not an integer in {text!r}")
    if line < 1:
        raise BadLocSyntax(f"line number must be positive in {text!r}")
    path = os.path.join(root, file)
    try:
        base, full = os.path.realpath(root), os.path.realpath(path)
    except ValueError:  # raised for a NUL or a lone surrogate
        raise BadLocSyntax(f"no file can be named as in {text!r}")
    if full != base and not full.startswith(os.path.join(base, "")):
        raise SourceUnavailable(
            f"{file} is outside the workspace root {os.path.abspath(root)}")
    return path, line


class Ui:
    """What the agent shows the user; cli.TerminalUi is the one in use."""

    def on_prose(self, chunk: str) -> None: ...
    def on_echo(self, command: str, output: str) -> None: ...
    def on_debugger(self, command: str, output: str) -> None: ...
    def on_notice(self, text: str) -> None: ...
    def on_turn_end(self) -> None: ...


class Transcript:
    """Line-delimited structured log of the dialog, for replay audits."""

    def __init__(self, path: str):
        self._fh = open(path, "w", encoding="utf-8")

    def write(self, event: dict) -> None:
        self._fh.write(json.dumps(event, sort_keys=True, ensure_ascii=False)
                       + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


class _NoTranscript:
    def write(self, event: dict) -> None:
        pass

    def close(self) -> None:
        pass


class AgentConfig:
    __slots__ = ("workspace_root", "argv", "stdin_text", "budget", "radius")

    def __init__(self, workspace_root: str, argv: list[str] | None = None,
                 stdin_text: str | None = None,
                 budget: int = DEFAULT_MAX_TOKENS,
                 radius: int = DEFAULT_RADIUS):
        self.workspace_root = workspace_root
        self.argv = [] if argv is None else argv
        self.stdin_text = stdin_text
        self.budget = budget
        self.radius = radius


class Agent:
    """Wires one debugger session, one model backend, and one policy.

    ``history`` holds the (command, output) pairs the user ran since the
    last send; ``messages`` is the conversation, empty until the first
    chat line.
    """

    def __init__(self, session, backend, policy: SanitizerPolicy,
                 config: AgentConfig, ui: Ui,
                 transcript: Transcript | None = None):
        self.session = session
        self.backend = backend
        self.policy = policy
        self.config = config
        self.ui = ui
        self.transcript = transcript or _NoTranscript()
        self.history: list[tuple[str, str]] = []
        self.messages: list[ChatMessage] = []
        self.transcript.write({
            "event": "config",
            "backend": backend.describe(),
            "policy": policy.mode.value,
        })

    # -- input routing -----------------------------------------------------

    def handle_input(self, line: str) -> None:
        """One REPL line: debugger command or chat text."""
        if not line.strip():
            return
        if not is_debugger_command(line):
            self._chat(line)
            return
        exited = None
        try:
            output = self.session.execute_console(line)
        except DebuggerExited as exc:
            output, exited = f"error: {exc}", exc
        except DebuggerError as exc:
            output = f"error: {exc}"
        self.transcript.write({"event": "debugger", "command": line,
                               "output": output})
        if exited is not None:
            raise exited  # logged, not shown: the session ends with it
        self.ui.on_debugger(line, output)
        self.history.append((line, output))

    # -- chat path ---------------------------------------------------------

    def _chat(self, line: str) -> None:
        if self.messages:
            messages = make_followup_prompt(self.history, line)
        else:
            try:
                messages = make_initial_prompt(self._initial_bundle(line),
                                               self.config.budget)
            except (EvaluationError, ProtocolError, BudgetImpossible) as exc:
                # The debugger still runs; the next chat line tries again.
                self._end_turn(exc)
                return
        self.history = []
        self.messages.extend(messages)
        self.transcript.write({"event": "send",
                               "messages": [m.to_wire() for m in messages]})
        self._run_chat_turn()

    def _initial_bundle(self, line: str) -> PromptBundle:
        bundle = PromptBundle(
            instructions=instructions_text(),
            enriched_stack=EnrichedStack(entries=[], total_frames=0),
            inputs=format_inputs(self.config.argv, self.config.stdin_text),
            error=error_section(self.session.stop),
            history=self.history,
            user_text=line,
        )
        try:
            stack = build_enriched_stack(
                self.session, self.config.workspace_root,
                radius=self.config.radius,
                room=stack_room(bundle, self.config.budget))
        except NotStopped:
            return bundle
        return bundle.replace(enriched_stack=stack)

    def _run_chat_turn(self) -> str:
        final_parts: list[str] = []
        calls_made = 0
        while True:
            text_parts: list[str] = []
            calls: list[tuple[ToolCallRequest, str]] = []
            finish = "stop"
            try:
                for event in self.backend.complete(self.messages, TOOLS):
                    if event.kind == "text":
                        text_parts.append(event.text)
                        self.ui.on_prose(event.text)
                    elif event.kind == "tool_call":
                        calls_made += 1
                        if calls_made > TOOL_LOOP_CAP:
                            output = ("Tool-call limit reached for this "
                                      "turn; the command was not executed.")
                        else:
                            output = self._dispatch(event.tool_call)
                        calls.append((event.tool_call, output))
                    else:
                        finish = event.finish_reason
            except LlmError as exc:
                self._commit(text_parts, calls)
                self._end_turn(exc)
                return "".join(final_parts + text_parts)
            self._commit(text_parts, calls)
            final_parts.extend(text_parts)
            if finish == "tool_calls":
                if calls_made > TOOL_LOOP_CAP:
                    self.ui.on_notice(
                        f"tool-call limit ({TOOL_LOOP_CAP}) "
                        "reached; turn aborted")
                    self.ui.on_turn_end()
                    self.transcript.write({"event": "turn_aborted",
                                           "calls": calls_made})
                    return "".join(final_parts)
                continue
            final = "".join(final_parts)
            if final:
                self.transcript.write({"event": "prose", "text": final})
            self.ui.on_turn_end()
            return final

    def _end_turn(self, exc: DbgChatError) -> None:
        self.ui.on_notice(f"chat turn ended: {exc}")
        self.ui.on_turn_end()
        self.transcript.write({"event": "turn_error", "error": str(exc)})

    def _commit(self, text_parts: list[str],
                calls: list[tuple[ToolCallRequest, str]]) -> None:
        """Append one completed assistant message plus its tool replies."""
        if not text_parts and not calls:
            return
        self.messages.append(ChatMessage(
            ASSISTANT, "".join(text_parts),
            tool_calls=[call for call, _ in calls]))
        for call, output in calls:
            self.messages.append(
                ChatMessage(TOOL, output, tool_call_id=call.id))

    # -- tool dispatch -----------------------------------------------------

    def _dispatch(self, call: ToolCallRequest) -> str:
        exited = None
        try:
            output = self._execute_tool(call)
        except DebuggerExited as exc:
            output, exited = f"error: {exc}", exc
        except DbgChatError as exc:
            output = f"error: {exc}"
        self.transcript.write({
            "event": "tool_call", "id": call.id, "name": call.name,
            "arguments": call.arguments, "output": output,
        })
        if exited is not None:
            raise exited  # logged, not echoed: the session ends with it
        self.ui.on_echo(self._render_call(call), output)
        return output

    def _render_call(self, call: ToolCallRequest) -> str:
        # The backends validate every call first: each argument is text.
        if call.name == "debug":
            return call.arguments["command"]
        if call.name == "code":
            return f"code {call.arguments['loc']}"
        return f"definition {call.arguments['loc']} {call.arguments['symbol']}"

    def _execute_tool(self, call: ToolCallRequest) -> str:
        if call.name == "debug":
            command = call.arguments["command"]
            verdict = sanitize(command, self.policy)
            if not verdict.allowed:
                return f"command not allowed: {verdict.reason}"
            output = self.session.execute_console(command)
            return output if output.strip() else "(no output)"
        path, line = parse_loc(call.arguments["loc"],
                               self.config.workspace_root)
        if call.name == "code":
            return code_window(path, line, self.config.radius)
        return definition(path, line, call.arguments["symbol"], self.session,
                          self.config.radius)
