"""The command-processing loop: route input, run tool calls, stream prose.

User input is either a debugger command (executed directly, recorded in
the session history) or free text (sent to the model).  During a chat
turn the model may call the debug/code/definition tools, TOOL_LOOP_CAP
times at most, and its first answer that calls none ends the turn; every
executed call is echoed to the user once and returned to the model once.
The "filename:lineno" of a code or definition call is parsed here, a
relative filename taken from the workspace root and a file outside that
root refused.  The history accumulates between sends and is cleared
exactly when a prompt goes out.  A debugger answer that fails or is
malformed while the first prompt is built ends that chat turn only, as a
model failure does, and so does a first prompt that cannot fit the token
budget.  A debugger that has exited ends the session, whoever ran the
command; that command goes to the log with its error, but not to the
screen.
"""

from __future__ import annotations

import json
import os

from .enrich import DEFAULT_RADIUS, EnrichedStack, build_enriched_stack, \
    definition, source_window as code_window
from .errors import BudgetImpossible, DbgChatError, DebuggerExited, \
    EvaluationError, LlmError, NotStopped, ProtocolError, SourceError, \
    SourceUnavailable
from .llm import ASSISTANT, TOOL, ChatMessage, ToolCallRequest, ToolDef
from .prompts import (
    DEFAULT_MAX_TOKENS,
    PromptBundle,
    error_section,
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
        raise SourceError(f"expected filename:lineno, got {text!r}")
    try:
        line = int(lineno)
    except ValueError:
        raise SourceError(f"line number is not an integer in {text!r}")
    if line < 1:
        raise SourceError(f"line number must be positive in {text!r}")
    path = os.path.join(root, file)
    try:
        base, full = os.path.realpath(root), os.path.realpath(path)
    except ValueError:  # raised for a NUL or a lone surrogate
        raise SourceError(f"no file can be named as in {text!r}")
    if full != base and not full.startswith(os.path.join(base, "")):
        raise SourceUnavailable(
            f"{file} is outside the workspace root {os.path.abspath(root)}")
    return path, line


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


class Agent:
    """Wires one debugger session, one model backend, and one policy.

    ``root`` is the workspace root; ``inputs`` is the first prompt's Inputs
    section, ``budget`` its token budget and ``radius`` the source lines
    shown around a location.  ``ui``, a cli.TerminalUi in use, has five
    callbacks: ``on_prose(chunk)``, ``on_echo(command, output)``,
    ``on_debugger(command, output)``, ``on_notice(text)``, ``on_turn_end()``.
    ``history`` holds the user's (command, output) pairs since the last
    send, ``messages`` the conversation, empty until the first chat line.
    """

    def __init__(self, session, backend, policy: SanitizerPolicy, ui,
                 root: str, inputs: str = "", budget: int = DEFAULT_MAX_TOKENS,
                 radius: int = DEFAULT_RADIUS,
                 transcript: Transcript | None = None):
        self.session = session
        self.backend = backend
        self.policy = policy
        self.ui = ui
        self.root = root
        self.inputs = inputs
        self.budget = budget
        self.radius = radius
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
        output = self._logged(lambda: self.session.execute_console(line),
                              {"event": "debugger", "command": line})
        self.ui.on_debugger(line, output)
        self.history.append((line, output))

    # -- chat path ---------------------------------------------------------

    def _chat(self, line: str) -> None:
        if self.messages:
            messages = make_followup_prompt(self.history, line)
        else:
            try:
                messages = make_initial_prompt(self._initial_bundle(line),
                                               self.budget)
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
            enriched_stack=EnrichedStack(entries=[]),
            inputs=self.inputs,
            error=error_section(self.session.stop),
            history=self.history,
            user_text=line,
        )
        try:
            stack = build_enriched_stack(self.session, self.root,
                                         radius=self.radius,
                                         room=stack_room(bundle, self.budget))
        except NotStopped:
            return bundle
        return bundle.replace(enriched_stack=stack)

    def _run_chat_turn(self) -> None:
        """Ask the model again while its last answer called a tool."""
        final_parts: list[str] = []
        calls_made = 0
        while True:
            text_parts: list[str] = []
            calls: list[tuple[ToolCallRequest, str]] = []
            try:
                for item in self.backend.complete(self.messages, TOOLS):
                    if isinstance(item, str):
                        text_parts.append(item)
                        self.ui.on_prose(item)
                        continue
                    calls_made += 1
                    if calls_made > TOOL_LOOP_CAP:
                        output = ("Tool-call limit reached for this "
                                  "turn; the command was not executed.")
                    else:
                        output = self._dispatch(item)
                    calls.append((item, output))
            except LlmError as exc:
                self._commit(text_parts, calls)
                self._end_turn(exc)
                return
            self._commit(text_parts, calls)
            final_parts.extend(text_parts)
            if not calls:
                break
            if calls_made > TOOL_LOOP_CAP:
                self.ui.on_notice(
                    f"tool-call limit ({TOOL_LOOP_CAP}) reached; turn aborted")
                self.ui.on_turn_end()
                self.transcript.write({"event": "turn_aborted",
                                       "calls": calls_made})
                return
        final = "".join(final_parts)
        if final:
            self.transcript.write({"event": "prose", "text": final})
        self.ui.on_turn_end()

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
        output = self._logged(lambda: self._execute_tool(call), {
            "event": "tool_call", "id": call.id, "name": call.name,
            "arguments": call.arguments})
        self.ui.on_echo(self._render_call(call), output)
        return output

    def _logged(self, run, event: dict) -> str:
        """run()'s output, or "error: ..." if it fails, logged in the event."""
        try:
            output = run()
        except DebuggerExited as exc:
            self.transcript.write({**event, "output": f"error: {exc}"})
            raise  # logged, not shown: the session ends with it
        except DbgChatError as exc:
            output = f"error: {exc}"
        self.transcript.write({**event, "output": output})
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
        path, line = parse_loc(call.arguments["loc"], self.root)
        if call.name == "code":
            return code_window(path, line, self.radius)
        return definition(path, line, call.arguments["symbol"], self.session,
                          self.radius)
