"""Command-line entry point: flags, startup, the interactive loop.

Importing this module, which runs before the debugger is spawned, loads
the package and the standard library it needs: ``argparse``, ``json``,
``re``, ``subprocess`` with ``pty`` and ``select``, ``enum`` and
``functools``.  The package defines plain classes and no typing
constructs, so ``dataclasses``, ``inspect`` (with ``ast``, ``dis`` and
``tokenize``) and ``typing`` stay unloaded, and gdb is left to
``subprocess`` to find on PATH, so ``shutil`` (with ``bz2``, ``lzma``
and ``fnmatch``) does too.

Startup runs in this order:

1. Checks that need no child: the --stdin-file contents, the sanitizer
   policy, the --script file or the API key and --base-url, the --log
   file.
2. The debugger is spawned on the target and left to boot.
3. Meanwhile the HTTP backend is built.  It loads ``socket``, and for an
   ``https:`` URL also ``ssl`` and the TLS context that all its requests
   share, which reads the system CA store.  Importing this module loads
   neither, and --script sessions skip this step.
4. The debugger's first prompt and its tty setup are read, and the target
   runs to its first stop.
5. A short stop report is printed.  Every object alive then, the
   imported modules' included, is frozen out of the garbage collector's
   generations with ``gc.freeze``, so that no collection in the session
   walks them, and the read-eval loop starts.  The session's end
   unfreezes them.

Lines are routed to the debugger or to the model by the agent; EOF or
"quit" ends the session, the debugger child and the provider connection.
"""

from __future__ import annotations

import argparse
import gc
import io
import os
import re
import sys

from . import PROMPT, __version__
from .agent import Agent, Transcript
from .enrich import DEFAULT_RADIUS, user_frame_test
from .errors import DbgChatError, DebuggerError, LlmError
from .llm import _BASE_URL, HttpBackend, ScriptedBackend, _proxy_setting
from .prompts import DEFAULT_MAX_TOKENS, format_inputs
from .sanitizer import (
    SanitizerPolicy,
    load_whitelist,
    native_strict,
    unsafe_policy,
    whitelist,
)
from .session import DebugSession, Frame


#: The target's terminal is in canonical mode, which cuts longer lines.
MAX_STDIN_LINE = 4095
#: Characters that mode edits (DEL, ^U, ^W, ^D, ...) or turns into signals
#: (^C, ^\, ^Z): every one below U+0020 but tab and newline, and DEL.
_TTY_CONTROL = re.compile(r"[\x00-\x08\x0b-\x1f\x7f]")

#: What an HTTP header line cannot carry: control characters, which
#: could end the line early, and anything outside Latin-1.
_NOT_HEADER_TEXT = re.compile(r"[^\x20-\x7e\xa0-\xff]")
#: What --base-url may not hold besides: whitespace, which would split the
#: request line, and a fragment, which a request does not send.
_NOT_URL_TEXT = re.compile(r"[\s#]")


def positive_int(text: str) -> int:
    """The argparse type of --budget and --radius."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    # add_argument builds a formatter only to check each metavar; one of a
    # fixed width spares it the shutil import that reads the terminal's.
    parser = argparse.ArgumentParser(
        prog="dbgchat",
        description="Debug a crashing program with a chat assistant "
                    "driving gdb.",
        epilog='Everything after "--" is passed to the target program.',
        formatter_class=lambda prog: argparse.HelpFormatter(prog, width=80))
    parser.add_argument("target", help="executable to debug")
    parser.add_argument("target_args", nargs="*", metavar="arg",
                        help="arguments for the target")
    parser.add_argument("--model", default="gpt-4o",
                        help="model name sent to the provider")
    parser.add_argument("--base-url", default="https://api.openai.com/v1",
                        help="chat-completions endpoint root")
    parser.add_argument("--key-env", default="OPENAI_API_KEY",
                        metavar="NAME",
                        help="environment variable holding the API key")
    parser.add_argument("--root", default=os.curdir, metavar="DIR",
                        help="directory whose sources count as user code "
                             "(default: current directory)")
    parser.add_argument("--unsafe", action="store_true",
                        help="run model commands without sanitizing")
    parser.add_argument("--whitelist", metavar="FILE",
                        help="also allow calls to functions listed in FILE, "
                             "one name per line")
    parser.add_argument("--script", metavar="FILE",
                        help="replay model turns from FILE instead of "
                             "calling the network")
    parser.add_argument("--log", metavar="FILE",
                        help="write a structured transcript to FILE")
    parser.add_argument("--budget", type=positive_int,
                        default=DEFAULT_MAX_TOKENS, metavar="TOKENS",
                        help="prompt token budget (default %(default)s)")
    parser.add_argument("--radius", type=positive_int, default=DEFAULT_RADIUS,
                        metavar="LINES",
                        help="source lines shown around a location")
    parser.add_argument("--stdin-file", metavar="FILE",
                        help="feed FILE to the target's standard input")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.formatter_class = argparse.HelpFormatter  # for help and errors
    return parser


class TerminalUi:
    """Prose streams flush-left; tool echoes are arrow-marked and indented."""

    def __init__(self, out):
        self.out = out
        self._line_open = False

    def _write(self, text: str) -> None:
        self.out.write(text)
        self.out.flush()

    def _break_line(self) -> None:
        if self._line_open:
            self._write("\n")
            self._line_open = False

    def on_prose(self, chunk: str) -> None:
        if not chunk:
            return
        self._write(chunk)
        self._line_open = not chunk.endswith("\n")

    def on_echo(self, command: str, output: str) -> None:
        self._break_line()
        block = "".join(f"   {line}\n" for line in output.splitlines())
        self._write(f"→ {command}\n{block}")

    def on_debugger(self, command: str, output: str) -> None:
        if output and not output.endswith("\n"):
            output += "\n"
        self._write(output)

    def on_notice(self, text: str) -> None:
        self._break_line()
        self._write(f"[{text}]\n")

    def on_turn_end(self) -> None:
        self._break_line()


def _innermost_user_frame(session: DebugSession, root: str) -> Frame | None:
    is_user_frame = user_frame_test(root)
    try:
        for frame in session.backtrace():
            if is_user_frame(frame):
                return frame
    except DebuggerError:
        return None
    return None


def stop_report(session: DebugSession, root: str) -> str:
    stop = session.stop
    if stop is None:
        return "The program did not stop."
    lines = [f"The program {stop.describe()}."]
    frame = _innermost_user_frame(session, root)
    if frame is not None:
        lines.append(f"  at {frame.location()} in {frame.func}()")
    return "\n".join(lines)


def run_repl(agent: Agent, in_stream, out) -> None:
    echo_input = not in_stream.isatty()
    while True:
        out.write(PROMPT)
        out.flush()
        try:
            line = in_stream.readline()
        except KeyboardInterrupt:
            out.write("\n")
            continue
        if not line:
            out.write("\n")
            return
        line = line.rstrip("\n")
        if echo_input:
            out.write(line + "\n")
        if line.strip() in ("quit", "exit"):
            return
        try:
            agent.handle_input(line)
        except KeyboardInterrupt:
            out.write("\n[turn interrupted]\n")


def _build_policy(ns: argparse.Namespace) -> SanitizerPolicy:
    if ns.unsafe:
        return unsafe_policy()
    if ns.whitelist:
        return whitelist(load_whitelist(ns.whitelist))
    return native_strict()


def _script_backend(ns: argparse.Namespace) -> ScriptedBackend | None:
    """The replay backend, or None after checking that the API key is set
    and that it and --base-url, without whitespace or a fragment, fit in
    an HTTP request's head, and that --base-url and the proxy variables,
    read as HttpBackend reads them, name an http: or https: host and a
    port that can be reached."""
    if ns.script:
        return ScriptedBackend(ns.script)
    key = os.environ.get(ns.key_env)
    if not key:
        raise LlmError(
            f"no API key: set the {ns.key_env} environment variable "
            "or pass --script")
    if _NOT_HEADER_TEXT.search(key):
        # The key itself is never quoted.
        raise LlmError(
            f"the API key in {ns.key_env} holds a control character or a "
            "character outside Latin-1, which an HTTP header cannot carry")
    if _NOT_HEADER_TEXT.search(ns.base_url):
        raise LlmError(
            f"--base-url {ns.base_url!r} holds a control character or a "
            "character outside Latin-1, which an HTTP request cannot carry")
    if _NOT_URL_TEXT.search(ns.base_url):
        raise LlmError(
            f"--base-url {ns.base_url!r} holds whitespace or a fragment "
            "('#'), which a request line cannot carry")
    if not _BASE_URL.fullmatch(ns.base_url):
        raise LlmError(
            f"--base-url {ns.base_url!r} is not an http: or https: URL "
            "naming a host and, if any, a port up to 65535")
    for scheme in ("https", "http"):
        name, proxy = _proxy_setting(scheme)
        if proxy and not _BASE_URL.fullmatch(proxy):
            # The proxy itself is never quoted: it may hold a password.
            raise LlmError(
                f"the proxy in {name} is not an http: or https: URL naming "
                "a host and, if any, a port up to 65535")
    return None


def _read_stdin_file(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    for number, line in enumerate(text.split("\n"), start=1):
        if len(line.encode("utf-8")) > MAX_STDIN_LINE:
            raise ValueError(
                f"{path}: line {number} is longer than {MAX_STDIN_LINE} "
                "bytes, which the target's terminal would cut")
        bad = _TTY_CONTROL.search(line)
        if bad:
            raise ValueError(
                f"{path}: line {number} holds the control character "
                f"{bad.group()!r}, which the target's terminal would edit "
                "or act on")
    return text


def _run(ns: argparse.Namespace, in_stream, out) -> int:
    # Configuration problems must surface before a debugger child exists.
    stdin_text = _read_stdin_file(ns.stdin_file) if ns.stdin_file else None
    root = os.path.abspath(ns.root)
    policy = _build_policy(ns)
    backend = _script_backend(ns)
    transcript = Transcript(ns.log) if ns.log else None

    session = None
    try:
        # The debugger boots while the HTTP backend loads its modules and
        # builds its TLS context; its first prompt is read in run_to_stop,
        # so the two take the longer one's time, not their sum.
        session = DebugSession(ns.target, ns.target_args)
        if backend is None:
            backend = HttpBackend(ns.base_url, ns.model,
                                  os.environ[ns.key_env])
        session.run_to_stop(stdin_text)
        out.write(stop_report(session, root) + "\n")
        agent = Agent(session, backend, policy, TerminalUi(out), root,
                      format_inputs(ns.target_args, stdin_text), ns.budget,
                      ns.radius, transcript)
        gc.freeze()
        run_repl(agent, in_stream, out)
    except DbgChatError as exc:
        if transcript is not None:
            transcript.write({"event": "session_error", "error": str(exc)})
        raise
    finally:
        gc.unfreeze()
        if isinstance(backend, HttpBackend):
            backend.close()
        if transcript is not None:
            transcript.close()
        if session is not None:
            session.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.unsafe and ns.whitelist:
        parser.error("--unsafe and --whitelist are mutually exclusive")
    # A typed byte that is not UTF-8 costs its own character, not the
    # session.
    if isinstance(sys.stdin, io.TextIOWrapper):
        sys.stdin.reconfigure(errors="replace")
    try:
        return _run(ns, sys.stdin, sys.stdout)
    except (DbgChatError, OSError, ValueError) as exc:
        print(f"dbgchat: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # at startup; run_repl handles its own
        print("dbgchat: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
