"""Run one dbgchat session with spans around each module's public functions.

    PERFBENCH_SPANS=spans.json python3 perfbench/traced.py [dbgchat args]

Spans are kept in memory and written to $PERFBENCH_SPANS when the session
ends.  A span is [id, parent id, name, thread, start, end, self seconds,
info]: the parent is the innermost open span on the same thread, and self
time is the span minus its children.  ``parse_mi_line`` runs on the MI
reader thread, so its spans have no parent on the main thread.  Only
wrappers installed from here record anything; the program is unchanged.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time

_started = time.perf_counter()
import dbgchat.cli as cli  # noqa: E402
IMPORT_S = time.perf_counter() - _started

from dbgchat import agent, enrich, llm, mi, prompts, session  # noqa: E402


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.ids = itertools.count(1)
        self.local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        entry = [next(self.ids), stack[-1][0] if stack else None, 0.0]
        stack.append(entry)
        return stack, entry, time.perf_counter()

    def _close(self, stack, entry, name, start, info):
        end = time.perf_counter()
        if callable(info):
            try:
                info = info()
            except Exception:  # a changed signature must not break the session
                info = None
        stack.pop()
        if stack:
            stack[-1][2] += end - start
        self.spans.append([entry[0], entry[1], name,
                           threading.current_thread().name, start, end,
                           end - start - entry[2], info])

    def wrap(self, name, fn, info=None):
        def traced(*args, **kwargs):
            stack, entry, start = self._open()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(stack, entry, name, start,
                            (lambda: info(args, result)) if info else None)
        traced.__wrapped__ = fn
        return traced

    def wrap_stream(self, name, fn):
        """A generator: the span lasts until it is exhausted; info holds the
        seconds to its first item."""
        def traced(*args, **kwargs):
            stack, entry, start = self._open()
            first = None
            try:
                for item in fn(*args, **kwargs):
                    if first is None:
                        first = time.perf_counter() - start
                    yield item
            finally:
                self._close(stack, entry, name, start, first)
        return traced

    def patch(self, owner, attr, name, info=None, stream=False):
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        setattr(owner, attr, self.wrap_stream(name, fn) if stream
                else self.wrap(name, fn, info))


def install(rec: Recorder) -> None:
    """Wrap the public calls of each module where their callers look them up."""
    rec.patch(mi.DebuggerHandle, "send_command", "mi.send_command")
    rec.patch(mi, "parse_mi_line", "mi.parse", info=lambda a, r: len(a[0]) + 1)
    for method in ("run_to_stop", "stack_depth", "backtrace", "frame_variables",
                   "evaluate", "global_variables", "symbol_definition",
                   "execute_console"):
        rec.patch(session.DebugSession, method, f"session.{method}")
    rec.patch(agent, "build_enriched_stack", "enrich.build_enriched_stack",
              info=lambda a, r: r.shown_count if r is not None else 0)
    rec.patch(enrich, "render_value", "values.render_value")
    rec.patch(agent, "make_initial_prompt", "prompts.make_initial_prompt")
    rec.patch(agent, "make_followup_prompt", "prompts.make_followup_prompt")

    def tokens(args, result):
        bundle, budget = args[0], args[1]
        after = result if result is not None else bundle
        return [prompts._estimate_bundle(bundle, budget),
                prompts._estimate_bundle(after, budget)]
    rec.patch(prompts, "truncate_bundle", "prompts.truncate_bundle", info=tokens)
    rec.patch(llm.HttpBackend, "complete", "llm.complete", stream=True)
    rec.patch(agent, "sanitize", "sanitizer.sanitize",
              info=lambda a, r: r is not None and not r.allowed)
    rec.patch(agent, "code_window", "source_nav.code")
    rec.patch(agent, "definition", "source_nav.definition")
    rec.patch(agent.Agent, "handle_input", "agent.handle_input")
    rec.patch(cli, "stop_report", "cli.stop_report")


def main() -> int:
    rec = Recorder()
    install(rec)
    try:
        return cli.main(sys.argv[1:])
    finally:
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as fh:
            json.dump({"import_s": IMPORT_S, "spans": rec.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
