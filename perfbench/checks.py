"""Check one session's outputs against the plan that generated them.

Every check compares what the program produced with the stack
description, the scripts or the source files the benchmark wrote, or with
a property the method must have.  None compares with saved output.  Each
function returns a list of problems; an empty list means the session
passed.
"""

from __future__ import annotations

import re

from gdb_standin import console_answer
from gen import ASSIGNMENTS, DENIED

PROMPT = "(dbgchat) "
BUDGET_TOKENS = 16000  # the program's default prompt budget
RADIUS = 5             # the program's default source radius

FRAME_HEADER = re.compile(r"^(> )?(\S+)\((\d+)\)(\S+)\(\)$")
SKIP_NOTE = re.compile(r"^\[\.\.\. skipping (\d+) hidden frame\(s\)\]$")
OMIT_NOTE = re.compile(
    r"^\[\.\.\. (\d+) frame\(s\) omitted to fit the token budget\]$")
BINDING = re.compile(r"^     ([A-Za-z_]\w*): (.*?) = (.*)$")
WINDOW_LINE = re.compile(r"^(---> |     )\s*(\d+)(?: (.*))?$")


def estimate_tokens(text: str) -> int:
    return (len(text.encode("utf-8")) + 3) // 4


# --------------------------------------------------------------------------
# Enriched stack
# --------------------------------------------------------------------------

def stack_section(user_text: str) -> str:
    head = "The program has this stack trace:\n"
    start = user_text.find(head)
    if start < 0:
        return ""
    start += len(head)
    ends = [i for i in (user_text.find("\n\nInputs:\n", start),
                        user_text.find("\n\nError:\n", start)) if i >= 0]
    return user_text[start:min(ends)] if ends else user_text[start:]


def parse_stack(text: str) -> list[dict]:
    """Entries outermost first: frames with bindings, and count notes."""
    entries: list[dict] = []
    for line in text.split("\n"):
        m = FRAME_HEADER.match(line)
        if m:
            entries.append({"kind": "frame", "marked": bool(m.group(1)),
                            "file": m.group(2), "line": int(m.group(3)),
                            "func": m.group(4), "bindings": {}})
            continue
        note = SKIP_NOTE.match(line) or OMIT_NOTE.match(line)
        if note:
            entries.append({"kind": "note", "count": int(note.group(1))})
            continue
        b = BINDING.match(line)
        if b and entries and entries[-1]["kind"] == "frame":
            entries[-1]["bindings"][b.group(1)] = (b.group(2), b.group(3))
    return entries


def check_value(expect: dict, text: str) -> str:
    """Empty when the rendered text shows the described value."""
    if "scalar" in expect:
        return "" if text == expect["scalar"] else f"{text!r} != {expect['scalar']!r}"
    if "items" in expect:
        want = "[" + ", ".join(expect["items"]) + "]"
        return "" if text == want else f"{text!r} != {want!r}"
    if "head" in expect:
        want = ("[" + ", ".join(expect["head"]) + ", ..., "
                + ", ".join(expect["tail"]) + "]")
        return "" if text == want else f"{text!r} != {want!r}"
    if "pointer" in expect:
        lead = expect["pointer"] + " → "
        if not text.startswith(lead):
            return f"{text!r} does not dereference {expect['pointer']}"
        text = text[len(lead):]
        if "string" in expect and text != expect["string"]:
            return f"{text!r} != {expect['string']!r}"
    for name, value in expect.get("fields", {}).items():
        if not re.search(rf"(^|[{{ ]){re.escape(name)} = {re.escape(value)}[,}}]",
                         text):
            return f"{text!r} lacks {name} = {value}"
    return ""


def check_stack(desc: dict, root: str, user_text: str) -> list[str]:
    text = stack_section(user_text)
    if not text:
        return ["first request has no enriched stack"]
    problems = []
    frames = desc["frames"]
    entries = parse_stack(text)
    level = len(frames) - 1
    user_levels = [i for i, f in enumerate(frames)
                   if f["fullname"].startswith(root)]
    marked = []
    for entry in entries:
        if entry["kind"] == "note":
            level -= entry["count"]
            continue
        if level < 0:
            problems.append("stack shows more frames than the target has")
            break
        want = frames[level]
        if (entry["func"], entry["file"], entry["line"]) != (
                want["func"], want["file"], want["line"]):
            problems.append(f"frame at level {level} shows {entry['func']} "
                            f"{entry['file']}:{entry['line']}, described "
                            f"{want['func']} {want['file']}:{want['line']}")
            break
        if entry["marked"]:
            marked.append(level)
        values = {v["name"]: v for v in want["vars"]}
        values.update((v["name"], v) for v in desc["global_vars"])
        for name, (_, shown) in entry["bindings"].items():
            var = values.get(name)
            if var is None:
                problems.append(f"level {level}: unknown variable {name}")
                continue
            bad = check_value(var["expect"], shown)
            if bad:
                problems.append(f"level {level}: {name}: {bad}")
        level -= 1
    if not problems and level != -1:
        problems.append(f"shown frames and notes cover {len(frames) - 1 - level}"
                        f" frames; the target has {len(frames)}")
    if marked != user_levels[:1]:
        problems.append(f"marked levels {marked}, innermost user frame "
                        f"{user_levels[:1]}")
    return problems


# --------------------------------------------------------------------------
# Tool replies
# --------------------------------------------------------------------------

def check_window(text: str, path: str, line: int) -> str:
    """Numbered lines that equal the file's lines, the target line marked."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read().splitlines()
    rows = text.split("\n")
    want = min(2 * RADIUS, len(source))
    if len(rows) != want:
        return f"{len(rows)} lines, expected {want}"
    numbers = []
    for row in rows:
        m = WINDOW_LINE.match(row)
        if not m:
            return f"bad window line {row!r}"
        num = int(m.group(2))
        numbers.append(num)
        if (m.group(3) or "") != source[num - 1].strip("\n").rstrip():
            return f"line {num} differs from the file"
        if (m.group(1) == "---> ") != (num == line):
            return f"line {num} is marked wrongly"
    if numbers != list(range(numbers[0], numbers[0] + len(numbers))):
        return "line numbers are not consecutive"
    if line not in numbers:
        return f"line {line} is missing"
    return ""


def definition_of(desc: dict, symbol: str) -> tuple[str, int] | None:
    for kind in ("functions", "variables", "types"):
        for entry in desc["symbols"].get(kind, []):
            for line, name, _ in entry["symbols"]:
                if name == symbol:
                    return entry["fullname"], line
    return None


def check_reply(plan: dict, call: dict, reply: str) -> str:
    desc = plan["desc"]
    args = call["args"]
    if call["tool"] == "debug":
        command = args["command"]
        if command in DENIED:
            return ("" if reply.startswith("command not allowed:")
                    else f"{command!r} was not denied")
        ok, answer = console_answer(desc, command)
        first = answer.split("\n", 1)[0] if ok else f"error: {answer}"
        if command in ASSIGNMENTS and reply.startswith("command not allowed:"):
            return ""
        return "" if reply.startswith(first) else (
            f"{command!r}: reply {reply[:80]!r} lacks {first!r}")
    if call["tool"] == "code":
        file, _, line = args["loc"].rpartition(":")
        bad = check_window(reply, f"{plan['root']}/{file}", int(line))
        return f"code {args['loc']}: {bad}" if bad else ""
    found = definition_of(desc, args["symbol"])
    if found is None:
        return f"no described definition for {args['symbol']}"
    head, _, window = reply.partition("\n")
    if head != f"{found[0]}:{found[1]}":
        return f"definition {args['symbol']}: {head!r}"
    bad = check_window(window, found[0], found[1])
    return f"definition {args['symbol']}: {bad}" if bad else ""


def render_call(call: dict) -> str:
    args = call["args"]
    if call["tool"] == "debug":
        return args["command"]
    if call["tool"] == "code":
        return f"code {args['loc']}"
    return f"definition {args['loc']} {args['symbol']}"


def split_turn(text: str) -> tuple[list[str], str]:
    """Echoed tool calls and the prose that follows them."""
    lines = text.split("\n")
    echoes = []
    i = 0
    while i < len(lines) and lines[i].startswith("→ "):
        echoes.append(lines[i][2:])
        i += 1
        while i < len(lines) and lines[i].startswith("   "):
            i += 1
    return echoes, "\n".join(lines[i:])


# --------------------------------------------------------------------------
# Whole session
# --------------------------------------------------------------------------

def check_session(plan: dict, result: dict) -> list[str]:
    """All checks for one session; result comes from run.run_session."""
    problems = []
    if result.get("error"):
        return [result["error"]]
    if result["exit_code"] != 0:
        problems.append(f"exit code {result['exit_code']}")
    if "Traceback" in result["stderr"] or "Traceback" in result["stdout"]:
        problems.append("traceback in the output")

    report = result["launch_text"].split("\n")
    stop = plan["stop"]
    if not report or stop["text"] not in report[0]:
        problems.append(f"stop report {report[:1]} lacks {stop['text']!r}")
    if len(report) < 2 or report[1] != f"  at {stop['loc']} in {stop['func']}()":
        problems.append(f"stop report {report[1:2]} does not name "
                        f"{stop['func']} at {stop['loc']}")

    records = result["requests"]
    for record in records:
        if record.get("pairing"):
            problems.append(f"tool pairing: {record['pairing']}")
        if record.get("error"):
            problems.append(f"provider: {record['error']}")
        if record.get("path") != "/v1/chat/completions":
            problems.append(f"request to {record.get('path')}")
    expected_requests = sum(len(s.get("completions", ())) for s in plan["steps"])
    if len(records) != expected_requests:
        return problems + [f"{len(records)} requests, expected "
                           f"{expected_requests}"]

    index = 0
    first_chat = True
    for step, turn in zip(plan["steps"], result["turns"]):
        line = step["line"]
        if not turn["text"].startswith(line + "\n"):
            problems.append(f"{line!r} was not echoed")
            continue
        body = turn["text"][len(line) + 1:]
        if "completions" not in step:
            ok, answer = console_answer(plan["desc"], line)
            want = answer if ok else f"error: {answer}"
            if want and not want.endswith("\n"):
                want += "\n"
            if body != want:
                problems.append(f"{line!r}: output differs from the answer")
            continue

        tail = records[index]["tail"]
        if first_chat:
            roles = [m["role"] for m in tail]
            if roles != ["system", "user"]:
                problems.append(f"first request starts with roles {roles}")
            else:
                tokens = sum(estimate_tokens(m["content"]) for m in tail)
                if tokens > BUDGET_TOKENS:
                    problems.append(f"first request estimate {tokens} tokens "
                                    f"exceeds the budget {BUDGET_TOKENS}")
                problems += check_stack(plan["desc"], plan["root"],
                                        tail[1]["content"])
            first_chat = False
        if not tail or not tail[-1]["content"].endswith(line):
            problems.append(f"request for {line!r} does not carry it")

        calls_seen = []
        for j, completion in enumerate(step["completions"]):
            calls = [item for item in completion if "tool" in item]
            if not calls:
                continue
            calls_seen += calls
            replies = records[index + j + 1]["tail"]
            if [m["role"] for m in replies] != ["tool"] * len(calls):
                problems.append(f"{line!r} round {j}: {len(replies)} "
                                f"messages answer {len(calls)} calls")
                continue
            for call, reply in zip(calls, replies):
                bad = check_reply(plan, call, reply["content"])
                if bad:
                    problems.append(bad)
        index += len(step["completions"])

        echoes, prose = split_turn(body)
        if echoes != [render_call(c) for c in calls_seen]:
            problems.append(f"{line!r}: echoed {echoes}")
        text = "".join(item["text"] for item in step["completions"][-1]
                       if "text" in item)
        if prose != text + ("" if text.endswith("\n") else "\n"):
            problems.append(f"{line!r}: prose differs from the script")

    reached = set(result["standin"]["console"])
    for command in DENIED:
        if command in reached:
            problems.append(f"denied command {command!r} reached the debugger")
    return problems
