"""A stand-in for gdb that speaks MI on stdio from a stack description.

dbgchat starts it as ``gdb --nx --quiet --interpreter=mi --args TARGET ...``
with only PATH and HOME in its environment, so everything it knows comes
from TARGET, a JSON stack description written by ``gen.py``:

    frames    innermost first: func, file, fullname, line, addr, from, vars
    globals   name -> {type, value}
    symbols   per kind (functions, variables, types), a list of files with
              their [line, name, type] symbols
    symbols_mi  the full -symbol-info-variables answer, serialized once
    console   console command -> output text
    stop      the *stopped fields; target_output goes to the inferior tty
    log       where the per-session record is written at exit

Answers depend on the command alone, never on how many commands came
before, so a program that drops or reorders commands still gets the same
answers.  Value-history numbers are therefore always ``$1``.

The stand-in counts the commands it reads and the bytes it writes, keeps
every console command, and writes that record with its own CPU time at
exit.  It imports nothing from dbgchat.
"""

from __future__ import annotations

import json
import os
import re
import resource
import sys

PROMPT = "(gdb) \n"


def escape(text: str) -> str:
    """Serialize text as an MI c-string."""
    out = ['"']
    for ch in text:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ord(ch) < 0x20:
            out.append("\\%03o" % ord(ch))
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def mi_tuple(pairs) -> str:
    return "{" + ",".join(f"{k}={escape(str(v))}" for k, v in pairs) + "}"


def split_args(text: str) -> list[str]:
    """Split an MI argument string; double-quoted c-strings are decoded."""
    args: list[str] = []
    i, n = 0, len(text)
    while i < n:
        if text[i] == " ":
            i += 1
            continue
        if text[i] == '"':
            i += 1
            buf = []
            while i < n and text[i] != '"':
                if text[i] == "\\" and i + 1 < n:
                    nxt = text[i + 1]
                    buf.append({"n": "\n", "t": "\t"}.get(nxt, nxt))
                    i += 2
                    continue
                buf.append(text[i])
                i += 1
            args.append("".join(buf))
            i += 1
            continue
        j = text.find(" ", i)
        j = n if j < 0 else j
        args.append(text[i:j])
        i = j
    return args


# --------------------------------------------------------------------------
# Answers: pure functions of (description, command)
# --------------------------------------------------------------------------

def frame_vars(desc: dict, level: int) -> list[dict]:
    frames = desc["frames"]
    if not 0 <= level < len(frames):
        return []
    out = []
    corrupt = desc.get("corrupt", {}).get("value")
    for var in frames[level]["vars"]:
        if corrupt and corrupt[0] == level and corrupt[1] == var["name"]:
            var = dict(var, value=corrupt[2])
        out.append(var)
    return out


def visible_frames(desc: dict) -> list[dict]:
    """The frames as answered; a test may drop one without counting it."""
    frames = desc["frames"]
    drop = desc.get("corrupt", {}).get("drop_frame")
    if drop is None:
        return frames
    return frames[:drop] + frames[drop + 1:]


def lookup(desc: dict, expr: str, level: int) -> str | None:
    expr = expr.strip()
    deref = expr.startswith("*")
    name = expr[1:] if deref else expr
    for var in frame_vars(desc, level):
        if var["name"] == name:
            if deref:
                return var.get("deref")
            return var["value"]
    glob = desc["globals"].get(name)
    if glob is not None and not deref:
        return glob["value"]
    return None


def frame_mi(frame: dict, level: int, with_args: bool = False) -> str:
    pairs = [("level", level), ("addr", frame["addr"]), ("func", frame["func"])]
    head = "{" + ",".join(f"{k}={escape(str(v))}" for k, v in pairs)
    if with_args:
        args = [v for v in frame["vars"] if v.get("arg")]
        head += ",args=[" + ",".join(
            mi_tuple([("name", v["name"]), ("value", v.get("value", "..."))])
            for v in args) + "]"
    rest = []
    if frame.get("file"):
        rest += [("file", frame["file"]), ("fullname", frame["fullname"]),
                 ("line", frame["line"])]
    if frame.get("from"):
        rest.append(("from", frame["from"]))
    rest.append(("arch", "i386:x86-64"))
    return head + "," + ",".join(f"{k}={escape(str(v))}" for k, v in rest) + "}"


def backtrace_text(desc: dict) -> str:
    lines = []
    for level, frame in enumerate(visible_frames(desc)):
        args = ", ".join(f"{v['name']}={v.get('value', '...')}"
                         for v in frame["vars"] if v.get("arg"))
        where = (f" at {frame['file']}:{frame['line']}" if frame.get("file")
                 else f" from {frame.get('from', '??')}")
        lines.append(f"#{level}  {frame['addr']} in {frame['func']} "
                     f"({args}){where}\n")
    return "".join(lines)


def console_answer(desc: dict, command: str) -> tuple[bool, str]:
    """(ok, text) for one console command: console text or error message."""
    command = command.strip()
    table = desc.get("console", {})
    if command in table:
        return True, table[command]
    word, _, rest = command.partition(" ")
    base = word.split("/", 1)[0]
    if base in ("bt", "backtrace", "where") and not rest:
        return True, backtrace_text(desc)
    if base in ("p", "print", "output") and rest:
        value = lookup(desc, rest, 0)
        if value is None:
            return False, f'No symbol "{rest.strip()}" in current context.'
        return True, f"$1 = {value}\n"
    if command in ("info locals", "info args"):
        want_args = command == "info args"
        vars_ = [v for v in frame_vars(desc, 0) if bool(v.get("arg")) == want_args]
        return True, "".join(f"{v['name']} = {v['value']}\n" for v in vars_)
    if base in ("ptype", "whatis") and rest:
        for var in frame_vars(desc, 0):
            if var["name"] == rest.strip():
                return True, f"type = {var['type']}\n"
        glob = desc["globals"].get(rest.strip())
        if glob is not None:
            return True, f"type = {glob['type']}\n"
        return False, f'No symbol "{rest.strip()}" in current context.'
    return False, f'Undefined command: "{word}".  Try "help".'


def symbols_record(files: list[dict], pattern: str | None = None) -> str:
    """The -symbol-info-* answer for files of [line, name, type] symbols."""
    rx = re.compile(pattern) if pattern else None
    entries = []
    for entry in files:
        syms = [mi_tuple([("line", line), ("name", name), ("type", type_),
                          ("description", f"{type_} {name};")])
                for line, name, type_ in entry["symbols"]
                if rx is None or rx.search(name)]
        if syms:
            entries.append(
                "{" + f"filename={escape(entry['filename'])},"
                f"fullname={escape(entry['fullname'])},"
                f"symbols=[{','.join(syms)}]" + "}")
    return "symbols={debug=[" + ",".join(entries) + "]}"


def symbol_query(desc: dict, kind: str, pattern: str | None) -> str:
    if kind == "variables" and pattern is None:
        return desc["symbols_mi"]
    return symbols_record(desc["symbols"].get(kind, []), pattern)


class StandIn:
    def __init__(self, desc: dict, out):
        self.desc = desc
        self.out = out
        self.bytes_out = 0
        self.bytes_in = 0
        self.commands = 0
        self.console: list[str] = []
        self.tty_fd = -1

    def write(self, text: str) -> None:
        data = text.encode("utf-8")
        self.bytes_out += len(data)
        self.out.write(data)

    def flush(self) -> None:
        self.out.flush()

    def result(self, token: str, klass: str, body: str = "") -> None:
        self.write(f"{token}^{klass}{',' + body if body else ''}\n{PROMPT}")

    def error(self, token: str, msg: str) -> None:
        self.result(token, "error", f"msg={escape(msg)}")

    def banner(self) -> None:
        self.write('=thread-group-added,id="i1"\n')
        self.write("~" + escape(f"Reading symbols from {self.desc['exec_name']}...\n")
                   + "\n" + PROMPT)
        self.flush()

    def handle(self, line: str) -> bool:
        """Answer one command line; False once the session should end."""
        self.commands += 1
        self.bytes_in += len(line.encode("utf-8")) + 1
        m = re.match(r"(\d*)(\S+)\s*(.*)$", line)
        if not m:
            self.error("", "empty command")
            return True
        token, name, rest = m.groups()
        args = split_args(rest)
        method = getattr(self, "cmd_" + name.lstrip("-").replace("-", "_"), None)
        if method is None:
            self.error(token, f'Undefined MI command: {name.lstrip("-")}')
            return True
        return method(token, args) is not False

    # -- commands ---------------------------------------------------------

    def cmd_inferior_tty_set(self, token, args):
        try:
            self.tty_fd = os.open(args[0], os.O_WRONLY | os.O_NOCTTY)
        except (OSError, IndexError) as exc:
            self.error(token, f"cannot open tty: {exc}")
            return
        self.result(token, "done")

    def cmd_exec_run(self, token, args):
        stop = self.desc["stop"]
        self.write('=thread-group-started,id="i1",pid="4242"\n'
                   '=thread-created,id="1",group-id="i1"\n')
        self.result(token, "running")
        self.write('*running,thread-id="all"\n' + PROMPT)
        self.flush()
        text = self.desc.get("target_output", "")
        if text and self.tty_fd >= 0:
            os.write(self.tty_fd, text.encode("utf-8"))
        frames = visible_frames(self.desc)
        self.write("~" + escape("\nProgram received signal "
                                f"{stop['signal-name']}, {stop['signal-meaning']}.\n")
                   + "\n")
        fields = ",".join(f"{k}={escape(v)}" for k, v in stop.items())
        self.write(f"*stopped,{fields},frame={frame_mi(frames[0], 0, True)},"
                   'thread-id="1",stopped-threads="all",core="0"\n' + PROMPT)

    def cmd_stack_info_depth(self, token, args):
        depth = len(visible_frames(self.desc))
        if args:
            depth = min(depth, int(args[0]))
        self.result(token, "done", f'depth="{depth}"')

    def cmd_stack_list_frames(self, token, args):
        frames = visible_frames(self.desc)
        lo, hi = (int(args[0]), int(args[1])) if len(args) >= 2 else (0, len(frames) - 1)
        body = ",".join("frame=" + frame_mi(frames[i], i)
                        for i in range(lo, min(hi, len(frames) - 1) + 1))
        self.result(token, "done", f"stack=[{body}]")

    def cmd_stack_list_variables(self, token, args):
        level = int(args[args.index("--frame") + 1]) if "--frame" in args else 0
        # print-values is the last argument: --all-values or 1 print
        # aggregates too; --simple-values or 2 leave them out.
        all_values = bool(args) and args[-1] in ("--all-values", "1")
        if not 0 <= level < len(self.desc["frames"]):
            self.error(token, f'Frame at level {level} not found.')
            return
        items = []
        for var in frame_vars(self.desc, level):
            pairs = [("name", var["name"])]
            if var.get("arg"):
                pairs.append(("arg", "1"))
            pairs.append(("type", var["type"]))
            if all_values or not var.get("aggregate"):
                pairs.append(("value", var["value"]))
            items.append(mi_tuple(pairs))
        self.result(token, "done", f"variables=[{','.join(items)}]")

    def cmd_data_evaluate_expression(self, token, args):
        level = int(args[args.index("--frame") + 1]) if "--frame" in args else 0
        expr = args[-1] if args else ""
        value = lookup(self.desc, expr, level)
        if value is None:
            self.error(token, f'No symbol "{expr}" in current context.')
            return
        self.result(token, "done", f"value={escape(value)}")

    def _symbols(self, token, args, kind):
        pattern = args[args.index("--name") + 1] if "--name" in args else None
        self.result(token, "done", symbol_query(self.desc, kind, pattern))

    def cmd_symbol_info_variables(self, token, args):
        self._symbols(token, args, "variables")

    def cmd_symbol_info_functions(self, token, args):
        self._symbols(token, args, "functions")

    def cmd_symbol_info_types(self, token, args):
        self._symbols(token, args, "types")

    def cmd_interpreter_exec(self, token, args):
        if len(args) < 2 or args[0] != "console":
            self.error(token, "-interpreter-exec: Usage: -interpreter-exec "
                              "interp command")
            return
        command = args[1]
        self.console.append(command)
        ok, text = console_answer(self.desc, command)
        if not ok:
            self.error(token, text)
            return
        self.write("".join("~" + escape(chunk) + "\n"
                           for chunk in text.splitlines(keepends=True)))
        self.result(token, "done")

    def cmd_gdb_exit(self, token, args):
        self.write(f"{token}^exit\n")
        return False

    # -- session record ---------------------------------------------------

    def record(self) -> dict:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return {"commands": self.commands, "bytes_out": self.bytes_out,
                "bytes_in": self.bytes_in, "console": self.console,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "maxrss_kb": usage.ru_maxrss}


def main(argv: list[str]) -> int:
    if "--args" not in argv or argv.index("--args") + 1 >= len(argv):
        print("usage: gdb --interpreter=mi --args TARGET", file=sys.stderr)
        return 2
    with open(argv[argv.index("--args") + 1], encoding="utf-8") as fh:
        desc = json.load(fh)
    stand_in = StandIn(desc, sys.stdout.buffer)
    stand_in.banner()
    try:
        for raw in sys.stdin.buffer:
            line = raw.decode("utf-8", "replace").rstrip("\r\n")
            if not line.strip():
                continue
            keep_going = stand_in.handle(line)
            stand_in.flush()
            if not keep_going:
                break
    finally:
        tmp = desc["log"] + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(stand_in.record(), fh)
        os.replace(tmp, desc["log"])
        if stand_in.tty_fd >= 0:
            os.close(stand_in.tty_fd)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
