"""Generate each workload's inputs from a seed: sources, stacks, scripts.

A workload is one round of session plans.  A plan names the target (a JSON
stack description that the gdb stand-in reads), the source root, the
target's arguments, and the steps a user types: debugger commands, and chat
lines with the completions the provider stand-in streams back for them.

The seed picks every number the program shows (variable values, addresses,
dump contents).  Each number keeps its width whatever the seed, so request
and MI byte counts do not depend on the seed.  Every variable carries an
``expect`` entry saying how its value must appear in the enriched stack.
"""

from __future__ import annotations

import json
import os
import random

from gdb_standin import symbols_record

QUESTION = "Why did the program stop here?"

# Tool calls the read-only promise denies and the sanitizer denies today.
DENIED = ["call reset_ledger()", "run", 'p system("id")', "continue", "kill",
          "set var total_runs = 0", "shell ls"]
# Assignments the README promises to deny; the sanitizer lets them through.
ASSIGNMENTS = ["p total_runs = 0", "p i++", "p $pc = 0"]


class Values:
    """Seeded numbers of a fixed width."""

    def __init__(self, seed: int, salt: str):
        self.rng = random.Random(f"{seed}:{salt}")

    def num(self, digits: int) -> str:
        return str(self.rng.randint(10 ** (digits - 1), 10 ** digits - 1))

    def nums(self, count: int, digits: int) -> list[str]:
        return [self.num(digits) for _ in range(count)]

    def addr(self, prefix: str = "0x5555") -> str:
        return prefix + "%08x" % self.rng.randint(0x10000000, 0xffffffff)


# --------------------------------------------------------------------------
# Variables: MI value text plus what the enriched stack must show
# --------------------------------------------------------------------------

def scalar(name, type_, value, arg=False):
    return {"name": name, "type": type_, "value": value, "arg": arg,
            "expect": {"scalar": value}}


def array(name, elem_type, items, arg=False):
    expect = ({"items": items} if len(items) <= 6
              else {"head": items[:3], "tail": items[-3:]})
    return {"name": name, "type": f"{elem_type} [{len(items)}]",
            "value": "{" + ", ".join(items) + "}", "arg": arg,
            "aggregate": True, "expect": expect}


def struct(name, type_, fields, arg=False):
    value = "{" + ", ".join(f"{k} = {v}" for k, v in fields) + "}"
    return {"name": name, "type": type_, "value": value, "arg": arg,
            "aggregate": True,
            "expect": {"fields": {k: v for k, v in fields
                                  if not v.startswith("{")}}}


def pointer(name, type_, addr, fields, arg=False):
    """A pointer to a struct; the enricher dereferences it one level."""
    pointee = "{" + ", ".join(f"{k} = {v}" for k, v in fields) + "}"
    return {"name": name, "type": type_, "value": addr, "deref": pointee,
            "arg": arg, "expect": {"pointer": addr, "fields": {
                k: v for k, v in fields if not v.startswith("{")}}}


def string_pointer(name, addr, text, arg=False):
    return {"name": name, "type": "const char *", "value": f'{addr} "{text}"',
            "arg": arg, "expect": {"pointer": addr, "string": f'"{text}"'}}


def frame(func, file, fullname, line, addr, vars_):
    return {"func": func, "file": file, "fullname": fullname, "line": line,
            "addr": addr, "vars": vars_}


def library_symbols(files: int, per_file: int) -> list[dict]:
    """A libc-sized table of debug variables outside the user's sources."""
    types = ["int", "const char *", "struct _IO_FILE *", "unsigned long",
             "void (*)(void)", "size_t", "struct link_map *"]
    out = []
    for i in range(files):
        name = f"sysdeps/unix/sysv/linux/unit_{i:04d}.c"
        out.append({"filename": "../" + name, "fullname": "./misc/../" + name,
                    "symbols": [[20 + 9 * j, f"__libc_state_{i:04d}_{j}",
                                 types[(i + j) % len(types)]]
                                for j in range(per_file)]})
    return out


def source_lines(text: str, marker: str) -> int:
    """1-based number of the only line containing marker."""
    hits = [n for n, line in enumerate(text.splitlines(), 1) if marker in line]
    if len(hits) != 1:
        raise ValueError(f"marker {marker!r} found {len(hits)} times")
    return hits[0]


# --------------------------------------------------------------------------
# triage: the three recorded crashes
# --------------------------------------------------------------------------

SEGV_C = r"""/* Crashes with SIGSEGV three calls deep in user code.
 *
 * Kept address-free on purpose: every value reachable from the stack is an
 * int, a char array, or a null pointer, so enriched-stack output is stable
 * byte for byte across runs.
 */
#include <stdio.h>
#include <string.h>

struct inner2 { int depth3_a; int depth3_b; };
struct inner1 { struct inner2 nested; int depth2_x; };
struct sample { struct inner1 part; int depth1_id; };

char marbles[151];
int drawn_count = 150;
int total_runs = 3;

static int tally_reds(int len)
{
    int counts[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    const char *cursor = NULL;
    int seen = 0;
    for (int i = 0; i < len; i++) {
        if (marbles[i] == 'R')
            seen++;
    }
    seen += counts[0];
    return seen + *cursor;
}

static int summarize(int count)
{
    struct sample snap = {{{41, 42}, 7}, 99};
    int subtotal = snap.depth1_id + count;
    return subtotal + tally_reds(count);
}

int main(void)
{
    memset(marbles, 'R', 100);
    memset(marbles + 100, 'B', 50);
    marbles[150] = '\0';
    printf("drew %d marbles\n", drawn_count);
    fflush(stdout);
    return summarize(drawn_count) == 0 ? 0 : 1;
}
"""

FPE_C = r"""/* Divides by zero two calls deep, raising SIGFPE in user code. */
#include <stdio.h>

static int scale_by(int total, int parts)
{
    int base = 4;
    return (total + base) / parts;
}

int main(void)
{
    int total = 96;
    int parts = 0;
    printf("scaling %d\n", total);
    fflush(stdout);
    return scale_by(total, parts);
}
"""

ASSERT_C = r"""/* Fails a hand-rolled length check and aborts.
 *
 * Prints the same message shape as a libc assert so the abort-plus-message
 * detection sees realistic input, then raises SIGABRT.  The stop lands in
 * libc's kill path, leaving several library frames above user code.
 */
#include <stdio.h>
#include <stdlib.h>

static int expected = 10;

static int check_len(int len, int n)
{
    int slack = n - len;
    if (len != n) {
        fprintf(stderr, "Assertion failed: len == n\n");
        fflush(stderr);
        abort();
    }
    return slack;
}

static int validate(int got)
{
    int want = expected;
    return check_len(got, want);
}

int main(void)
{
    printf("checking lengths\n");
    fflush(stdout);
    return validate(7);
}
"""

SIGSEGV = {"reason": "signal-received", "signal-name": "SIGSEGV",
           "signal-meaning": "Segmentation fault"}


def _user_symbols(fullname, filename, symbols):
    return [{"filename": filename, "fullname": fullname,
             "symbols": [[line, name, type_] for name, line, type_ in symbols]}]


def _description(ws, name, frames, globals_, functions, variables, stop,
                 target_output="", console=None, libc=None):
    libc = libc or []
    var_files = variables + libc
    return {
        "exec_name": os.path.join(ws.out, "build", name),
        "log": os.path.join(ws.out, "logs", name + ".json"),
        "stop": stop,
        "target_output": target_output,
        "frames": frames,
        "globals": {v["name"]: {"type": v["type"], "value": v["value"]}
                    for v in globals_},
        "global_vars": globals_,
        "symbols": {"functions": functions, "variables": var_files},
        "symbols_mi": symbols_record(var_files),
        "console": console or {},
    }


class Workspace:
    """Where one workload's generated files live."""

    def __init__(self, out: str):
        self.out = os.path.abspath(out)
        self.src = os.path.join(self.out, "src")
        for sub in ("src", "targets", "logs", "build"):
            os.makedirs(os.path.join(self.out, sub), exist_ok=True)

    def source(self, name: str, text: str) -> str:
        path = os.path.join(self.src, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def target(self, name: str, desc: dict) -> str:
        path = os.path.join(self.out, "targets", name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(desc, fh)
        return path


def prose(text: str) -> list[dict]:
    return [{"text": text}]


def debug(command: str) -> dict:
    return {"tool": "debug", "args": {"command": command}}


def code(loc: str) -> dict:
    return {"tool": "code", "args": {"loc": loc}}


def definition(loc: str, symbol: str) -> dict:
    return {"tool": "definition", "args": {"loc": loc, "symbol": symbol}}


def _plan(name, target, root, desc, steps, stop_text, argv=()):
    user = next(f for f in desc["frames"] if f["fullname"].startswith(root))
    return {"name": name, "target": target, "root": root, "desc": desc,
            "argv": list(argv), "steps": steps,
            "stop": {"text": stop_text, "func": user["func"],
                     "loc": f"{user['file']}:{user['line']}"}}


def triage(ws: Workspace, seed: int) -> list[dict]:
    v = Values(seed, "triage")
    libc = library_symbols(files=300, per_file=3)
    plans = []

    # segv: tally_reds <- summarize <- main, stopped in user code.
    path = ws.source("crash_segv.c", SEGV_C)
    count = v.num(3)
    frames = [
        frame("tally_reds", "crash_segv.c", path, 28, v.addr(), [
            scalar("len", "int", count, arg=True),
            array("counts", "int", v.nums(8, 1)),
            scalar("cursor", "const char *", "0x0"),
            scalar("seen", "int", v.num(3))]),
        frame("summarize", "crash_segv.c", path, 35, v.addr(), [
            scalar("count", "int", count, arg=True),
            struct("snap", "struct sample", [
                ("part", "{nested = {depth3_a = %s, depth3_b = %s}, "
                         "depth2_x = %s}" % (v.num(2), v.num(2), v.num(1))),
                ("depth1_id", v.num(2))]),
            scalar("subtotal", "int", v.num(3))]),
        frame("main", "crash_segv.c", path, 45, v.addr(), []),
    ]
    globals_ = [
        {"name": "marbles", "type": "char [151]", "aggregate": True,
         "value": "'R' <repeats 100 times>, 'B' <repeats 50 times>",
         "expect": {"head": ["'R'"] * 3, "tail": ["'B'"] * 3}},
        scalar("drawn_count", "int", count),
        scalar("total_runs", "int", v.num(1)),
    ]
    desc = _description(
        ws, "crash_segv", frames, globals_,
        _user_symbols(path, "crash_segv.c", [("tally_reds", 18, "int (int)"),
                                             ("summarize", 31, "int (int)"),
                                             ("main", 38, "int (void)")]),
        _user_symbols(path, "crash_segv.c", [("marbles", 14, "char [151]"),
                                             ("drawn_count", 15, "int"),
                                             ("total_runs", 16, "int")]),
        SIGSEGV, target_output=f"drew {count} marbles\n", libc=libc)
    steps = [
        {"line": "p drawn_count"},
        {"line": "info locals"},
        {"line": QUESTION, "completions": [
            [debug("bt"), debug("p seen")],
            [code("crash_segv.c:28")],
            [definition("crash_segv.c:43", "drawn_count")],
            prose("The program dies with SIGSEGV inside tally_reds at "
                  "crash_segv.c:28, on the expression `*cursor`.\n\n"
                  "cursor is initialized to NULL on line 21 and never "
                  "reassigned, so the read through it faults.\n\n"
                  "Recommendation\n\nPoint `cursor` at real storage, for "
                  "example `const char *cursor = marbles;`, or return `seen` "
                  "without the dereference.")]},
    ]
    plans.append(_plan("segv", ws.target("crash_segv", desc), ws.src, desc,
                       steps, "stopped on SIGSEGV (Segmentation fault)"))

    # fpe: scale_by <- main, division by zero.
    path = ws.source("crash_fpe.c", FPE_C)
    total = v.num(2)
    frames = [
        frame("scale_by", "crash_fpe.c", path, 7, v.addr(), [
            scalar("total", "int", total, arg=True),
            scalar("parts", "int", "0", arg=True),
            scalar("base", "int", v.num(1))]),
        frame("main", "crash_fpe.c", path, 16, v.addr(), [
            scalar("total", "int", total),
            scalar("parts", "int", "0")]),
    ]
    desc = _description(
        ws, "crash_fpe", frames, [],
        _user_symbols(path, "crash_fpe.c", [("scale_by", 4, "int (int, int)"),
                                            ("main", 10, "int (void)")]),
        [], {"reason": "signal-received", "signal-name": "SIGFPE",
             "signal-meaning": "Arithmetic exception"},
        target_output=f"scaling {total}\n", libc=libc)
    steps = [
        {"line": "p parts"},
        {"line": "info args"},
        {"line": QUESTION, "completions": [
            [debug("p total")],
            [code("crash_fpe.c:7"), definition("crash_fpe.c:16", "scale_by")],
            prose("SIGFPE is raised by the division on crash_fpe.c:7, where "
                  "parts is 0.\n\nmain passes its local parts, set to 0 on "
                  "line 12, straight through to scale_by.\n\nRecommendation"
                  "\n\nReject a zero divisor in scale_by before dividing, or "
                  "give parts a positive value in main.")]},
    ]
    plans.append(_plan("fpe", ws.target("crash_fpe", desc), ws.src, desc,
                       steps, "stopped on SIGFPE (Arithmetic exception)"))

    # assert: five libc frames above check_len <- validate <- main.
    path = ws.source("crash_assert.c", ASSERT_C)
    got, want = v.num(1), v.num(2)
    tid = v.num(15)
    frames = [
        # libc frames carry relative build-tree paths, as gdb reports them.
        frame("__pthread_kill_implementation", "./nptl/pthread_kill.c",
              "./nptl/./nptl/pthread_kill.c", 44, "0x00007ffff7c969bc", [
                       scalar("tid", "pid_t", "<optimized out>"),
                       scalar("ret", "int", "0"),
                       scalar("pd", "struct pthread *", "0x7ffff7fa3740"),
                       {"name": "old_mask", "type": "sigset_t",
                        "aggregate": True, "arg": False,
                        "value": "{__val = {0 <repeats 16 times>}}",
                        "expect": {}},
                       scalar("no_tid", "int", "0", arg=True),
                       scalar("signo", "int", "6", arg=True),
                       scalar("threadid", "pthread_t", tid, arg=True)]),
        frame("__pthread_kill_internal", "./nptl/pthread_kill.c",
              "./nptl/./nptl/pthread_kill.c", 78, "0x00007ffff7c969bc", [
                       scalar("signo", "int", "6", arg=True),
                       scalar("threadid", "pthread_t", tid, arg=True)]),
        frame("__GI___pthread_kill", "./nptl/pthread_kill.c",
              "./nptl/./nptl/pthread_kill.c", 89, "0x00007ffff7c969bc", [
                       scalar("threadid", "pthread_t", tid, arg=True),
                       scalar("signo", "int", "6", arg=True)]),
        frame("__GI_raise", "../sysdeps/posix/raise.c",
              "./signal/../sysdeps/posix/raise.c", 26, "0x00007ffff7c42476", [
                       scalar("sig", "int", "6", arg=True),
                       scalar("ret", "int", "<optimized out>")]),
        frame("__GI_abort", "./stdlib/abort.c", "./stdlib/./stdlib/abort.c",
              79, "0x00007ffff7c287f3", [
                       scalar("save_stage", "int", "1")]),
        frame("check_len", "crash_assert.c", path, 18, v.addr(), [
            scalar("len", "int", got, arg=True),
            scalar("n", "int", want, arg=True),
            scalar("slack", "int", v.num(1))]),
        frame("validate", "crash_assert.c", path, 26, v.addr(), [
            scalar("got", "int", got, arg=True),
            scalar("want", "int", want)]),
        frame("main", "crash_assert.c", path, 33, v.addr(), []),
    ]
    globals_ = [scalar("expected", "int", want)]
    desc = _description(
        ws, "crash_assert", frames, globals_,
        _user_symbols(path, "crash_assert.c",
                      [("check_len", 12, "int (int, int)"),
                       ("validate", 23, "int (int)"),
                       ("main", 29, "int (void)")]),
        _user_symbols(path, "crash_assert.c", [("expected", 10, "int")]),
        {"reason": "signal-received", "signal-name": "SIGABRT",
         "signal-meaning": "Aborted"},
        target_output="checking lengths\nAssertion failed: len == n\n",
        libc=libc)
    steps = [
        {"line": "bt"},
        {"line": "p expected"},
        {"line": QUESTION, "completions": [
            [debug("info locals")],
            [code("crash_assert.c:18")],
            [definition("crash_assert.c:26", "check_len")],
            prose("The abort comes from check_len on crash_assert.c:18: "
                  "validate passes got and want, and they differ.\n\n"
                  "want is read from the global expected, while main "
                  "passes a hard-coded length.\n\nRecommendation\n\n"
                  "Pass the real length from main instead of the constant, "
                  "or derive expected from the same source.")]},
    ]
    plans.append(_plan("assert", ws.target("crash_assert", desc), ws.src,
                       desc, steps, 'failed the assertion "len == n" and '
                                    "stopped on SIGABRT"))
    return plans


# --------------------------------------------------------------------------
# deep-stack: about 200 recursive user frames and a large symbol table
# --------------------------------------------------------------------------

DEEP_DEPTH = 200       # descend() frames
DEEP_GLOBALS = 60      # globals in deep.c; the enricher shows ten
DEEP_USER_COMMANDS = 30


def _deep_source() -> str:
    lines = ["/* Walks a linked chain recursively and faults at its end. */",
             "#include <stddef.h>", "",
             "struct node { int key; int weight; struct node *next; };",
             "struct stats { long sum; int min; int max; };", ""]
    lines += [f"int walk_g{i:02d} = {i};" for i in range(DEEP_GLOBALS)]
    lines += ["",
              "static int leaf_fault(struct node *node, int depth)",
              "{",
              "    int probe = depth * 2;",
              "    return node->key + probe; /* fault */",
              "}",
              "",
              "static long descend(int depth, struct node *node, long acc)",
              "{",
              "    int window[16];",
              "    struct stats stats = {acc, 0, 0};",
              '    const char *label = "descend";',
              "    for (int i = 0; i < 16; i++)",
              "        window[i] = depth + i;",
              "    if (depth == 0)",
              "        return leaf_fault(node, depth); /* leaf */",
              "    return descend(depth - 1, node->next, acc + node->key)"
              " + window[0]; /* recurse */",
              "}",
              "",
              "static long run_walk(struct node *head, int depth)",
              "{",
              "    long total = descend(depth, head, 0); /* walk */",
              "    return total + walk_g00;",
              "}",
              "",
              "int main(int argc, char **argv)",
              "{",
              "    struct node head = {1, 1, NULL};",
              "    int depth = argc > 2 ? 199 : 0;",
              "    return (int)run_walk(&head, depth); /* main */",
              "}"]
    return "\n".join(lines) + "\n"


def _hexdump(v: Values, lines: int, words: int, base: int) -> str:
    out = []
    for i in range(lines):
        cells = "\t".join("0x%08x" % v.rng.randint(0x10000000, 0xffffffff)
                          for _ in range(words))
        out.append(f"0x{base + 16 * i:012x}:\t{cells}\n")
    return "".join(out)


def _info_frame(v: Values, func: str, loc: str) -> str:
    return (f"Stack level 0, frame at {v.addr('0x7ffc')}:\n"
            f" rip = {v.addr()} in {func} ({loc}); saved rip = {v.addr()}\n"
            f" called by frame at {v.addr('0x7ffc')}\n"
            f" source language c.\n"
            f" Arglist at {v.addr('0x7ffc')}, args: \n"
            f" Locals at {v.addr('0x7ffc')}, Previous frame's sp is "
            f"{v.addr('0x7ffc')}\n"
            f" Saved registers:\n  rbp at {v.addr('0x7ffc')}, rip at "
            f"{v.addr('0x7ffc')}\n")


def _registers(v: Values) -> str:
    names = ["rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp", "r8",
             "r9", "r10", "r11", "r12", "r13", "r14", "r15", "rip"]
    return "".join(f"{n:<15}0x5555{v.num(8)}      {v.num(15)}\n" for n in names)


def deep_stack(ws: Workspace, seed: int) -> list[dict]:
    v = Values(seed, "deep")
    text = _deep_source()
    path = ws.source("deep.c", text)
    leaf_line = source_lines(text, "/* fault */")
    call_leaf = source_lines(text, "/* leaf */")
    recurse = source_lines(text, "/* recurse */")
    walk = source_lines(text, "/* walk */")
    main_line = source_lines(text, "/* main */")

    frames = [frame("leaf_fault", "deep.c", path, leaf_line, v.addr(), [
        scalar("node", "struct node *", "0x0", arg=True),
        scalar("depth", "int", "0", arg=True),
        scalar("probe", "int", "0")])]
    for depth in range(DEEP_DEPTH):
        node_fields = [("key", v.num(3)), ("weight", v.num(3)),
                       ("next", v.addr())]
        frames.append(frame(
            "descend", "deep.c", path, call_leaf if depth == 0 else recurse,
            v.addr(), [
                scalar("depth", "int", str(depth), arg=True),
                pointer("node", "struct node *", v.addr(), node_fields,
                        arg=True),
                scalar("acc", "long", v.num(6), arg=True),
                array("window", "int", v.nums(16, 3)),
                struct("stats", "struct stats", [("sum", v.num(6)),
                                                 ("min", v.num(3)),
                                                 ("max", v.num(3))]),
                string_pointer("label", "0x555555556004", "descend")]))
    frames.append(frame("run_walk", "deep.c", path, walk, v.addr(), [
        pointer("head", "struct node *", v.addr("0x7ffc"),
                [("key", "1"), ("weight", "1"), ("next", v.addr())],
                arg=True),
        scalar("depth", "int", str(DEEP_DEPTH - 1), arg=True),
        scalar("total", "long", v.num(6))]))
    frames.append(frame("main", "deep.c", path, main_line, v.addr(), [
        scalar("argc", "int", "3", arg=True),
        scalar("depth", "int", str(DEEP_DEPTH - 1))]))

    global_lines = {f"walk_g{i:02d}": source_lines(text, f"int walk_g{i:02d} =")
                    for i in range(DEEP_GLOBALS)}
    globals_ = [scalar(name, "int", v.num(3)) for name in global_lines]
    functions = _user_symbols(path, "deep.c", [
        ("leaf_fault", source_lines(text, "static int leaf_fault("),
         "int (struct node *, int)"),
        ("descend", source_lines(text, "static long descend("),
         "long (int, struct node *, long)"),
        ("run_walk", source_lines(text, "static long run_walk("),
         "long (struct node *, int)"),
        ("main", source_lines(text, "int main("), "int (int, char **)")])
    variables = _user_symbols(path, "deep.c", [
        (name, line, "int") for name, line in global_lines.items()])

    console = {"info frame": _info_frame(v, "leaf_fault", f"deep.c:{leaf_line}"),
               "info registers": _registers(v)}
    user = ["bt", "info frame", "info locals", "info registers"]
    for i in range(DEEP_USER_COMMANDS - len(user)):
        command = f"x/96xw 0x7ffc{0x1000 * (i + 1):08x}"
        console[command] = _hexdump(v, 24, 4, 0x7ffc00000000 + 0x1000 * (i + 1))
        user.append(command)

    desc = _description(ws, "deep", frames, globals_, functions, variables,
                        SIGSEGV, target_output="walking\n",
                        console=console,
                        libc=library_symbols(files=500, per_file=8))
    steps = [{"line": command} for command in user]
    # Six tool rounds: tool_round_ms needs enough samples in a run, and
    # deep-stack holds one session per round.
    steps.append({"line": QUESTION, "completions": [
        [debug("p depth"), code(f"deep.c:{leaf_line}")],
        [definition(f"deep.c:{call_leaf}", "leaf_fault"), debug("info frame")],
        [definition(f"deep.c:{recurse}", "descend"), debug("p probe")],
        [code(f"deep.c:{walk}"), debug("info locals")],
        [definition(f"deep.c:{main_line}", "run_walk"), debug("p node")],
        [code(f"deep.c:{recurse}"), debug("info args")],
        prose("leaf_fault dereferences node on deep.c:%d, and node is NULL."
              "\n\nThe chain handed to descend is one link shorter than the "
              "depth it is asked to walk, so the last call receives "
              "node->next of the final link.\n\nRecommendation\n\nStop the "
              "recursion when node is NULL, or build a chain at least as "
              "long as the depth." % leaf_line)]})
    return [_plan("deep", ws.target("deep", desc), ws.src, desc, steps,
                  "stopped on SIGSEGV (Segmentation fault)",
                  argv=["walk.dat", str(DEEP_DEPTH)])]


# --------------------------------------------------------------------------
# long-chat: one question and thirty follow-ups on a shallow stack
# --------------------------------------------------------------------------

FOLLOW_UPS = 30

LEDGER_C = """/* Posts ledger entries in batches; faults on a missing entry. */
#include <stddef.h>

struct entry { int id; int amount; int flags; };
struct ledger { int count; long balance; struct entry *slots[32]; };

int total_runs = 3;
long entries_seen = 0;
const char *ledger_name = "daily";
int batch_limit = 32;

static long post_entry(struct ledger *ledger, struct entry *entry, int i)
{
    long before = ledger->balance;
    ledger->balance += entry->amount; /* fault */
    ledger->count = i + 1;
    entries_seen++;
    return before;
}

static long apply_batch(struct ledger *ledger, int count)
{
    long posted = 0;
    int i;
    char buf[256];
    for (i = 0; i < count; i++)
        posted += post_entry(ledger, ledger->slots[i], i); /* batch */
    return posted + buf[0];
}

static long run_ledger(int rounds)
{
    struct ledger ledger = {0};
    int batch[24];
    long total = 0;
    for (int r = 0; r < rounds; r++)
        total += apply_batch(&ledger, batch_limit); /* rounds */
    return total + batch[0];
}

int main(int argc, char **argv)
{
    total_runs = argc;
    return (int)run_ledger(total_runs); /* main */
}
"""

FOLLOW_UP_QUESTIONS = [
    "Which entry was being posted when it crashed?",
    "Where does the slots array get filled?",
    "Could batch_limit be larger than the filled slots?",
    "What does the balance look like at this point?",
    "Is entries_seen consistent with the loop index?",
    "Would a different batch size avoid the fault?",
]


def long_chat(ws: Workspace, seed: int) -> list[dict]:
    v = Values(seed, "long")
    path = ws.source("ledger.c", LEDGER_C)
    line = {m: source_lines(LEDGER_C, f"/* {m} */")
            for m in ("fault", "batch", "rounds", "main")}
    slots = [v.addr() for _ in range(32)]
    ledger_fields = [("count", v.num(2)), ("balance", v.num(7)),
                     ("slots", "{" + ", ".join(slots) + "}")]
    i_value = v.num(2)
    frames = [
        frame("post_entry", "ledger.c", path, line["fault"], v.addr(), [
            pointer("ledger", "struct ledger *", v.addr("0x7ffc"),
                    ledger_fields, arg=True),
            scalar("entry", "struct entry *", "0x0", arg=True),
            scalar("i", "int", i_value, arg=True),
            scalar("before", "long", v.num(7))]),
        frame("apply_batch", "ledger.c", path, line["batch"], v.addr(), [
            pointer("ledger", "struct ledger *", v.addr("0x7ffc"),
                    ledger_fields, arg=True),
            scalar("count", "int", "32", arg=True),
            scalar("posted", "long", v.num(7)),
            scalar("i", "int", i_value),
            {"name": "buf", "type": "char [256]", "aggregate": True,
             "arg": False, "value": "'\\000' <repeats 255 times>",
             "expect": {"head": ["'\\000'"] * 3, "tail": ["'\\000'"] * 3}}]),
        frame("run_ledger", "ledger.c", path, line["rounds"], v.addr(), [
            scalar("rounds", "int", "3", arg=True),
            struct("ledger", "struct ledger", ledger_fields),
            array("batch", "int", v.nums(24, 4)),
            scalar("total", "long", v.num(7))]),
        frame("main", "ledger.c", path, line["main"], v.addr(), [
            scalar("argc", "int", "3", arg=True),
            scalar("argv", "char **", v.addr("0x7ffc"), arg=True)]),
    ]
    frames[3]["vars"][1]["deref"] = f'{v.addr("0x7ffc")} "./ledger"'
    frames[3]["vars"][1]["expect"] = {"pointer": frames[3]["vars"][1]["value"]}
    globals_ = [scalar("total_runs", "int", "3"),
                scalar("entries_seen", "long", v.num(3)),
                string_pointer("ledger_name", "0x555555556010", "daily"),
                scalar("batch_limit", "int", "32")]

    def at(marker: str) -> int:
        return source_lines(LEDGER_C, marker)

    functions = _user_symbols(path, "ledger.c", [
        ("post_entry", at("static long post_entry"), "long (struct ledger *, "
                                                     "struct entry *, int)"),
        ("apply_batch", at("static long apply_batch"), "long (struct ledger *, "
                                                       "int)"),
        ("run_ledger", at("static long run_ledger"), "long (int)"),
        ("main", at("int main"), "int (int, char **)")])
    variables = _user_symbols(path, "ledger.c", [
        (g["name"], at(decl), g["type"]) for g, decl in zip(globals_, [
            "int total_runs =", "long entries_seen =", "*ledger_name =",
            "int batch_limit ="])])

    console = {
        "x/256xb buf": _hexdump(v, 32, 4, 0x7ffc00002000),
        "x/128xw batch": _hexdump(v, 32, 4, 0x7ffc00003000),
        "info frame": _info_frame(v, "post_entry", f"ledger.c:{line['fault']}"),
        "info registers": _registers(v),
        "x/64xb buf": _hexdump(v, 16, 4, 0x7ffc00002000),
        # gdb prints the assigned value; the stand-in answers the same way.
        "p total_runs = 0": "$1 = 0\n",
        "p i++": f"$1 = {i_value}\n",
        "p $pc = 0": "$1 = (void (*)()) 0x0\n",
    }
    big = ["x/256xb buf", "info frame", "bt", "x/128xw batch", "info registers"]
    locations = [("fault", "entry"), ("batch", "post_entry"),
                 ("rounds", "apply_batch"), ("main", "run_ledger"),
                 ("rounds", "batch_limit"), ("main", "total_runs")]
    user_between = ["p total_runs", "info locals", "x/64xb buf", "bt"]

    steps = [{"line": QUESTION, "completions": [
        [debug("bt"), debug("p i")],
        [code(f"ledger.c:{line['fault']}")],
        prose(f"post_entry reads entry->amount on ledger.c:{line['fault']} "
              "with entry equal to NULL.\n\nRecommendation\n\nSkip empty "
              "slots in apply_batch before posting them.")]}]
    assignments = {5: ASSIGNMENTS[0], 15: ASSIGNMENTS[1], 25: ASSIGNMENTS[2]}
    for k in range(FOLLOW_UPS):
        if k % 3 == 2:
            steps.append({"line": user_between[(k // 3) % len(user_between)]})
        marker, symbol = locations[k % len(locations)]
        first = [debug(big[k % len(big)])]
        second = [code(f"ledger.c:{line[marker]}")]
        if k % 2:
            second.append(definition(f"ledger.c:{line[marker]}", symbol))
        if k % 4 == 1:
            first.append(debug(DENIED[(k // 4) % len(DENIED)]))
        if k in assignments:
            second.append(debug(assignments[k]))
        question = FOLLOW_UP_QUESTIONS[k % len(FOLLOW_UP_QUESTIONS)]
        steps.append({"line": f"Follow-up {k + 1:02d}: {question}",
                      "completions": [first, second, prose(
                          f"Point {k + 1:02d}: the slot read on ledger.c:"
                          f"{line['batch']} is empty for index {i_value}, "
                          "and post_entry trusts it.\n\nRecommendation\n\n"
                          "Check each slot for NULL before calling "
                          "post_entry.")]})

    desc = _description(ws, "ledger", frames, globals_, functions, variables,
                        SIGSEGV, target_output="posting\n", console=console,
                        libc=library_symbols(files=300, per_file=3))
    return [_plan("ledger", ws.target("ledger", desc), ws.src, desc, steps,
                  "stopped on SIGSEGV (Segmentation fault)",
                  argv=["daily.ledger"])]


WORKLOADS = {"triage": triage, "deep-stack": deep_stack, "long-chat": long_chat}


def generate(workload: str, seed: int, out: str) -> list[dict]:
    """Write one workload's files under out; return its round of plans."""
    return WORKLOADS[workload](Workspace(out), seed)
