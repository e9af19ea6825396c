"""A scripted stand-in for gdb's machine interface, for tests without gdb.

It takes the command line ``spawn_debugger`` gives gdb::

    fake_gdb.py --nx --quiet --interpreter=mi --args SCRIPT [ARGS...]

SCRIPT, in the place of the target executable, is a JSON file::

    {"commands": {"-exec-run": [STEP, ...], ...}, "boot": [STEP, ...],
     "log": "PATH"}

The child runs the ``boot`` steps, prints a prompt, then answers each
command line on stdin with the steps of the first key the line starts
with.  A key may hold a list of such step lists instead: each command
it matches plays the next one, and the last one is played again.  A
step is a line for stdout (scripts write their own ``(gdb) ``
prompts) or one of:

    {"tty": TEXT}       the target writes TEXT to its terminal
    {"pieces": TEXT, "size": N}
                        TEXT goes to stdout in writes of N bytes each
    {"read_tty": true}  the target reads its terminal up to EOF, then
                        writes "read N bytes" there
    {"sleep": SECONDS}
    {"exit": CODE}

Built in: ``-inferior-tty-set PATH`` opens the target's terminal, unless
``commands`` has the key ``-inferior-tty-set``; ``-gdb-exit`` answers
``^exit`` and quits, and any other command gets
``^error,msg="not recorded"``.  With ``log`` set, every byte written to
stdout is appended to that file as well.  The child quits at EOF on stdin.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main(argv: list[str]) -> int:
    script: dict = {}
    if "--args" in argv:
        with open(argv[argv.index("--args") + 1], encoding="utf-8") as fh:
            script = json.load(fh)
    commands = script.get("commands", {})
    log = open(script["log"], "ab") if script.get("log") else None
    tty = -1
    pending = []

    def flush() -> None:
        data = b"".join(pending)
        pending.clear()
        if log is not None:  # first, so that a reader of a reply finds it
            log.write(data)
            log.flush()
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()

    def to_tty(data: bytes) -> None:
        while data:
            data = data[os.write(tty, data):]

    def run(steps) -> int | None:
        """Play steps; the exit code if one of them quits."""
        for step in steps:
            if isinstance(step, str):
                pending.append(step.encode() + b"\n")
                continue
            flush()
            if "tty" in step:
                to_tty(step["tty"].encode())
            elif "pieces" in step:
                data, size = step["pieces"].encode(), step["size"]
                for start in range(0, len(data), size):
                    pending.append(data[start:start + size])
                    flush()
            elif "read_tty" in step:
                count = 0
                while chunk := os.read(tty, 4096):
                    count += len(chunk)
                to_tty(f"read {count} bytes\n".encode())
            elif "sleep" in step:
                time.sleep(step["sleep"])
            elif "exit" in step:
                return step["exit"]
        flush()
        return None

    code = run([*script.get("boot", []), "(gdb) "])
    if code is not None:
        return code
    for raw in sys.stdin.buffer:
        line = raw.decode().rstrip("\n")
        if (line.startswith("-inferior-tty-set ")
                and "-inferior-tty-set" not in commands):
            tty = os.open(line.split(" ", 1)[1], os.O_RDWR | os.O_NOCTTY)
            steps = ["^done", "(gdb) "]
        elif line == "-gdb-exit":
            steps = ["^exit", {"exit": 0}]
        else:
            steps = next((v for k, v in commands.items() if line.startswith(k)),
                         ['^error,msg="not recorded"', "(gdb) "])
            if steps and isinstance(steps[0], list):
                steps = steps.pop(0) if len(steps) > 1 else steps[0]
        code = run(steps)
        if code is not None:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
