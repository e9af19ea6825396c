#!/usr/bin/env python3
"""Record a machine-interface line corpus from live debugger sessions.

Runs three crashing fixtures under the driver, issues a representative
spread of commands, and writes the raw protocol lines of the three
sessions, in order, to tests/data/mi_corpus.txt.  The lines are copied
by a ``gdb`` wrapper put first on PATH, which runs the real gdb and tees
its stdout, byte for byte, into a transcript.  Every line is checked to
parse as a structured record before the corpus is written.  Needs gcc's
fixture builds (``tests/fixtures/build``) and gdb on PATH.

Usage: python3 tools/record_mi_corpus.py
"""

from __future__ import annotations

import os
import shlex
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dbgchat.mi import parse_mi_line  # noqa: E402
from dbgchat.session import DebugSession  # noqa: E402

BUILD = ROOT / "tests" / "fixtures" / "build"
OUT = ROOT / "tests" / "data" / "mi_corpus.txt"

COMMON_COMMANDS = [
    "-stack-info-depth",
    "-stack-info-frame",
    "-data-evaluate-expression 1+1",
    "-data-evaluate-expression sizeof(int)",
    "-data-evaluate-expression $pc",
    "-symbol-info-functions --name main",
    "-interpreter-exec console \"info registers rip\"",
    "-interpreter-exec console \"bt\"",
    "-interpreter-exec console \"info frame\"",
    "-interpreter-exec console \"info source\"",
    "-interpreter-exec console \"list\"",
    "-interpreter-exec console \"info locals\"",
    "-interpreter-exec console \"p/x 255\"",
    "-interpreter-exec console \"whatis main\"",
    "-interpreter-exec console \"show language\"",
    "-break-insert main",
    "-break-list",
    "-thread-info",
    "-list-features",
    "-gdb-version",
    "-environment-pwd",
    "-interpreter-exec console \"info registers\"",
    "-interpreter-exec console \"disassemble\"",
    "-interpreter-exec console \"list 1,25\"",
    "-interpreter-exec console \"help running\"",
    "-interpreter-exec console \"info sharedlibrary\"",
]

PER_FIXTURE = {
    "crash_segv": [
        "-data-evaluate-expression marbles",
        "-data-evaluate-expression drawn_count",
        "-data-evaluate-expression --thread 1 --frame 1 snap",
        "-symbol-info-variables",
        "-interpreter-exec console \"ptype struct sample\"",
        "-interpreter-exec console \"p counts\"",
        "-interpreter-exec console \"x/4dw counts\"",
    ],
    "crash_fpe": [
        "-data-evaluate-expression parts",
        "-data-evaluate-expression --thread 1 --frame 1 total",
        "-symbol-info-functions --name scale_by",
        "-interpreter-exec console \"info signals SIGFPE\"",
    ],
    "crash_assert": [
        "-data-evaluate-expression expected",
        "-symbol-info-functions --name check_len",
        "-interpreter-exec console \"info signals SIGABRT\"",
    ],
}


def wrap_gdb(directory: Path, transcript: Path) -> None:
    """Put first on PATH a ``gdb`` in directory that runs the gdb PATH
    held before and appends its stdout, byte for byte, to transcript."""
    real = shutil.which("gdb")
    if real is None:
        raise SystemExit("gdb is not on PATH")
    wrapper = directory / "gdb"
    wrapper.write_text(f'#!/bin/sh\n{shlex.quote(real)} "$@" | '
                       f"tee -a {shlex.quote(str(transcript))}\n")
    wrapper.chmod(0o755)
    os.environ["PATH"] = f"{directory}{os.pathsep}{os.environ['PATH']}"


def record_fixture(name: str) -> None:
    with DebugSession(str(BUILD / name)) as session:
        session.run_to_stop()
        for cmd in COMMON_COMMANDS + PER_FIXTURE[name]:
            try:
                session.handle.send_command(cmd)
            except Exception as exc:  # keep recording on command errors
                print(f"  [{name}] {cmd!r}: {exc}", file=sys.stderr)
        for frame in session.backtrace():
            session.handle.send_command(
                f"-stack-list-variables --thread 1 --frame {frame.level} "
                "--simple-values")
            session.handle.send_command(
                f"-stack-list-arguments 1 {frame.level} {frame.level}")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        transcript = Path(tmp) / "mi.log"
        wrap_gdb(Path(tmp), transcript)
        for name in PER_FIXTURE:
            record_fixture(name)
        lines = transcript.read_text().splitlines()

    bad = [ln for ln in lines if parse_mi_line(ln).unparsed]
    if bad:
        print("unparsed lines, refusing to write corpus:", file=sys.stderr)
        for ln in bad[:10]:
            print(f"  {ln!r}", file=sys.stderr)
        return 1

    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} lines to {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
