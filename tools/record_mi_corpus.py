#!/usr/bin/env python3
"""Record a machine-interface line corpus from live debugger sessions.

Runs three crashing fixtures under the driver with a transcript attached,
issues a representative spread of commands, and concatenates the raw
protocol lines into tests/data/mi_corpus.txt.  Every line is checked to
parse as a structured record before the corpus is written.

Usage: python3 tools/record_mi_corpus.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dbgchat.mi import DriverConfig, parse_mi_line  # noqa: E402
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


def record_fixture(name: str, tmp: Path) -> list[str]:
    transcript = tmp / f"{name}.mi"
    driver = DriverConfig(transcript_path=str(transcript))
    with DebugSession(str(BUILD / name), driver=driver) as session:
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
    return transcript.read_text().splitlines()


def main() -> int:
    lines: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in PER_FIXTURE:
            lines.extend(record_fixture(name, Path(tmp)))

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
