"""Launch: importing the entry point, and starting gdb up to the first stop.

Run with ``PYTHONPATH=src python -m pytest bench -q``.  The debugger is
``tests/fake_gdb.py``, which sleeps 30 ms before its first prompt in place
of reading symbols, then answers ``-exec-run`` with a stop at once.  Cases:

- ``import``: ``python -c "import dbgchat.cli"`` in a fresh interpreter.
- ``session``: ``DebugSession(...)`` and ``run_to_stop`` in this process.
- ``cli``: a whole ``dbgchat`` run with the HTTP backend up to its exit
  after ``quit``: imports, then the HTTP stack loading while the debugger
  boots, the stop report, the prompt.

``extra_info`` holds the debugger's boot time.  Nothing here asserts on
timing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dbgchat.mi import DriverConfig
from dbgchat.session import DebugSession

sys.path.insert(0, str(Path(__file__).parent.parent / "tests"))
from conftest import FAKE_GDB  # noqa: E402

BOOT_S = 0.03
SRC = str(Path(__file__).parent.parent / "src")
STOP = '*stopped,reason="signal-received",signal-name="SIGSEGV"'


@pytest.fixture(scope="module")
def booting_gdb(tmp_path_factory):
    """(target, directory holding an executable named gdb)."""
    root = tmp_path_factory.mktemp("launch")
    debugger = root / "gdb"
    debugger.write_text(
        f'#!/bin/sh\nexec "{sys.executable}" "{FAKE_GDB}" "$@"\n')
    debugger.chmod(0o755)
    target = root / "script.json"
    target.write_text(json.dumps({
        "boot": [{"sleep": BOOT_S}],
        "commands": {"-exec-run": ["^running", "(gdb) ", STOP, "(gdb) "]}}))
    return str(target), str(root)


def _timed_subprocess(benchmark, argv, env, input_text=""):
    def run():
        done = subprocess.run(argv, input=input_text, text=True,
                              capture_output=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
    benchmark.pedantic(run, rounds=20, warmup_rounds=2)


def test_import(benchmark):
    _timed_subprocess(benchmark, [sys.executable, "-c", "import dbgchat.cli"],
                      {**os.environ, "PYTHONPATH": SRC})


def test_session(benchmark, booting_gdb):
    target, bin_dir = booting_gdb
    config = DriverConfig(debugger=str(Path(bin_dir) / "gdb"))

    def launch():
        with DebugSession(target, driver=config) as session:
            assert session.run_to_stop().signal_name == "SIGSEGV"
    benchmark.pedantic(launch, rounds=20, warmup_rounds=2)
    benchmark.extra_info["boot_ms"] = BOOT_S * 1000


def test_cli(benchmark, booting_gdb):
    target, bin_dir = booting_gdb
    env = {**os.environ, "PYTHONPATH": SRC, "DBGCHAT_BENCH_KEY": "unused",
           "PATH": bin_dir + os.pathsep + os.environ["PATH"]}
    _timed_subprocess(
        benchmark,
        [sys.executable, "-m", "dbgchat.cli", "--key-env", "DBGCHAT_BENCH_KEY",
         "--base-url", "http://127.0.0.1:9/v1", target],
        env, input_text="quit\n")
    benchmark.extra_info["boot_ms"] = BOOT_S * 1000
