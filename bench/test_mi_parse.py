"""MI parse throughput: the recorded corpus and one large symbol table,
parsed whole, and one file's entries read out of that table; and the
driver reading that table's line from a child that writes it in 4 kB
pieces.

Run with ``PYTHONPATH=src python -m pytest bench -q``.  Each case stores
its input size and MB/s (bytes over the median time) in ``extra_info``,
which ``--benchmark-json`` writes out.  Nothing here asserts on timing.
"""

from __future__ import annotations

import pty
import subprocess
import sys
from pathlib import Path

import pytest

from dbgchat.mi import DebuggerHandle, MIOutput, file_symbols, parse_mi_line

CORPUS = Path(__file__).parent.parent / "tests" / "data" / "mi_corpus.txt"

TYPES = ["int", "const char *", "struct _IO_FILE *", "unsigned long",
         "void (*)(void)", "size_t", "struct link_map *"]


def symbol_table_line(count: int, per_file: int = 50) -> str:
    """A -symbol-info-variables answer shaped like gdb's, one type in a
    hundred holding an escaped quote.  That type is the only text in need
    of escaping, and it is written here as it appears on the line."""
    files = []
    for f in range(0, count, per_file):
        symbols = []
        for i in range(f, f + per_file):
            type_ = (r'char [4] /* \"\\n\" */' if i % 100 == 0
                     else TYPES[i % 7])
            name = f"__state_{f:05d}_{i - f}"
            symbols.append(f'{{line="{20 + 9 * (i - f)}",name="{name}",'
                           f'type="{type_}",description="{type_} {name};"}}')
        path = f"sysdeps/unix/unit_{f:05d}.c"
        files.append(f'{{filename="../{path}",fullname="./misc/../{path}",'
                     f'symbols=[{",".join(symbols)}]}}')
    return f'^done,symbols={{debug=[{",".join(files)}]}}'


def _store_rate(benchmark, size):
    benchmark.extra_info["bytes"] = size
    # --benchmark-disable runs each case once and keeps no stats.
    if benchmark.stats is not None:
        benchmark.extra_info["mb_s"] = (size / benchmark.stats.stats.median
                                        / 1e6)


CASES = {
    "corpus": lambda: CORPUS.read_text(encoding="utf-8").rstrip("\n").split("\n"),
    "symbols-20k": lambda: [symbol_table_line(20000)],
}


@pytest.mark.parametrize("case", CASES)
def test_parse_mi_lines(benchmark, case):
    lines = CASES[case]()
    size = sum(len(line.encode()) + 1 for line in lines)

    def parse_all():
        for line in lines:
            parse_mi_line(line)

    benchmark(parse_all)
    _store_rate(benchmark, size)


def test_file_symbols_20k(benchmark):
    """The 50 symbols of the table's middle file, as the session reads a
    file's globals; compare with ``test_parse_mi_lines[symbols-20k]``."""
    out = MIOutput([symbol_table_line(20000), "(gdb) "])
    symbols = benchmark(file_symbols, out,
                        "./misc/../sysdeps/unix/unit_10000.c")
    assert len(symbols) == 50
    _store_rate(benchmark, len(out.lines[0].encode()) + 1)


# Prints a prompt, waits for a line, writes the file named by argv[1] in
# 4 kB pieces and a prompt, then quits at its next input line.
PIECES = """
import sys
data = open(sys.argv[1], "rb").read()
out = sys.stdout.buffer
out.write(b"(gdb) \\n"); out.flush()
sys.stdin.readline()
for start in range(0, len(data), 4096):
    out.write(data[start:start + 4096]); out.flush()
out.write(b"(gdb) \\n"); out.flush()
sys.stdin.readline()
"""


def test_read_symbols_20k_in_pieces(benchmark, tmp_path):
    """``read_until_prompt`` over the ``[symbols-20k]`` line, which a child
    writes in 4 kB pieces, as a pipe may hand it over; the child is started
    and waiting before each round."""
    line = symbol_table_line(20000)
    data = tmp_path / "answer.txt"
    data.write_text(line + "\n")
    handles = []

    def start():
        while handles:
            handles.pop().close()
        master, slave = pty.openpty()
        child = subprocess.Popen([sys.executable, "-c", PIECES, str(data)],
                                 stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        handle = DebuggerHandle(child, tty_master=master, tty_slave=slave)
        handles.append(handle)
        handle.read_until_prompt(30)
        return (handle, child), {}

    def read(handle, child):
        child.stdin.write(b"go\n")
        child.stdin.flush()
        return handle.read_until_prompt(30)

    lines = benchmark.pedantic(read, setup=start, rounds=10)
    while handles:
        handles.pop().close()
    assert lines == [line, "(gdb) "]
    _store_rate(benchmark, len(line) + 1)
