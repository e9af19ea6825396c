"""MI parse throughput: the recorded corpus and one large symbol table,
parsed whole, and one file's entries read out of that table.

Run with ``PYTHONPATH=src python -m pytest bench -q``.  Each case stores
its input size and MB/s (bytes over the median time) in ``extra_info``,
which ``--benchmark-json`` writes out.  Nothing here asserts on timing.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from dbgchat.mi import MIOutput, file_symbols, parse_mi_line

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
    benchmark.extra_info["mb_s"] = size / benchmark.stats.stats.median / 1e6


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
