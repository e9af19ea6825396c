"""One ``render_value`` call per value shape of the deep-stack workload.

Run with ``PYTHONPATH=src python -m pytest bench -q``.  Each enriched
deep-stack frame holds an ``int[16]``, a three-field struct, a struct
pointer dereferenced one level, a string pointer and scalars; each case
here renders one of them as the enricher does, and ``wide-array`` renders
an ``int[1000]``, of which the width rule shows six elements.  The result
is not inspected, so the file times any version of ``render_value`` that
takes these arguments.  Nothing here asserts on timing.
"""

from __future__ import annotations

import pytest

from dbgchat.values import render_value

NODE = "{key = 17, weight = 3, next = 0x5555cafef00d}"

CASES = {
    "int16": ("window", "{" + ", ".join(str(100 + 37 * i % 900)
                                        for i in range(16)) + "}",
              False, None),
    "struct3": ("stats", "{sum = 123456, min = 0, max = 0}", False, None),
    "struct-pointer": ("node", "0x5555deadbeef", True, lambda e: NODE),
    "string-pointer": ("label", '0x555555556004 "descend"', True, None),
    "scalar": ("depth", "123456", False, None),
    # An int[1000] as gdb prints it under `set print elements unlimited`.
    "wide-array": ("samples", "{" + ", ".join(str(7 * i % 1000 - 500)
                                              for i in range(1000)) + "}",
                   False, None),
}


@pytest.mark.parametrize("shape", list(CASES))
def test_render_value(benchmark, shape):
    name, raw, is_pointer, evaluator = CASES[shape]
    benchmark(render_value, name, raw, is_pointer=is_pointer,
              evaluator=evaluator)
