"""A fixed piece of Python work that gauges how fast the machine runs now.

A shared virtual machine changes speed with its neighbours.  On the
2-vCPU VM behind the reference figures, the same work took 3.3 ms in one
stretch and 5 to 6 ms in the next, in stretches from a tenth of a second
to minutes.  Such a change slows dbgchat and this probe alike, so the
benchmark probes between the steps it times and scales each timing to the
reference machine: it multiplies the time by ``REF_MS / p``, where ``p``
is the mean of the probes from the last one before the timed interval to
the first one after it.  A scaled time reads what the reference machine,
whose probe takes ``REF_MS``, would have shown; from run to run it
repeats where raw times do not.

The probe imports nothing from dbgchat, so a change to the program cannot
move it.  Its work is the kind dbgchat does: build MI-like records, match
them with regular expressions, and encode and decode JSON.  It runs while
the session waits for its next stdin line, so it delays no timed step.
"""

from __future__ import annotations

import bisect
import json
import re
import statistics
import time

# The probe's typical time on the reference machine (a 2-vCPU Firecracker
# VM at 2.1 GHz, Python 3.11.7), in ms.  Scaled timings are in its ms.
REF_MS = 5.0
_FIELD = re.compile(r'(\w[\w-]*)="((?:[^"\\]|\\.)*)"')


def work() -> int:
    """The probe's fixed work: about 5 ms on the reference machine."""
    records = [
        f'frame={{level="{i}",addr="0x{0x401000 + 16 * i:016x}",'
        f'func="fn_{i % 37}",file="src/mod_{i % 11}.c",line="{i * 7 % 900}",'
        f'value="{{a = {i}, b = 0x{i * 2654435761 % 2**32:08x}}}"}}'
        for i in range(240)
    ]
    fields = [dict(_FIELD.findall(r)) for r in records]
    fields.sort(key=lambda f: (f["func"], int(f["line"])))
    text = json.dumps({"frames": fields}, indent=1)
    return len(json.loads(text)["frames"]) + text.count("0x")


class Gauge:
    """The probes of one run: (start time, ms), in time order."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []

    def probe(self) -> None:
        t0 = time.perf_counter()
        work()
        self.starts.append(t0)
        self.times.append((time.perf_counter() - t0) * 1000)

    def factor(self, t0: float, t1: float) -> float:
        """REF_MS over the mean probe around the interval [t0, t1]."""
        if not self.times:
            return 1.0
        lo = max(bisect.bisect_right(self.starts, t0) - 1, 0)
        hi = max(bisect.bisect_left(self.starts, t1) + 1, lo + 1)
        around = self.times[lo:hi]
        return REF_MS / (sum(around) / len(around))

    def scaled_median(self, timed) -> float:
        """Median of (ms, t0, t1) timings, each scaled to the reference."""
        values = [ms * self.factor(t0, t1) for ms, t0, t1 in timed]
        return statistics.median(values) if values else 0.0
