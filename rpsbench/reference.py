"""A fixed reference loop timed next to every untraced workload run.

A shared host can change speed by a large factor for tens of seconds
at a time: on a 2-vCPU Xeon VM, 5-second medians of one fixed Python
loop ranged from 0.12 s to 0.21 s within four minutes, the slow phases
lasted longer than a whole benchmark run, and process CPU time tracked
wall time within 1%.  No statistic over one run's repetitions removes
a slowdown that covers the whole run, so a run also times this loop,
between its repetitions, and reports host throughput per *reference
unit*: the median duration of one pass of this loop over the same run
and process.  (Pairing each repetition with only the passes next to it
spread more, 0.18 against 0.15 IQR over median on five ``ntrx_write``
runs: the loop and the simulator do not slow down in step over a few
seconds, only over a whole run.)  The loop is the benchmark's own code
and never changes with the simulator, so a faster simulator still
reads as more work per reference unit.

The slowdowns hit memory-bound code hardest, so the loop makes random
reads and writes over tables of Python objects larger than a CPU
cache, as the simulator's mapping tables and block state do.  On the
VM above, eight 20-second ``fleet_serve`` runs spread 0.139 (IQR over
median) in raw host ops/s and 0.041 per unit of a variant of this loop
(same steps, tables built once per process); a cache-resident
heap-queue loop tried first left 0.116.
"""

from __future__ import annotations

import statistics
import time
from typing import List

#: slots of the list table (a power of two) and random steps per pass
TABLE = 1 << 20
STEPS = 100_000

#: what :func:`reference_pass` returns when it ran every step
CHECKSUM = 39_261_044_736


def reference_pass() -> int:
    """Run the loop once; returns a checksum of its outcome.

    The tables (about 60 MB) are built inside the pass and dropped
    after it; a run reads its peak memory before the first pass.
    """
    table = list(range(TABLE))
    index = {key * 7919: key for key in range(TABLE // 4)}
    keys = list(index)
    state = 12345
    checksum = 0
    for _ in range(STEPS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        slot = state & (TABLE - 1)
        checksum += table[slot]
        table[slot] = checksum & 0xFFFF
        value = index.get(keys[state % len(keys)])
        if value:
            checksum ^= value
    return checksum


class ReferenceClock:
    """Times blocks of reference passes between a run's repetitions."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def block(self, seconds: float) -> None:
        """Time passes for about ``seconds`` (at least one); a wrong
        checksum means a broken loop."""
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            checksum = reference_pass()
            self.samples.append(time.perf_counter() - t0)
            if checksum != CHECKSUM:
                raise RuntimeError(f"reference loop checksum {checksum} "
                                   f"!= {CHECKSUM}")
            if time.perf_counter() - start >= seconds:
                return

    @property
    def unit_s(self) -> float:
        """The reference unit: the median pass over the whole run."""
        return statistics.median(self.samples)
