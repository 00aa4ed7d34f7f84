"""The host's speed, sampled between ops with a fixed pure-Python reference task.

On a shared VM the same op's time drifts with the host's load, by a quarter
or more over minutes, while the two commits a comparison needs are measured
minutes apart.  The benchmark therefore runs a fixed reference task (dict,
tuple and list work of the kind quadforge does) in the gaps between ops, and
divides each timing by the host's *slowdown*: the reference task's mean time
over the run divided by ``REF_SLICE_S``, its time on the machine where the
benchmark was defined.  The reported seconds are thus seconds at that
machine's speed.  The raw seconds and the slowdown go to the results file.

The reference work done after a gap is proportional to the gap's length
(``SHARE`` of it), so the mean over the run weights every stretch of time
equally.
"""

from __future__ import annotations

import gc
import statistics
import time

# One reference slice on a 2-core x86_64 VM with Python 3.11.7.  It only sets
# the scale of the reported seconds: two commits measured on one host compare
# the same whatever its value.
REF_SLICE_S = 0.0070
SHARE = 0.05            # reference work per second of other work
MIN_GAP_S = 0.5         # shorter gaps are sampled together with the next one
MAX_SLICES = 150        # at most about one second of reference work at a time


def _reference_work() -> int:
    table: dict = {}
    for i in range(3000):
        key = (i % 61, (i * 7) % 53)
        table.setdefault(key, []).append(i)
    total = 0
    for (a, b), values in sorted(table.items()):
        pairs = [(v, a) for v in values if (v + b) % 3]
        total += len(pairs) + sum(v for v, _ in pairs[:4])
    return total


REFERENCE_RESULT = _reference_work()


def reference_slice() -> float:
    """Seconds one run of the reference task takes now.  The garbage collector
    is off meanwhile, so the program's heap, which a collection would walk,
    does not enter the time."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        result = _reference_work()
        elapsed = time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
    if result != REFERENCE_RESULT:
        raise RuntimeError("the reference task gave a different result")
    return elapsed


class HostSpeed:
    """Reference slices taken between ops, proportional to the time between them."""

    def __init__(self, min_slices: int = 1, clock=time.perf_counter, run_slice=reference_slice):
        self.min_slices = min_slices
        self.clock = clock
        self.run_slice = run_slice
        self.slices: list = []
        self.last = clock()

    def sample(self, force: bool = False) -> None:
        """Take reference slices for the time since the last sample, unless
        that is shorter than ``MIN_GAP_S`` and ``force`` is false."""
        gap = self.clock() - self.last
        if gap < MIN_GAP_S and not force:
            return
        k = min(MAX_SLICES, max(self.min_slices, round(SHARE * gap / REF_SLICE_S)))
        self.slices.extend(self.run_slice() for _ in range(k))
        self.last = self.clock()

    def slowdown(self) -> float:
        """The reference task's mean time now, over its time on the defining machine."""
        return statistics.fmean(self.slices) / REF_SLICE_S
