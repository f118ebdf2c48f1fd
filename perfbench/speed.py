"""Machine-speed probes: the benchmark's times at a fixed reference speed.

The shared VMs the benchmark runs on change speed by a quarter or more for
stretches of seconds to minutes, in CPU time as much as in wall time, so
the raw time of the same work differs by that much between runs.  A fixed
pure-Python loop of the benchmark's own (the probe), run between ops,
measures the machine's speed at that moment, and every reported time is
scaled to a machine where the probe takes ``REFERENCE_S``: the measured
time is multiplied by ``(REFERENCE_S / probe) ** exponent``, with ``probe``
the median of the probes taken while it ran or within ``HALF_WINDOW_S`` of
it (short enough to follow bursts of slowness, long enough to hold a few
probes).  A change to mmw does not touch the probe, so it moves the
scaled times by the same factor as the raw ones.  The raw times are kept
in the run records and printed beside the scaled ones.

mmw's work does not slow down quite as much as the probe does, so the
exponent is below 1.  It was fitted on the baseline machine (2 vCPUs,
Python 3.11) as the one that left the least spread between runs of the
same workload with different seeds:

* ``OP_EXPONENT`` for ops that run in the measuring process: with it the
  spread (quartile distance over median) of ops/s, median and tail latency
  over ten seeds was 0.02-0.08 on every workload but ``decide``'s tail
  (0.12), against 0.05-0.22 raw;
* ``PROCESS_EXPONENT`` for work that starts a process (set-up, and the
  ``cli`` workload's commands), about half of which is process start and
  file reads that do not slow down with the probe: set-up spread
  0.07-0.12, against 0.15-0.23 raw and up to 0.22 with the full ratio.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

REFERENCE_S = 0.001     # about the probe's median on the baseline machine
PROBE_EVERY_S = 0.1
PROBE_REPEATS = 3
HALF_WINDOW_S = 0.25
OP_EXPONENT = 0.75
PROCESS_EXPONENT = 0.5


def _loop() -> int:
    """Dict, tuple and integer work, as the interpreter does for mmw."""
    table: dict = {}
    acc = 0
    for i in range(1500):
        key = (i, i * 7 & 255, i % 13)
        table[key] = table.get(key[1:], 0) + 1
        acc ^= hash(key) & 1023
    return acc


def probe() -> float:
    """Best of ``PROBE_REPEATS`` timed runs of the loop, with the collector off.

    The collector is off so that the size of mmw's heap, which a full
    collection would walk, does not change the probe.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            _loop()
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


def scaled_setup(setup_s: float, probe_s: float) -> float:
    """A set-up time at the reference speed, given the probe of its own process."""
    return setup_s * (REFERENCE_S / probe_s) ** PROCESS_EXPONENT


def speed_now(samples: int = 5) -> float:
    """The median of ``samples`` probes, after a cold one that is not counted."""
    probe()
    return statistics.median(probe() for _ in range(samples))


class Clock:
    """Probes at most every ``PROBE_EVERY_S`` and scales times by them.

    Call ``tick`` before each op; ``factor`` once the run is over, when the
    probes after an op are known too.
    """

    def __init__(self, exponent: float):
        probe()                         # the first run is cold; not counted
        self.exponent = exponent
        self.at: list[float] = []       # perf_counter() when each probe ended
        self.probes: list[float] = []

    def tick(self) -> None:
        """Probe if none was taken in the last ``PROBE_EVERY_S``."""
        if not self.at or time.perf_counter() - self.at[-1] >= PROBE_EVERY_S:
            self.probes.append(probe())
            self.at.append(time.perf_counter())

    def factor(self, start: float, end: float) -> float:
        """The scale for an op that ran from ``start`` to ``end`` (perf_counter)."""
        lo = bisect.bisect_left(self.at, start - HALF_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + HALF_WINDOW_S)
        # The tick before the op makes the window hold at least one probe.
        window = self.probes[min(lo, bisect.bisect_right(self.at, start) - 1):hi]
        return (REFERENCE_S / statistics.median(window)) ** self.exponent

    def summary(self) -> dict[str, float]:
        """How many probes ran, and their min, median and max in seconds."""
        if not self.probes:
            return {"count": 0}
        return {"count": len(self.probes), "min": min(self.probes),
                "median": statistics.median(self.probes), "max": max(self.probes)}
