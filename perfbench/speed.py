"""Timing on a shared CPU, scaled to a fixed CPU speed.

The speed of a shared CPU flips: the same pure-Python loop runs at one
speed for a tenth of a second and at 1.7 times that the next, with
nothing else running in the machine, and how much of its time the CPU
spends in each state drifts over minutes.  CPU time moves with wall
time.  So while the benchmark times its work, a ``SIGALRM`` timer
interrupts it every ``INTERVAL_S`` seconds to time ``probe()``, a fixed
piece of pure-Python work, on the same thread.  A piece of work timed
from ``start`` to ``end`` is reported as

    wall   = end - start - (time spent in probes in between)
    scaled = wall * PROBE_S / (mean probe time in between)

that is, in seconds of a CPU on which ``probe()`` takes ``PROBE_S``.  A
piece too short to hold ``MIN_PROBES`` probes is scaled by the probes
nearest to it in time.  A change to korbits moves the scaled times as it
moves the wall times; the probe is the benchmark's own and does not
change with korbits.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

#: Scaled times are seconds on a CPU on which ``probe()`` takes this long.
PROBE_S = 1e-4
#: Time between probes.
INTERVAL_S = 0.01
#: Fewest probes a piece of work is scaled by.
MIN_PROBES = 3


def probe() -> int:
    """Fixed pure-Python work of the kind korbits does: composing
    permutation tuples and hashing them."""
    p = (3, 1, 4, 0, 7, 5, 2, 6)
    acc = 0
    for _ in range(60):
        p = tuple(p[j] for j in p)
        acc += hash(p) & 7
    return acc


class Clock:
    """Probes the CPU's speed every ``INTERVAL_S`` seconds while active
    (``with clock:``) and scales the pieces of work timed meanwhile."""

    def __init__(self) -> None:
        self.starts: list[float] = []  # perf_counter() at each probe's start
        self.probes: list[float] = []  # each probe's duration

    def _probe(self, signum, frame) -> None:
        # The probe's allocations must not start a collection of the
        # work's heap, which would be timed as the probe's.
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        probe()
        self.probes.append(time.perf_counter() - start)
        self.starts.append(start)
        if enabled:
            gc.enable()

    def __enter__(self) -> "Clock":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def times(self, start: float, end: float) -> tuple[float, float]:
        """(wall, scaled) seconds of the work from ``start`` to ``end``,
        two ``perf_counter()`` readings taken while the clock was active."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        wall = end - start - sum(self.probes[lo:hi])
        # Too short a piece takes in the probes nearest to it in time.
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.starts)):
            if hi == len(self.starts) or (lo > 0 and start - self.starts[lo - 1] < self.starts[hi] - end):
                lo -= 1
            else:
                hi += 1
        return wall, wall * PROBE_S / statistics.mean(self.probes[lo:hi])
