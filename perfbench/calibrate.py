"""Host-speed calibration, interleaved with the measured work.

The host this benchmark targets is a few vCPUs of a shared machine, and
its speed drifts by tens of percent over tens of seconds: the same
NumPy kernel runs 30 rounds a second for a while, then 45, then 30, and
the paper wedge's 700-step schedule took 10.5 s in one run and 17 s in
another an hour later.  Raw wall times of the same program spread by
20 % or more between runs, more than any bound ``BENCHMARK.json`` admits
leaves room for.

So every run times a fixed reference kernel between blocks of its own
work: about once a second between steps and between service jobs, and
around each set-up.  The kernel is an argsort + take of 400k doubles:
the sort-and-gather pattern of the DSMC step over a working set (≈6 MB)
the size of the paper wedge's particle columns, so that it feels the
cache and memory contention the program feels, not only the CPU's.

The host's *slowness* over an interval is the median reference time of
the ticks taken in it and next to it, over the nominal
:data:`REFERENCE_S`.  Every reported time is its wall time, minus the
ticks taken inside it, divided by that slowness: the time the program
would have taken on this host at its nominal speed.  A slower program
reads slower; a slower host does not.  The raw wall times stay in the
record next to the calibrated ones.
"""

from __future__ import annotations

import bisect
import time
from typing import List, Tuple

import numpy as np

#: Nominal seconds of one reference tick (2-vCPU Xeon @ 2.1 GHz, a
#: typical run's median tick).  A constant: it only sets the scale in
#: which calibrated times read, so that they stay close to wall times.
REFERENCE_S = 0.060
#: Length of the reference kernel's array.
SIZE = 400_000
#: Seconds of work between two ticks taken by :meth:`HostClock.maybe_tick`.
TICK_EVERY_S = 1.0


class HostClock:
    """Reference ticks taken during a run, and what they say of the host."""

    def __init__(self) -> None:
        self._data = np.random.default_rng(0).random(SIZE)
        self.starts: List[float] = []
        self.durations: List[float] = []
        #: Running total of tick time, for subtracting ticks from spans.
        self._spent: List[float] = [0.0]

    def tick(self) -> float:
        """Time the reference kernel once; returns its duration."""
        t0 = time.perf_counter()
        np.take(self._data, np.argsort(self._data, kind="stable"))
        dt = time.perf_counter() - t0
        self.starts.append(t0)
        self.durations.append(dt)
        self._spent.append(self._spent[-1] + dt)
        return dt

    def maybe_tick(self) -> None:
        """Tick if :data:`TICK_EVERY_S` has passed since the last tick."""
        if time.perf_counter() - self.starts[-1] >= TICK_EVERY_S:
            self.tick()

    def _window(self, t0: float, t1: float) -> Tuple[int, int]:
        """Index range of the ticks in ``[t0, t1]`` plus one either side."""
        lo = max(bisect.bisect_left(self.starts, t0) - 1, 0)
        hi = min(bisect.bisect_right(self.starts, t1) + 1, len(self.starts))
        return lo, hi

    def slowness(self, t0: float, t1: float) -> float:
        """The host's slowness over ``[t0, t1]``; 1.0 with no ticks."""
        lo, hi = self._window(t0, t1)
        if hi <= lo:
            return 1.0
        return float(np.median(self.durations[lo:hi])) / REFERENCE_S

    def ticks_within(self, t0: float, t1: float) -> float:
        """Seconds of ticks that started inside ``[t0, t1]``."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        return self._spent[hi] - self._spent[lo]

    def elapsed(self, t0: float, t1: float) -> float:
        """Calibrated seconds of the interval ``[t0, t1]``."""
        return (t1 - t0 - self.ticks_within(t0, t1)) / self.slowness(t0, t1)

    def summary(self) -> dict:
        d = np.asarray(self.durations)
        return {
            "kernel": f"argsort+take of {SIZE} float64",
            "reference_s": REFERENCE_S,
            "ticks": len(d),
            "tick_s_median": float(np.median(d)) if len(d) else None,
            "tick_s_min": float(d.min()) if len(d) else None,
            "tick_s_max": float(d.max()) if len(d) else None,
        }
