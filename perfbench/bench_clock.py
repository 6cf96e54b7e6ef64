"""Op timing that is steady on a machine whose CPU speed drifts.

On a small shared machine the same op can take 1.7x longer for stretches of
seconds to a minute, on either CPU, whatever the benchmark does.  Wall seconds
then spread by 15-35% between runs.  A fixed reference kernel, timed on the
same thread while the op runs, slows down with it: an op's wall time divided
by the kernel's time stays put.  Timings are reported in nominal seconds:
wall seconds x NOMINAL_REF_S / (the kernel's time around them), that is,
seconds on this kind of machine when the kernel takes NOMINAL_REF_S.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

NOMINAL_REF_S = 0.004
PERIOD_S = 0.25


def reference_seconds() -> float:
    """Wall time of a fixed few milliseconds of interpreter and small-array
    numpy work, independent of alphasine."""
    start = perf_counter()
    acc = 0
    for k in range(60_000):
        acc += k
    a = np.linspace(0.0, 1.0, 200)
    for _ in range(300):
        a = np.cos(a) * 0.5 + np.dot(a, a) * 1e-6
    return perf_counter() - start


class SpeedProbe:
    """Times the reference kernel at each span's edges and, from a SIGALRM
    handler, every PERIOD_S inside it, so a long op is corrected for speed
    changes during it.

    `clock()` is perf_counter less the time spent in the kernel, so timing the
    probe's own samples does not inflate the spans it corrects.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._spent = 0.0
        self._previous = None

    def clock(self) -> float:
        return perf_counter() - self._spent

    def sample(self) -> None:
        seconds = reference_seconds()
        self.samples.append(seconds)
        self._spent += seconds

    def _tick(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn):
        """Run fn() between two edge samples; returns (result, reference
        seconds over the span: the mean of its edge and inner samples)."""
        first = len(self.samples) - 1
        result = fn()
        self.sample()
        return result, statistics.fmean(self.samples[first:])


def nominal(seconds: float, ref: float) -> float:
    return seconds * NOMINAL_REF_S / ref
