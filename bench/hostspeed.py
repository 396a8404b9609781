"""The host's speed, sampled while the benchmark times the program.

The CPU the benchmark runs on is shared with other tenants, who slow it by
up to 2x for a minute at a time: longer than a whole benchmark run, so no
amount of repetition inside a run averages it out.  Instead a fixed
pure-Python reference kernel is timed between consecutive checked runs and,
from a timer signal, every ``INTERVAL_S`` during them.  Each sample gives a
speed factor, ``REFERENCE_S`` over the kernel's time; a checked run's factor
is the mean over the samples from just before it to just after it, and its
times multiplied by that factor are what it would have taken at reference
speed.  Time spent sampling inside a run is taken back out of its clock.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter
from typing import List

# The kernel's time on an unloaded host of the kind the baseline was taken
# on (2 vCPU Xeon VM, CPython 3.11): the speed all times are scaled to.
REFERENCE_S = 0.000253
INTERVAL_S = 0.025


def reference_kernel() -> int:
    """A fixed loop of dict and integer work, about a quarter millisecond."""
    table = {}
    acc = 0
    for i in range(1500):
        k = i % 257
        table[k] = table.get(k, 0) + i
        acc ^= (i * 31 + k) % 65521
    return acc


class HostSpeed:
    """Speed factors sampled in order; ``clock`` is ``perf_counter`` less the
    time the timer signal spent sampling."""

    def __init__(self) -> None:
        self.factors: List[float] = []
        self.spent = 0.0

    def clock(self) -> float:
        return perf_counter() - self.spent

    def sample(self) -> None:
        spent = self.spent
        t0 = perf_counter()
        reference_kernel()
        # a timer sample that lands inside this one is not this one's time
        self.factors.append(REFERENCE_S / (perf_counter() - t0 - (self.spent - spent)))

    def mean_since(self, first: int) -> float:
        """Mean factor of the samples from index ``first`` on."""
        return statistics.fmean(self.factors[first:])

    def _on_alarm(self, signum, frame) -> None:
        spent, t0 = self.spent, perf_counter()
        self.sample()
        self.spent = spent + (perf_counter() - t0)

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
