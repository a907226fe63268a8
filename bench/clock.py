"""Host speed, measured alongside the ops, so times can be normalised.

On a shared host, pure-Python work runs up to about 1.8x slower for seconds
at a time, and an op slows down by the same factor as a pure-Python
reference kernel (see README.md). The timed loop runs ``kernel`` after
every ``EVERY_NS`` of op time; each op's duration
is then scaled by ``REF_NS`` over the median kernel time of the samples
around it. A normalised time is the time the op would take on a host where
``kernel`` takes ``REF_NS``. Keep ``kernel`` and ``REF_NS`` fixed: they
define the unit that every run of the benchmark is compared in.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left
from time import perf_counter_ns

REF_NS = 100_000  # kernel time of the reference host
EVERY_NS = 5_000_000  # op time between two kernel samples
WINDOW = 5  # kernel samples taken on each side of an op


def kernel():
    """Fixed interpreter work like the simulator's slot loop: dict and tuple
    traffic, float arithmetic and a keyed minimum."""
    state = {u: (100.0 + u, 10.0 + 0.1 * u) for u in range(8)}
    first = []
    for _ in range(20):
        for u in range(8):
            x, v = state[u]
            a = -0.5 if x > 150.0 else 0.3
            state[u] = (x + v * 0.1 + 0.005 * a, v + 0.1 * a)
        first.append(min(state.items(), key=lambda kv: kv[1][0])[0])
    return first


class Clock:
    def __init__(self):
        self.at: list[int] = []
        self.ns: list[int] = []
        self._since = EVERY_NS

    def sample(self) -> None:
        t0 = perf_counter_ns()
        kernel()
        self.at.append(t0)
        self.ns.append(perf_counter_ns() - t0)

    def tick(self, op_ns: int) -> None:
        """Account ``op_ns`` of op time; sample when ``EVERY_NS`` is due."""
        self._since += op_ns
        if self._since >= EVERY_NS:
            self._since = 0
            self.sample()

    def scale(self, t_ns: int) -> float:
        """Normalising factor for an op that started at ``t_ns``."""
        j = bisect_left(self.at, t_ns)
        return REF_NS / statistics.median(self.ns[max(0, j - WINDOW) : j + WINDOW])
