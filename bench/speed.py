"""Host speed probe: a fixed pure-Python computation timed throughout a run.

On a shared virtual machine the host's speed drifts by tens of percent over
seconds to minutes, and the program's CPU time drifts with it.  The probe
does the same kind of work as pervchow (products of polynomials held in
dicts of tuples) but runs none of its code.  Dividing a latency by the
probe's slowdown around it reports the latency at the reference speed,
while a change to pervchow still moves it in full.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

from oracles import ProjectiveProduct

NOMINAL_NS = 571_000  # probe time at the reference speed: median on a calm host
INTERVAL_NS = 20_000_000  # a burst at most every 20 ms
BURST = 3  # probes per burst


class SpeedProbe:
    def __init__(self):
        self._model = ProjectiveProduct("product(P3,P4)")
        self._polys = [{e: 1 for e in self._model.monomials(k)} for k in range(self._model.dim + 1)]
        self.bursts = []  # probe times in ns, one list per burst
        self._last = None

    def _once(self):
        t0 = perf_counter_ns()
        for a in self._polys:
            for b in self._polys:
                self._model.mul(a, b)
        return perf_counter_ns() - t0

    def burst(self):
        self.bursts.append([self._once() for _ in range(BURST)])
        self._last = perf_counter_ns()

    def mark(self):
        """Probe if a burst is due; the index of the latest burst."""
        if self._last is None or perf_counter_ns() - self._last >= INTERVAL_NS:
            self.burst()
        return len(self.bursts) - 1

    def slowdown(self, first, last):
        """How much slower than the reference the host ran over bursts ``first..last``."""
        samples = [t for burst in self.bursts[first : last + 1] for t in burst]
        return statistics.median(samples) / NOMINAL_NS

    def run_slowdown(self):
        return self.slowdown(0, len(self.bursts) - 1)
