"""Timings scaled to a fixed reference speed of the core.

On a shared host the same code can run up to ~1.7x slower for seconds at a
time while other tenants load the core. CPU time slows as much as wall time
(it is not steal time), so neither clock hides it, and a 20 s run can sit in
a slow spell from start to end. The benchmark therefore measures the speed
of the core as it goes. While a run measures, a SIGALRM handler runs a fixed
probe every ``PERIOD`` seconds: small NumPy kernels of the sizes ``come``
layers run. A measured interval, less the probe time inside it, is scaled by

    REFERENCE_PROBE_S / mean of the probes within PERIOD of it

so it reads as it would on a core that runs the probe in exactly
REFERENCE_PROBE_S. That constant is near the probe's time on an unloaded
core of the 2-CPU Xeon host the benchmark was tuned on. A per-run reference,
such as the run's fastest probe, is not used: a run that never sees a quiet
moment would then read slow.

Step times track the probe closely. Over a minute in which contention swung
one step between 1.4 and 2.7 ms, the log of the step time followed the log
of the probe time with slope 1.04 and correlation 0.99. An interpreter loop
as the probe gave slope 1.2 and correlation 0.96. The probe runs no ``come``
code, so a change to ``come`` moves the scaled times exactly as it moves the
work.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from time import perf_counter

import numpy as np

PERIOD = 0.01  # seconds between probes
PROBE_ROUNDS = 12
REFERENCE_PROBE_S = 3.0e-4


class SpeedMeter:
    """Probe timings of one run, and the scaling of intervals by them."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((128, 32))
        self._w = rng.standard_normal((32, 32))
        self.starts: list = []
        self.ends: list = []
        self._busy = False

    def probe(self):
        if self._busy:  # a late signal while the last probe still runs
            return
        self._busy = True
        start = perf_counter()
        for _ in range(PROBE_ROUNDS):
            h = np.tanh(self._x @ self._w)
            h.sum(axis=0)
            np.argmin(h, axis=1)
        self.starts.append(start)
        self.ends.append(perf_counter())
        self._busy = False

    @contextmanager
    def running(self):
        """Probe every PERIOD seconds for the duration of the block."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def net(self, starts, ends) -> np.ndarray:
        """Length of each interval less the probe time inside it."""
        a, b = np.asarray(starts, dtype=float), np.asarray(ends, dtype=float)
        if not self.starts:
            return b - a
        p_start, p_end, cum = self._probes()
        # Probes run on the measured thread, so each lies wholly inside or
        # wholly outside an interval, and they never overlap each other.
        lo = np.searchsorted(p_start, a, "left")
        hi = np.maximum(np.searchsorted(p_end, b, "right"), lo)
        return (b - a) - (cum[hi] - cum[lo])

    def factor(self, starts, ends) -> np.ndarray:
        """REFERENCE_PROBE_S over the mean probe within PERIOD of each
        interval (the nearest probe when none is that close)."""
        a, b = np.asarray(starts, dtype=float), np.asarray(ends, dtype=float)
        if not self.starts:
            return np.ones_like(a)
        p_start, p_end, cum = self._probes()
        lo = np.searchsorted(p_end, a - PERIOD, "left")
        hi = np.searchsorted(p_start, b + PERIOD, "right")
        none = hi <= lo
        lo = np.where(none, np.clip(lo, 0, len(p_start) - 1), lo)
        hi = np.where(none, lo + 1, hi)
        mean_probe = (cum[hi] - cum[lo]) / (hi - lo)
        return REFERENCE_PROBE_S / mean_probe

    def scaled(self, intervals) -> np.ndarray:
        """Seconds each (start, end) interval would take at the reference speed."""
        starts, ends = np.asarray(intervals, dtype=float).reshape(-1, 2).T
        return self.net(starts, ends) * self.factor(starts, ends)

    def summary(self) -> dict:
        durations = np.subtract(self.ends, self.starts)
        if not durations.size:
            return {"probes": 0}
        return {"probes": int(durations.size),
                "fastest_ms": float(durations.min() * 1e3),
                "median_ms": float(np.median(durations) * 1e3),
                "reference_ms": REFERENCE_PROBE_S * 1e3}

    def _probes(self):
        p_start, p_end = np.asarray(self.starts), np.asarray(self.ends)
        return p_start, p_end, np.concatenate([[0.0], np.cumsum(p_end - p_start)])
