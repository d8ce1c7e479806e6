"""Calibrated timing on a machine whose speed drifts.

On a shared two-vCPU VM the same single-threaded work runs up to ~1.8x
slower for seconds at a time, and the two vCPUs drift independently
(presumably another tenant on the sibling hardware thread).  A raw wall
time then measures the neighbour as much as the program, and no run
length averages it out, because the slow and fast phases last 5-20 s.

So every timed interval is paired with a reference probe: a fixed walk
over a pool of Fractions larger than the L2 cache, close to the mix of
object loads and big-integer arithmetic the pipeline does.  Probes run
every ``TICK_S`` from a SIGALRM handler while work runs in this process,
or explicitly before and after work that runs in a child process.  The
calibrated time of an interval is its wall time, less the time the
probes inside it took, scaled by ``(REF_PROBE_S / mean probe time)**alpha``
around the interval: seconds at the speed at which one probe takes 1 ms.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REF_PROBE_S = 1e-3
TICK_S = 0.05
# Speed is averaged over probes this far either side of an interval: wide
# enough that a short stage sees ~10 probes, narrow next to the 5-20 s phases.
WINDOW_S = 0.25
# In-process pipeline work slows a little more than the probe: over 20 runs
# of each compute workload, residual calibrated times still rose with the
# probe time, and scaling by (1 ms / probe)^1.15 removed most of that (and
# most of the drift between two sets of runs an hour apart).  CLI commands,
# dominated by process start-up, track the probe 1:1.
IN_PROCESS_ALPHA = 1.15
_POOL = [Fraction(i, i % 89 + 1) for i in range(1, 50001)]
_STRIDE = 125  # 400 loads per probe, spread over the whole pool


class Clock:
    """Probe samples ``(start, duration)`` on one timeline."""

    def __init__(self, alpha: float = 1.0):
        self.alpha = alpha
        self.samples: list[tuple[float, float]] = []
        self._offset = 0

    def probe(self) -> None:
        self._offset = (self._offset + 7) % _STRIDE
        pool = _POOL
        t0 = time.perf_counter()
        acc = 0
        for k in range(self._offset, len(pool), _STRIDE):
            acc += pool[k]
        self.samples.append((t0, time.perf_counter() - t0))

    def probes(self, count: int = 2) -> None:
        for _ in range(count):
            self.probe()

    def _on_alarm(self, signum, frame) -> None:
        self.probe()

    def start(self) -> None:
        """Probe every TICK_S until :meth:`stop`; only for in-process work."""
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def speed(self, t0: float, t1: float) -> float:
        """Mean probe duration in and just around [t0, t1]."""
        near = [d for s, d in self.samples if t0 - WINDOW_S <= s <= t1 + WINDOW_S]
        if len(near) < 2:
            mid = (t0 + t1) / 2
            near = [d for _, d in sorted(self.samples, key=lambda sd: abs(sd[0] - mid))[:4]]
        if not near:
            raise RuntimeError("no probe samples to calibrate against")
        return statistics.fmean(near)

    def calibrated(self, t0: float, t1: float) -> float:
        """Seconds of work in [t0, t1], at the reference probe speed."""
        probing = sum(d for s, d in self.samples if t0 <= s < t1)
        return (t1 - t0 - probing) * (REF_PROBE_S / self.speed(t0, t1)) ** self.alpha

    def wall(self, t0: float, t1: float) -> float:
        """Seconds of work in [t0, t1] as the wall clock saw them."""
        return t1 - t0 - sum(d for s, d in self.samples if t0 <= s < t1)
