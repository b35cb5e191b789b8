"""A clock that also counts reference time, for a machine whose speed swings.

The reference machine is shared, and its cores slow down by up to about
40% in spells of a few seconds (NOTES.md has the measurements).  The
clock re-times a small calibration loop every quarter second from a
SIGALRM handler and advances a second, *reference* time by wall time
divided by the loop's latest time.  A reference second is a second on a
machine where the loop takes exactly 1 ms, so reference times of one
operation agree across slow and fast spells.  Time spent in the handler
is left out of both clocks.
"""

from __future__ import annotations

import signal
from time import perf_counter

TICK_S = 0.25
LOOP_REFERENCE_S = 1e-3


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the median of three runs.

    The loop mixes the interpreter work the package does (list
    arithmetic mod p, sorting, tuple hashing, set inserts) and takes
    about 1 ms.
    """
    samples = []
    for _ in range(3):
        t0 = perf_counter()
        p, a, seen = 10007, list(range(1, 40)), set()
        for r in range(60):
            b = [(x * x + r) % p for x in a]
            seen.add(tuple(sorted(b)))
            a = [(x * 3 + y) % p for x, y in zip(b, a)]
        samples.append(perf_counter() - t0)
    samples.sort()
    return samples[1]


class RefClock:
    """Wall time without calibration, and reference time, since creation."""

    def __init__(self):
        t0 = perf_counter()
        self._speed = LOOP_REFERENCE_S / calibrate()
        self._last = perf_counter()
        self.overhead = self._last - t0  # seconds spent calibrating
        self._wall = 0.0
        self._ref = 0.0
        self._ticking = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _advance(self, t: float) -> None:
        dt = t - self._last
        self._wall += dt
        self._ref += dt * self._speed
        self._last = t

    def _tick(self, signum, frame) -> None:
        if self._ticking:  # a late signal arriving inside the handler
            return
        self._ticking = True
        t0 = perf_counter()
        self._advance(t0)
        self._speed = LOOP_REFERENCE_S / calibrate()
        self._last = perf_counter()
        self.overhead += self._last - t0
        self._ticking = False

    def now(self) -> tuple[float, float]:
        """(wall seconds, reference seconds); the tick cannot interleave."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._advance(perf_counter())
            return self._wall, self._ref
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
