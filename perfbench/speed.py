"""Host-speed probe: samples how fast this machine runs a fixed kernel
while the benchmark works, so timings can be scaled to a reference speed.

On a shared machine the same pass over the same inputs can take 2.2 s or
4.1 s, depending on what else runs on the host; over ten runs that spread
exceeded any useful regression bound.  The slowdowns hit the package and a
fixed Fraction kernel alike, so the ratio of the two is steady.  Every
``INTERVAL_S`` of wall time a SIGALRM handler runs ``kernel()`` once and
records how long it took.  ``clock()`` excludes the handler's own time, and
``factor()`` turns the mean kernel time over a stretch of work into the
scale that brings that stretch to a host where the kernel takes
``REFERENCE_KERNEL_S``.

The kernel uses only the standard library, so a change to the package
cannot speed it up or slow it down.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.02
REFERENCE_KERNEL_S = 0.001


def kernel() -> list:
    """Reduced row echelon form of a fixed 6x6 rational matrix."""
    n = 6
    rows = [[Fraction(i * j + 1, i + j + 2) for j in range(n)] for i in range(n)]
    for c in range(n):
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for r in range(n):
            if r != c:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return rows


class SpeedProbe:
    """Samples the kernel every ``INTERVAL_S`` while active (a context
    manager; main thread only)."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._previous = None
        self._factor: float | None = None

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        try:
            kernel()
            self.samples.append(time.perf_counter() - t0)
        finally:
            self.spent += time.perf_counter() - t0
            self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> float:
        """``time.perf_counter`` without the time spent in the probe."""
        return time.perf_counter() - self.spent

    def factor(self) -> float:
        """Scale to the reference speed for the work since the last call,
        from the kernel samples taken during it."""
        samples, self.samples = self.samples, []
        if samples:
            self._factor = REFERENCE_KERNEL_S / statistics.mean(samples)
        if self._factor is None:
            raise RuntimeError("no speed sample yet; the work was shorter than the interval")
        return self._factor
