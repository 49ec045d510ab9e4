"""Machine-speed calibration for timings taken on a shared, noisy host.

On a shared 2-core virtual machine the host's speed drifted by up to 2x over
tens of seconds (other tenants on the same cores), and lgeo's code slows
with it.  A fixed reference kernel, owned by the benchmark and independent
of lgeo, is timed in short bursts interleaved with the operations: between
them, and during untraced passes also inside them, from a SIGALRM interval
timer, so that an operation lasting seconds is calibrated by bursts taken
while it ran.  Time spent in bursts is subtracted from the operation that
contained it.  Every reported time is scaled by ``REFERENCE_S / mean kernel
time around it``: it reads as the time on a machine where the kernel takes
``REFERENCE_S``.  The kernel mixes what lgeo's time goes to: interpreter-bound
calls on tiny arrays, small dense solves, one vector operation and float
formatting.  Raw times are kept in the full result as well.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 1.25e-3      # nominal kernel time (a quiet 2-core host)
BURST_EVERY_S = 0.1        # at most this long between bursts during a pass
WINDOW_S = 0.25            # bursts within this distance of an op set its factor

_X = np.array([0.1, -0.3, 0.2])
_A = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.0]])
_V = np.linspace(0.0, 1.0, 4096)


def kernel() -> float:
    """Duration of one fixed unit of work."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(150):
        z = np.concatenate([_X, [0.0]])
        z = z - z.max()
        acc += float(np.log(np.exp(z).sum()))
    for _ in range(30):
        acc += float(np.linalg.solve(_A, _X) @ _X) + float(np.linalg.eigvalsh(_A).max())
    acc += float(np.exp(_V).sum())
    ",".join(f"{v:.17g}" for v in _V[:150])
    return time.perf_counter() - t0


class Calibrator:
    """Start, end and kernel duration of every reference-kernel burst."""

    def __init__(self):
        self.start: list[float] = []
        self.at: list[float] = []
        self.dur: list[float] = []
        self._running = False

    def burst(self, *_signal) -> None:
        """Time the kernel once."""
        if self._running:  # a timer signal arrived during a burst
            return
        self._running = True
        try:
            t0 = time.perf_counter()
            d = kernel()
            self.start.append(t0)
            self.at.append(time.perf_counter())
            self.dur.append(d)
        finally:
            self._running = False

    def due(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= BURST_EVERY_S:
            self.burst()

    def sampling(self, on: bool) -> None:
        """Start or stop bursts from the interval timer."""
        if on:
            signal.signal(signal.SIGALRM, self.burst)
            signal.setitimer(signal.ITIMER_REAL, BURST_EVERY_S, BURST_EVERY_S)
        else:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def kernel_time(self, t0: float, t1: float) -> float:
        """Mean burst within ``WINDOW_S`` of the interval [t0, t1]: an operation's
        time integrates the host's slowness over its duration."""
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        near = self.dur[lo:hi]
        if not near:
            k = min(range(len(self.at)), key=lambda i: abs(self.at[i] - (t0 + t1) / 2))
            near = [self.dur[k]]
        return statistics.fmean(near)

    def busy(self, t0: float, t1: float) -> float:
        """Time spent in bursts that ran inside [t0, t1]."""
        lo = bisect.bisect_left(self.start, t0)
        hi = bisect.bisect_right(self.at, t1)
        return sum(self.at[i] - self.start[i] for i in range(lo, hi))

    def scale(self, t0: float, t1: float) -> float:
        """Time spent in [t0, t1] outside bursts, scaled to the reference speed."""
        return (t1 - t0 - self.busy(t0, t1)) * REFERENCE_S / self.kernel_time(t0, t1)

    def raw(self, t0: float, t1: float) -> float:
        return t1 - t0 - self.busy(t0, t1)
