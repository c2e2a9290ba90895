"""The current speed of the core the benchmark runs on.

On a shared machine the speed of one core drifts by tens of percent
within seconds, with other tenants' load; wall times of the same task
taken a minute apart differ by as much.  A fixed reference kernel is
timed every INTERVAL_S from a SIGALRM handler.  The handler runs in the
main thread between bytecodes of whatever runs there, so it samples the
same core at the same time as the task.  A task's cost is its time,
without the samples taken inside it, divided by the median kernel time
around it: the task's time in units of the reference kernel, which the
drift leaves almost unchanged.

The kernel mixes the two kinds of work bathcool does: a plain Python
loop and a batched 6x6 complex inverse with its residual norms.  On the
three workloads it tracked the drift better than either part alone.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
# short tasks take the kernel samples within this distance of their middle
MIN_HALF_WINDOW_S = 0.25

_STACK = np.random.default_rng(0).standard_normal((500, 6, 6)) * (1 + 1j) + 4 * np.eye(6)


def _kernel() -> None:
    total = 0
    for i in range(10000):
        total += i * i
    np.linalg.norm(_STACK @ np.linalg.inv(_STACK) - np.eye(6), axis=(1, 2))


class SpeedProbe:
    def __init__(self):
        self.starts = []
        self.seconds = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        _kernel()
        self.starts.append(t0)
        self.seconds.append(time.perf_counter() - t0)

    def __enter__(self):
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)
        return False

    def _range(self, lo, hi):
        return bisect.bisect_left(self.starts, lo), bisect.bisect_right(self.starts, hi)

    def split(self, t0: float, t1: float) -> tuple:
        """``(program_s, kernel_s)`` of the interval ``[t0, t1]``.

        ``program_s`` excludes the samples taken inside the interval;
        ``kernel_s`` is the median kernel time within the interval,
        widened to MIN_HALF_WINDOW_S around its middle for short tasks,
        or else the sample nearest to it.
        """
        i, j = self._range(t0, t1)
        program_s = t1 - t0 - sum(self.seconds[i:j])
        half = max((t1 - t0) / 2.0, MIN_HALF_WINDOW_S)
        mid = (t0 + t1) / 2.0
        i, j = self._range(mid - half, mid + half)
        if i == j:  # no sample in the window: take the nearest one
            i = min(i, len(self.starts) - 1)
            if i > 0 and mid - self.starts[i - 1] < self.starts[i] - mid:
                i -= 1
            j = i + 1
        return program_s, statistics.median(self.seconds[i:j])
