"""Timing that factors out the speed the machine happens to run at.

A small shared machine does not run at one speed: on a 2-vCPU VM a fixed
pure-Python loop took 1.3 to 1.8 times longer in some stretches than in
others, and a stretch lasted from under a second to minutes. Taking the
fastest of a few passes cannot remove a stretch that lasts a whole run,
and a 40-second operation averages over many of them.

So while a run measures, a timer signal interrupts it every ``PERIOD_S``
and times a fixed calibration kernel that uses no code of the package.
An operation does work at a rate inverse to the kernel time of the
moment, so its work is its duration times the mean of ``1 / kernel time``
over the samples around it; times ``REF_S``, that is its duration at the
speed where the kernel takes ``REF_S``. Handler time is taken out of every
operation it interrupted. Operations, and their speedups, keep their
proportions; a stretch of slow machine slows the kernel as well and
mostly cancels out.
"""

from __future__ import annotations

import signal
from array import array
from bisect import bisect_left, bisect_right
from time import perf_counter

#: timer period between two calibration samples
PERIOD_S = 0.03
#: an operation is scaled by the samples up to this far on either side of it
WINDOW_S = 0.05
#: kernel time, in seconds, that defines the reference speed
REF_S = 0.0005


def kernel(n: int = 800) -> int:
    """Fixed dictionary, set, tuple and sorting work in plain Python."""
    table = {}
    for i in range(n):
        table[(i * 7919) % n, i & 7] = i
    low = {key for key in table if key[1] < 4}
    acc = 0
    for (a, b), v in sorted(table.items(), key=lambda kv: (kv[0][1], -kv[1])):
        if (a, b) in low:
            acc += v
        acc ^= hash((a, b, v))
    return acc


class Clock:
    """Calibration samples taken on a timer, and operation times scaled by them.

    With ``sampling`` off it takes no samples and ``scaled`` gives plain
    seconds.
    """

    def __init__(self, sampling: bool = True):
        self.sampling = sampling
        self.at = array("d")
        self.kernel_s = array("d")
        self.handler_s = 0.0
        self._previous = None

    def sample(self, *_signal) -> None:
        """Record the mean time of two kernel runs; the time spent is handler time.

        Not their minimum: a slow stretch can be made of short disturbances,
        and a minimum would pick the run that missed them.
        """
        start = perf_counter()
        kernel()
        kernel()
        self.at.append(start)
        self.kernel_s.append((perf_counter() - start) / 2)
        self.handler_s += perf_counter() - start

    def __enter__(self) -> Clock:
        if not self.sampling:
            return self
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *_exc) -> None:
        if not self.sampling:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def time(self, fn, *args):
        """``(fn(*args), (start, end, seconds))``, without the handler's time."""
        handler, start = self.handler_s, perf_counter()
        result = fn(*args)
        end = perf_counter()
        return result, (start, end, end - start - (self.handler_s - handler))

    def scaled(self, span) -> float:
        """Seconds of ``span`` at the reference speed; call after ``__exit__``."""
        start, end, seconds = span
        if not self.sampling:
            return seconds
        lo = bisect_left(self.at, start - WINDOW_S)
        hi = bisect_right(self.at, end + WINDOW_S)
        if lo >= hi:  # no sample that close: take the nearest ones
            lo, hi = max(0, lo - 1), min(len(self.at), lo + 1)
        window = self.kernel_s[lo:hi]
        return seconds * REF_S * sum(1 / k for k in window) / len(window)
