"""Calibrated timing for a shared host whose CPU speed drifts.

On a shared 2-core Intel Xeon virtual machine, the same fixed work runs
up to 1.7x slower for seconds to minutes at a time, because other guests
share the host; raw wall times of identical 35 s runs spread by 25 %
between quartiles.  The guest sees no steal time, so the drift cannot be
subtracted; it can be measured.  :meth:`Clock.mark` runs a fixed
pure-Python reference kernel (about 0.5 ms) at every operation boundary.
Between two marks the host's speed is taken as the mean of their kernel
times, and a raw interval counts ``REF_S / kernel time`` seconds per
second: the time the work would take at the speed at which the kernel
takes ``REF_S``, its fastest time on an idle core of that machine.  Time
spent in the kernel itself is not counted.

The kernel imports nothing, so marks can bracket the program's imports.
"""

import bisect
import time

_now = time.perf_counter

REF_S = 4.5e-4
_LOOPS = 240
_XS = [0.5 * j for j in range(64)]


def reference_kernel() -> float:
    """Run the fixed reference work; return its raw duration."""
    t0 = _now()
    acc = 0.0
    for _ in range(_LOOPS):
        for x in _XS:
            acc = acc * 0.999 + x * x
    return _now() - t0


class Clock:
    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernel_s: list[float] = []
        self._cum: list[float] | None = None

    def mark(self) -> float:
        """Run the reference kernel now; return the raw time it started.

        The interval between two marks' return values is the work between
        them, kernel excluded."""
        t0 = _now()
        d = reference_kernel()
        t1 = _now()
        self.starts.append(t0)
        self.ends.append(t1)
        self.kernel_s.append(d)
        self._cum = None
        return t0

    def _factor(self, k: int) -> float:
        """Speed factor of the work segment after mark k."""
        nxt = self.kernel_s[min(k + 1, len(self.kernel_s) - 1)]
        return REF_S / (0.5 * (self.kernel_s[k] + nxt))

    def _at(self, t: float) -> float:
        """Calibrated work seconds from the first mark up to raw time t."""
        if self._cum is None:
            cum = [0.0]
            for k in range(len(self.starts) - 1):
                cum.append(cum[-1] + (self.starts[k + 1] - self.ends[k]) * self._factor(k))
            self._cum = cum
        k = bisect.bisect_right(self.starts, t) - 1
        if k < 0:
            raise ValueError("time before the first mark")
        return self._cum[k] + max(0.0, t - self.ends[k]) * self._factor(k)

    def seconds(self, t0: float, t1: float) -> float:
        """Calibrated seconds of work in the raw interval [t0, t1]."""
        return self._at(t1) - self._at(t0)

    def kernel_time(self, t0: float, t1: float) -> float:
        """Raw time spent in the reference kernel within [t0, t1]."""
        return sum(
            max(0.0, min(e, t1) - max(s, t0)) for s, e in zip(self.starts, self.ends)
        )

    def speed(self) -> float:
        """Median speed of the host over the marks, relative to REF_S."""
        ks = sorted(self.kernel_s)
        return REF_S / ks[len(ks) // 2]
