"""Machine-speed reference for the benchmark's times.

A shared host lends its cores to other tenants, and the speed of one core can
swing by up to 1.8x in phases of a few seconds (measured on a 2-core Xeon:
the same pure-Python loop takes 40 to 90 ms, with identical wall and CPU
time).  Its hypervisor can also steal stretches of wall time from a vCPU,
which the process's CPU time leaves out.  A raw repetition of 5 to 15 s
therefore reads differently from one run to the next, whatever the package
does.

So each time is also given at a nominal speed.  A fixed piece of Python work,
``ref()``, mixing dict and set updates with a small fraction-free elimination
in the style of the package's hot loops, is timed every ``PERIOD_S`` of CPU
time while the body runs.  Each slice of the body's CPU time is scaled by
``REF_S / r``, where ``r`` is the ref time measured around that slice (a
rolling median over a few samples, so one interrupted sample does not count).
The sum is the body's time on a machine on which ``ref()`` takes ``REF_S``.
Set-up is too short for sampling; it is scaled by a ref time measured at its
start and at its end.

The samples cost about 1% of the body's time, counted in the raw times but
not in the scaled ones.  A change to the package cannot change ``ref()``.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

REF_S = 0.0006  # nominal ref() time, about that of a fast phase on the host above
PERIOD_S = 0.05  # CPU time between samples
SMOOTH = 5  # samples in the rolling median


def ref() -> int:
    d: dict[int, int] = {}
    s = set()
    for i in range(1000):
        k = (i * 7919) % 257
        d[k] = d.get(k, 0) + 1
        s.add((k, i & 15))
    a = [[(i * j + i) % 7 - 3 for j in range(16)] for i in range(16)]
    prev = 1
    for c in range(6):
        p = a[c][c] or 1
        ar = a[c]
        for i in range(c + 1, 16):
            ai = a[i]
            f = ai[c]
            for j in range(c + 1, 16):
                ai[j] = (p * ai[j] - f * ar[j]) // prev
        prev = p
    return len(s) + len(d)


def ref_time() -> float:
    """CPU time of one ref(), with the cyclic collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        ref()
        return time.thread_time() - t0
    finally:
        if enabled:
            gc.enable()


def ref_median(k: int = 5) -> float:
    return statistics.median(ref_time() for _ in range(k))


def scaled(seconds: float, r: float) -> float:
    """``seconds`` measured while ref() took ``r``, at the nominal speed."""
    return seconds * REF_S / r


class Speedometer:
    """Samples ref() on a CPU-time timer while the body runs.

    start() and stop() bracket the body; stop() returns the body's CPU time
    at the nominal speed.  Only one may run in a process at a time, because
    it owns SIGVTALRM.
    """

    def __init__(self) -> None:
        self.slices: list[float] = []  # body CPU time between samples
        self.refs: list[float] = []  # ref time at the end of each slice
        self._last = 0.0

    def _sample(self, *_args) -> None:
        self.slices.append(time.thread_time() - self._last)
        self.refs.append(ref_time())
        self._last = time.thread_time()

    def start(self) -> None:
        ref_median()  # warm the interpreter's caches for ref()
        self._old = signal.signal(signal.SIGVTALRM, self._sample)
        self._last = time.thread_time()
        signal.setitimer(signal.ITIMER_VIRTUAL, PERIOD_S, PERIOD_S)

    def stop(self) -> float:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self._old)
        self._sample()
        half = SMOOTH // 2
        refs = self.refs
        return sum(
            scaled(cpu, statistics.median(refs[max(0, i - half) : i + half + 1]))
            for i, cpu in enumerate(self.slices)
        )

    def ref_s(self) -> float:
        """Median ref time over the body: how fast the machine ran."""
        return statistics.median(self.refs)
