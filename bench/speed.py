"""CPU time scaled to a fixed speed of the machine.

On a shared host the same job list can take 1.6 times as much CPU time in
one minute as in the next, because other tenants slow the CPU down.  A
``Meter`` times a fixed reference kernel every ``PERIOD`` seconds of CPU
time, from a profiling-timer signal, and counts each slice of CPU time in
between as ``slice * REFERENCE_S / t``, with ``t`` the median of the last
``WINDOW`` reference timings.  The sum is the CPU time the work would have
taken at the speed where one reference call takes ``REFERENCE_S``.  The
reference calls themselves are left out of both sums.

Only the main thread's CPU time is counted: the benchmark runs ``sgfact``
with a single thread.
"""

from __future__ import annotations

import collections
import signal
import statistics
import time

import numpy as np

PERIOD = 0.02  # seconds of CPU time between reference timings
WINDOW = 5  # reference timings in the running median
REFERENCE_S = 0.001  # a reference call at the nominal speed

_ROWS = (np.arange(600, dtype=np.int64).reshape(100, 6) * 7919) % 13
_VECTORS = [tuple((i * 7 + j * 3) % 5 for j in range(10)) for i in range(24)]


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def reference() -> int:
    """Fixed work: deduplicate the rows of a small integer matrix, then, for
    each of a few exponent vectors, find the first other one that divides it.

    Of the kernels tried (integer loops, tuples in dicts, random lookups in a
    large dict, sorting a large array and these two), the time of these two
    followed the swings of the workloads' CPU time most closely: the first on
    ``full-tame`` and ``invariants``, the second on ``wide-presentation``.
    """
    total = sum(len(np.unique(_ROWS, axis=0)) for _ in range(2))
    for b in _VECTORS:
        total += next((i for i, a in enumerate(_VECTORS) if a != b and _divides(a, b)), -1)
    return total


def scale(cpu_s: float, calls: int = 11) -> float:
    """CPU seconds just spent, at the nominal speed, from the reference's median time now."""
    timings = []
    for _ in range(calls):
        start = time.thread_time()
        reference()
        timings.append(time.thread_time() - start)
    return cpu_s * REFERENCE_S / statistics.median(timings)


class Meter:
    """Counts the main thread's CPU time, raw and scaled, while it is started."""

    def __init__(self) -> None:
        self.raw = 0.0  # CPU seconds, reference calls excluded
        self.scaled = 0.0  # CPU seconds at the nominal speed
        self.samples = 0
        self._timings: collections.deque[float] = collections.deque(maxlen=WINDOW)
        self._last = 0.0
        self._running = False
        self._ticking = False

    def _time_reference(self) -> None:
        start = time.thread_time()
        reference()
        self._timings.append(time.thread_time() - start)
        self.samples += 1

    def _account(self, now: float) -> None:
        part = now - self._last
        self.raw += part
        self.scaled += part * REFERENCE_S / statistics.median(self._timings)

    def _tick(self, signum, frame) -> None:
        if self._ticking:  # a tick inside the handler or inside read() is dropped
            return
        self._ticking = True
        now = time.thread_time()
        self._time_reference()
        self._account(now)
        self._last = time.thread_time()
        self._ticking = False

    def start(self) -> None:
        """Prime the running median, then sample every ``PERIOD`` seconds of CPU time."""
        for _ in range(WINDOW):
            self._time_reference()
        self._running = True
        signal.signal(signal.SIGPROF, self._tick)
        self._last = time.thread_time()
        signal.setitimer(signal.ITIMER_PROF, PERIOD, PERIOD)

    def stop(self) -> None:
        if self._running:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, signal.SIG_DFL)
            self._account(time.thread_time())
            self._running = False

    def read(self) -> tuple[float, float]:
        """(raw, scaled) CPU seconds so far; a job's figures are the difference of two reads."""
        if self._running:
            self._ticking = True  # a tick due now is dropped rather than interleaved
            now = time.thread_time()
            self._account(now)
            self._last = now
            self._ticking = False
        return self.raw, self.scaled
