"""The host's speed, sampled while the program runs.

A shared host runs the same pure-Python code up to 1.7x slower in one
minute than in another, and the slowdown shows in CPU time as much as in
wall time (the core is shared, not taken away).  So every time the
benchmark reports is also given at a reference speed: the measured time
times REFERENCE_S over the mean time of a fixed reference loop sampled
during the same interval.

The reference loop is the benchmark's own code, never the program's: a
change to the program cannot move it.  It mixes what the program spends
its time on (Fraction arithmetic, tuple-keyed dicts, list sorting) and
runs with the garbage collector off, so a large heap left by the program
does not make one sample slow.

Samples come from an interval timer (SIGALRM) every INTERVAL_S of wall
time, also in the middle of a long call into the program, and one more
before each case.  The time spent in the handler is subtracted from the
case it interrupted.  The same handler enforces the per-case time cap.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.05
REFERENCE_S = 0.001     # the loop's time at the reference speed: that of
                        # a quiet 2-vCPU x86-64 VM, Python 3.11
LOOP_N = 400


class CaseTimeout(BaseException):
    """Raised by the interval timer; not an Exception, so the program's
    own handlers cannot swallow it."""


def reference_loop() -> int:
    """A fixed amount of interpreter work; returns a checksum so that the
    work cannot be skipped."""
    acc = Fraction(0)
    table: dict[tuple[int, int], int] = {}
    for i in range(LOOP_N):
        acc += Fraction(i % 7 + 1, i % 5 + 2)
        key = (i % 13, i % 11)
        table[key] = table.get(key, 0) + i
    return acc.denominator + sum(sorted(table.values()))


class Sampler:
    """Samples the reference loop on a timer; keeps the samples in order
    so that an interval's samples are `samples[a:b]`."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.in_handler = 0.0       # seconds spent sampling on the timer
        self.deadline: float | None = None
        self._old = None

    def sample(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference_loop()
            dur = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.samples.append(dur)
        return dur

    def _on_timer(self, signum, frame) -> None:
        start = time.perf_counter()
        self.sample()
        now = time.perf_counter()
        self.in_handler += now - start
        if self.deadline is not None and now >= self.deadline:
            self.deadline = None
            raise CaseTimeout()

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._old is not None:
            signal.signal(signal.SIGALRM, self._old)
            self._old = None

    def __enter__(self) -> "Sampler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def factor(self, first: int, last: int | None = None) -> float:
        """REFERENCE_S over the mean of samples[first:last]: multiply a
        time measured over that interval by it."""
        xs = self.samples[first:last]
        return REFERENCE_S * len(xs) / sum(xs)
