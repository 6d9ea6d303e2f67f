"""Program time at a fixed reference speed of the host's processor.

On a shared host the speed of one core moves by up to 70% within seconds, as
other tenants load it: a fixed pure-Python loop takes 0.14 s in one second
and 0.24 s in the next. Any wall time then measures the host as much as the
program. This module measures that speed while the program runs and takes it
out again.

A ``SpeedClock`` interrupts the running program every ``INTERVAL_S`` seconds
of wall time (SIGALRM), and at each ``mark()`` the program makes, and runs one
calibration chunk: a fixed piece of pure-Python work of the kind spanflats
does (Fraction and integer arithmetic, tuples, dicts). Each interval of
program time is converted to reference seconds with the speed measured at its
two ends::

    ref = raw * REF_CHUNK_S / chunk_s

so a reference second is the time in which the processor runs
``1 / REF_CHUNK_S`` calibration chunks. The chunks themselves are not program
time: ``raw_s`` and ``mark()`` exclude them. A change that makes the program do
less work lowers its reference time; a slow minute on the host does not.
"""

from __future__ import annotations

import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.1
# The chunk's time at the reference speed; fixed, so figures compare across
# runs and commits. It is about the chunk's time on a shared 2-core x86-64
# host in its faster state (2.0 ms; 3.4 ms in its slower one).
REF_CHUNK_S = 0.0025


def chunk() -> None:
    """The calibration chunk: fixed work, allocation-neutral once it returns."""
    total = Fraction(0)
    table: dict = {}
    for i in range(1, 800):
        total += Fraction(i % 97, i % 89 + 1)
        key = (i % 31, i % 17)
        table[key] = table.get(key, 0) + i * i // 7


def chunk_seconds() -> float:
    """Wall time of one calibration chunk, with the collector off so the
    program's heap does not change its cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        chunk()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def reference_scale(samples: int = 5) -> float:
    """Reference seconds per wall second now: the median of a few chunks."""
    return REF_CHUNK_S / statistics.median(chunk_seconds() for _ in range(samples))


class SpeedClock:
    """Reference-speed time of the code running between ``start`` and ``stop``.

    ``mark()`` reads the reference time elapsed so far; the program calls it
    around pieces it times (each table row), so a piece shorter than the
    interval is still measured at the speed at its own two ends.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.ticks = 0
        # (reference s, raw s, wall time the open interval began, its scale)
        self._state = (0.0, 0.0, 0.0, 1.0)
        self._previous = None

    def start(self) -> None:
        scale = reference_scale()
        self._state = (0.0, 0.0, perf_counter(), scale)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._close_interval()

    def _tick(self, signum, frame) -> None:
        self.ticks += 1
        self._close_interval()

    def _close_interval(self) -> None:
        end = perf_counter()
        ref, raw, mark, scale = self._state
        new_scale = REF_CHUNK_S / chunk_seconds()
        span = end - mark
        self._state = (ref + span * (scale + new_scale) / 2, raw + span,
                       perf_counter(), new_scale)

    def mark(self) -> float:
        """Reference seconds of program time since ``start``."""
        # the timer's handler closes intervals too; keep it out meanwhile
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._close_interval()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        return self._state[0]

    @property
    def ref_s(self) -> float:
        return self._state[0]

    @property
    def raw_s(self) -> float:
        """Wall seconds of program time, calibration chunks excluded."""
        return self._state[1]
