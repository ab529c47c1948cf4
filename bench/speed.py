"""Seconds at a reference speed, for a machine whose speed drifts.

On a shared machine the speed of one CPU can drift by a third within a
few seconds, as neighbours come and go, and a run of half a minute
catches different shares of fast and slow phases. So the harness reports
each measured block in seconds at a reference speed:

    ref_seconds = seconds * REF / (median probe-loop time around the block)

The probe loop is a fixed piece of pure-Python dict, tuple and string
work that calls no bcsys code. While the probe is running, a SIGALRM
timer interrupts the process every INTERVAL seconds to time the loop
once. A block is scaled by the probe samples taken while it ran and by
the EDGE samples just before and just after it (speed changes within a
second, so nearer samples track it best), and the time spent in the
interrupts is taken out of its measured seconds. Cyclic garbage
collection is off while the probe loop runs, so a collection of bcsys's
heap never lands in a sample; it runs in bcsys's own time instead. The
median of the samples is used, so a rare slow sample does not scale a
block. Signal handlers run in the main thread between bytecodes, so no
thread is added.

A change to bcsys never changes the probe loop, so a faster bcsys reads
as proportionally fewer reference seconds.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from dataclasses import dataclass

INTERVAL = 0.02
EDGE = 2
REF = 0.0004  # probe-loop seconds at the reference speed (an idle core here)
_LOOP = 600


def probe_loop() -> float:
    t0 = time.perf_counter()
    d: dict[tuple[str, str], int] = {}
    for i in range(_LOOP):
        k = ("a%d" % (i % 97), "b%d" % (i % 89))
        d[k] = d.get(k, 0) + 1
    sorted(d, key=lambda k: (k[1], k[0]))
    return time.perf_counter() - t0


@dataclass
class Measurement:
    """One measured block: ``seconds`` as measured and ``ref_seconds`` at the reference speed."""

    seconds: float = 0.0
    ref_seconds: float = 0.0
    start: float = 0.0
    end: float = 0.0


def _timed(fn, args, m: Measurement):
    result = error = None
    m.start = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # the caller counts the job as failed
        error = exc
    m.end = time.perf_counter()
    return result, error


def plain_measure(fn, *args):
    """Run ``fn(*args)``; return its result, a Measurement and the exception it raised."""
    m = Measurement()
    result, error = _timed(fn, args, m)
    m.seconds = m.ref_seconds = m.end - m.start
    return result, m, error


class SpeedProbe:
    """A context manager that samples the probe loop while it is entered.

    ``measure`` works like ``plain_measure``; the reference seconds of
    its Measurements are filled in on exit, when the samples after the
    last block exist.
    """

    def __init__(self) -> None:
        self._at: list[float] = []
        self._loop: list[float] = []
        self._spent = 0.0
        self._pending: list[Measurement] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._loop.append(probe_loop())
        finally:
            if enabled:
                gc.enable()
        self._at.append(t0)
        self._spent += time.perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        time.sleep(EDGE * INTERVAL)  # samples before the first block
        return self

    def __exit__(self, *exc) -> None:
        try:
            time.sleep((EDGE + 1) * INTERVAL)  # samples after the last block
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        for m in self._pending:
            lo = bisect.bisect_left(self._at, m.start) - EDGE
            hi = bisect.bisect_right(self._at, m.end) + EDGE
            m.ref_seconds = m.seconds * REF / statistics.median(self._loop[max(lo, 0):hi])
        self._pending.clear()

    def measure(self, fn, *args):
        """Run ``fn(*args)``; return its result, a Measurement and the exception it raised."""
        m = Measurement()
        spent = self._spent
        result, error = _timed(fn, args, m)
        m.seconds = m.end - m.start - (self._spent - spent)
        self._pending.append(m)
        return result, m, error
