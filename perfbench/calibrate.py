"""Machine-speed calibration of the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed changes
by up to 1.8x, in episodes from tens of milliseconds to minutes, as other
tenants come and go; process CPU time changes with it, so neither wall
nor CPU time alone repeats between runs.  Every reported time is
therefore *calibrated*: the wall time of an operation, scaled by how
fast a fixed reference task ran around and during it::

    calibrated = wall * REFERENCE_S / reference time measured then

The reference task is pure-Python standard-library code (``difflib``
matching two fixed line lists), dict- and list-heavy like the program,
and independent of the program: a commit that makes the program faster
or slower moves the calibrated time exactly as much as the wall time,
while a slower machine moves the reference and the operation together
and cancels out.  The garbage collector is off while the reference runs,
so the program's heap does not leak into it.  The record keeps the raw
wall times next to the calibrated ones.
"""

from __future__ import annotations

import bisect
import contextlib
import difflib
import gc
import signal
import statistics
import time

#: A fixed scale: the reference task's time on a 2-CPU x86-64 Xeon VM
#: (Python 3.11) in its slower, more common state, so that a calibrated
#: time reads close to a wall time on that machine.
REFERENCE_S = 0.0021

#: Reference tasks per reading, by default.
REPEATS = 3

#: Wall time between the readings taken while sampling.
SAMPLE_EVERY_S = 0.1

_LEFT = [f"line {i % 37} value {i * 7 % 101}" for i in range(900)]
_RIGHT = [f"line {i % 41} value {i * 7 % 103}" for i in range(900)]


def reference_task() -> float:
    """The fixed reference work; returns its similarity ratio (unused)."""
    return difflib.SequenceMatcher(None, _LEFT, _RIGHT).ratio()


class Speedometer:
    """Readings of the reference task's time, in the order taken.

    A reading is the median of ``repeats`` reference tasks.  Inside
    :meth:`sampling` a timer signal takes a reading every ``every_s``
    seconds of wall time, in the middle of whatever the process is
    doing, so a long operation is read throughout and not only at its
    ends.  ``spent_s`` is the wall time spent reading, which the timed
    operations subtract.
    """

    def __init__(self, every_s: float = SAMPLE_EVERY_S, repeats: int = REPEATS) -> None:
        self.every_s = every_s
        self.repeats = repeats
        self.readings: list = []
        self.spent_s = 0.0
        self._reading = False

    def tick(self) -> None:
        """Take one reading, unless one is already being taken (the
        timer fired during a reading)."""
        if self._reading:
            return
        self._reading = True
        entered = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            samples = []
            for _ in range(self.repeats):
                started = time.perf_counter()
                reference_task()
                samples.append(time.perf_counter() - started)
            self.readings.append(statistics.median(samples))
        finally:
            if enabled:
                gc.enable()
            self.spent_s += time.perf_counter() - entered
            self._reading = False

    @contextlib.contextmanager
    def sampling(self):
        """Read the speed on entry, every ``every_s`` seconds while
        inside, and on exit."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.tick())
        self.tick()
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.tick()


def calibrate(ops: list, readings: list) -> list:
    """Calibrated seconds of each ``(wall s, first, last)`` operation:
    its wall time scaled by the mean of ``readings[first:last + 1]``, the
    last reading before it, those taken during it and the first after."""
    return [wall * REFERENCE_S / statistics.mean(readings[first:last + 1])
            for wall, first, last in ops]


def calibrate_spans(spans: list, stamps: list, readings: list) -> list:
    """Calibrated seconds of each ``(start, end)`` wall-clock span, given
    readings taken at ``stamps`` (same clock, ascending, one before the
    first span and one after the last): its length scaled by the mean of
    the readings taken during it and the last before and first after it."""
    calibrated = []
    for start, end in spans:
        first = max(0, bisect.bisect_right(stamps, start) - 1)
        last = min(len(stamps) - 1, bisect.bisect_left(stamps, end))
        calibrated.append((end - start) * REFERENCE_S
                          / statistics.mean(readings[first:last + 1]))
    return calibrated
