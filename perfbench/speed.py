"""Timing on a shared machine: CPU time, at a reference speed.

The machine the benchmark was tuned on is shared.  Other processes took its
cores away for 5-40 ms at a time, and a query's wall time took those pauses
in; relcon is single-threaded and busy, so the benchmark times the thread's
CPU time instead (``time.thread_time``), which leaves them out.  The speed of
the machine also drifted: a fixed loop ran 1.7 times slower for seconds to
minutes at a time, in CPU time too, and every timing of relcon moved with it.
So a probe loop runs on a profiling timer signal every ``PROBE_EVERY_S`` of
CPU time, queries and set-ups included, and the CPU time each probe takes
tracks the machine's speed.  A timing is reported at the reference speed, the
one at which a probe takes ``REF_PROBE_S``: it is multiplied by
``REF_PROBE_S`` over the mean probe time during and around it.  The probes'
own time is taken out of every timing they interrupt.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from time import perf_counter, thread_time

PROBE_EVERY_S = 0.05
PROBE_LOOPS = 1500
# about what a probe took on a 2-core container in its fast spells
REF_PROBE_S = 0.0004
WINDOW_S = 0.25  # probes this far around a timing count for it


class Speed:
    def __init__(self):
        self.starts: list[float] = []  # wall clock, to place each probe
        self.times: list[float] = []  # CPU time of each probe
        self.spent = 0.0  # CPU time inside probes so far

    def _probe(self, signum, frame):
        start, cpu = perf_counter(), thread_time()
        table: dict = {}
        for i in range(PROBE_LOOPS):
            key = (i & 63, i & 7)
            table[key] = table.get(key, 0) + i
        took = thread_time() - cpu
        self.starts.append(start)
        self.times.append(took)
        self.spent += took

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def scale(self, start: float, end: float) -> float:
        """REF_PROBE_S over the mean probe time in [start, end] widened by WINDOW_S."""
        lo = bisect_left(self.starts, start - WINDOW_S)
        hi = bisect_right(self.starts, end + WINDOW_S)
        if lo == hi:  # no probe that near: take the nearest on each side
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        times = self.times[lo:hi]
        return REF_PROBE_S * len(times) / sum(times)


class Stopwatch:
    """Times a span.  ``span`` is (start, end, seconds): start and end on the
    wall clock, and the seconds of CPU time, without the probes inside.  A
    tuple of floats, so the garbage collector soon stops tracking the many a
    run keeps."""

    def __init__(self, speed: Speed | None):
        self.speed = speed

    def __enter__(self):
        self.spent = self.speed.spent if self.speed else 0.0
        self.start, self.cpu = perf_counter(), thread_time()
        return self

    def __exit__(self, *exc):
        cpu, end = thread_time(), perf_counter()
        inside = (self.speed.spent if self.speed else 0.0) - self.spent
        self.span = (self.start, end, cpu - self.cpu - inside)
        return False


def at_reference(speed: Speed | None, span: tuple) -> float:
    """The span's seconds at the reference speed (as measured without a Speed)."""
    start, end, seconds = span
    return seconds if speed is None else seconds * speed.scale(start, end)
