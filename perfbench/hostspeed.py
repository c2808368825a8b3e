"""Host speed, sampled all through an untraced run, to scale its timings.

A shared VM does not run at one speed.  On a 2-vCPU KVM guest the same
work took 1.6-2x longer for seconds to minutes at a time, as other
tenants loaded the host, and runs made minutes apart disagreed by up to
a third even when each averaged 20 s of work.  Steadier metrics need a
probe of the host's speed taken at the same moments as the work.

:class:`HostSpeed` is that probe.  A real-time interval timer interrupts
the process every :data:`INTERVAL_S`; the signal handler runs one fixed
calibration unit, a miniature cache-served replay (read a small JSON
file, decode it, encode it again with sorted keys and hash the text),
then times a second run of it.  The first run warms the caches the
interrupted program left cold: timed cold, the unit took twice as long
inside a run as alone, and longer inside a large-heap workload than a
small one, so its time would have moved with the program's own memory
use.  Timed warm, it took the same inside every workload.  Over 1-2 s
windows the unit's time correlated with the host time of cold fig06
passes by 0.73-0.98 and with that of cache-served replays by 0.81-0.95;
a plain loop of dict updates and integer arithmetic did as well on cold
passes but fell to 0.41-0.92 on replays.

The handler's own time is subtracted from every measured span, and each
span is divided by the host's *speed factor* over it: the trimmed mean
of the units timed within the span over :data:`REF_UNIT_S`.  A timing
scaled this way reads what the span would have taken on a host that
runs the unit in :data:`REF_UNIT_S`; the raw host seconds are printed
beside it.

The unit is the benchmark's own code, so a change to the simulator moves
the scaled timings in the same proportion as the raw ones.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import json
import signal
import statistics
import time
from pathlib import Path

#: Seconds between two calibration units.
INTERVAL_S = 0.020
#: Seconds one warm unit takes at the reference speed: about its median
#: on a 2-vCPU KVM guest under CPython 3.11.
REF_UNIT_S = 150e-6
#: Fewest units a span's factor is taken over; a shorter span takes the
#: factor of the whole run so far.
MIN_UNITS = 8


#: The unit's document: about 2 KB, shaped like a cell result.
_DOC = {"cells": [{"label": f"cell{i}", "cycles": 1134017 + i,
                   "ipc": [0.5 + i / 7, 1.25, 2.5],
                   "extras": {"mm_access_fraction": 0.273,
                              "sfrm": [i, 2 * i], "name": "x" * 20}}
                  for i in range(12)]}


def _unit(path: Path) -> str:
    with open(path, "rb") as f:
        data = f.read()
    text = json.dumps(json.loads(data), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _trimmed_mean(values: list) -> float:
    """Mean of the middle 80%: a preemption that lands inside one unit
    would otherwise move a whole span's factor."""
    values = sorted(values)
    cut = len(values) // 10
    return statistics.fmean(values[cut:len(values) - cut])


class HostSpeed:
    """Times a calibration unit every :data:`INTERVAL_S` while started;
    the unit reads its document from ``path``."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.ends: list = []     # perf_counter at the end of each unit
        self.units: list = []    # seconds each unit took
        self.spent = 0.0         # seconds spent in the handler so far
        self._previous = None

    def _sample(self, signum, frame) -> None:
        begin = time.perf_counter()
        _unit(self.path)
        t0 = time.perf_counter()
        _unit(self.path)
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.units.append(t1 - t0)
        self.spent += t1 - begin

    def start(self) -> "HostSpeed":
        self.path.write_text(json.dumps(_DOC), encoding="utf-8")
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    @contextlib.contextmanager
    def held(self):
        """Holds the timer's signal back while the block runs, so the
        unit runs after it instead of inside it."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def mark(self) -> tuple:
        """A point to measure a span from, with :meth:`since`."""
        return time.thread_time(), self.spent

    def since(self, mark: tuple) -> tuple:
        """``(work seconds, end)`` since ``mark``: the CPU time of this
        thread less the handler time inside it, and the ``perf_counter``
        at the end.  CPU time leaves out the time the host gave to other
        processes: preempted replays had stretched the wall-time p99 of
        alloy-edram-writes from 3.6 to 8.5 ms between runs, while their
        CPU-time p99 stayed within 3.6-4.5 ms."""
        work = time.thread_time() - mark[0] - (self.spent - mark[1])
        return work, time.perf_counter()

    def factor(self, start: float, end: float) -> float:
        """How many times slower than the reference the host ran between
        ``start`` and ``end`` (``perf_counter`` readings)."""
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        window = self.units[lo:hi]
        if len(window) < MIN_UNITS:
            window = self.units[:hi]
        if len(window) < MIN_UNITS:
            return 1.0
        return _trimmed_mean(window) / REF_UNIT_S
