"""Deterministic discrete-event simulator core.

Events are ``(time, sequence, callback)`` tuples kept in a binary heap.
The ``sequence`` tie-breaker makes simulations fully deterministic: two
events scheduled for the same cycle always fire in scheduling order, so a
run is a pure function of its inputs (all randomness in the library comes
from explicitly seeded generators).

Time is measured in integer CPU cycles. Components schedule callbacks
either at an absolute cycle (:meth:`Simulator.at`) or after a delay
(:meth:`Simulator.schedule`).

The dispatch loop is the innermost loop of every simulation, so it is
written allocation-free: heap primitives and queue references are bound
to locals, and the common ``run()`` (no ``until``, no ``max_events``)
takes a fast path with no per-event bound checks and no per-event
counter: every event consumes one sequence number and leaves the queue
once, so the events dispatched are the sequence numbers consumed plus
the events queued at the start, less those still queued at the end.

While that fast path runs, :attr:`Simulator.inline_ok` is true, and a
component about to schedule its own callback strictly before the heap
top (or on an empty heap) may take the event in place instead: it
consumes the sequence number, sets ``now`` and runs the callback's work
directly. The pushed event would have been the very next one popped, so
the event order, the clock and the event count are unchanged.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from repro.errors import SimulationError

Callback = Callable[[], None]

_heappush = heapq.heappush
_heappop = heapq.heappop


class Simulator:
    """A single-clock discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule(10, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [10]
    """

    __slots__ = ("now", "_queue", "_seq", "_events_dispatched", "inline_ok")

    def __init__(self) -> None:
        self.now: int = 0
        self._queue: list[tuple[int, int, Callback]] = []
        self._seq: int = 0
        self._events_dispatched: int = 0
        self.inline_ok: bool = False  # see the module docstring

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callback) -> None:
        """Schedule ``callback`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        # Fast path for the dominant "fire once at now+delta" pattern:
        # push directly instead of routing through :meth:`at`'s
        # can-never-fail bounds check.
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._queue, (self.now + int(delay), seq, callback))

    def at(self, time: int, callback: Callback) -> None:
        """Schedule ``callback`` at absolute cycle ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at cycle {time}, current cycle is {self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._queue, (int(time), seq, callback))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Dispatch events in time order; returns the events dispatched.

        Stopping conditions, and the clock contract for each:

        - **Queue empty** — every event has fired. ``now`` rests at the
          last dispatched event's cycle, except that with ``until`` set
          the clock is then advanced to ``until`` (an idle simulator
          still "waits out" the requested horizon).
        - **``until`` reached** — the next event lies strictly beyond
          ``until``. The event stays queued and ``now`` is advanced to
          exactly ``until``.
        - **``max_events`` dispatched** — the dispatch budget ran out.
          ``now`` stays at the cycle of the last dispatched event and is
          **not** advanced to ``until``, even when both limits are given:
          the simulation is paused mid-timeline, and a later ``run`` call
          must be able to resume with the remaining events still in the
          future. Callers that want the clock at ``until`` regardless
          should keep calling ``run(until=...)`` until it returns 0.

        An event counts as dispatched once it is popped and its callback
        called, also when the callback raises.
        """
        queue = self._queue
        pop = _heappop
        outer_inline = self.inline_ok
        if until is None and max_events is None:
            # Fast path: drain the queue with no per-event bound checks
            # (the overwhelmingly common full-run case). The count is
            # derived from sequence numbers, and assigned rather than
            # added so that a nested run's events are not counted twice.
            base = self._events_dispatched
            first_seq = self._seq - len(queue)
            self.inline_ok = True
            try:
                while queue:
                    self.now, _seq, callback = pop(queue)
                    callback()
            finally:
                self.inline_ok = outer_inline
                dispatched = self._seq - first_seq - len(queue)
                self._events_dispatched = base + dispatched
            return dispatched
        dispatched = 0
        self.inline_ok = False
        try:
            while queue:
                time = queue[0][0]
                if until is not None and time > until:
                    self.now = until
                    break
                if max_events is not None and dispatched >= max_events:
                    break
                callback = pop(queue)[2]
                self.now = time
                dispatched += 1
                callback()
            else:
                if until is not None and until > self.now:
                    self.now = until
            return dispatched
        finally:
            self._events_dispatched += dispatched
            self.inline_ok = outer_inline

    def step(self) -> bool:
        """Dispatch a single event; return False if the queue is empty."""
        return self.run(max_events=1) == 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of events waiting in the queue."""
        return len(self._queue)

    @property
    def events_dispatched(self) -> int:
        """Total events dispatched over the simulator's lifetime.

        Updated when a ``run`` call returns or raises (batched for
        speed), so the count is not visible to callbacks firing *within*
        a run.
        """
        return self._events_dispatched

    def peek_time(self) -> Optional[int]:
        """Cycle of the earliest pending event, or None when idle."""
        return self._queue[0][0] if self._queue else None
