"""Trace-driven core with ROB-window and MSHR-limited memory parallelism.

The core consumes a trace of ``(gap, is_write, line)`` tuples — ``gap``
non-memory instructions followed by one memory instruction to 64-byte
line ``line``. Dispatch is in order at ``width`` instructions/cycle;
memory-level parallelism is bounded by two structural limits, which are
what matter for a bandwidth study:

- **ROB window**: instruction ``i`` cannot dispatch until the load at
  ``i - rob_entries`` has completed (a stalled load at the ROB head
  eventually blocks the front end);
- **MSHRs**: at most ``mshrs`` L3 misses (loads or store RFOs) may be
  outstanding.

Loads that hit in SRAM complete at a known small latency; L3 misses
complete when the memory-side subsystem delivers the line. The paper's
methodology scales core buffers so streaming kernels can demand the
combined cache+memory bandwidth; tests assert our model does the same.

``_run`` executes once per wake-up of a core, not per memory
instruction (311,576 wake-ups serve the 640,000 references of a cold
perfbench ``fig06-reads`` pass), making it the single hottest Python
frame in a simulation; it binds its loop state to locals and inlines
the trace peek/consume bookkeeping. The hierarchy never invokes fill
callbacks synchronously from ``load``/``store`` (misses complete via
later simulator events), so the cached locals cannot go stale within
one ``_run`` activation.

A wake due strictly before every queued event is taken in place when
the simulator allows it (:attr:`Simulator.inline_ok`): that event would
be popped next, so consuming its sequence number, advancing the clock
and dispatching replays the re-entry exactly, including its dispatch
time recomputed from ``_vtime`` (a ROB stall does not advance it).
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappush as _heappush
from typing import Callable, Iterable, Iterator, Optional

from repro.engine.event_queue import Simulator
from repro.hierarchy.cache_hierarchy import CacheHierarchy

TraceEntry = tuple[int, bool, int]  # (gap instructions, is_write, line)

_ceil = math.ceil


class TraceCore:
    """One simulated core executing a memory-instruction trace."""

    __slots__ = (
        "sim",
        "core_id",
        "hierarchy",
        "rob_entries",
        "width",
        "mshrs",
        "on_done",
        "_trace",
        "_pending",
        "_exhausted",
        "instr_count",
        "_vtime",
        "_inv_width",
        "_outstanding",
        "_misses_inflight",
        "_wake_scheduled",
        "done",
        "finish_cycle",
        "loads",
        "stores",
        "l3_miss_loads",
    )

    def __init__(
        self,
        sim: Simulator,
        core_id: int,
        trace: Iterable[TraceEntry],
        hierarchy: CacheHierarchy,
        rob_entries: int = 224,
        width: int = 4,
        mshrs: int = 16,
        on_done: Optional[Callable[["TraceCore"], None]] = None,
    ) -> None:
        self.sim = sim
        self.core_id = core_id
        self.hierarchy = hierarchy
        self.rob_entries = rob_entries
        self.width = width
        self.mshrs = mshrs
        self.on_done = on_done

        self._trace: Iterator[TraceEntry] = iter(trace)
        self._pending: Optional[TraceEntry] = None
        self._exhausted = False

        self.instr_count = 0
        self._vtime = 0.0                 # width-limited dispatch clock
        self._inv_width = 1.0 / width
        # In-flight loads as [instr_idx, done_cycle or None], FIFO order.
        self._outstanding: deque[list] = deque()
        self._misses_inflight = 0
        self._wake_scheduled = False
        self.done = False
        self.finish_cycle: Optional[int] = None
        self.loads = 0
        self.stores = 0
        self.l3_miss_loads = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        self.sim.at(self.sim.now, self._run)

    @property
    def ipc(self) -> float:
        if not self.finish_cycle:
            return 0.0
        return self.instr_count / self.finish_cycle

    # ------------------------------------------------------------------
    def _run(self) -> None:
        if self.done:
            return
        self._wake_scheduled = False
        sim = self.sim
        now = sim.now
        # Loop state bound to locals; flushed back on every exit path.
        trace_next = self._trace.__next__
        pending = self._pending
        outstanding = self._outstanding
        rob_entries = self.rob_entries
        width = self.width
        inv_width = self._inv_width
        mshrs = self.mshrs
        # _access is the load/store wrappers' shared body; calling it
        # directly saves one frame per memory instruction.
        h_access = self.hierarchy._access
        core_id = self.core_id
        load_fill = self._load_fill
        store_fill = self._store_fill
        queue = sim._queue
        inline_ok = sim.inline_ok
        instr_count = self.instr_count
        vtime = self._vtime
        try:
            while True:
                if pending is None:
                    if self._exhausted:
                        entry = None
                    else:
                        try:
                            entry = trace_next()
                        except StopIteration:
                            entry = None
                            self._exhausted = True
                        pending = entry
                else:
                    entry = pending
                if entry is None:
                    # Flush locals first: _maybe_finish reads _vtime.
                    self._pending = pending
                    self.instr_count = instr_count
                    self._vtime = vtime
                    self._maybe_finish(now)
                    return
                gap, is_write, line = entry
                idx = instr_count + gap
                t = base = vtime + gap / width

                # ROB window: retire (or stall on) loads falling out of it.
                window_floor = idx - rob_entries
                while outstanding and outstanding[0][0] <= window_floor:
                    head_done = outstanding[0][1]
                    if head_done is None:
                        return  # the miss's fill callback wakes us
                    if head_done > t:
                        t = head_done
                    outstanding.popleft()

                # MSHR limit: wait for any completion.
                if self._misses_inflight >= mshrs:
                    return

                if t > now:
                    when = _ceil(t)
                    seq = sim._seq
                    sim._seq = seq + 1
                    if not inline_ok or (queue and queue[0][0] <= when):
                        self._wake_scheduled = True
                        _heappush(queue, (when, seq, self._run))
                        return
                    # Inline wake: the event would pop next, so take it
                    # here. Its re-entry would find the ROB head retired
                    # and the MSHRs unchanged, and recompute t from vtime.
                    sim.now = now = when
                    t = base

                # Dispatch the memory instruction now.
                pending = None
                instr_count = idx + 1
                vtime = (t if t > vtime else vtime) + inv_width

                if is_write:
                    self.stores += 1
                    lat = h_access(core_id, line, True, store_fill, None)
                    if lat is None:
                        self._misses_inflight += 1
                else:
                    self.loads += 1
                    record = [idx, None]
                    lat = h_access(core_id, line, False, load_fill, record)
                    if lat is None:
                        self.l3_miss_loads += 1
                        self._misses_inflight += 1
                    else:
                        record[1] = now + lat
                    outstanding.append(record)
        finally:
            self._pending = pending
            self.instr_count = instr_count
            self._vtime = vtime

    # ------------------------------------------------------------------
    def _load_fill(self, record: list, finish: int) -> None:
        record[1] = finish
        self._misses_inflight -= 1
        self._schedule_wake()

    def _store_fill(self, _arg, finish: int) -> None:
        self._misses_inflight -= 1
        self._schedule_wake()

    def _schedule_wake(self) -> None:
        """Wake the core this cycle (a fill freed a ROB head or MSHR)."""
        if self._wake_scheduled or self.done:
            return
        self._wake_scheduled = True
        sim = self.sim
        seq = sim._seq
        sim._seq = seq + 1
        _heappush(sim._queue, (sim.now, seq, self._run))

    # ------------------------------------------------------------------
    def _maybe_finish(self, now: int) -> None:
        if any(rec[1] is None for rec in self._outstanding):
            return  # fills pending; their callbacks wake us
        if self._misses_inflight > 0:
            return  # store RFOs pending
        last_done = max((rec[1] for rec in self._outstanding), default=0)
        self._outstanding.clear()
        self.done = True
        self.finish_cycle = max(now, math.ceil(self._vtime), last_done, 1)
        if self.on_done is not None:
            self.on_done(self)
