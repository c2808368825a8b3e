"""Backend base class and the intra-run materialized-trace store.

A *backend* owns the synthesis-heavy, order-unobservable stage of a
simulation cell — trace materialization — behind a contract of
**bit-identical results**: every backend must produce the exact tuple
stream :func:`repro.workloads.synthetic.generate_trace` yields.  Warmup
is one path shared by every backend (:meth:`SimBackend.warm`): it leaves
the memory-side cache in the exact state
:func:`~repro.workloads.synthetic.warm_lines` would, entry for entry.
The event loop itself is backend-independent (event ordering is
observable; it cannot be batched without changing results).

Backends share a :class:`TraceStore`: a content-addressed in-process
memo of materialized traces and warm-set columns, so the many cells
that replay the same (workload, seed) pair within one invocation — the
baseline/dap cell pairs of a sweep, alone-IPC references that share
core 0's trace — generate each trace and warm set once and share it by
reference.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional, Sequence

from repro.workloads.mixes import Mix
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import (
    WarmSet,
    WorkloadProfile,
    core_base_line,
    warm_columns,
    warm_groups,
)


class TraceStore:
    """In-process content-addressed store of materialized traces.

    Keys carry everything that determines the generated stream —
    ``(profile name, num_refs, footprint scale, seed, base line)`` — so
    a hit is exact by construction.  Entries are immutable tuple lists
    shared by reference; consumers wrap them in ``iter()`` and never
    mutate.  ``generated`` / ``reused`` feed the engine's per-run
    :class:`~repro.experiments.cellcache.ExecStats` counters.

    The store is bounded (``max_refs`` total stored references, FIFO
    eviction: the oldest entry goes first) so a long-lived process — a service worker, a pytest
    session — cannot grow it without limit; paper-scale traces stream
    and never enter the store at all.
    """

    __slots__ = ("generated", "reused", "max_refs", "_traces", "_trace_refs",
                 "_tables", "_table_refs")

    DEFAULT_MAX_REFS = 4_000_000

    def __init__(self, max_refs: int = DEFAULT_MAX_REFS) -> None:
        self.generated = 0
        self.reused = 0
        self.max_refs = max_refs
        self._traces: dict[tuple, tuple[list, int]] = {}
        self._trace_refs = 0
        self._tables: dict[tuple, tuple[Any, int]] = {}
        self._table_refs = 0

    def trace(self, key: tuple, build: Callable[[], list]) -> list:
        """The materialized trace for ``key``, building it on first use."""
        hit = self._traces.get(key)
        if hit is not None:
            self.reused += 1
            return hit[0]
        entry = build()
        self.generated += 1
        cost = len(entry)
        if cost <= self.max_refs:
            while self._trace_refs + cost > self.max_refs and self._traces:
                _, old_cost = self._traces.pop(next(iter(self._traces)))
                self._trace_refs -= old_cost
            self._traces[key] = (entry, cost)
            self._trace_refs += cost
        return entry

    def table(self, key: tuple, build: Callable[[], Any],
              cost: Callable[[Any], int] = len) -> Any:
        """Memoize an auxiliary table (warm-set columns), same bound."""
        hit = self._tables.get(key)
        if hit is not None:
            return hit[0]
        entry = build()
        weight = cost(entry)
        if weight <= self.max_refs:
            while self._table_refs + weight > self.max_refs and self._tables:
                _, old_cost = self._tables.pop(next(iter(self._tables)))
                self._table_refs -= old_cost
            self._tables[key] = (entry, weight)
            self._table_refs += weight
        return entry


class SimBackend:
    """One trace-synthesis strategy (bit-identical by contract).

    Subclasses implement ``_build_trace`` (materialize one core's trace
    as a list of ``(gap, is_write, line)`` tuples); the shared
    :class:`TraceStore` front caches the traces and the warm sets.
    """

    __slots__ = ("store",)

    #: Registry name; subclasses override.
    name = "base"

    def __init__(self, store: Optional[TraceStore] = None) -> None:
        self.store = store if store is not None else TraceStore()

    # -- trace materialization -----------------------------------------
    def trace(self, profile: WorkloadProfile, num_refs: int,
              base_line: int = 0, scale: float = 1.0,
              seed: int = 0) -> list:
        """One materialized trace, served from the store when possible."""
        key = (profile.name, num_refs, scale, seed, base_line)
        return self.store.trace(
            key,
            lambda: self._build_trace(profile, num_refs, base_line, scale,
                                      seed))

    def mix_traces(self, mix: Mix, refs_per_core: int,
                   scale: float) -> list[list]:
        """One materialized trace per core, disjoint address spaces."""
        return [
            self.trace(get_profile(member), refs_per_core,
                       base_line=core_base_line(core_id), scale=scale,
                       seed=core_id)
            for core_id, member in enumerate(mix.members)
        ]

    def _build_trace(self, profile: WorkloadProfile, num_refs: int,
                     base_line: int, scale: float, seed: int) -> list:
        raise NotImplementedError

    # -- warmup --------------------------------------------------------
    def warm(self, msc, members: Sequence[str], scale: float) -> int:
        """Install the warm set of every member in ``msc``; core ``i``
        runs seed ``i`` at :func:`core_base_line` ``(i)``.  Returns the
        warm lines, refused installs included.

        Each core's base-0 columns and per-sector groups are built once
        per ``(profile, scale, seed[, blocks])`` and memoized in the
        store; the controller installs them in bulk, leaving the state
        :meth:`~repro.hierarchy.msc_base.MscController.warm_line` would
        over :meth:`Mix.warm_sets <repro.workloads.mixes.Mix.warm_sets>`.
        """
        sets = []
        for core_id, member in enumerate(members):
            key = ("warm", member, scale, core_id)
            spans, dirty = self.store.table(
                key, partial(warm_columns, get_profile(member), scale, core_id),
                cost=lambda columns: len(columns[1]))
            sets.append(WarmSet(core_base_line(core_id), spans, dirty,
                                partial(self._warm_groups, key, spans, dirty)))
        msc.warm(sets)
        return sum(len(warm_set.dirty) for warm_set in sets)

    def _warm_groups(self, key: tuple, spans, dirty: bytes, blocks: int):
        return self.store.table(key + (blocks,),
                                partial(warm_groups, spans, dirty, blocks),
                                cost=lambda groups: len(groups[0]))
