"""Alloy cache array: direct-mapped, tag-and-data (TAD) fused in DRAM.

Each set holds exactly one 64-byte block whose tag travels with the data
as a 72-byte TAD unit (three HBM channel cycles instead of two). This
module models the functional array; TAD bandwidth accounting and the
hit/miss predictor live in :mod:`repro.hierarchy.msc_alloy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional

from repro.errors import ConfigError

# 72-byte TAD occupies 3 HBM channel cycles (burst 2 covers 64 bytes).
TAD_BURST_DEVICE_CYCLES = 3


@dataclass(frozen=True)
class AlloyEviction:
    line: int
    dirty: bool


class AlloyCacheArray:
    """Direct-mapped cache keyed by 64-byte line address."""

    def __init__(self, name: str, capacity_bytes: int, line_bytes: int = 64) -> None:
        if capacity_bytes % line_bytes != 0:
            raise ConfigError(f"{name}: capacity not a multiple of the line size")
        self.name = name
        self.num_sets = capacity_bytes // line_bytes
        # set index -> (resident line, dirty)
        self._sets: dict[int, tuple[int, bool]] = {}

        self.read_hits = 0
        self.read_misses = 0
        self.write_hits = 0
        self.write_misses = 0
        self.evictions = 0

    def set_index(self, line: int) -> int:
        return line % self.num_sets

    # ------------------------------------------------------------------
    def probe(self, line: int) -> bool:
        entry = self._sets.get(self.set_index(line))
        return entry is not None and entry[0] == line

    def is_dirty(self, line: int) -> bool:
        entry = self._sets.get(self.set_index(line))
        return entry is not None and entry[0] == line and entry[1]

    def set_is_dirty(self, set_index: int) -> bool:
        """Dirty bit of whatever block occupies a set (DBC's source)."""
        entry = self._sets.get(set_index)
        return entry is not None and entry[1]

    def read(self, line: int) -> bool:
        hit = self.probe(line)
        if hit:
            self.read_hits += 1
        else:
            self.read_misses += 1
        return hit

    def write(self, line: int) -> bool:
        """Demand write; the block becomes resident and dirty on hit.

        Returns True on hit. On miss the caller decides whether to
        allocate (Alloy installs the write with a TAD write).
        """
        idx = self.set_index(line)
        entry = self._sets.get(idx)
        if entry is not None and entry[0] == line:
            self._sets[idx] = (line, True)
            self.write_hits += 1
            return True
        self.write_misses += 1
        return False

    def fill(self, line: int, dirty: bool = False) -> Optional[AlloyEviction]:
        """Install a block, returning the displaced victim (if any)."""
        idx = self.set_index(line)
        old = self._sets.get(idx)
        self._sets[idx] = (line, dirty)
        if old is not None and old[0] != line:
            self.evictions += 1
            return AlloyEviction(line=old[0], dirty=old[1])
        if old is not None and old[0] == line:
            # Refill of the resident block merges dirtiness.
            self._sets[idx] = (line, dirty or old[1])
        return None

    def warm(self, sets) -> None:
        """Bulk :meth:`fill` of every line of ``sets``
        (:class:`~repro.workloads.synthetic.WarmSet` records), in order.

        Warm lines are distinct (each core has its own address space), so
        when none maps to an occupied set the fills collapse into one
        dict update: the last line mapped to a set wins it, each
        displaced entry counts as an eviction, and sets keep their
        first-insertion order, as per-line fills leave them.  Otherwise
        the lines fill one by one (re-filling a resident line merges
        dirtiness).
        """
        spans = [range(span.start + warm_set.base_line,
                       span.stop + warm_set.base_line, span.step)
                 for warm_set in sets for span in warm_set.spans]
        lines = chain.from_iterable(spans)
        flags = map(bool, chain.from_iterable(s.dirty for s in sets))
        index = self.num_sets.__rmod__  # line -> line % num_sets
        table = self._sets
        if table and not table.keys().isdisjoint(
                map(index, chain.from_iterable(spans))):
            for line, dirty in zip(lines, flags):
                self.fill(line, dirty)
            return
        before = len(table)
        table.update(zip(map(index, chain.from_iterable(spans)),
                         zip(lines, flags)))
        self.evictions += sum(map(len, spans)) - (len(table) - before)

    def invalidate(self, line: int) -> bool:
        idx = self.set_index(line)
        entry = self._sets.get(idx)
        if entry is not None and entry[0] == line:
            del self._sets[idx]
            return entry[1]
        return False

    def clean(self, line: int) -> None:
        idx = self.set_index(line)
        entry = self._sets.get(idx)
        if entry is not None and entry[0] == line:
            self._sets[idx] = (line, False)

    # ------------------------------------------------------------------
    @property
    def reads(self) -> int:
        return self.read_hits + self.read_misses

    @property
    def writes(self) -> int:
        return self.write_hits + self.write_misses

    def hit_rate(self) -> float:
        total = self.reads + self.writes
        return (self.read_hits + self.write_hits) / total if total else 0.0
