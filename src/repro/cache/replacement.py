"""Replacement policies for set-associative structures.

Policies operate on per-way metadata kept by the caller: each way exposes
an integer ``stamp`` slot the policy is free to interpret (LRU recency
counter, NRU bit). This keeps cache arrays policy-agnostic.
"""

from __future__ import annotations

from typing import Protocol, Sequence

from repro.errors import ConfigError


class Way(Protocol):
    """Minimal interface a cache way offers to a replacement policy."""

    stamp: int


class LRUPolicy:
    """True LRU using a monotonically increasing access counter."""

    name = "lru"

    __slots__ = ("_clock",)

    def __init__(self) -> None:
        self._clock = 0

    def on_access(self, way: Way) -> None:
        self._clock += 1
        way.stamp = self._clock

    def on_fill(self, way: Way) -> None:
        self.on_access(way)

    def select_victim(self, ways: Sequence[Way]) -> int:
        victim, best = 0, None
        for idx, way in enumerate(ways):
            if best is None or way.stamp < best:
                victim, best = idx, way.stamp
        return victim

    def select_victim_key(self, ways):
        """Victim key for a mapping of key -> way (same tie-breaking as
        :meth:`select_victim` over the mapping's insertion order)."""
        victim, best = None, None
        for key, way in ways.items():
            if best is None or way.stamp < best:
                victim, best = key, way.stamp
        return victim


class NRUPolicy:
    """Single-bit not-recently-used, as the paper's DRAM cache uses.

    ``stamp`` is the NRU bit: 1 means recently used. When all ways in a
    set are recently used, all bits are cleared except the accessed way
    (the classic NRU reset). Victim is the first way with a clear bit.
    """

    name = "nru"

    __slots__ = ()

    def on_access(self, way: Way) -> None:
        way.stamp = 1

    def on_fill(self, way: Way) -> None:
        way.stamp = 1

    def select_victim(self, ways: Sequence[Way]) -> int:
        for idx, way in enumerate(ways):
            if way.stamp == 0:
                return idx
        # All recently used: reset every bit and take way 0.
        for way in ways:
            way.stamp = 0
        return 0

    def select_victim_key(self, ways):
        """Victim key for a mapping of key -> way (same semantics as
        :meth:`select_victim` over the mapping's insertion order)."""
        first = None
        for key, way in ways.items():
            if way.stamp == 0:
                return key
            if first is None:
                first = key
        for way in ways.values():
            way.stamp = 0
        return first


def make_policy(name: str):
    """Construct a replacement policy by name ('lru' or 'nru')."""
    if name == "lru":
        return LRUPolicy()
    if name == "nru":
        return NRUPolicy()
    raise ConfigError(f"unknown replacement policy {name!r}")
