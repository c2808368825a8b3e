"""A memory device: several DRAM channels behind a line-interleaved map.

Consecutive 64-byte lines round-robin across channels (so streams use all
channels), and consecutive lines *within* a channel share a row (so
streams get row-buffer hits).
"""

from __future__ import annotations

from repro.engine.clock import ClockDomain, accesses_per_cpu_cycle
from repro.engine.event_queue import Simulator
from repro.mem.channel import DramChannel
from repro.mem.configs import DramConfig
from repro.mem.request import AccessKind, Request


class MemoryDevice:
    """A set of channels sharing one configuration (one bandwidth source)."""

    def __init__(self, sim: Simulator, config: DramConfig,
                 cpu_ghz: float = 4.0) -> None:
        self.sim = sim
        self.config = config
        self.cpu_ghz = cpu_ghz
        clock = ClockDomain(device_ghz=config.device_ghz, cpu_ghz=cpu_ghz)
        self.channels = [
            DramChannel(
                sim,
                clock,
                config.timing,
                num_banks=config.banks_per_channel,
                row_bytes=config.row_bytes,
                name=f"{config.name}.ch{i}",
                interleave=config.num_channels,
            )
            for i in range(config.num_channels)
        ]
        self._nch = config.num_channels

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def channel_of(self, line: int) -> DramChannel:
        return self.channels[line % self._nch]

    def enqueue(self, req: Request) -> None:
        """Route a request to its channel by line interleaving."""
        self.channels[req.line % self._nch].enqueue(req)

    # ------------------------------------------------------------------
    # Bandwidth characteristics (the paper's B_i terms)
    # ------------------------------------------------------------------
    @property
    def peak_gbps(self) -> float:
        return self.config.peak_gbps

    def peak_accesses_per_cycle(self) -> float:
        """Peak bandwidth in 64-byte accesses per CPU cycle."""
        return accesses_per_cpu_cycle(self.config.peak_gbps, cpu_ghz=self.cpu_ghz)

    # ------------------------------------------------------------------
    # Aggregate statistics
    # ------------------------------------------------------------------
    def total_cas(self) -> int:
        return sum(ch.stats.total_cas for ch in self.channels)

    def cas_by_kind(self) -> dict[AccessKind, int]:
        merged: dict[AccessKind, int] = {}
        for ch in self.channels:
            for kind, count in ch.stats.cas_by_kind.items():
                merged[kind] = merged.get(kind, 0) + count
        return merged

    def busy_cycles(self) -> int:
        return sum(ch.stats.busy_cycles for ch in self.channels)

    def utilization(self) -> float:
        if not self.sim.now:
            return 0.0
        return self.busy_cycles() / (self.sim.now * len(self.channels))

    def delivered_gbps(self) -> float:
        """Average delivered data bandwidth since cycle zero."""
        if not self.sim.now:
            return 0.0
        bytes_moved = self.total_cas() * 64
        seconds = self.sim.now / (self.cpu_ghz * 1e9)
        return bytes_moved / seconds / 1e9

    def row_hit_rate(self) -> float:
        hits = sum(ch.stats.row_hits for ch in self.channels)
        misses = sum(ch.stats.row_misses for ch in self.channels)
        total = hits + misses
        return hits / total if total else 0.0

    def read_queue_len(self) -> int:
        return sum(ch.read_queue_len for ch in self.channels)

    def write_queue_len(self) -> int:
        return sum(ch.write_queue_len for ch in self.channels)

    def pending(self) -> int:
        return self.read_queue_len() + self.write_queue_len()

    def telemetry_sample(self) -> dict:
        """Device snapshot with per-channel drill-down (telemetry)."""
        return {
            "read_q": self.read_queue_len(),
            "write_q": self.write_queue_len(),
            "busy_frac": self.utilization(),
            "row_hit_rate": self.row_hit_rate(),
            "delivered_gbps": self.delivered_gbps(),
            "channels": {
                ch.name: ch.telemetry_sample() for ch in self.channels
            },
        }
