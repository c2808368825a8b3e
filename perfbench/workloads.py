"""The benchmark's workloads: which experiments run, on which members.

Every workload drives the public API (``repro.api.run_experiment``) at
smoke scale, serially (``jobs=1``), on the default backend.  Seed 0
selects the members named in :data:`WORKLOADS`.  Any other seed draws
the same number of members from the workload's declared pool, leaving
out the named members, so a speed claim can be re-checked on inputs it
was not tuned on.  A pool with too few other members gives the named
members for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

#: Simulated scale of every request (see ``repro.experiments.common``).
SCALE = "smoke"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    experiments: tuple
    named: tuple
    #: Human-readable statement of the pool's shared property.
    pool_rule: str
    #: ``profile -> bool``: membership test over repro's workload profiles.
    in_pool: Callable
    #: True when the measured operation is a cache-served replay.
    replay: bool = False

    def pool(self) -> list:
        from repro.workloads.profiles import PROFILES

        return sorted(name for name, profile in PROFILES.items()
                      if self.in_pool(profile))

    def members(self, seed: int) -> tuple:
        others = [name for name in self.pool() if name not in self.named]
        if seed == 0 or len(others) < len(self.named):
            return self.named
        return tuple(sorted(random.Random(seed).sample(
            others, len(self.named))))

    def requests(self, seed: int) -> list:
        from repro.api import ExperimentRequest

        members = self.members(seed)
        return [ExperimentRequest(experiment=name, scale=SCALE,
                                  workloads=members, jobs=1)
                for name in self.experiments]


def _read_dominated(profile) -> bool:
    return profile.bandwidth_sensitive and profile.write_fraction <= 0.25


def _as_write_heavy_as_lbm(profile) -> bool:
    return profile.write_fraction >= 0.45


WORKLOADS = {w.name: w for w in (
    Workload(
        name="fig06-reads",
        why="the paper's headline grid (fig06, sectored DRAM cache, "
            "baseline vs DAP) on read-dominated mixes, cold: the event "
            "loop dominates",
        experiments=("fig06",),
        named=("mcf", "omnetpp"),
        pool_rule="bandwidth-sensitive profiles with write fraction <= 0.25",
        in_pool=_read_dominated,
    ),
    Workload(
        name="alloy-edram-writes",
        why="fig14 (Alloy) plus fig15 (eDRAM) on a write-heavy profile, "
            "cold: write paths, the DBC, eDRAM's write channel and warmup",
        experiments=("fig14", "fig15"),
        named=("parboil-lbm",),
        pool_rule="profiles with write fraction >= 0.45",
        in_pool=_as_write_heavy_as_lbm,
    ),
    Workload(
        name="cached-replay",
        why="the fig06-reads request replayed against a filled cell "
            "cache: keys, cache reads, decode, obs sinks and render only",
        experiments=("fig06",),
        named=("mcf", "omnetpp"),
        pool_rule="bandwidth-sensitive profiles with write fraction <= 0.25",
        in_pool=_read_dominated,
        replay=True,
    ),
)}
