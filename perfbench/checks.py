"""Output checks, simulated-statistics digests and the determinism record.

A cold cell fails when the engine reports an error, when a core retired
fewer references than its trace held, when a device's bytes differ from
64 x its CAS count, or when the rendered table lacks a row or has a
non-finite GMEAN.  A replay fails when any cell was not a cache hit or
its rows differ from the rows of the run that filled the cache.

These checks test the simulator against its own invariants and its own
earlier output.  The model is not validated against hardware.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import Counter
from operator import length_hint
from pathlib import Path

LINE_BYTES = 64


class CellProbe:
    """Checks every simulated cell as its event loop returns.

    Installed by wrapping ``System.run`` once per process, in traced and
    untraced runs alike: one call per cell, nothing per event.  Each
    finished cell appends ``(problems, counters)`` to :attr:`cells`.
    """

    def __init__(self) -> None:
        self.cells: list = []
        from repro.hierarchy.system import System

        original = System.run
        probe = self

        def run(system, *args, **kwargs):
            held = [length_hint(core._trace) + (core._pending is not None)
                    for core in system.cores]
            original(system, *args, **kwargs)
            probe.cells.append(inspect_system(system, held))

        run.__wrapped__ = original
        System.run = run

    def take(self) -> list:
        cells, self.cells = self.cells, []
        return cells


def _devices(msc) -> dict:
    devices = {"mm": msc.mm_dev, "cache": msc.cache_dev}
    write_dev = getattr(msc, "cache_write_dev", None)
    if write_dev is not None:
        devices["cache_write"] = write_dev
    return devices


def inspect_system(system, held: list) -> tuple:
    """``(problems, counters)`` for one finished system."""
    problems = []
    counters = Counter()
    for core, expected in zip(system.cores, held):
        retired = core.loads + core.stores
        counters["refs"] += retired
        if retired < expected or not core.done:
            problems.append(f"core {core.core_id} retired {retired} of "
                            f"{expected} references")
    for name, device in _devices(system.msc).items():
        cas = device.total_cas()
        moved = LINE_BYTES * sum(ch.stats.reads_done + ch.stats.writes_done
                                 for ch in device.channels)
        if moved != LINE_BYTES * cas:
            problems.append(f"{name} device moved {moved} bytes for {cas} "
                            "CAS")
        counters[f"cas_{name}"] += cas
        counters[f"row_hits_{name}"] += sum(
            ch.stats.row_hits for ch in device.channels)
        counters[f"row_accesses_{name}"] += sum(
            ch.stats.row_hits + ch.stats.row_misses for ch in device.channels)
    hierarchy = system.hierarchy
    for level in ("l1", "l2"):
        counters[f"{level}_hits"] += sum(c.hits for c in getattr(hierarchy, level))
    counters["l3_hits"] += hierarchy.l3.hits
    counters["prefetches"] += sum(p.issued for p in hierarchy.prefetchers or ())
    sram = hierarchy.l1 + hierarchy.l2 + [hierarchy.l3]
    array = getattr(system.msc, "array", None)
    counters["evictions"] += (
        sum(c.evictions for c in sram)
        + getattr(array, "sector_evictions", 0)
        + getattr(array, "evictions", 0))
    tag_cache = getattr(system.msc, "tag_cache", None)
    if tag_cache is not None:
        counters["tag_cache_misses"] += tag_cache.misses
        counters["tag_cache_accesses"] += tag_cache.accesses
    stats = system.msc.stats
    counters["sfrm_issued"] += stats.sfrm_issued
    counters["sfrm_wasted"] += stats.sfrm_wasted
    return problems, counters


def table_problems(result, members: tuple) -> list:
    """Missing rows or a non-finite GMEAN in one rendered table."""
    rows = {row[0]: row for row in result.rows}
    problems = [f"{result.experiment}: missing row {name!r}"
                for name in (*members, "GMEAN") if name not in rows]
    gmean = rows.get("GMEAN", [])
    values = [v for v in gmean[1:] if isinstance(v, (int, float))]
    if "GMEAN" in rows and (not values
                            or not all(math.isfinite(v) for v in values)):
        problems.append(f"{result.experiment}: non-finite GMEAN {gmean[1:]}")
    return problems


def cell_records(cache) -> list:
    """Public per-cell results (``RunResult`` fields) read back from a
    pass's cell cache, ordered by cache key."""
    records = []
    for path in sorted(cache.root.glob("*/*.json")):
        if path.name.endswith(".manifest.json"):
            continue
        entry = cache.get(path.stem)
        if entry is None or entry.get("status") != "ok":
            continue
        data = entry["result"]["data"]
        extras = data["extras"]
        records.append({
            "label": entry.get("label"),
            "cycles": data["cycles"],
            "ipc": data["ipc"],
            "mm_cas": data["mm_cas"],
            "cache_cas": data["cache_cas"],
            "cas_fractions": [extras["mm_access_fraction"],
                              extras["cache_access_fraction"],
                              extras["cache_write_access_fraction"]],
            "served_hit_rate": data["served_hit_rate"],
            "sfrm": [extras["sfrm_issued"], extras["sfrm_wasted"]],
            "dap_decisions": data["dap_decisions"],
            "events": extras["manifest"]["events"],
        })
    return records


def digest(records: list, tables: list) -> str:
    """Short SHA-256 over the simulated statistics and the model outputs."""
    text = json.dumps({"cells": records, "tables": tables}, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def public_counts(records: list, stats_list: list) -> dict:
    """Deterministic per-pass counts from public results only."""
    counts = Counter()
    for stats in stats_list:
        counts["cells"] += stats.total
        counts["executed"] += stats.executed
        counts["cache_hits"] += stats.cache_hits
        counts["traces_generated"] += stats.traces_generated
        counts["traces_reused"] += stats.traces_reused
    for record in records:
        counts["events"] += record["events"]
        counts["cycles"] += record["cycles"]
        counts["cas_mm"] += record["mm_cas"]
        counts["cas_cache_all"] += record["cache_cas"]
        for kind, n in record["dap_decisions"].items():
            counts[f"decisions.{kind}"] += n
    return dict(sorted(counts.items()))


def code_fingerprint(src: Path) -> str:
    """SHA-256 over the simulator sources, so records key on the code."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_determinism(record_path: Path, key: str, value: dict) -> list:
    """Compare ``value`` with what an earlier run of the same code on the
    same members recorded under ``key``; record it when new."""
    try:
        known = json.loads(record_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        known = {}
    previous = known.get(key)
    if previous is not None:
        return [f"nondeterminism: {name} was {previous[name]!r}, "
                f"now {value.get(name)!r}"
                for name in sorted(previous) if previous[name] != value.get(name)]
    known[key] = value
    record_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = record_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, record_path)
    return []
