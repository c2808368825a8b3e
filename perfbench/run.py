#!/usr/bin/env python3
"""Same-machine benchmark of the DAP reproduction, one workload per run.

Run from the repository root::

    python3 perfbench/run.py --workload fig06-reads --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped, its
timings (this thread's CPU time) scaled to a reference host speed (see
``hostspeed.py``);
``--trace 1`` is the separate traced run that gives the per-layer
metrics.  A human-readable report goes to standard output, and its last
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (``{name: {"value": ..., "unit": ...}}``).  Temporary cell
caches, the determinism record and span dumps live in ``.perfbench-out/``.
See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from hostspeed import HostSpeed
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

#: Fresh interpreters started to time set-up (the median is reported).
SETUP_SAMPLES = 9
#: After their timed passes, cold workloads replay the last pass from
#: its cell cache for this long, and until :data:`MIN_REPLAYS` are timed
#: so p99 has ten samples beyond it.  Short or interleaved replay spells
#: spread by 20-35% from run to run on a shared VM; one 20 s spell after
#: the passes matches the cached-replay workload's loop.
REPLAY_PHASE_S = 20.0
MIN_REPLAYS = 1000
#: Replays are grouped in windows this long, each scaled by the host's
#: speed factor over it; see :func:`replay_p50`.
REPLAY_WINDOW_S = 0.5
#: Replays per side (untraced, traced) in the traced cached-replay run.
TRACED_REPLAYS = 1000
#: Sampling rate of the profiler cross-check (prime, like the default).
PROFILE_HZ = 199

NOT_VALIDATED = ("Outputs are checked against the simulator's own "
                 "invariants and its own earlier results; the model is "
                 "not validated against hardware.")


def interpreter_setup_s(speed: HostSpeed) -> tuple:
    """Median seconds from starting a fresh interpreter to ``repro``
    being imported: ``(raw, scaled to the reference speed)``."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "import repro.api; print(time.perf_counter())")
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code, str(SRC)],
                             capture_output=True, text=True, check=True,
                             timeout=120)
        raw.append(float(out.stdout.strip()) - start)
        scaled.append(raw[-1] / speed.factor(start, time.perf_counter()))
    return statistics.median(raw), statistics.median(scaled)


def replay_p50(windows: list) -> float:
    """Mean over ``(walls, speed factor)`` windows of each window's
    median, scaled by the window's factor.

    Scaling corrects only part of a slow spell: replays slowed by more
    than the calibration unit did.  A median over the whole run still
    jumped as the slow share crossed the middle rank; the mean of
    per-window medians moves in proportion to the time spent slow.  Over
    four runs of cached-replay (scaled by a simpler unit than today's),
    its coefficient of variation was 0.025 against 0.054 for the
    whole-run median.
    """
    return statistics.fmean(statistics.median(w) / f for w, f in windows)


def replay_p99(windows: list) -> float:
    """The 99th percentile of every replay's wall, each scaled by its
    window's factor: a half-second window holds too few replays for a
    p99 of its own with ten samples beyond it."""
    scaled = [wall / f for w, f in windows for wall in w]
    if len(scaled) == 1:
        return scaled[0]
    return statistics.quantiles(scaled, n=100)[98]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Pass:
    """One timed cold serving of a workload's requests, and its checks."""

    wall: float         # host CPU seconds
    norm: float         # host CPU seconds scaled to the reference speed
    results: list       # ExperimentResult, or None for a failed request
    stats: list         # ExecStats per request
    failed: int         # failed cells
    counters: Counter   # CellProbe counters summed over the cells
    records: list       # public per-cell results, see checks.cell_records
    cache: object       # the pass's CellCache

    @property
    def cells(self) -> int:
        return sum(s.total for s in self.stats)

    @property
    def rows(self) -> list:
        return [r.rows if r is not None else None for r in self.results]


class Bench:
    def __init__(self, workload, seed: int, seconds: int) -> None:
        from repro import api
        from checks import CellProbe, code_fingerprint

        self.api = api
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.members = workload.members(seed)
        self.requests = workload.requests(seed)
        self.probe = CellProbe()
        self.fingerprint = code_fingerprint(SRC)
        OUT.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=OUT, prefix="tmp-"))
        self.problems: list = []
        #: Started for the untraced run only; unstarted, it subtracts
        #: nothing and scales by 1.
        self.speed = HostSpeed(self.tmp / "hostspeed-unit.json")

    def close(self) -> None:
        self.speed.stop()
        shutil.rmtree(self.tmp, ignore_errors=True)

    # -- operations -------------------------------------------------------

    def serve(self, cache, around=contextlib.nullcontext) -> tuple:
        """Run every request once against ``cache``; ``(seconds, span,
        results, stats, failed cells, per-request probe records)``:
        the CPU seconds of this thread less the speed probe's, and the
        ``(start, end)`` perf_counter readings around them."""
        from repro.api import CellExecutionError

        results, stats, failed, probed = [], [], [], []
        with around():
            start = time.perf_counter()
            mark = self.speed.mark()
            for request in self.requests:
                try:
                    result = self.api.run_experiment(request, cache=cache)
                    results.append(result)
                    stats.append(result.stats)
                    failed.append(0)
                except CellExecutionError as exc:
                    results.append(None)
                    stats.append(exc.stats)
                    failed.append(exc.stats.failed)
                    self.problems.append(str(exc))
                probed.append(self.probe.take())
            wall, end = self.speed.since(mark)
        return wall, (start, end), results, stats, failed, probed

    def cold_pass(self, around=contextlib.nullcontext) -> Pass:
        """One cold pass into a fresh cell cache, with its checks."""
        from checks import cell_records, table_problems

        cache = self.api.CellCache(tempfile.mkdtemp(dir=self.tmp))
        wall, span, results, stats, failed, probed = self.serve(cache,
                                                                around)
        problems, counters = self.problems, Counter()
        for i, (result, cells) in enumerate(zip(results, probed)):
            bad_cells = 0
            for cell_problems, cell_counters in cells:
                counters.update(cell_counters)
                problems.extend(cell_problems)
                bad_cells += bool(cell_problems)
            table = (table_problems(result, self.members) if result else [])
            problems.extend(table)
            if len(cells) != stats[i].executed:
                problems.append(f"{len(cells)} cells simulated, "
                                f"{stats[i].executed} reported executed")
            failed[i] = stats[i].total if table else failed[i] + bad_cells
        records = cell_records(cache)
        norm = wall / self.speed.factor(*span)
        return Pass(wall, norm, results, stats, sum(failed), counters,
                    records, cache)

    def replay(self, cache, reference: Pass,
               around=contextlib.nullcontext) -> tuple:
        """One cache-served replay: ``(wall, ok, stats)``."""
        wall, _, results, stats, failed, _ = self.serve(cache, around)
        ok = (not any(failed)
              and all(s.cache_hits == s.total and s.executed == 0
                      for s in stats)
              and [r.rows for r in results] == reference.rows)
        return wall, ok, stats

    def drop(self, done: Pass) -> None:
        shutil.rmtree(done.cache.root, ignore_errors=True)

    # -- reporting --------------------------------------------------------

    def outcome(self, done: Pass) -> dict:
        """The pass's digest and public counts: the same code on the same
        members must reproduce both."""
        from checks import digest, public_counts

        return {"digest": digest(done.records, done.rows),
                "counts": public_counts(done.records, done.stats)}

    def describe(self, first: Pass) -> dict:
        from checks import check_determinism

        value = self.outcome(first)
        key = (f"{self.fingerprint}:{self.workload.name}:"
               f"{','.join(self.members)}")
        self.problems.extend(
            check_determinism(OUT / "determinism.json", key, value))
        for result in first.results:
            if result is not None:
                print(result.render())
        print(f"digest: {value['digest']}  (cycles, IPC, CAS by device, "
              f"DAP decisions, events and table rows of every cell)")
        print("counts per pass:", json.dumps(value["counts"]))
        print(NOT_VALIDATED)
        return value

    def header(self, trace: int) -> None:
        print(f"perfbench workload={self.workload.name} seed={self.seed} "
              f"members={','.join(self.members)} trace={trace} "
              f"code={self.fingerprint}")
        print(f"pool for other seeds: {self.workload.pool_rule}, "
              f"named members left out")

    def check_passes(self, passes: list) -> dict:
        """The first pass's outcome; later passes must reproduce it."""
        first = self.describe(passes[0])
        for n, done in enumerate(passes[1:], 2):
            again = self.outcome(done)
            if again != first:
                self.problems.append(
                    f"nondeterminism: pass {n} gave {again}, pass 1 {first}")
        return first

    def result(self, attempted, failed, metrics, units) -> dict:
        for problem in self.problems:
            print("FAILED CHECK:", problem)
        rate = failed / attempted if attempted else 1.0
        print(f"error_rate: {failed}/{attempted} = {rate:.6f} "
              f"({'replays' if self.workload.replay else 'cells'})")
        for name, value in metrics.items():
            print(f"  {name:34s} {value:.6f} {units[name]}")
        return {
            "correct": failed == 0 and not self.problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }

    # -- runs -------------------------------------------------------------

    def run_untraced(self) -> dict:
        self.header(0)
        self.speed.start()
        raw_setup_s, setup_s = interpreter_setup_s(self.speed)
        units = {"refs_per_s": "1/s", "grid_s": "s", "replay_ms_p50": "ms",
                 "replay_ms_p99": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
        if self.workload.replay:
            fill = self.cold_pass()
            raw_setup_s += fill.wall
            setup_s += fill.norm
            self.check_passes([fill])
            print(f"fill: {fill.wall:.3f} s, {fill.cells} cells, "
                  f"{fill.counters['refs']} refs")
            windows, bad, attempted = self.replay_loop(fill, self.seconds)
            failed = bad
            refs_total = fill.counters["refs"] * sum(len(w) for w, _ in
                                                     windows)
            grid_total = sum(sum(w) / f for w, f in windows)
            raw_grid_s = replay_p50([(w, 1.0) for w, _ in windows])
            grid_s = replay_p50(windows)
        else:
            passes = []
            start = time.perf_counter()
            while True:
                if passes:
                    self.drop(passes[-1])
                done = self.cold_pass()
                passes.append(done)
                print(f"pass {len(passes)}: {done.wall:.3f} s "
                      f"({done.norm:.3f} s at reference speed), "
                      f"{done.cells} cells, {done.counters['refs']} refs, "
                      f"{sum(p.events for s in done.stats for p in s.profile)}"
                      f" events")
                elapsed = time.perf_counter() - start
                n = len(passes)
                if elapsed * (n + 1) / n > self.seconds:
                    break
            self.check_passes(passes)
            gc.collect()  # the passes' garbage, not the replays'
            windows, bad, _ = self.replay_loop(passes[-1], REPLAY_PHASE_S)
            short = MIN_REPLAYS - sum(len(w) for w, _ in windows)
            if short > 0:
                more, more_bad, _ = self.replay_loop(passes[-1], None, short)
                windows += more
                bad += more_bad
            if bad:
                self.problems.append(f"{bad} replays of the last cold pass "
                                     "failed their check")
            attempted = sum(p.cells for p in passes)
            failed = sum(p.failed for p in passes)
            refs_total = sum(p.counters["refs"] for p in passes)
            grid_total = sum(p.norm for p in passes)
            raw_grid_s = statistics.median(p.wall for p in passes)
            grid_s = statistics.median(p.norm for p in passes)
            print(f"{len(passes)} timed passes")
        self.speed.stop()
        metrics = {
            "refs_per_s": refs_total / grid_total,
            "grid_s": grid_s,
            "replay_ms_p50": replay_p50(windows) * 1000.0,
            "replay_ms_p99": replay_p99(windows) * 1000.0,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        raw = [(w, 1.0) for w, _ in windows]
        print(f"{sum(len(w) for w, _ in windows)} timed replays in "
              f"{len(windows)} windows")
        print(f"host speed: {len(self.speed.units)} calibration units, "
              f"{self.speed.factor(0.0, time.perf_counter()):.3f}x the "
              "reference time on average; raw host time: "
              f"grid_s {raw_grid_s:.6f} s, replay_ms_p50 "
              f"{replay_p50(raw) * 1000.0:.6f} ms, replay_ms_p99 "
              f"{replay_p99(raw) * 1000.0:.6f} ms, setup_s "
              f"{raw_setup_s:.6f} s")
        return self.result(attempted, failed, metrics, units)

    def replay_loop(self, reference: Pass, seconds, count=None) -> tuple:
        """Closed-loop replays against ``reference``'s filled cache, for
        ``seconds`` or, when None, until ``count`` are timed.  Returns the
        timed replay walls grouped in windows of :data:`REPLAY_WINDOW_S`,
        each with the host's speed factor over it, the number of replays
        that failed their check and the number run.

        The speed probe runs only between replays.  A replay run right
        after it is checked but not timed: it started with caches the
        probe had used, and such replays made up the slowest percent.
        """
        spans, window, bad, done, timed = [], [], 0, 0, 0
        seen = len(self.speed.units)
        start = opened = time.perf_counter()
        while (timed < count if seconds is None
               else time.perf_counter() - start < seconds):
            with self.speed.held():
                before = len(self.speed.units)
                wall, ok, _ = self.replay(reference.cache, reference)
                after = len(self.speed.units)
            done += 1
            bad += not ok
            if seen == before == after:
                window.append(wall)
                timed += 1
            seen = after
            now = time.perf_counter()
            if now - opened >= REPLAY_WINDOW_S:
                if window:
                    spans.append((window, opened, now))
                window, opened = [], now
        if window:
            now = time.perf_counter()
            if spans and now - opened < REPLAY_WINDOW_S / 2:
                walls, opened, _ = spans.pop()
                window = walls + window
            spans.append((window, opened, now))
        windows = [(walls, self.speed.factor(t0, t1))
                   for walls, t0, t1 in spans]
        return windows, bad, done

    def run_traced(self) -> dict:
        from layertrace import Tracer

        self.header(1)
        tracer = Tracer()
        profiler_box = {}
        from repro.experiments.registry import get_spec

        specs = [get_spec(name) for name in self.workload.experiments]

        @contextlib.contextmanager
        def traced():
            profiler = _profiler()
            tracer.install(specs)
            if profiler is not None:
                profiler.track(cell="traced")
                profiler.start()
            try:
                yield
            finally:
                if profiler is not None:
                    profiler_box["profile"] = profiler.stop()
                tracer.uninstall()

        if self.workload.replay:
            fill = self.cold_pass()
            self.check_passes([fill])
            plain = [self.replay(fill.cache, fill)[0]
                     for _ in range(TRACED_REPLAYS)]
            outcomes = []
            with traced():
                for _ in range(TRACED_REPLAYS):
                    outcomes.append(self.replay(fill.cache, fill))
            n = TRACED_REPLAYS
            overhead = (statistics.median(o[0] for o in outcomes)
                        / statistics.median(plain))
            bad = sum(not ok for _, ok, _ in outcomes)
            wall = sum(o[0] for o in outcomes)
            stats = [s for _, _, st in outcomes for s in st]
            measured = {"counters": {}, "records": [], "stats": stats}
            attempted, failed = n, bad
        else:
            plain = self.cold_pass()
            untraced = self.check_passes([plain])
            print(f"untraced pass: {plain.wall:.3f} s")
            done = self.cold_pass(traced)
            again = self.outcome(done)
            print(f"traced pass: {done.wall:.3f} s, digest {again['digest']}")
            if again != untraced:
                self.problems.append(f"traced pass gave {again}, untraced "
                                     f"pass {untraced}")
            n, overhead, wall = 1, done.wall / plain.wall, done.wall
            measured = {"counters": done.counters, "records": done.records,
                        "stats": done.stats}
            attempted = done.cells + plain.cells
            failed = done.failed + plain.failed
        metrics = layer_metrics(tracer, n, wall, overhead, measured,
                                profiler_box.get("profile"))
        dump = OUT / f"spans-{self.workload.name}-seed{self.seed}.json"
        dump.write_text(json.dumps(tracer.dump()), encoding="utf-8")
        print(f"spans and aggregates written to {dump.relative_to(ROOT)}")
        if tracer.missing:
            print("targets not found (their layer reads low):",
                  ", ".join(tracer.missing))
        print_shares(metrics)
        units = {name: unit_of(name) for name in metrics}
        return self.result(attempted, failed, metrics, units)


def _profiler():
    try:
        from repro.obs.profiler import SamplingProfiler
    except ImportError:
        return None
    return SamplingProfiler(hz=PROFILE_HZ)


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if "ratio" in name or "per_ref" in name or name.startswith("share."):
        return "ratio"
    return "count"


def layer_metrics(tracer, n: int, wall: float, overhead: float,
                  measured: dict, profile) -> dict:
    """Every per-layer metric, per pass (``n`` passes were traced)."""
    from layertrace import (FILL_TARGETS, MSC_FILL_TARGETS, SHARE_LAYERS,
                            sampled_shares)

    c = measured["counters"]
    records = measured["records"]
    stats = measured["stats"]
    run = "run"

    def seconds(**kw):
        return tracer.totals(**kw)[2] / n

    def calls(**kw):
        return tracer.totals(**kw)[0] / n

    def ratio(num, den):
        return num / den if den else 0.0

    layer_s = tracer.layer_seconds()
    events = sum(p.events for s in stats for p in s.profile) / n
    refs = c.get("refs", 0) / n
    cells = sum(s.total for s in stats) / n
    hits = sum(s.cache_hits for s in stats) / n
    decisions = {}
    for record in records:
        for kind, count in record["dap_decisions"].items():
            decisions[kind] = decisions.get(kind, 0) + count
    msc_targets = {t for (layer, t) in tracer.acc if layer == "msc"}
    metrics = {
        "workloads.synth_s": layer_s["workloads"] / n,
        "workloads.traces_generated":
            sum(s.traces_generated for s in stats) / n,
        "workloads.traces_reused": sum(s.traces_reused for s in stats) / n,
        "warm.s": layer_s["warm"] / n,
        "warm.lines": tracer.warm_lines / n,
        "build.s": layer_s["build"] / n,
        "metrics.collect_s": layer_s["metrics"] / n,
        "engine.loop_s": tracer.totals(targets={"Simulator.run"})[1] / n,
        "engine.self_s": seconds(phase=run, layer="engine"),
        "engine.events": events,
        "engine.events_per_ref": ratio(events, refs),
        "cpu_core.self_s": seconds(phase=run, layer="cpu_core"),
        "cpu_core.refs": refs,
        "cpu_core.wakeups": calls(phase=run, targets={"TraceCore._run"}),
        "cache_hierarchy.self_s": seconds(phase=run, layer="cache_hierarchy"),
        "cache_hierarchy.accesses":
            calls(phase=run, targets={"CacheHierarchy._access"}),
        "cache_hierarchy.l1_hits": c.get("l1_hits", 0) / n,
        "cache_hierarchy.l2_hits": c.get("l2_hits", 0) / n,
        "cache_hierarchy.l3_hits": c.get("l3_hits", 0) / n,
        "cache_hierarchy.prefetches": c.get("prefetches", 0) / n,
        "cache.self_s": seconds(phase=run, layer="cache"),
        "cache.fills": calls(phase=run, targets=FILL_TARGETS),
        "cache.evictions": c.get("evictions", 0) / n,
        "cache.tag_cache_miss_ratio": ratio(c.get("tag_cache_misses", 0),
                                            c.get("tag_cache_accesses", 0)),
        "msc.self_s": seconds(phase=run, layer="msc"),
        "msc.reads": calls(phase=run, targets={
            t for t in msc_targets if t.endswith(".read")}),
        "msc.writes": calls(phase=run, targets={
            t for t in msc_targets if t.endswith(".write")}),
        "msc.fills": calls(phase=run, targets=MSC_FILL_TARGETS),
        "msc.served_hit_ratio": ratio(
            sum(r["served_hit_rate"] for r in records), len(records)),
        "msc.sfrm_waste_ratio": ratio(c.get("sfrm_wasted", 0),
                                      c.get("sfrm_issued", 0)),
        "policies.self_s": seconds(phase=run, layer="policies"),
        "policies.calls": calls(phase=run, layer="policies"),
        "mem.self_s": seconds(phase=run, layer="mem"),
        "mem.cas_mm": c.get("cas_mm", 0) / n,
        "mem.cas_cache": c.get("cas_cache", 0) / n,
        "mem.cas_cache_write": c.get("cas_cache_write", 0) / n,
        "mem.row_hit_ratio_mm": ratio(c.get("row_hits_mm", 0),
                                      c.get("row_accesses_mm", 0)),
        "mem.row_hit_ratio_cache": ratio(
            c.get("row_hits_cache", 0) + c.get("row_hits_cache_write", 0),
            c.get("row_accesses_cache", 0)
            + c.get("row_accesses_cache_write", 0)),
        "experiments.cells": cells,
        "experiments.cache_hits": hits,
        "experiments.hit_ratio": ratio(hits, cells),
        "experiments.key_s": seconds(targets={"cell_key"}),
        "experiments.cache_read_s": seconds(targets={
            "CellCache.get", "CellCache.get_result", "decode_result"}),
        "experiments.cache_write_s": seconds(targets={
            "CellCache.put_result", "CellCache.put_failure"}),
        "experiments.render_s": seconds(targets={"render"}),
        "obs.manifest_s": seconds(phase="manifest"),
        "obs.observe_s": seconds(layer="obs", phase="exec"),
        "trace.overhead_ratio": overhead,
    }
    for kind in ("fwb", "wb", "ifrm", "sfrm"):
        metrics[f"policies.decisions.{kind}"] = decisions.get(kind, 0) / n
    traced_total = sum(layer_s.values())
    sampled = (sampled_shares(profile, tracer.phase_symbols, "layertrace")
               if profile is not None else {})
    for layer in SHARE_LAYERS:
        own = (layer_s[layer] if layer != "other"
               else max(0.0, wall - traced_total))
        metrics[f"share.{layer}.traced"] = own / wall
        metrics[f"share.{layer}.sampled"] = sampled.get(layer, 0.0)
    metrics["share.tracing.sampled"] = sampled.get("tracing", 0.0)
    return metrics


def print_shares(metrics: dict) -> None:
    from layertrace import SHARE_LAYERS

    print("layer shares of the traced pass: wrapper self time | sampled "
          "profile | sampled, wrapper frames left out")
    untraced = 1.0 - metrics["share.tracing.sampled"]
    for layer in (*SHARE_LAYERS, "tracing"):
        traced = metrics.get(f"share.{layer}.traced")
        sampled = metrics[f"share.{layer}.sampled"]
        left = f"{traced:7.1%}" if traced is not None else "    n/a"
        right = (f"{sampled / untraced:7.1%}"
                 if layer != "tracing" and untraced > 0 else "    n/a")
        print(f"  {layer:16s} {left} | {sampled:7.1%} | {right}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds)
    try:
        result = bench.run_traced() if args.trace else bench.run_untraced()
    finally:
        bench.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
