"""The sampling profiler: capture, collapsed-stack format, determinism.

The profiler's contract has two halves.  Mechanically: a background
thread samples tracked threads' stacks into the collapsed format with
per-cell attribution, the format round-trips through ``Profile.parse``,
and the engine writes per-cell profile sidecars next to cache entries.
Behaviourally — the half CI really cares about: profiling is
*observation only*.  A profiled run's simulated results are bit-identical
to an unprofiled one (the determinism golden holds with the profiler
running), and nothing about profiling enters cell cache keys.
"""

import tempfile
import threading
import time
from pathlib import Path

from repro.api import MixCell, run_cells
from repro.experiments.cellcache import CellCache
from repro.experiments.common import get_scale, scaled_config
from repro.obs.golden import capture_golden, diff_goldens, load_golden
from repro.obs.profiler import (
    Profile,
    SamplingProfiler,
    merge_collapsed,
    top_symbols,
)
from repro.workloads.mixes import rate_mix

GOLDEN_PATH = Path(__file__).parent / "golden" / "determinism_golden.json"


def _busy_wait(stop: threading.Event) -> None:
    while not stop.is_set():
        sum(i * i for i in range(500))


def _cells(workload="mcf", policies=("baseline", "dap")):
    scale = get_scale("smoke")
    return [
        MixCell(f"{workload}/{policy}", rate_mix(workload),
                scaled_config(scale, policy=policy), scale)
        for policy in policies
    ]


def _result_fingerprint(results):
    return {label: (r.cycles, r.mean_ipc, r.mean_mpki, r.avg_read_latency)
            for label, r in sorted(results.items())}


# ----------------------------------------------------------------------
# Sampler mechanics
# ----------------------------------------------------------------------

def test_sampler_captures_tracked_thread_with_cell_attribution():
    stop = threading.Event()
    worker = threading.Thread(target=_busy_wait, args=(stop,), daemon=True)
    worker.start()
    profiler = SamplingProfiler(hz=250)
    profiler.track(cell="unit/busy", ident=worker.ident)
    profiler.start()
    time.sleep(0.25)
    profile = profiler.stop()
    stop.set()
    worker.join()

    assert profile.total_samples > 0
    assert profile.cells() == ["unit/busy"]
    symbols = profile.by_symbol()
    assert any("_busy_wait" in s for s in symbols)
    # Meta captures the capture parameters for later tooling.
    assert profile.meta["hz"] == 250
    assert profile.meta["samples"] == profile.total_samples


def test_untracked_threads_are_never_sampled():
    stop = threading.Event()
    worker = threading.Thread(target=_busy_wait, args=(stop,), daemon=True)
    worker.start()
    # Started without track(): the busy worker is visible to
    # sys._current_frames() but must not be sampled.
    profiler = SamplingProfiler(hz=250)
    profiler.start()
    time.sleep(0.1)
    profile = profiler.stop()
    stop.set()
    worker.join()
    assert profile.total_samples == 0


def test_collapsed_round_trips_and_is_deterministic():
    profile = Profile()
    profile.add("cellA", ("mod.outer", "mod.inner"), count=3)
    profile.add("cellA", ("mod.outer",), count=2)
    profile.add("cellB", ("other.leaf",), count=1)
    profile.meta["hz"] = 101

    text = profile.collapsed()
    assert text == Profile.parse(text).collapsed()  # byte-stable
    parsed = Profile.parse(text)
    assert parsed.samples == profile.samples
    assert parsed.meta["hz"] == 101
    assert parsed.cells() == ["cellA", "cellB"]

    by_symbol = parsed.by_symbol()
    assert by_symbol["mod.outer"]["self"] == 2
    assert by_symbol["mod.outer"]["total"] == 5
    assert by_symbol["mod.inner"]["self"] == 3


def test_merge_collapsed_sums_counts_across_captures():
    a = Profile()
    a.add("cell", ("m.f",), count=2)
    b = Profile()
    b.add("cell", ("m.f",), count=3)
    b.add("cell", ("m.g",), count=1)
    merged = Profile.parse(merge_collapsed([a.collapsed(), b.collapsed()]))
    assert merged.samples[("cell", ("m.f",))] == 5
    assert merged.total_samples == 6
    top = top_symbols(merged, 1)
    assert top[0][0] == "m.f"


def test_merge_carries_backend_attribution():
    """Per-cell profiles are stamped with the producing backend; the
    merged profile keeps it while agreeing, degrades to 'mixed'."""
    merged = Profile()
    merged.merge(Profile(meta={"backend": "numpy", "hz": 101}))
    merged.merge(Profile(meta={"backend": "numpy", "hz": 101}))
    assert merged.meta["backend"] == "numpy"
    assert "# backend: numpy" in merged.collapsed()
    merged.merge(Profile(meta={"backend": "python"}))
    assert merged.meta["backend"] == "mixed"


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------

def test_engine_profiles_cells_and_writes_sidecars(tmp_path):
    cache = CellCache(tmp_path / "cache")
    cells = _cells()
    results, stats = run_cells(cells, cache=cache, profile_hz=101)
    assert len(results) == 2
    assert set(stats.stack_profiles) == {"mcf/baseline", "mcf/dap"}
    for label, text in stats.stack_profiles.items():
        profile = Profile.parse(text)
        assert profile.total_samples > 0
        assert profile.cells() == [label]
        assert profile.meta["backend"] == "python"
    # Each executed cell left a profile sidecar next to its cache entry.
    from repro.experiments.cellcache import cell_key

    for cell in cells:
        sidecar = cache.get_profile(cell_key(cell.key_parts()))
        assert sidecar is not None
        assert Profile.parse(sidecar).cells() == [cell.label]


def test_cache_hits_contribute_no_samples(tmp_path):
    cache = CellCache(tmp_path / "cache")
    run_cells(_cells(), cache=cache, profile_hz=101)
    results, stats = run_cells(_cells(), cache=cache, profile_hz=101)
    assert stats.cache_hits == 2
    assert stats.stack_profiles == {}
    assert len(results) == 2


# ----------------------------------------------------------------------
# The determinism contract
# ----------------------------------------------------------------------

def test_profiled_run_is_bit_identical_to_unprofiled(tmp_path):
    plain_results, plain_stats = run_cells(
        _cells(), cache=CellCache(tmp_path / "plain"), profile_hz=0)
    prof_results, prof_stats = run_cells(
        _cells(), cache=CellCache(tmp_path / "profiled"), profile_hz=101)
    assert (_result_fingerprint(plain_results)
            == _result_fingerprint(prof_results))
    assert plain_stats.stack_profiles == {}
    assert prof_stats.stack_profiles != {}
    # Profiling must not enter the cache key: an unprofiled re-run
    # against the profiled run's cache is a pure cache hit.
    _, rerun_stats = run_cells(
        _cells(), cache=CellCache(tmp_path / "profiled"), profile_hz=0)
    assert rerun_stats.cache_hits == 2
    assert rerun_stats.executed == 0


def test_golden_holds_while_profiler_is_sampling():
    # The strongest determinism statement we can make: a fresh golden
    # capture taken *while the sampler is interrupting this very thread
    # hundreds of times a second* still matches the committed golden
    # byte for byte.
    profiler = SamplingProfiler(hz=331)
    profiler.track(cell="golden/capture")
    profiler.start()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            fresh = capture_golden(["mcf"], ["baseline", "dap"],
                                   trace_dir=tmp)
    finally:
        profile = profiler.stop()
    committed = load_golden(GOLDEN_PATH)
    committed["cells"] = {k: committed["cells"][k] for k in fresh["cells"]}
    assert diff_goldens(committed, fresh) == []
    assert profile.total_samples > 0  # the sampler really was running
