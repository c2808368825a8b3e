"""Backend registry, bit-identity parity, and trace-store accounting.

The backends contract (PERFORMANCE.md "Backends") is that every backend
produces *bit-identical* simulation inputs — the same materialized
traces — differing only in wall clock; warmup is one path shared by all
of them (tests/test_warm_bulk.py). These tests pin that contract
directly (python vs numpy trace parity, golden equality) plus the
plumbing around it: name resolution, auto fallback when numpy is
absent, trace-store hit accounting, and backend-blind cell caching.
"""

import sys
import tempfile
from pathlib import Path

import pytest

from repro.api import ExperimentRequest, MixCell, run_cells
from repro.backends import (
    BACKEND_NAMES,
    active_backend_name,
    configure_backend,
    numpy_version,
    resolve_backend_name,
)
from repro.backends.base import TraceStore
from repro.backends.python_backend import PythonBackend
from repro.errors import ConfigError
from repro.experiments.common import get_scale, scaled_config
from repro.workloads.mixes import rate_mix
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import core_base_line, generate_trace

HAVE_NUMPY = numpy_version() is not None
needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")

GOLDEN_PATH = Path(__file__).parent / "golden" / "determinism_golden.json"

PARITY_PROFILES = ("mcf", "omnetpp", "libquantum")


@pytest.fixture(autouse=True)
def _restore_python_backend():
    """Tests may install any backend; leave the process on the default."""
    yield
    configure_backend("python")


def _numpy_backend():
    from repro.backends.numpy_backend import NumpyBackend

    return NumpyBackend()


# ----------------------------------------------------------------------
# Registry and resolution
# ----------------------------------------------------------------------

def test_default_backend_is_python():
    assert resolve_backend_name(None) == "python"
    assert configure_backend(None).name == "python"
    assert active_backend_name() == "python"


def test_unknown_backend_rejected():
    with pytest.raises(ConfigError, match="unknown backend"):
        resolve_backend_name("cython")


def test_env_var_selects_backend(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "auto")
    assert resolve_backend_name(None) in ("python", "numpy")
    # An explicit name always wins over the environment.
    monkeypatch.setenv("REPRO_BACKEND", "numpy")
    assert resolve_backend_name("python") == "python"


@needs_numpy
def test_auto_resolves_to_numpy_when_available():
    assert resolve_backend_name("auto") == "numpy"
    assert configure_backend("numpy").name == "numpy"


def test_auto_falls_back_to_python_without_numpy(monkeypatch):
    # A None entry makes `import numpy` raise ImportError, which is
    # exactly the [fast]-extra-not-installed situation.
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert numpy_version() is None
    assert resolve_backend_name("auto") == "python"
    assert configure_backend("auto").name == "python"


def test_explicit_numpy_without_numpy_raises(monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)
    with pytest.raises(ConfigError, match="fast"):
        configure_backend("numpy")


def test_configure_installs_fresh_store():
    first = configure_backend("python")
    first.store.generated = 7
    second = configure_backend("python")
    assert second.store.generated == 0
    assert second.store is not first.store


# ----------------------------------------------------------------------
# Trace store
# ----------------------------------------------------------------------

def test_trace_store_counts_and_identity():
    store = TraceStore()
    built = []

    def build():
        built.append(1)
        return [(0, False, 1), (1, True, 2)]

    a = store.trace(("k",), build)
    b = store.trace(("k",), build)
    assert a is b and len(built) == 1
    assert (store.generated, store.reused) == (1, 1)


def test_trace_store_evicts_at_capacity():
    """Both memos evict the oldest entry first (FIFO)."""
    store = TraceStore(max_refs=4)
    for key in ("a", "b", "c"):  # "c" evicts "a", the oldest
        store.trace((key,), lambda: [(0, False, 0)] * 2)
    store.trace(("b",), lambda: [(0, False, 0)] * 2)
    assert store.generated == 3 and store.reused == 1
    store.trace(("a",), lambda: [(0, False, 0)] * 2)
    assert store.generated == 4

    built = []
    for key in ("a", "b", "c", "b"):
        store.table((key,), lambda: built.append(key) or [0, 0])
    assert built == ["a", "b", "c"]


# ----------------------------------------------------------------------
# Bit-identity parity: materialized traces
# ----------------------------------------------------------------------

@needs_numpy
@pytest.mark.parametrize("profile_name", PARITY_PROFILES)
def test_trace_parity_python_numpy_generator(profile_name):
    """All three producers emit the identical (gap, write, line) stream."""
    profile = get_profile(profile_name)
    base = core_base_line(1)
    for seed, scale in ((0, 1.0 / 64), (3, 1.0 / 16)):
        reference = list(generate_trace(profile, num_refs=2000,
                                        base_line=base, scale=scale,
                                        seed=seed))
        via_python = PythonBackend().trace(profile, 2000, base_line=base,
                                           scale=scale, seed=seed)
        via_numpy = _numpy_backend().trace(profile, 2000, base_line=base,
                                           scale=scale, seed=seed)
        assert via_python == reference
        assert via_numpy == reference
        # Exact Python ints, not numpy scalars: downstream hashing and
        # arithmetic must be indistinguishable from the generator's.
        assert all(type(line) is int for _, _, line in via_numpy)
        assert all(type(write) is bool for _, write, _ in via_numpy)


@needs_numpy
def test_numpy_golden_matches_committed():
    """End to end: the numpy backend reproduces the committed golden —
    same fingerprints, same telemetry, same trace SHA-256."""
    from repro.obs.golden import capture_golden, diff_goldens, load_golden

    configure_backend("numpy")
    with tempfile.TemporaryDirectory() as tmp:
        fresh = capture_golden(["mcf"], ["baseline", "dap"], trace_dir=tmp)
    committed = load_golden(GOLDEN_PATH)
    committed["cells"] = {k: committed["cells"][k] for k in fresh["cells"]}
    diffs = diff_goldens(committed, fresh)
    assert diffs == [], "numpy backend drifted from the golden:\n" + \
        "\n".join(diffs)


# ----------------------------------------------------------------------
# Engine integration: memoization accounting and backend-blind caching
# ----------------------------------------------------------------------

def _smoke_cells(policies=("baseline", "dap")):
    scale = get_scale("smoke")
    return [
        MixCell(f"mcf/{policy}", rate_mix("mcf"),
                scaled_config(scale, policy=policy), scale)
        for policy in policies
    ]


def test_trace_reuse_across_cells_and_summary():
    cells = _smoke_cells()
    n = rate_mix("mcf").num_cores
    _, stats = run_cells(cells, jobs=1, cache=None, backend="python")
    # The baseline cell materializes one trace per core; the dap cell
    # replays the same (workload, seed) pairs from the store.
    assert stats.traces_generated == n
    assert stats.traces_reused == n
    assert f"traces: {n} generated, {n} reused" in stats.summary()


def test_cell_cache_is_backend_blind(tmp_path):
    """Cells computed under python are served verbatim under numpy (and
    vice versa): the backend never enters the cache key."""
    cache = str(tmp_path / "cells")
    results_py, stats_py = run_cells(_smoke_cells(), cache=cache,
                                     backend="python")
    assert stats_py.executed == 2
    other = "numpy" if HAVE_NUMPY else "auto"
    results_2, stats_2 = run_cells(_smoke_cells(), cache=cache, backend=other)
    assert stats_2.executed == 0
    assert stats_2.cache_hits == 2
    assert stats_2.traces_generated == 0
    for label, result in results_py.items():
        assert results_2[label].mean_ipc == result.mean_ipc
        assert results_2[label].cycles == result.cycles


# ----------------------------------------------------------------------
# Request plumbing
# ----------------------------------------------------------------------

def test_request_backend_round_trip_and_validation():
    request = ExperimentRequest(experiment="fig06", backend="numpy",
                                profile=True)
    request.validate()
    assert ExperimentRequest.from_dict(request.to_dict()) == request
    with pytest.raises(ConfigError, match="unknown backend"):
        ExperimentRequest(experiment="fig06", backend="fortran").validate()


def test_request_fingerprint_ignores_backend_and_profile():
    base = ExperimentRequest(experiment="fig06", scale="smoke")
    for name in BACKEND_NAMES:
        variant = ExperimentRequest(experiment="fig06", scale="smoke",
                                    backend=name, profile=True)
        assert variant.fingerprint() == base.fingerprint()
