"""The bulk warm path leaves exactly the state per-line warmup leaves.

Warmup installs each core's memoized warm set in bulk: a per-sector
group at a time on the sectored HBM and eDRAM caches, one dict update on
Alloy.  The reference is the per-line path, ``warm_line`` over
``Mix.warm_sets``.  The determinism golden covers only the sectored
cache on ``mcf``, so these tests pin all three caches, including a warm
set that overflows the cache (NRU and direct-mapped evictions during
warm) and sets disabled before warm.
"""

from dataclasses import replace

import pytest

from repro.backends import PythonBackend
from repro.experiments.common import get_scale, scaled_config
from repro.experiments.fig02_edram_capacity import edram_config
from repro.hierarchy.system import MiB, build_system
from repro.workloads.mixes import rate_mix
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import warm_columns, warm_groups, warm_lines

SCALE = get_scale("smoke")
KINDS = ("sectored", "alloy", "edram")


def _config(kind: str, capacity_mb: int, num_cores: int):
    if kind == "edram":
        config = edram_config(SCALE, capacity_mb)
    else:
        config = scaled_config(SCALE, paper_capacity=capacity_mb * MiB,
                               msc_kind=kind)
    return replace(config, num_cores=num_cores)


def _msc(config):
    return build_system(config, [iter(())] * config.num_cores).msc


def _state(msc):
    """Everything warmup can change, in the arrays' own order."""
    array = msc.array
    if not hasattr(array, "sector_evictions"):  # Alloy
        return list(array._sets.items()), array.evictions
    sets = [(idx, [(sid, s.valid, s.dirty, s.touched, s.stamp)
                   for sid, s in ways.items()])
            for idx, ways in array._sets.items()]
    return sets, array.sector_evictions, array.sector_allocations


def _warm_per_line(msc, pairs) -> int:
    count = 0
    for line, dirty in pairs:
        msc.warm_line(line, dirty)
        count += 1
    return count


@pytest.mark.parametrize("profile_name", ("mcf", "omnetpp", "parboil-lbm"))
@pytest.mark.parametrize("capacity_mb", (256, 512))
@pytest.mark.parametrize("kind", KINDS)
def test_bulk_warm_matches_per_line(kind, capacity_mb, profile_name):
    mix = rate_mix(profile_name)
    config = _config(kind, capacity_mb, mix.num_cores)
    bulk, reference = _msc(config), _msc(config)
    count = PythonBackend().warm(bulk, mix.members, SCALE.footprint_scale)
    expected = _warm_per_line(reference, mix.warm_sets(SCALE.footprint_scale))
    assert count == expected
    assert _state(bulk) == _state(reference)


def test_overflowing_warm_sets_evict_during_warm():
    """parboil-lbm's rate-8 warm set overflows the 256 MB eDRAM and Alloy
    caches, so the equivalence above covers warm-time evictions."""
    mix = rate_mix("parboil-lbm")
    for kind in ("alloy", "edram"):
        msc = _msc(_config(kind, 256, mix.num_cores))
        PythonBackend().warm(msc, mix.members, SCALE.footprint_scale)
        evictions = getattr(msc.array, "sector_evictions",
                            getattr(msc.array, "evictions", 0))
        assert evictions > 0, kind


@pytest.mark.parametrize("kind", ("sectored", "edram"))
def test_disabled_sets_drop_sectors_but_count_lines(kind):
    mix = rate_mix("omnetpp")
    config = _config(kind, 256, mix.num_cores)
    bulk, reference = _msc(config), _msc(config)
    for msc in (bulk, reference):
        for idx in range(0, msc.array.num_sets, 3):
            msc.array.disable_set(idx)
    count = PythonBackend().warm(bulk, mix.members, SCALE.footprint_scale)
    expected = _warm_per_line(reference, mix.warm_sets(SCALE.footprint_scale))
    assert count == expected
    assert _state(bulk) == _state(reference)
    assert all(idx % 3 for idx in bulk.array._sets)


def test_alloy_warm_over_resident_lines_merges_like_fills():
    """A second warm hits occupied sets: fills run one by one, and a
    re-filled resident line keeps its dirtiness."""
    mix = rate_mix("omnetpp", ways=2)
    config = _config("alloy", 256, mix.num_cores)
    bulk, reference = _msc(config), _msc(config)
    backend = PythonBackend()
    for _ in range(2):
        count = backend.warm(bulk, mix.members, SCALE.footprint_scale)
        expected = _warm_per_line(reference,
                                  mix.warm_sets(SCALE.footprint_scale))
        assert count == expected
        assert _state(bulk) == _state(reference)


@pytest.mark.parametrize("kind", KINDS)
def test_one_core_warm_is_the_alone_reference(kind):
    """The alone-IPC reference warms seed 0 at base line 0."""
    config = _config(kind, 256, 1)
    bulk, reference = _msc(config), _msc(config)
    count = PythonBackend().warm(bulk, ("mcf",), SCALE.footprint_scale)
    expected = _warm_per_line(reference, warm_lines(
        get_profile("mcf"), scale=SCALE.footprint_scale, seed=0))
    assert count == expected
    assert _state(bulk) == _state(reference)


def test_warm_sets_are_memoized_per_invocation():
    backend = PythonBackend()
    mix = rate_mix("mcf", ways=2)
    for _ in range(2):
        backend.warm(_msc(_config("sectored", 256, 2)), mix.members,
                     SCALE.footprint_scale)
        backend.warm(_msc(_config("edram", 256, 2)), mix.members,
                     SCALE.footprint_scale)
    # Per core: the columns, plus groups for 64- and 16-line sectors.
    assert len(backend.store._tables) == 2 * 3


@pytest.mark.parametrize("blocks", (16, 64))
def test_warm_groups_cover_each_line_once(blocks):
    spans = (range(3, 70), range(70, 200), range(256, 1024, 64))
    dirty = bytes(line % 3 == 0 for span in spans for line in span)
    firsts, valids, dirties = warm_groups(spans, dirty, blocks)
    seen = []
    for first, valid, dirty_mask in zip(firsts, valids, dirties):
        base = first - first % blocks
        assert valid >> (first - base) & 1
        assert dirty_mask & ~valid == 0
        seen.extend((base + bit, bool(dirty_mask >> bit & 1))
                    for bit in range(blocks) if valid >> bit & 1)
    expected = [(line, bool(flag)) for line, flag in
                zip((line for span in spans for line in span), dirty)]
    assert seen == expected


@pytest.mark.parametrize("profile_name", ("mcf", "omnetpp", "parboil-lbm"))
def test_warm_columns_reproduce_warm_lines(profile_name):
    profile = get_profile(profile_name)
    spans, dirty = warm_columns(profile, scale=SCALE.footprint_scale, seed=3)
    columns = list(zip((line for span in spans for line in span),
                       map(bool, dirty)))
    assert columns == list(warm_lines(profile, scale=SCALE.footprint_scale,
                                      seed=3))
