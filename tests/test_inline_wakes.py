"""Inline core wakes replay the scheduled re-entry exactly.

Inside the unbounded ``Simulator.run()`` a core takes a wake due
strictly before every queued event in place instead of pushing it; a
bounded run (``until``/``max_events``/``step``) never does. So the
bounded run of an identical system is the reference path: every
per-core result, every DRAM channel counter and the event count must
match, and the unbounded run must have re-entered ``TraceCore._run``
fewer times.
"""

from dataclasses import replace

import pytest

from repro.experiments.common import SMOKE, warm_system
from repro.hierarchy.cpu_core import TraceCore
from repro.hierarchy.system import build_system
from repro.obs.golden import _cell_config, channel_fingerprint
from repro.workloads.mixes import rate_mix
from tests.test_cpu_core import build

SCALE = replace(SMOKE, refs_per_core=3_000)
BEYOND_LAST_EVENT = 10**15


def _system(msc_kind):
    mix = rate_mix("mcf")
    config = replace(_cell_config(SCALE, "dap", msc_kind),
                     num_cores=mix.num_cores)
    system = build_system(config, mix.traces(
        refs_per_core=SCALE.refs_per_core, scale=SCALE.footprint_scale))
    warm_system(system, mix, SCALE)
    return system


def _outcome(system):
    msc = system.msc
    channels = {
        channel.name: channel_fingerprint(channel)
        for dev in ("mm_dev", "cache_dev", "cache_write_dev")
        if getattr(msc, dev, None) is not None
        for channel in getattr(msc, dev).channels
    }
    cores = [(c.finish_cycle, c.instr_count, c.loads, c.stores,
              c.l3_miss_loads) for c in system.cores]
    return cores, channels, system.sim.events_dispatched


@pytest.fixture
def count_reentries(monkeypatch):
    calls = []
    original = TraceCore._run

    def counted(self):
        calls.append(1)
        original(self)

    monkeypatch.setattr(TraceCore, "_run", counted)
    return calls


@pytest.mark.parametrize("msc_kind", ["sectored", "alloy", "edram"])
def test_unbounded_run_matches_bounded_reference(msc_kind, count_reentries):
    inline = _system(msc_kind)
    inline.run()
    inline_reentries = len(count_reentries)
    inline_outcome = _outcome(inline)

    count_reentries.clear()
    reference = _system(msc_kind)
    reference.run(max_cycles=BEYOND_LAST_EVENT)
    assert reference.sim.pending == 0

    assert _outcome(reference) == inline_outcome
    assert all(core.done for core in inline.cores)
    assert inline_reentries < len(count_reentries)


def test_stepping_matches_run_one_event_at_a_time():
    stepped = _system("sectored")
    for core in stepped.cores:
        core.start()
    steps = 0
    while stepped.sim.step():
        steps += 1
        assert stepped.sim.events_dispatched == steps

    whole = _system("sectored")
    whole.run()
    assert _outcome(stepped) == _outcome(whole)


@pytest.mark.parametrize("rob_entries", [2, 5, 224])
def test_rob_stall_wake_matches_reference(rob_entries):
    # With a tiny ROB the head's SRAM-hit latency outlasts the window, so
    # the core waits for a known future cycle and (often with an empty
    # heap) takes that wake inline; the re-entry recomputes its dispatch
    # time from vtime, not from the stall.
    trace = [(i % 3, i % 5 == 0, (i * 7) % 40 + (i // 60) * 4096)
             for i in range(600)]
    outcomes = []
    for bounded in (False, True):
        sim, core, _ = build(list(trace), rob_entries=rob_entries)
        core.start()
        if bounded:
            sim.run(until=BEYOND_LAST_EVENT)
        else:
            sim.run()
        outcomes.append((core.finish_cycle, core.instr_count, core.loads,
                         core.stores, sim.events_dispatched))
    assert outcomes[0] == outcomes[1]
