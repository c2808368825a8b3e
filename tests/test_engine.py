"""Unit tests for the discrete-event simulator core."""

import pytest

from repro.engine import Simulator
from repro.errors import SimulationError


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(30, lambda: order.append("c"))
    sim.schedule(10, lambda: order.append("a"))
    sim.schedule(20, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 30


def test_same_cycle_events_fire_in_scheduling_order():
    sim = Simulator()
    order = []
    for tag in range(5):
        sim.schedule(7, lambda t=tag: order.append(t))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_run_until_stops_clock_at_bound():
    sim = Simulator()
    fired = []
    sim.schedule(100, lambda: fired.append(1))
    sim.run(until=50)
    assert fired == []
    assert sim.now == 50
    sim.run()
    assert fired == [1]


def test_events_scheduled_during_dispatch_are_honoured():
    sim = Simulator()
    seen = []

    def first():
        seen.append(sim.now)
        sim.schedule(5, lambda: seen.append(sim.now))

    sim.schedule(10, first)
    sim.run()
    assert seen == [10, 15]


def test_schedule_in_past_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(5, lambda: None)


def test_step_dispatches_single_event():
    sim = Simulator()
    out = []
    sim.schedule(1, lambda: out.append("x"))
    sim.schedule(2, lambda: out.append("y"))
    assert sim.step()
    assert out == ["x"]
    assert sim.step()
    assert not sim.step()
    assert out == ["x", "y"]


def test_pending_and_peek():
    sim = Simulator()
    assert sim.peek_time() is None
    sim.schedule(42, lambda: None)
    assert sim.pending == 1
    assert sim.peek_time() == 42


def test_run_until_with_empty_queue_advances_clock():
    sim = Simulator()
    sim.run(until=123)
    assert sim.now == 123


def test_events_dispatched_counter_accumulates():
    sim = Simulator()
    for _ in range(4):
        sim.schedule(1, lambda: None)
    sim.run()
    assert sim.events_dispatched == 4


def test_max_events_with_until_pauses_without_advancing_clock():
    # The run() contract: when the event budget runs out first, the
    # clock parks at the last dispatched event and is NOT advanced to
    # `until`, so a later run() resumes with the rest still in the
    # future.
    sim = Simulator()
    fired = []
    for t in (10, 20, 30, 40):
        sim.schedule(t, lambda t=t: fired.append(t))
    assert sim.run(until=100, max_events=2) == 2
    assert fired == [10, 20]
    assert sim.now == 20
    assert sim.pending == 2
    # Resume with the horizon binding first: the event beyond `until`
    # stays queued and the clock lands exactly on the horizon.
    assert sim.run(until=35, max_events=10) == 1
    assert fired == [10, 20, 30]
    assert sim.now == 35
    assert sim.pending == 1
    # Drain the tail; an emptied queue waits out the horizon.
    assert sim.run(until=100) == 1
    assert fired == [10, 20, 30, 40]
    assert sim.now == 100
    assert sim.pending == 0


def test_max_events_zero_dispatches_nothing():
    sim = Simulator()
    fired = []
    sim.schedule(5, lambda: fired.append(5))
    assert sim.run(until=50, max_events=0) == 0
    assert fired == [] and sim.now == 0 and sim.pending == 1


@pytest.mark.parametrize("bounded", [False, True], ids=["run", "run_until"])
def test_events_dispatched_exact_when_a_callback_raises(bounded):
    # The unbounded path derives its count from sequence numbers; both
    # paths count the raising event (it was popped and called) and
    # nothing still queued, and a later run() continues the count.
    sim = Simulator()
    fired = []

    def boom():
        sim.schedule(5, lambda: fired.append("after"))
        raise RuntimeError("boom")

    sim.schedule(1, lambda: fired.append(1))
    sim.schedule(2, boom)
    sim.schedule(3, lambda: fired.append(3))
    with pytest.raises(RuntimeError):
        if bounded:
            sim.run(until=100)
        else:
            sim.run()
    assert fired == [1]
    assert sim.events_dispatched == 2
    assert sim.pending == 2
    assert not sim.inline_ok
    assert sim.run() == 2
    assert fired == [1, 3, "after"]
    assert sim.events_dispatched == 4


def test_inline_ok_only_inside_unbounded_run():
    sim = Simulator()
    seen = []
    sim.schedule(1, lambda: seen.append(("run", sim.inline_ok)))
    sim.run()
    sim.schedule(1, lambda: seen.append(("until", sim.inline_ok)))
    sim.run(until=sim.now + 10)
    sim.schedule(1, lambda: seen.append(("max_events", sim.inline_ok)))
    sim.run(max_events=5)
    sim.schedule(1, lambda: seen.append(("step", sim.inline_ok)))
    sim.step()
    assert seen == [("run", True), ("until", False), ("max_events", False),
                    ("step", False)]
    assert not sim.inline_ok


def test_nested_run_counts_each_event_once():
    sim = Simulator()
    sim.schedule(1, lambda: None)
    sim.schedule(2, lambda: sim.run(max_events=1))
    sim.schedule(3, lambda: None)
    sim.schedule(4, lambda: sim.run())
    sim.schedule(9, lambda: None)
    sim.run()
    assert sim.events_dispatched == 5
    assert sim.pending == 0


def test_step_and_max_events_never_dispatch_past_their_budget():
    # Self-rescheduling chains keep the queue non-empty; every bounded
    # call stops exactly at its budget.
    sim = Simulator()

    def chain(period):
        def tick():
            sim.schedule(period, tick)
        return tick

    for period in (1, 2, 3):
        sim.schedule(period, chain(period))
    for budget in (0, 1, 4, 7):
        before = sim.events_dispatched
        assert sim.run(max_events=budget) == budget
        assert sim.events_dispatched - before == budget
    for _ in range(5):
        before = sim.events_dispatched
        assert sim.step()
        assert sim.events_dispatched - before == 1
    assert sim.pending == 3
