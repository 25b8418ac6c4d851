"""Fluid engine: exact completion times, timers, stall detection."""

import math

import pytest

from repro.simulator.engine import EngineStalledError, FluidEngine, WorkItem


def constant_rate_allocator(rate: float):
    def allocate(items):
        for item in items:
            item.rate = rate

    return allocate


def test_single_item_completes_exactly():
    done = []
    engine = FluidEngine(constant_rate_allocator(2.0))
    engine.add_item(WorkItem(10.0, on_complete=done.append))
    end = engine.run()
    assert end == pytest.approx(5.0)
    assert done == [pytest.approx(5.0)]


def test_two_items_fair_share():
    """Two items sharing a unit resource: both complete at volume sum."""

    def allocate(items):
        for item in items:
            item.rate = 1.0 / len(items)

    done = []
    engine = FluidEngine(allocate)
    engine.add_item(WorkItem(1.0, on_complete=lambda t: done.append(("a", t))))
    engine.add_item(WorkItem(3.0, on_complete=lambda t: done.append(("b", t))))
    engine.run()
    # Shared until a finishes at t=2 (each at rate .5), then b alone:
    # b has 2 left, rate 1 -> done at 4.
    assert done[0] == ("a", pytest.approx(2.0))
    assert done[1] == ("b", pytest.approx(4.0))


def test_timer_fires_and_adds_work():
    engine = FluidEngine(constant_rate_allocator(1.0))
    done = []
    engine.schedule(3.0, lambda: engine.add_item(WorkItem(2.0, done.append)))
    engine.run()
    assert done == [pytest.approx(5.0)]


def test_timer_ordering_stable():
    order = []
    engine = FluidEngine(constant_rate_allocator(1.0))
    engine.schedule(1.0, lambda: order.append("a"))
    engine.schedule(1.0, lambda: order.append("b"))
    engine.schedule(0.5, lambda: order.append("c"))
    engine.run()
    assert order == ["c", "a", "b"]


def test_zero_volume_completes_instantly():
    engine = FluidEngine(constant_rate_allocator(1.0))
    done = []
    engine.add_item(WorkItem(0.0, done.append))
    assert done == [0.0]
    assert engine.idle


def test_stall_detection():
    engine = FluidEngine(constant_rate_allocator(0.0))
    engine.add_item(WorkItem(1.0))
    with pytest.raises(EngineStalledError):
        engine.run()


def test_negative_volume_rejected():
    with pytest.raises(ValueError):
        WorkItem(-1.0)
    with pytest.raises(ValueError):
        WorkItem(math.nan)


def test_schedule_in_past_rejected():
    engine = FluidEngine(constant_rate_allocator(1.0))
    engine.add_item(WorkItem(5.0))
    engine.schedule(2.0, lambda: None)
    engine.run()
    with pytest.raises(ValueError):
        engine.schedule(engine.now - 1.0, lambda: None)


def test_run_until_stops_early():
    engine = FluidEngine(constant_rate_allocator(1.0))
    engine.add_item(WorkItem(10.0))
    t = engine.run(until=4.0)
    assert t == pytest.approx(4.0)
    assert engine.active_items[0].remaining == pytest.approx(6.0)


def test_observe_intervals_cover_run():
    intervals = []
    engine = FluidEngine(
        constant_rate_allocator(1.0),
        observe=lambda t0, t1, items: intervals.append((t0, t1)),
    )
    engine.add_item(WorkItem(2.0))
    engine.schedule(1.0, lambda: engine.add_item(WorkItem(0.5)))
    engine.run()
    assert intervals[0][0] == 0.0
    # Contiguous coverage without gaps.
    for (a0, a1), (b0, b1) in zip(intervals, intervals[1:]):
        assert a1 == pytest.approx(b0)
    assert intervals[-1][1] == pytest.approx(2.0)


def test_invalid_allocator_rate_detected():
    def bad_allocate(items):
        for item in items:
            item.rate = -1.0

    engine = FluidEngine(bad_allocate)
    engine.add_item(WorkItem(1.0))
    with pytest.raises(ValueError, match="invalid rate"):
        engine.run()


def test_mark_dirty_forces_reallocation():
    calls = []

    def allocate(items):
        calls.append(len(items))
        for item in items:
            item.rate = 1.0

    engine = FluidEngine(allocate)
    engine.add_item(WorkItem(1.0))
    engine.schedule(0.5, engine.mark_dirty)
    engine.run()
    assert len(calls) >= 2


def test_request_stop_applies_to_one_run_only():
    """A stop ends the run in progress; the next run() resumes instead
    of returning at once."""
    done = []
    engine = FluidEngine(constant_rate_allocator(1.0))
    engine.add_item(WorkItem(1.0, lambda t: (done.append(t), engine.request_stop())))
    engine.add_item(WorkItem(3.0, done.append))
    assert engine.run() == 1.0
    assert engine.run() == 3.0
    assert done == [1.0, 3.0]
    # A request made outside any run does not swallow the next one.
    engine.add_item(WorkItem(2.0, done.append))
    engine.request_stop()
    assert engine.run() == 5.0


def test_data_events_go_through_dispatch():
    seen = []
    engine = FluidEngine(constant_rate_allocator(1.0),
                         dispatch=lambda ev: seen.append((ev, engine.now)))
    engine.add_item(WorkItem(2.0, on_complete=("done", "a")))
    engine.add_item(WorkItem(0.0, on_complete=("done", "zero")))
    engine.schedule(1.0, ("timer", "b"))
    engine.run()
    assert seen == [(("done", "zero"), 0.0), (("timer", "b"), 1.0),
                    (("done", "a"), 2.0)]


def test_pause_stops_before_the_step_a_timer_would_join():
    """A timer pushed at the pause instant afterwards fires in the same
    step, with the same order, as one scheduled from the start."""

    def scenario(pushed_late: bool):
        log = []
        engine = FluidEngine(constant_rate_allocator(1.0),
                             dispatch=lambda ev: log.append((ev, engine.now)))
        engine.add_item(WorkItem(2.0, on_complete=("done", "a")))
        seq = engine.reserve_seq()
        engine.schedule(2.0, ("timer", "b"))
        if not pushed_late:
            engine.push(2.0, seq, ("timer", "held"))
        else:
            engine.run(pause=2.0)
            assert engine.now == 0.0 and not log
            engine.push(2.0, seq, ("timer", "held"))
        engine.run()
        return log

    assert scenario(True) == scenario(False) == [
        (("timer", "held"), 2.0), (("timer", "b"), 2.0), (("done", "a"), 2.0),
    ]


def test_interrupt_resumes_mid_step():
    """An interrupted timer callback leaves the rest of its step to the
    next run, which may first take a timer due in that very step."""
    log = []

    def dispatch(ev):
        log.append(ev)
        if ev == ("timer", "first"):
            engine.interrupt()

    engine = FluidEngine(constant_rate_allocator(1.0), dispatch=dispatch)
    engine.add_item(WorkItem(1.0, on_complete=("done", "a")))
    engine.schedule(1.0, ("timer", "first"))
    seq = engine.reserve_seq()
    engine.schedule(1.0, ("timer", "second"))
    engine.run()
    assert log == [("timer", "first")]
    engine.run(pause=1.0)  # still inside the step's due window
    assert log == [("timer", "first")]
    engine.push(1.0, seq, ("timer", "held"))
    engine.run()
    assert log == [("timer", "first"), ("timer", "held"), ("timer", "second"),
                   ("done", "a")]


def test_fork_is_independent_of_its_base():
    log = {"base": [], "fork": []}
    base = FluidEngine(constant_rate_allocator(1.0),
                       dispatch=lambda ev: log["base"].append((ev, base.now)))
    base.add_item(WorkItem(4.0, on_complete=("done", "a")))
    base.add_item(WorkItem(6.0, on_complete=("done", "b")))
    base.schedule(5.0, ("timer", "t"))
    base.run(until=3.0)
    fork = base.fork(constant_rate_allocator(1.0),
                     dispatch=lambda ev: log["fork"].append((ev, fork.now)))
    assert fork.now == 3.0 and fork.active_items[0] is not base.active_items[0]
    fork.add_item(WorkItem(0.5, on_complete=("done", "c")))
    fork.schedule(4.0, ("timer", "u"))
    fork.run()
    assert [r.remaining for r in base.active_items] == [1.0, 3.0]
    base.run()
    assert log["base"] == [(("done", "a"), 4.0), (("timer", "t"), 5.0),
                           (("done", "b"), 6.0)]
    assert log["fork"] == [(("done", "c"), 3.5), (("timer", "u"), 4.0),
                           (("done", "a"), 4.0), (("timer", "t"), 5.0),
                           (("done", "b"), 6.0)]
