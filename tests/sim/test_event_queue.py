"""Unit tests for the simulation event queue."""

import pytest

from repro.errors import SimulationError
from repro.sim.event_queue import EventQueue


def test_pop_orders_by_time():
    queue = EventQueue()
    fired = []
    queue.push(3.0, fired.append, ("c",))
    queue.push(1.0, fired.append, ("a",))
    queue.push(2.0, fired.append, ("b",))
    while (event := queue.pop()) is not None:
        event.callback(*event.args)
    assert fired == ["a", "b", "c"]


def test_same_time_orders_by_priority_then_insertion():
    queue = EventQueue()
    order = []
    queue.push(1.0, order.append, ("low-first",), priority=1)
    queue.push(1.0, order.append, ("high",), priority=0)
    queue.push(1.0, order.append, ("low-second",), priority=1)
    while (event := queue.pop()) is not None:
        event.callback(*event.args)
    assert order == ["high", "low-first", "low-second"]


def test_cancelled_events_are_skipped():
    queue = EventQueue()
    keep = queue.push(1.0, lambda: None, label="keep")
    drop = queue.push(0.5, lambda: None, label="drop")
    drop.cancel()
    assert len(queue) == 1
    assert queue.pop() is keep
    assert queue.pop() is None


def test_peek_time_skips_cancelled():
    queue = EventQueue()
    first = queue.push(0.5, lambda: None)
    queue.push(2.0, lambda: None)
    first.cancel()
    assert queue.peek_time() == 2.0


def test_len_tracks_live_events():
    queue = EventQueue()
    assert len(queue) == 0
    queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    assert len(queue) == 2
    queue.pop()
    assert len(queue) == 1


def test_rejects_nan_and_inf_times():
    queue = EventQueue()
    with pytest.raises(SimulationError):
        queue.push(float("nan"), lambda: None)
    with pytest.raises(SimulationError):
        queue.push(float("inf"), lambda: None)


def test_clear_empties_queue():
    queue = EventQueue()
    queue.push(1.0, lambda: None)
    queue.clear()
    assert len(queue) == 0
    assert queue.pop() is None


def test_pop_until_respects_horizon_and_drains_cancelled():
    queue = EventQueue()
    early = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    late = queue.push(5.0, lambda: None)
    early.cancel()
    # The cancelled head is drained; 2.0 is within the horizon.
    event = queue.pop_until(3.0)
    assert event is not None and event.time == 2.0
    # 5.0 is beyond the horizon: None, but the event stays queued.
    assert queue.pop_until(3.0) is None
    assert len(queue) == 1
    assert queue.pop_until(10.0) is late


def test_live_count_invariant_under_interleaved_operations():
    """The satellite accounting fix: ``len(queue)`` must equal the number
    of live (un-popped, un-cancelled) events through *any* interleaving of
    push / cancel / double-cancel / peek / pop — the historical drift came
    from cancel paths that bypassed the queue's bookkeeping and from
    peeks compacting cancelled heads after the count was adjusted."""
    import random

    rng = random.Random(1234)
    queue = EventQueue()
    handles = []
    live = set()
    for step in range(2000):
        op = rng.random()
        if op < 0.45 or not handles:
            handle = queue.push(rng.uniform(0.0, 100.0), lambda: None)
            handles.append(handle)
            live.add(id(handle))
        elif op < 0.70:
            victim = rng.choice(handles)
            victim.cancel()
            live.discard(id(victim))
            if rng.random() < 0.3:
                victim.cancel()                  # double-cancel is a no-op
        elif op < 0.85:
            queue.peek_time()                    # compacts cancelled heads
        else:
            popped = queue.pop()
            if popped is not None:
                assert not popped.cancelled
                live.discard(id(popped))
        assert len(queue) == len(live), f"drift at step {step}"
    # Drain: exactly the live events come out, then the queue is empty.
    drained = 0
    while queue.pop() is not None:
        drained += 1
    assert drained == len(live)
    assert len(queue) == 0


def test_cancel_after_pop_does_not_corrupt_count():
    queue = EventQueue()
    first = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    assert queue.pop() is first
    first.cancel()                               # popped: cancel is inert
    assert len(queue) == 1
    assert queue.peek_time() == 2.0


def test_clear_cancels_outstanding_handles():
    queue = EventQueue()
    handle = queue.push(1.0, lambda: None)
    queue.clear()
    assert handle.cancelled
    assert len(queue) == 0
    handle.cancel()                              # idempotent after clear
    assert len(queue) == 0
