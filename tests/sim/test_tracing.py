"""Unit tests for the trace recorder."""

from repro.sim.tracing import TraceEvent, TraceRecorder


def test_record_and_query_by_kind_prefix():
    recorder = TraceRecorder()
    recorder.record(1.0, "action.executed", "dev1", action="patrol")
    recorder.record(2.0, "action.vetoed", "dev1")
    recorder.record(3.0, "net.dropped", "dev2")
    assert recorder.count("action") == 2
    assert recorder.count("action.executed") == 1
    assert recorder.count("net") == 1
    # Prefix matching is dotted, not substring.
    assert recorder.count("act") == 0


def test_query_by_subject_and_time_window():
    recorder = TraceRecorder()
    for time in range(5):
        recorder.record(float(time), "tick", "dev1")
    events = recorder.query("tick", subject="dev1", since=1.0, until=3.0)
    assert [event.time for event in events] == [1.0, 2.0, 3.0]
    assert recorder.query("tick", subject="other") == []


def test_capacity_drops_and_counts():
    recorder = TraceRecorder(capacity=2)
    for time in range(5):
        recorder.record(float(time), "tick", "dev")
    assert len(recorder.events) == 2
    assert recorder.dropped == 3


def test_listener_sees_every_event_even_when_dropped():
    recorder = TraceRecorder(capacity=1)
    seen = []
    recorder.subscribe(seen.append)
    recorder.record(0.0, "a", "s")
    recorder.record(1.0, "b", "s")
    assert len(seen) == 2


def test_matches_helper():
    event = TraceEvent(0.0, "safeguard.veto.preaction", "dev")
    assert event.matches("safeguard")
    assert event.matches("safeguard.veto")
    assert not event.matches("safe")


def test_subjects_and_clear():
    recorder = TraceRecorder()
    recorder.record(0.0, "k", "a")
    recorder.record(0.0, "k", "b")
    assert recorder.subjects() == {"a", "b"}
    recorder.clear()
    assert recorder.events == []
    assert recorder.dropped == 0


# -- perf mode: disabled recording ---------------------------------------------------


def test_disabled_recorder_keeps_nothing_and_skips_listeners():
    from repro.sim.tracing import TraceRecorder

    seen = []
    recorder = TraceRecorder(enabled=False)
    recorder.subscribe(seen.append)
    assert recorder.record(1.0, "a.b", "s") is None
    assert recorder.events == [] and seen == []
    assert recorder.dropped == 1


def test_simulator_trace_options_flow_through():
    from repro.sim.simulator import Simulator

    sim = Simulator(seed=0, trace_enabled=False)
    sim.record("x", "y")
    assert sim.trace.events == []


# -- drop accounting: every dropped event names its cause ---------------------------


def test_drop_causes_are_counted_separately():
    disabled = TraceRecorder(enabled=False)
    disabled.record(0.0, "k", "s")
    assert disabled.dropped_disabled == 1
    assert disabled.dropped_capacity == 0
    assert disabled.dropped == 1

    capped = TraceRecorder(capacity=1)
    capped.record(0.0, "k", "s")
    capped.record(1.0, "k", "s")
    assert capped.dropped_capacity == 1
    assert capped.dropped == 1


def test_dropped_is_a_read_only_total():
    import pytest

    recorder = TraceRecorder(enabled=False)
    recorder.record(0.0, "k", "s")
    with pytest.raises(AttributeError):
        recorder.dropped = 0


def test_stats_snapshot_breaks_out_causes():
    recorder = TraceRecorder(capacity=1)
    for index in range(5):
        recorder.record(float(index), "k", "s")
    stats = recorder.stats()
    assert stats["events"] == 1
    assert stats["dropped_capacity"] == 4          # indices 1 through 4
    assert stats["dropped_disabled"] == 0
    assert stats["dropped"] == 4
    assert stats["enabled"] is True


def test_clear_resets_every_drop_counter():
    recorder = TraceRecorder(enabled=False)
    recorder.record(0.0, "k", "s")
    recorder.clear()
    assert recorder.dropped == 0
    assert recorder.stats()["dropped_disabled"] == 0
