"""Tracer unit behaviour: ids, parenting, capacity, lazy roots, export."""

from __future__ import annotations

import pytest

from repro.sim.simulator import Simulator
from repro.telemetry.exposition import write_jsonl
from repro.telemetry.spans import Span, SpanContext, Tracer


class TestSpanContext:
    def test_round_trips_through_dict(self):
        context = SpanContext("t1", "s2", "s1")
        assert SpanContext.from_dict(context.to_dict()) == context

    def test_equality_and_hash(self):
        a = SpanContext("t1", "s1", None)
        b = SpanContext("t1", "s1", None)
        assert a == b and hash(a) == hash(b)
        assert a != SpanContext("t1", "s2", None)


class TestTracerMinting:
    def test_ids_are_deterministic_counters(self):
        tracer = Tracer()
        first = tracer.start_trace("a", "dev", 0.0)
        second = tracer.start_trace("b", "dev", 1.0)
        assert first.context.trace_id == "t1"
        assert second.context.trace_id == "t2"
        assert first.context.span_id == "s1"
        assert second.context.span_id == "s2"
        # A fresh tracer mints the identical sequence — replay-exact.
        again = Tracer()
        assert again.start_trace("a", "dev", 0.0).context.trace_id == "t1"

    def test_child_inherits_trace_and_points_at_parent(self):
        tracer = Tracer()
        root = tracer.start_trace("root", "dev", 0.0)
        child = tracer.start_span("child", "dev", 1.0, parent=root.context)
        assert child.context.trace_id == root.context.trace_id
        assert child.context.parent_id == root.context.span_id

    def test_orphan_span_roots_its_own_trace(self):
        tracer = Tracer()
        span = tracer.start_span("lonely", "dev", 0.0)
        assert span.context.parent_id is None
        assert span.context.trace_id == "t1"

    def test_default_parent_is_active_context(self):
        tracer = Tracer()
        root = tracer.start_trace("root", "dev", 0.0)
        tracer.activate(root.context)
        child = tracer.start_span("child", "dev", 1.0)
        assert child.context.parent_id == root.context.span_id

    def test_disabled_tracer_mints_nothing(self):
        tracer = Tracer(enabled=False)
        assert tracer.start_trace("a", "dev", 0.0) is None
        assert tracer.start_span("b", "dev", 0.0) is None
        assert tracer.active_context() is None
        assert tracer.spans == []

    def test_clock_supplies_default_time(self):
        tracer = Tracer(clock=lambda: 42.5)
        assert tracer.start_trace("a", "dev").time == 42.5
        assert tracer.start_trace("a", "dev", time=1.0).time == 1.0


class TestCapacity:
    def test_capacity_cap_drops_but_listeners_still_fire(self):
        seen = []
        tracer = Tracer(capacity=2)
        tracer.subscribe(seen.append)
        for index in range(5):
            tracer.start_trace("tick", "dev", float(index))
        assert len(tracer.spans) == 2
        assert tracer.dropped == 3
        assert len(seen) == 5          # the flight recorder sees everything
        assert tracer.stats()["dropped"] == 3

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)
        Tracer(capacity=None)          # unbounded is allowed

    def test_clear_resets_retention_not_counters(self):
        tracer = Tracer(capacity=1)
        tracer.start_trace("a", "dev", 0.0)
        tracer.start_trace("b", "dev", 1.0)
        tracer.clear()
        assert tracer.spans == [] and tracer.dropped == 0
        # Id counters keep going: cleared history never recycles ids.
        assert tracer.start_trace("c", "dev", 2.0).context.trace_id == "t3"


class TestActivation:
    def test_activate_returns_previous_for_restore(self):
        tracer = Tracer()
        first = tracer.start_trace("a", "dev", 0.0).context
        second = tracer.start_trace("b", "dev", 0.0).context
        assert tracer.activate(first) is None
        assert tracer.activate(second) is first
        assert tracer.activate(None) is second
        assert tracer.current is None

    def test_pending_root_materializes_on_demand(self):
        tracer = Tracer()
        tracer.pending_root = ("dev1:heartbeat", 7.0)
        assert tracer.spans == []                  # lazy: nothing allocated yet
        context = tracer.active_context()
        assert context is not None
        (root,) = tracer.spans
        assert root.name == "task.heartbeat"
        assert root.subject == "dev1"
        assert root.time == 7.0
        assert tracer.pending_root is None
        # Repeated calls reuse the materialized context.
        assert tracer.active_context() is context

    def test_pending_root_without_owner_prefix(self):
        tracer = Tracer()
        tracer.pending_root = ("sweep", 1.0)
        tracer.active_context()
        (root,) = tracer.spans
        assert root.name == "task.sweep"
        assert root.subject == "sweep"


class TestQueriesAndExport:
    def _populated(self) -> Tracer:
        tracer = Tracer()
        root = tracer.start_trace("root", "dev", 0.0)
        tracer.start_span("child", "dev", 1.0, parent=root.context, extra=3)
        tracer.start_trace("other", "dev2", 2.0)
        return tracer

    def test_trace_and_trace_ids(self):
        tracer = self._populated()
        assert tracer.trace_ids() == ["t1", "t2"]
        assert [span.name for span in tracer.trace("t1")] == ["root", "child"]

    def test_stats(self):
        stats = self._populated().stats()
        assert stats == {"spans": 3, "dropped": 0, "traces": 2,
                         "enabled": True}

    def test_export_and_load_jsonl(self, tmp_path):
        tracer = self._populated()
        path = str(tmp_path / "spans.jsonl")
        assert write_jsonl(path, (span.to_dict()
                                  for span in tracer.spans)) == 3
        loaded = Tracer.load_jsonl(path)
        assert [span.to_dict() for span in loaded.spans] == [
            span.to_dict() for span in tracer.spans
        ]

    def test_span_round_trips_through_dict(self):
        span = Span(SpanContext("t1", "s2", "s1"), "n", "subj", 3.0, {"k": 1})
        assert Span.from_dict(span.to_dict()).to_dict() == span.to_dict()


class TestSimulatorPropagation:
    def test_schedule_captures_and_run_loop_restores_context(self):
        sim = Simulator(seed=0)
        seen = []

        def inner():
            seen.append(sim.telemetry.current)

        def outer():
            root = sim.telemetry.start_trace("root", "dev", sim.now)
            sim.telemetry.activate(root.context)
            sim.schedule(1.0, inner)       # captures the active context

        sim.schedule(0.0, outer)
        sim.schedule(5.0, inner)           # scheduled outside any context
        sim.run(until=10.0)
        assert seen[0] is not None and seen[0].trace_id == "t1"
        assert seen[1] is None             # no leakage across events
        assert sim.telemetry.current is None

    def test_periodic_tick_with_no_traceable_work_leaves_no_span(self):
        sim = Simulator(seed=0)
        sim.every(1.0, lambda: None, label="dev1:idle")
        sim.run(until=5.0)
        assert sim.telemetry.spans == []

    def test_periodic_tick_materializes_root_when_work_joins(self):
        sim = Simulator(seed=0)

        def work():
            sim.telemetry.start_span("work", "dev1", sim.now)

        sim.every(2.0, work, label="dev1:patrol")
        sim.run(until=5.0)
        roots = [s for s in sim.telemetry.spans if s.name == "task.patrol"]
        works = [s for s in sim.telemetry.spans if s.name == "work"]
        assert len(roots) == len(works) == 2       # fires at t=2, 4
        trace_ids = {root.context.trace_id for root in roots}
        assert len(trace_ids) == 2                 # one trace per tick
        for root, child in zip(roots, works):
            assert child.context.trace_id == root.context.trace_id
            assert child.context.parent_id == root.context.span_id

    def test_spans_disabled_simulator(self):
        sim = Simulator(seed=0, spans_enabled=False)

        def work():
            sim.telemetry.start_span("work", "dev1", sim.now)

        sim.every(1.0, work, label="dev1:patrol")
        sim.run(until=3.0)
        assert sim.telemetry.spans == []
        assert sim.telemetry.stats()["enabled"] is False
