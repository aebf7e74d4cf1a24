"""E19 edge cases the health layer leans on (E20 satellite).

The fleet monitor hands trace ids to operators (every alert carries
one); those ids get pasted into ``explain()`` and flight-recorder reads
hours later, possibly against a tracer that has since dropped spans or a
storage that has since restarted.  These edges must degrade gracefully.
"""

from __future__ import annotations

from repro.sim.simulator import Simulator
from repro.store.stable import StableStorage
from repro.telemetry.explain import explain
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.spans import Tracer


class TestExplainUnknownAndPartialTraces:
    def test_unknown_trace_id_yields_empty_explanation(self):
        tracer = Tracer()
        tracer.start_trace("attack.worm", "worm", 0.0)
        explanation = explain(tracer, "t999")
        assert len(explanation) == 0
        assert explanation.roots() == []
        assert explanation.kinds() == [] and explanation.subjects() == []
        assert not explanation.has_stage("attack")

    def test_unknown_trace_id_still_renders(self):
        explanation = explain(Tracer(), "t42")
        text = explanation.render()
        assert "t42" in text and "0 span(s)" in text

    def test_partial_trace_after_capacity_drop_is_still_explainable(self):
        # Capacity 3 keeps the oldest spans: the tail of the 5-span chain
        # is gone when explain() runs, leaving a partial trace.
        tracer = Tracer(capacity=3)
        root = tracer.start_trace("attack.worm", "worm", 0.0)
        cursor = root
        for index in range(4):
            cursor = tracer.start_span(f"hop.{index}", f"dev{index}",
                                       float(index + 1),
                                       parent=cursor.context)
        explanation = explain(tracer, root.context.trace_id)
        assert len(explanation) == 3
        # The surviving prefix is still one connected path from the root,
        # and the dropped stages are queryably absent (not errors).
        leaf = explanation.stage("hop.1")[0]
        assert [span.name for span in explanation.path_to(leaf)] == [
            "attack.worm", "hop.0", "hop.1"]
        assert explanation.stage("hop.3") == []
        assert not explanation.has_stage("hop.3")

    def test_partial_trace_render_does_not_crash(self):
        tracer = Tracer(capacity=2)
        root = tracer.start_trace("attack.worm", "worm", 0.0)
        child = tracer.start_span("a", "dev", 1.0, parent=root.context)
        tracer.start_span("b", "dev", 2.0, parent=child.context)
        text = explain(tracer, root.context.trace_id).render()
        assert "attack.worm" in text and "@dev" in text


class TestFlightRecorderWrapAround:
    def test_wraparound_keeps_newest_entries_in_order(self):
        sim = Simulator(seed=0)
        recorder = FlightRecorder(sim, StableStorage(), per_device=4)
        for index in range(10):
            sim.record("step", "dev", index=index)
        ring = recorder.recent("dev")
        assert len(ring) == 4
        assert [entry["detail"]["index"] for entry in ring] == [6, 7, 8, 9]

    def test_dump_after_wraparound_persists_exactly_the_ring(self):
        sim = Simulator(seed=0)
        storage = StableStorage()
        recorder = FlightRecorder(sim, storage, per_device=3)
        for index in range(8):
            sim.record("step", "dev", index=index)
        assert recorder.dump("dev", reason="test") == 3
        (dump,) = FlightRecorder.load(storage, "dev")
        assert [entry["detail"]["index"] for entry in dump["entries"]] == [
            5, 6, 7]

    def test_mixed_span_and_event_wraparound(self):
        sim = Simulator(seed=0)
        recorder = FlightRecorder(sim, StableStorage(), per_device=2)
        sim.telemetry.start_trace("task.tick", "dev", 0.0)
        sim.record("step", "dev", index=0)
        sim.record("step", "dev", index=1)
        kinds = [entry["record"] for entry in recorder.recent("dev")]
        assert kinds == ["trace", "trace"]  # the span wrapped off


class TestFlightDumpAfterRestart:
    def test_dump_readable_through_fresh_storage_session(self):
        # The dump is written pre-crash; the reader constructs everything
        # anew over the same stable storage — the post-restart auditor.
        sim = Simulator(seed=0)
        storage = StableStorage()
        recorder = FlightRecorder(sim, storage, per_device=8)
        sim.record("overheat", "dev", temp=91.0)
        recorder.dump("dev", reason="crash")
        dumps = FlightRecorder.load(storage, "dev")
        assert len(dumps) == 1
        assert dumps[0]["reason"] == "crash"
        assert dumps[0]["entries"][0]["detail"] == {"temp": 91.0}

    def test_post_restart_dump_appends_after_pre_crash_dump(self):
        sim = Simulator(seed=0)
        storage = StableStorage()
        recorder = FlightRecorder(sim, storage, per_device=8)
        sim.record("overheat", "dev", temp=91.0)
        recorder.dump("dev", reason="crash")
        # "Restart": a brand-new simulator and recorder over the same
        # storage; its dump must append after the pre-crash one, and both
        # must replay in order.
        sim2 = Simulator(seed=1)
        recorder2 = FlightRecorder(sim2, storage, per_device=8)
        sim2.record("recovered", "dev", ok=True)
        recorder2.dump("dev", reason="quarantine")
        dumps = FlightRecorder.load(storage, "dev")
        assert [dump["reason"] for dump in dumps] == ["crash", "quarantine"]
        assert "dev" in FlightRecorder.dumped_devices(storage)

    def test_empty_ring_dump_is_a_readable_statement_of_silence(self):
        sim = Simulator(seed=0)
        storage = StableStorage()
        recorder = FlightRecorder(sim, storage, per_device=4)
        assert recorder.dump("ghost", reason="crash") == 0
        (dump,) = FlightRecorder.load(storage, "ghost")
        assert dump["entries"] == []
