"""HealthMonitor sampling, SLI shapes, and alert-engine behaviour (E20)."""

import pytest

from repro.sim.simulator import Simulator
from repro.telemetry.health import (AlertEngine, AlertRule, HealthMonitor)


def make_monitor(interval=1.0):
    sim = Simulator(seed=0)
    return sim, HealthMonitor(sim, interval=interval)


class TestHealthMonitor:
    def test_no_data_sli_is_absent_not_zero(self):
        sim, monitor = make_monitor()
        monitor.track_quantile("rtt_p95", "reliable.rtt", 0.95)
        sim.run(until=3.0)
        assert "rtt_p95" not in monitor.state
        assert sim.metrics.get("health.rtt_p95") is None

    def test_quantile_sli_publishes_gauge(self):
        sim, monitor = make_monitor()
        monitor.track_quantile("rtt_p95", "reliable.rtt", 0.95)
        histogram = sim.metrics.histogram("reliable.rtt")
        for v in (0.1, 0.2, 0.3):
            histogram.observe(v)
        sim.run(until=2.0)
        assert monitor.state["rtt_p95"] == pytest.approx(0.29)
        assert sim.metrics.value("health.rtt_p95") == pytest.approx(0.29)

    def test_quantile_sli_rejects_bad_quantile_at_registration(self):
        _sim, monitor = make_monitor()
        with pytest.raises(ValueError):
            monitor.track_quantile("rtt_p150", "reliable.rtt", 1.5)

    def test_rate_sli_from_counter(self):
        sim, monitor = make_monitor()
        monitor.track_rate("dl_rate", "reliable.dead_letter")
        counter = sim.metrics.counter("reliable.dead_letter")
        sim.every(1.0, lambda: counter.inc(4))
        sim.run(until=5.0)
        assert monitor.state["dl_rate"] == pytest.approx(4.0)

    def test_ratio_sli_is_windowed(self):
        sim, monitor = make_monitor()
        monitor.track_ratio("loss", "resends", "sent")
        resends = sim.metrics.counter("resends")
        sent = sim.metrics.counter("sent")

        def traffic():
            sent.inc(10)
            resends.inc(2)

        sim.every(1.0, traffic)
        sim.run(until=4.0)
        assert monitor.state["loss"] == pytest.approx(0.2)

    def test_ratio_with_idle_denominator_is_absent(self):
        sim, monitor = make_monitor()
        monitor.track_ratio("loss", "resends", "sent")
        sim.run(until=3.0)
        assert "loss" not in monitor.state

    def test_roc_sli_tracks_change_between_ticks(self):
        sim, monitor = make_monitor()
        values = iter([1.0, 1.0, 5.0, 5.0, 5.0])
        monitor.track_value("level", lambda _now: next(values, 5.0))
        assert monitor.derive_roc("level") == "level.roc"
        seen = []
        monitor.subscribe(lambda now, readings: seen.append(
            readings.get("level.roc")))
        sim.run(until=5.0)
        assert 4.0 in seen                  # the 1.0 -> 5.0 jump
        assert seen[-1] == 0.0              # steady afterwards

    def test_roc_of_unknown_sli_rejected(self):
        _sim, monitor = make_monitor()
        with pytest.raises(ValueError):
            monitor.derive_roc("nope")

    def test_duplicate_sli_rejected(self):
        _sim, monitor = make_monitor()
        monitor.track_value("x", lambda _now: 1.0)
        with pytest.raises(ValueError):
            monitor.track_value("x", lambda _now: 2.0)

    def test_peak_tracks_maximum_reading(self):
        sim, monitor = make_monitor()
        values = iter([1.0, 9.0, 3.0])
        monitor.track_value("depth", lambda _now: next(values, 3.0))
        sim.run(until=4.0)
        assert monitor.peak("depth") == 9.0
        assert monitor.peak("unknown") is None

    def test_stop_cancels_sampling(self):
        sim, monitor = make_monitor()
        monitor.track_value("x", lambda _now: 1.0)
        sim.run(until=2.0)
        ticks = monitor.ticks
        monitor.stop()
        sim.run(until=6.0)
        assert monitor.ticks == ticks


class TestAlertEngine:
    def make_engine(self, *rules, interval=1.0):
        sim, monitor = make_monitor(interval=interval)
        engine = AlertEngine(sim, monitor)
        for rule in rules:
            engine.add_rule(rule)
        return sim, monitor, engine

    def test_threshold_rule_fires_and_mints_span(self):
        sim, monitor, engine = self.make_engine(
            AlertRule(name="hot", condition="temp > 50", severity="critical"))
        monitor.track_value("temp", lambda _now: 80.0)
        sim.run(until=2.0)
        assert engine.is_active("hot")
        alert = engine.active["hot"]
        assert alert.reading == {"temp": 80.0}
        assert alert.trace_id is not None
        assert sim.metrics.value("alerts.fired") == 1
        assert sim.metrics.value("alerts.fired.critical") == 1
        assert sim.metrics.value("alerts.active") == 1
        spans = [s for s in sim.telemetry.spans if s.name == "alert.fire"]
        assert len(spans) == 1 and spans[0].subject == "hot"

    def test_sustained_for_ticks_dwell(self):
        sim, monitor, engine = self.make_engine(
            AlertRule(name="hot", condition="temp > 50", for_ticks=3))
        readings = iter([60.0, 60.0])       # only two hot ticks, then cool
        monitor.track_value("temp", lambda _now: next(readings, 10.0))
        sim.run(until=5.0)
        assert not engine.is_active("hot")
        assert engine.firings() == []

    def test_hysteresis_clear_condition_and_dwell(self):
        sim, monitor, engine = self.make_engine(AlertRule(
            name="hot", condition="temp > 50",
            clear_condition="temp < 30", clear_for_ticks=2))
        # Hot, then flapping at 40 (neither fire nor clear), then cool.
        readings = iter([60.0, 40.0, 40.0, 20.0, 20.0])
        monitor.track_value("temp", lambda _now: next(readings, 20.0))
        sim.run(until=3.0)
        assert engine.is_active("hot")      # 40 is not < 30: still active
        sim.run(until=6.0)
        assert not engine.is_active("hot")
        alert = engine.firings("hot")[0]
        assert alert.resolved_at is not None
        assert sim.metrics.value("alerts.resolved") == 1

    def test_default_clear_is_negated_condition(self):
        sim, monitor, engine = self.make_engine(
            AlertRule(name="hot", condition="temp > 50"))
        readings = iter([60.0, 10.0])
        monitor.track_value("temp", lambda _now: next(readings, 10.0))
        sim.run(until=3.0)
        assert not engine.is_active("hot")
        assert len(engine.firings("hot")) == 1

    def test_missing_sli_means_unknown_not_healthy_not_firing(self):
        sim, monitor, engine = self.make_engine(
            AlertRule(name="hot", condition="temp > 50", for_ticks=2))
        # temp never reports: the rule must neither fire nor crash.
        sim.run(until=4.0)
        assert not engine.is_active("hot")

    def test_missing_sli_does_not_resolve_active_alert(self):
        sim, monitor, engine = self.make_engine(
            AlertRule(name="hot", condition="temp > 50"))
        readings = iter([60.0])
        monitor.track_value("temp", lambda _now: next(readings, None))
        sim.run(until=4.0)
        assert engine.is_active("hot")      # silence is not recovery

    def test_dedup_one_firing_while_active(self):
        sim, monitor, engine = self.make_engine(
            AlertRule(name="hot", condition="temp > 50"))
        monitor.track_value("temp", lambda _now: 99.0)
        sim.run(until=10.0)
        assert len(engine.firings("hot")) == 1

    def test_listeners_and_refire_after_resolve(self):
        sim, monitor, engine = self.make_engine(
            AlertRule(name="hot", condition="temp > 50"))
        events = []
        engine.on_fire(lambda alert: events.append(("fire", sim.now)))
        engine.on_resolve(lambda alert: events.append(("resolve", sim.now)))
        readings = iter([60.0, 10.0, 60.0])
        monitor.track_value("temp", lambda _now: next(readings, 10.0))
        sim.run(until=5.0)
        kinds = [kind for kind, _t in events]
        assert kinds == ["fire", "resolve", "fire", "resolve"]
        assert len(engine.firings("hot")) == 2

    def test_duplicate_rule_rejected(self):
        _sim, _monitor, engine = self.make_engine(
            AlertRule(name="hot", condition="temp > 50"))
        with pytest.raises(ValueError):
            engine.add_rule(AlertRule(name="hot", condition="temp > 60"))

    def test_bad_severity_and_dwell_rejected(self):
        with pytest.raises(ValueError):
            AlertRule(name="x", condition="a > 1", severity="panic")
        with pytest.raises(ValueError):
            AlertRule(name="x", condition="a > 1", for_ticks=0)

    def test_audit_chain_records_fire_and_resolve(self):
        from repro.audit.log import AuditLog

        sim, monitor = make_monitor()
        audit = AuditLog()
        engine = AlertEngine(sim, monitor, audit=audit)
        engine.add_rule(AlertRule(name="hot", condition="temp > 50"))
        readings = iter([60.0, 10.0])
        monitor.track_value("temp", lambda _now: next(readings, 10.0))
        sim.run(until=3.0)
        kinds = [entry.kind for entry in audit.entries()]
        assert kinds == ["alert.fire", "alert.resolve"]
        audit.verify()

    def test_export_jsonl_round_trips(self):
        import json

        sim, monitor, engine = self.make_engine(
            AlertRule(name="hot", condition="temp > 50"))
        readings = iter([60.0, 10.0])
        monitor.track_value("temp", lambda _now: next(readings, 10.0))
        sim.run(until=3.0)
        lines = engine.export_jsonl().strip().splitlines()
        assert len(lines) == 1
        row = json.loads(lines[0])
        assert row["rule"] == "hot" and row["severity"] == "warning"
        assert row["fired_at"] == 1.0 and row["resolved_at"] == 2.0
        assert row["reading"] == {"temp": 60.0}

    def test_rate_of_change_rule(self):
        sim, monitor, engine = self.make_engine(
            AlertRule(name="surge", condition="level.roc > 3.0"))
        readings = iter([1.0, 1.0, 10.0])
        monitor.track_value("level", lambda _now: next(readings, 10.0))
        monitor.derive_roc("level")
        sim.run(until=5.0)
        assert len(engine.firings("surge")) == 1
