"""E20 fleet-health wiring in the confrontation scenario."""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.scenarios.confrontation import ConfrontationScenario, ThreatConfig
from repro.scenarios.harness import SafeguardConfig
from repro.sim.faults import FaultPlan, LinkDegradation


def build(**kwargs):
    defaults = dict(
        seed=5, config=SafeguardConfig.full(), threats=ThreatConfig.none(),
        n_drones_per_org=2, n_mules_per_org=1, n_civilians=4, n_warfighters=2,
        safety_transport="reliable", durability="journal+snapshot",
        health=True,
    )
    defaults.update(kwargs)
    return ConfrontationScenario(**defaults)


def storm_plan():
    return FaultPlan([LinkDegradation(at=5.0, until=35.0,
                                      loss_rate=0.9, latency_factor=2.0)])


class TestConfigValidation:
    def test_size_compaction_needs_health_and_journal(self):
        with pytest.raises(ConfigurationError):
            build(health=False, compaction_policy="size")
        with pytest.raises(ConfigurationError):
            build(durability="none", compaction_policy="size")
        with pytest.raises(ConfigurationError):
            build(compaction_policy="hourly")

    def test_adaptive_needs_health_and_reliable_transport(self):
        with pytest.raises(ConfigurationError):
            build(health=False, adaptive_quarantine=True)
        with pytest.raises(ConfigurationError):
            build(safety_transport="datagram", adaptive_quarantine=True)

    def test_health_off_leaves_no_monitor(self):
        scenario = build(health=False)
        assert scenario.monitor is None and scenario.alerts is None
        assert scenario.adaptive is None and scenario.compactor is None


class TestHealthInScenario:
    def test_storm_fires_link_alert_and_relaxes_quarantine(self):
        scenario = build(fault_plan=storm_plan(), adaptive_quarantine=True)
        result = scenario.run(until=30.0)
        assert result["alerts_fired"] >= 1
        assert scenario.alerts.is_active("link.degraded")
        assert all(link.quarantine_after == 8
                   for link in scenario.overseer_links.values())
        # The firing is audit-chained on the journal-backed fleet log.
        assert scenario.alerts.audit is not None
        kinds = [entry.kind for entry in scenario.alerts.audit.entries()]
        assert "alert.fire" in kinds

    def test_alert_resolves_after_storm_and_restores_threshold(self):
        scenario = build(fault_plan=storm_plan(), adaptive_quarantine=True)
        scenario.run(until=80.0)
        assert not scenario.alerts.is_active("link.degraded")
        assert all(link.quarantine_after == 3
                   for link in scenario.overseer_links.values())
        alert = scenario.alerts.firings("link.degraded")[0]
        assert alert.resolved_at is not None and alert.trace_id is not None

    def test_rtt_p95_sli_is_the_exact_histogram_quantile(self):
        scenario = build()
        scenario.run(until=30.0)
        rtt = scenario.sim.metrics.get("reliable.rtt")
        assert rtt.count > 100
        assert scenario.monitor.state["link.rtt_p95"] == rtt.quantile(0.95)

    def test_health_gauges_reach_prometheus_snapshot(self):
        from repro.telemetry.exposition import prometheus_text

        scenario = build()
        scenario.run(until=10.0)
        text = prometheus_text(scenario.sim.metrics)
        assert "health_link_rtt_ewma" in text
        assert "health_queue_depth" in text

    def test_bundle_includes_alerts_jsonl(self, tmp_path):
        scenario = build(fault_plan=storm_plan())
        scenario.run(until=30.0, telemetry_dir=str(tmp_path))
        assert os.path.exists(tmp_path / "alerts.jsonl")
        rows = [json.loads(line)
                for line in (tmp_path / "alerts.jsonl").read_text().splitlines()]
        assert any(row["rule"] == "link.degraded" for row in rows)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["health"] is True
        assert len(rows) == len(scenario.alerts.history)
        assert "alerts.jsonl" in manifest["files"]

    def test_size_compaction_bounds_journals_in_scenario(self):
        scenario = build(compaction_policy="size", compaction_bytes=4096,
                        threats=ThreatConfig())
        result = scenario.run(until=60.0)
        assert result["compactions_sized"] > 0
        for journal in scenario.audit_journals.values():
            assert scenario.storage.size(journal.name) < 3 * 4096

    def test_deterministic_replay_with_health_on(self):
        results = [build(fault_plan=storm_plan(),
                         adaptive_quarantine=True).run(until=40.0)
                   for _ in range(2)]
        assert results[0] == results[1]
