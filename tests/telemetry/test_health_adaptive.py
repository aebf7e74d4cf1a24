"""Closed-loop consumers: adaptive quarantine and sized compaction (E20)."""

import pytest

from repro.audit.log import AuditLog
from repro.sim.simulator import Simulator
from repro.store.journal import Journal
from repro.store.stable import StableStorage
from repro.telemetry.health.adaptive import AdaptiveQuarantine, CompactionController
from repro.telemetry.health.monitor import HealthMonitor
from repro.telemetry.health.rules import AlertEngine, AlertRule


class FakeLink:
    def __init__(self):
        self.quarantine_after = 0


def make_stack(rule):
    sim = Simulator(seed=0)
    monitor = HealthMonitor(sim, interval=1.0)
    engine = AlertEngine(sim, monitor)
    engine.add_rule(rule)
    return sim, monitor, engine


class TestAdaptiveQuarantine:
    def make(self, readings, base=3, relaxed=8):
        sim, monitor, engine = make_stack(AlertRule(
            name="link.degraded", condition="rtt > 0.45",
            clear_condition="rtt < 0.25"))
        feed = iter(readings)
        monitor.track_value("rtt", lambda _now: next(feed, readings[-1]))
        links = [FakeLink(), FakeLink()]
        adaptive = AdaptiveQuarantine(sim, engine, links,
                                      base=base, relaxed=relaxed)
        return sim, links, adaptive

    def test_links_start_at_base(self):
        _sim, links, _adaptive = self.make([0.1])
        assert all(link.quarantine_after == 3 for link in links)

    def test_storm_relaxes_every_link_then_restores(self):
        sim, links, _adaptive = self.make([0.9, 0.9, 0.9, 0.1, 0.1])
        sim.run(until=2.0)
        assert all(link.quarantine_after == 8 for link in links)
        assert sim.metrics.value("health.quarantine_after") == 8.0
        sim.run(until=6.0)
        assert all(link.quarantine_after == 3 for link in links)
        assert sim.metrics.value("health.quarantine_adjustments") == 2

    def test_unrelated_alert_leaves_threshold_alone(self):
        sim, monitor, engine = make_stack(AlertRule(
            name="queue.backlog", condition="depth > 10"))
        monitor.track_value("depth", lambda _now: 99.0)
        links = [FakeLink()]
        AdaptiveQuarantine(sim, engine, links, base=3, relaxed=8)
        sim.run(until=3.0)
        assert links[0].quarantine_after == 3

    def test_relaxed_may_never_undercut_base(self):
        sim, monitor, engine = make_stack(AlertRule(
            name="link.degraded", condition="rtt > 0.45"))
        with pytest.raises(ValueError):
            AdaptiveQuarantine(sim, engine, [FakeLink()], base=5, relaxed=2)


class TestCompactionController:
    def make(self, compact_bytes=600):
        sim, monitor, engine = make_stack(AlertRule(
            name="store.pressure",
            condition=f"{CompactionController.SLI} > {compact_bytes}",
            clear_condition=f"{CompactionController.SLI} < {compact_bytes // 2}"))
        storage = StableStorage()
        journal = Journal(storage, "dev.audit")
        audit = AuditLog(journal=journal)
        controller = CompactionController(sim, engine, monitor,
                                          compact_bytes=compact_bytes)
        controller.register("dev.audit", journal, audit.checkpoint)
        return sim, storage, journal, audit, controller

    def test_sli_publishes_registered_journal_bytes(self):
        sim, storage, _journal, audit, _controller = self.make()
        audit.append(0.0, "act", "dev", {"n": 1})
        sim.run(until=2.0)
        assert sim.metrics.value(
            "health." + CompactionController.SLI) == storage.size("dev.audit")

    def test_compacts_when_over_budget_under_pressure(self):
        sim, storage, _journal, audit, _controller = self.make(
            compact_bytes=600)
        sim.every(1.0, lambda: [audit.append(sim.now, "act", "dev", {"i": i})
                                for i in range(5)])
        sim.run(until=30.0)
        assert sim.metrics.value("store.compactions_sized") > 0
        # The blob stays near the budget instead of growing with time.
        assert storage.size("dev.audit") < 3 * 600
        # Nothing was lost to compaction: the full chain is recoverable.
        recovered = AuditLog(journal=Journal(storage, "dev.audit"))
        recovered.recover()
        assert len(recovered) == len(audit)

    def test_no_compaction_while_alert_quiet(self):
        sim, storage, _journal, audit, _controller = self.make(
            compact_bytes=10**6)
        sim.every(1.0, lambda: audit.append(sim.now, "act", "dev", {}))
        sim.run(until=10.0)
        assert sim.metrics.value("store.compactions_sized") == 0
