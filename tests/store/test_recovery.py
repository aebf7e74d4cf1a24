"""Tests for the DurabilityManager crash/restart orchestration."""

from repro.audit.log import AuditLog
from repro.sim.simulator import Simulator
from repro.store.journal import Journal
from repro.store.recovery import DurabilityManager
from repro.store.stable import StableStorage


class FakeComponent:
    """Duck-typed durable component with scripted accounting."""

    def __init__(self, lost=0, replayed=0, kind="fake", gap=False):
        self._lost = lost
        self._replayed = replayed
        self._kind = kind
        self._gap = gap
        self.crashes = 0
        self.recoveries = 0

    def crash_volatile(self):
        self.crashes += 1
        return {"lost": self._lost, "kind": self._kind, "journaled": False}

    def recover(self):
        self.recoveries += 1
        return {"replayed": self._replayed, "gap": self._gap}


def test_crash_and_restart_drive_every_registered_component():
    sim = Simulator(seed=0)
    manager = DurabilityManager(sim)
    first = FakeComponent(lost=2, replayed=5)
    second = FakeComponent(lost=0, replayed=3, gap=True)
    manager.register("d0", "a", first)
    manager.register("d0", "b", second)
    manager.register("d1", "c", FakeComponent())

    losses = manager.crash("d0")
    assert losses == {"a": 2, "b": 0}
    assert first.crashes == 1 and second.crashes == 1
    assert sim.metrics.value("store.crash_wipes") == 1

    replays = manager.restart("d0")
    assert replays["a"]["replayed"] == 5
    assert sim.metrics.value("store.recoveries") == 1
    assert sim.metrics.value("store.recovered_records") == 8
    assert sim.metrics.value("store.recovery_gaps") == 1
    assert sim.metrics.histogram("store.recovery_seconds").count == 1
    (event,) = sim.trace.query("store.recover")
    assert event.subject == "d0"
    assert event.detail["components"] == {"a": 5, "b": 3}
    # d1 untouched throughout.
    assert manager.components("d1") == ["c"]


def test_unregistered_device_crash_is_a_quiet_noop():
    sim = Simulator(seed=0)
    manager = DurabilityManager(sim)
    assert manager.crash("ghost") == {}
    assert manager.restart("ghost") == {}
    assert sim.metrics.value("store.recoveries") == 0


def test_silent_audit_loss_is_now_reported():
    """The satellite bugfix: a crash that destroys unjournaled audit
    entries must emit a metric and a trace record, not vanish."""
    sim = Simulator(seed=0)
    manager = DurabilityManager(sim)
    audit = AuditLog()                          # journal-less: all volatile
    for time in range(4):
        audit.append(float(time), "decision", "d0")
    manager.register("d0", "audit", audit)

    manager.crash("d0")
    assert sim.metrics.value("audit.entries_lost") == 4
    (event,) = sim.trace.query("audit.loss")
    assert event.subject == "d0"
    assert event.detail["lost"] == 4
    assert event.detail["journaled"] is False

    # A journal-backed log under the same crash reports nothing lost.
    sim2 = Simulator(seed=0)
    manager2 = DurabilityManager(sim2)
    journaled = AuditLog(journal=Journal(manager2.storage, "d0.audit"))
    for time in range(4):
        journaled.append(float(time), "decision", "d0")
    manager2.register("d0", "audit", journaled)
    manager2.crash("d0")
    assert sim2.metrics.value("audit.entries_lost") == 0
    assert sim2.trace.query("audit.loss") == []


def test_supervised_kill_counts_as_a_crash():
    sim = Simulator(seed=0, supervision="kill-device")
    manager = DurabilityManager(sim)
    audit = AuditLog()
    audit.append(0.0, "decision", "d0")
    manager.register("d0", "audit", audit)
    manager.attach_supervisor(sim.supervisor)
    sim.supervisor.register_kill_hook("d0", lambda reason: None)

    def boom():
        raise RuntimeError("handler died")

    sim.schedule_at(1.0, boom, label="d0:tick")
    sim.run(until=2.0)
    assert sim.metrics.value("audit.entries_lost") == 1
    assert len(audit) == 0                      # RAM wiped by the kill


def test_manager_owns_a_storage_by_default_or_shares_one():
    sim = Simulator(seed=0)
    shared = StableStorage()
    assert DurabilityManager(sim).storage is not None
    assert DurabilityManager(sim, shared).storage is shared
