"""Unit tests for the chaos harness: supervision, livelock guard,
fault plans/injection, and determinism under faults (E17)."""

import json

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.net.network import Network
from repro.sim.faults import (
    CRASH_REASON,
    ClockSkew,
    DeviceCrash,
    FaultInjector,
    FaultPlan,
    HandlerGlitch,
    InjectedFault,
    LinkDegradation,
    NetworkPartition,
)
from repro.sim.simulator import SUPERVISION_POLICIES, Simulator
from repro.types import DeviceStatus

from tests.conftest import make_test_device


# -- supervision policies ----------------------------------------------------------


def boom():
    raise RuntimeError("boom")


def test_propagate_policy_reraises_by_default():
    sim = Simulator(seed=1)
    sim.schedule(1.0, boom, label="d1:tick")
    with pytest.raises(RuntimeError):
        sim.run()


def test_isolate_policy_contains_crashes_and_counts_them():
    sim = Simulator(seed=1, supervision="isolate")
    fired = []
    sim.schedule(1.0, boom, label="d1:tick")
    sim.schedule(2.0, boom, label="d1:tick")
    sim.schedule(3.0, lambda: fired.append(sim.now), label="d2:tick")
    sim.run()
    assert fired == [3.0]                       # the fleet survived
    assert sim.supervisor.crash_counts == {"d1": 2}
    assert sim.metrics.value("sim.crashes") == 2
    assert sim.trace.count("sim.crash") == 2


def test_kill_device_policy_invokes_hook_at_threshold():
    sim = Simulator(seed=1, supervision="kill-device", kill_threshold=2)
    device = make_test_device("d1")
    sim.supervisor.register_kill_hook("d1", device.deactivate)
    sim.schedule(1.0, boom, label="d1:tick")
    sim.schedule(2.0, boom, label="d1:tick")
    sim.schedule(3.0, boom, label="d1:tick")    # past threshold: no double kill
    sim.run()
    assert device.status == DeviceStatus.DEACTIVATED
    assert "supervisor" in device.deactivation_reason
    assert sim.metrics.value("sim.crash_kills") == 1


def test_unlabelled_crashes_fall_under_anonymous_owner():
    sim = Simulator(seed=1, supervision="isolate")
    sim.schedule(1.0, boom)
    sim.run()
    assert sim.supervisor.crash_counts == {"<anonymous>": 1}


def test_unknown_supervision_policy_rejected():
    with pytest.raises(SimulationError):
        Simulator(supervision="restart")
    assert "propagate" in SUPERVISION_POLICIES


# -- livelock guard ----------------------------------------------------------------


def test_livelock_guard_raises_with_offending_labels():
    sim = Simulator(seed=1, livelock_threshold=50)

    def respawn():
        sim.schedule(0.0, respawn, label="d7:spin")

    sim.schedule(1.0, respawn, label="d7:spin")
    with pytest.raises(SimulationError, match="livelock.*d7:spin"):
        sim.run()


def test_livelock_guard_resets_when_time_advances():
    sim = Simulator(seed=1, livelock_threshold=5)
    for _ in range(3):        # 3 zero-delay events per tick stays legal
        sim.every(1.0, lambda: None, label="d1:tick")
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_livelock_guard_disabled_with_none():
    sim = Simulator(seed=1, livelock_threshold=None)
    count = [0]

    def respawn():
        count[0] += 1
        if count[0] < 500:    # would trip the default guard's intent
            sim.schedule(0.0, respawn, label="spin")

    sim.schedule(1.0, respawn, label="spin")
    sim.run()
    assert count[0] == 500

    with pytest.raises(SimulationError):
        Simulator(livelock_threshold=0)


# -- fault plans -------------------------------------------------------------------


def test_fault_plan_validates_specs():
    with pytest.raises(ConfigurationError):
        FaultPlan(faults=("not a fault",))
    plan = FaultPlan(faults=(DeviceCrash("d1", at=5.0),))
    assert len(plan) == 1
    assert plan.describe()[0]["fault"] == "DeviceCrash"


def test_random_plan_is_deterministic_in_seed():
    ids = [f"d{i}" for i in range(8)]
    plan_a = FaultPlan.random(seed=9, device_ids=ids, horizon=100.0,
                              intensity=0.7)
    plan_b = FaultPlan.random(seed=9, device_ids=ids, horizon=100.0,
                              intensity=0.7)
    plan_c = FaultPlan.random(seed=10, device_ids=ids, horizon=100.0,
                              intensity=0.7)
    assert plan_a.describe() == plan_b.describe()
    assert plan_a.describe() != plan_c.describe()
    assert len(plan_a) > 0
    with pytest.raises(ConfigurationError):
        FaultPlan.random(seed=1, device_ids=ids, horizon=100.0, intensity=1.5)


def test_zero_intensity_plan_is_empty():
    assert len(FaultPlan.random(seed=1, device_ids=["d1"], horizon=10.0,
                                intensity=0.0)) == 0
    assert len(FaultPlan.none()) == 0


# -- the injector ------------------------------------------------------------------


def build_fleet(n=2, supervision="isolate"):
    sim = Simulator(seed=4, supervision=supervision)
    network = Network(sim, base_latency=0.1, jitter=0.0)
    devices = {f"d{i}": make_test_device(f"d{i}") for i in range(n)}
    for device_id in devices:
        network.register(device_id, lambda message: None)
    return sim, network, devices


def test_crash_and_restart_cycle():
    sim, network, devices = build_fleet()
    injector = FaultInjector(sim, devices, network=network)
    injector.apply(FaultPlan(faults=(
        DeviceCrash("d0", at=5.0, restart_after=3.0),
    )))
    sim.run(until=6.0)
    assert devices["d0"].status == DeviceStatus.DEACTIVATED
    assert devices["d0"].deactivation_reason == CRASH_REASON
    assert network.is_suspended("d0")
    sim.run(until=10.0)
    assert devices["d0"].status == DeviceStatus.ACTIVE
    assert not network.is_suspended("d0")
    assert injector.crashes == 1 and injector.restarts == 1


def test_restart_never_undoes_a_watchdog_kill():
    sim, network, devices = build_fleet()
    injector = FaultInjector(sim, devices, network=network)
    injector.apply(FaultPlan(faults=(
        DeviceCrash("d0", at=5.0, restart_after=3.0),
    )))
    sim.run(until=6.0)
    # Between crash and scheduled restart, the watchdog (here: by hand)
    # re-kills the device for cause; the fault layer must not revive it.
    devices["d0"].reactivate()
    devices["d0"].deactivate("watchdog: attestation")
    sim.run(until=10.0)
    assert devices["d0"].status == DeviceStatus.DEACTIVATED
    assert devices["d0"].deactivation_reason == "watchdog: attestation"


def test_glitch_raises_under_propagate_and_is_contained_under_isolate():
    sim, network, devices = build_fleet(supervision="propagate")
    FaultInjector(sim, devices, network=network).apply(FaultPlan(faults=(
        HandlerGlitch("d0", at=2.0, message="zap"),
    )))
    with pytest.raises(InjectedFault):
        sim.run()

    sim, network, devices = build_fleet(supervision="isolate")
    FaultInjector(sim, devices, network=network).apply(FaultPlan(faults=(
        HandlerGlitch("d0", at=2.0, message="zap"),
    )))
    sim.run(until=5.0)
    assert sim.supervisor.crash_counts == {"d0": 1}


def test_link_degradation_window_restores_base_parameters():
    sim, network, devices = build_fleet()
    FaultInjector(sim, devices, network=network).apply(FaultPlan(faults=(
        LinkDegradation(at=2.0, until=6.0, loss_rate=0.9, latency_factor=3.0),
    )))
    sim.run(until=3.0)
    assert network.loss_rate == 0.9
    assert network.base_latency == pytest.approx(0.3)
    sim.run(until=7.0)
    assert network.loss_rate == 0.0
    assert network.base_latency == pytest.approx(0.1)


def test_partition_blocks_cross_group_delivery_then_heals():
    sim, network, devices = build_fleet(n=3)
    received = []
    network.replace_handler("d1", lambda message: received.append(sim.now))
    FaultInjector(sim, devices, network=network).apply(FaultPlan(faults=(
        NetworkPartition(at=2.0, heal_at=8.0, groups=(("d0",),)),
    )))
    sim.schedule(3.0, lambda: network.send("d0", "d1", "ping", {}))
    sim.schedule(9.0, lambda: network.send("d0", "d1", "ping", {}))
    sim.run(until=12.0)
    assert len(received) == 1 and received[0] > 9.0
    assert sim.metrics.value("net.unreachable") == 1


def test_clock_skew_offsets_device_clock_only():
    sim, network, devices = build_fleet()
    FaultInjector(sim, devices, network=network).apply(FaultPlan(faults=(
        ClockSkew("d0", at=2.0, offset=-1.5),
    )))
    baseline = devices["d1"].clock()
    sim.run(until=5.0)
    assert devices["d0"].clock() == pytest.approx(sim.now - 1.5)
    assert devices["d1"].clock() == baseline    # others untouched


def test_link_faults_without_network_rejected():
    sim = Simulator(seed=1)
    injector = FaultInjector(sim, {})
    with pytest.raises(ConfigurationError):
        injector.apply(FaultPlan(faults=(
            LinkDegradation(at=1.0, until=2.0),
        )))


# -- determinism under faults (the satellite property) ------------------------------


def run_chaos_scenario(seed: int, plan_seed: int) -> tuple:
    """A small end-to-end run; returns (trace bytes, metrics bytes)."""
    from repro.scenarios.confrontation import ConfrontationScenario, ThreatConfig
    from repro.scenarios.harness import SafeguardConfig

    ids = [f"{org}-{kind}{i}" for org in ("us", "uk")
           for kind, count in (("drone", 4), ("mule", 2))
           for i in range(count)]
    plan = FaultPlan.random(seed=plan_seed, device_ids=ids, horizon=60.0,
                            intensity=0.7)
    scenario = ConfrontationScenario(
        seed=seed, config=SafeguardConfig.only(watchdog=True),
        threats=ThreatConfig(worm=True, worm_time=10.0),
        supervision="isolate", safety_transport="reliable", fault_plan=plan,
    )
    scenario.run(until=60.0)
    trace = "\n".join(
        f"{event.time!r} {event.kind} {event.subject} "
        f"{json.dumps(event.detail, sort_keys=True, default=repr)}"
        for event in scenario.sim.trace.query()
    ).encode()
    metrics = json.dumps(scenario.sim.metrics.snapshot(), sort_keys=True,
                         default=repr).encode()
    return trace, metrics


def test_same_seed_and_plan_replay_byte_identically():
    trace_a, metrics_a = run_chaos_scenario(seed=11, plan_seed=21)
    trace_b, metrics_b = run_chaos_scenario(seed=11, plan_seed=21)
    assert trace_a == trace_b
    assert metrics_a == metrics_b
    assert len(trace_a) > 0


def test_different_seeds_diverge():
    trace_a, _ = run_chaos_scenario(seed=11, plan_seed=21)
    trace_c, _ = run_chaos_scenario(seed=12, plan_seed=21)
    trace_d, _ = run_chaos_scenario(seed=11, plan_seed=22)
    assert trace_a != trace_c      # different scenario seed
    assert trace_a != trace_d      # different fault-plan seed


# -- journal corruption faults -----------------------------------------------------


def test_random_plan_can_include_journal_corruption():
    from repro.sim.faults import JournalCorruption

    ids = [f"d{i}" for i in range(8)]
    plan = FaultPlan.random(seed=9, device_ids=ids, horizon=100.0,
                            intensity=0.9, corruption_fraction=1.0)
    corruptions = [f for f in plan.faults
                   if isinstance(f, JournalCorruption)]
    assert corruptions
    for fault in corruptions:
        assert fault.device_id in ids
        assert 0.0 < fault.at < 100.0
        # Exactly one damage mode per spec: torn tail or a bit flip.
        assert (fault.drop_bytes > 0) != (fault.flip_bit is not None)
    # The default stays corruption-free (historical plans unchanged).
    default = FaultPlan.random(seed=9, device_ids=ids, horizon=100.0,
                               intensity=0.9)
    assert not any(isinstance(f, JournalCorruption) for f in default.faults)


def test_corruption_draws_leave_existing_faults_byte_identical():
    """The corruption block draws *after* every historical draw, so
    turning it on cannot shift the crashes/glitches/partitions a seed
    produces — E17 arms with and without it suffer the same storm."""
    from repro.sim.faults import JournalCorruption

    ids = [f"d{i}" for i in range(8)]
    without = FaultPlan.random(seed=9, device_ids=ids, horizon=100.0,
                               intensity=0.9)
    with_corruption = FaultPlan.random(seed=9, device_ids=ids, horizon=100.0,
                                       intensity=0.9, corruption_fraction=0.5)
    kept = [entry for entry in with_corruption.describe()
            if entry["fault"] != "JournalCorruption"]
    assert kept == without.describe()
    assert len(with_corruption) > len(without)


def test_journal_corruption_without_durability_rejected():
    from repro.sim.faults import JournalCorruption

    sim = Simulator(seed=1)
    injector = FaultInjector(sim, {})
    with pytest.raises(ConfigurationError):
        injector.apply(FaultPlan(faults=(
            JournalCorruption("d0", at=1.0, drop_bytes=4),
        )))


def test_journal_corruption_damages_only_the_victims_blobs():
    from repro.sim.faults import JournalCorruption
    from repro.store.journal import Journal
    from repro.store.recovery import DurabilityManager

    sim, network, devices = build_fleet()
    durability = DurabilityManager(sim)
    for device_id in devices:
        journal = Journal(durability.storage, f"{device_id}.audit")
        for n in range(4):
            journal.append({"n": n})
    intact = {device_id: durability.storage.read(f"{device_id}.audit")
              for device_id in devices}
    injector = FaultInjector(sim, devices, network=network,
                             durability=durability)
    injector.apply(FaultPlan(faults=(
        JournalCorruption("d0", at=1.0, drop_bytes=5),
    )))
    sim.run(until=2.0)
    assert durability.storage.read("d0.audit") == intact["d0"][:-5]
    assert durability.storage.read("d1.audit") == intact["d1"]
    assert sim.metrics.value("faults.journal_corruptions") == 1
    (event,) = sim.trace.query("fault.journal_corrupt")
    assert event.subject == "d0"
    assert event.detail["blobs"] == ["d0.audit"]
