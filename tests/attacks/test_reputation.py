"""Reputation-gaming attack family (E22): the slow-burn rogue and the
lease abuser, against the primitives they game."""

import pytest

from repro.attacks.cyber import MalevolentPayload
from repro.attacks.injector import AttackInjector
from repro.attacks.reputation import LeaseAbuser, SlowBurnRogue
from repro.core.actions import Action, Effect
from repro.core.policy import Policy
from repro.crypto import CommandSigner, EnvelopeVerifier, Keyring
from repro.net.network import Network
from repro.safeguards.lease import LEASE_GRANT_TOPIC, LeaseAuthority
from repro.sim.simulator import Simulator
from repro.trust import ReputationLedger
from repro.types import DeviceStatus

from tests.conftest import make_test_device


def rogue_payload() -> MalevolentPayload:
    action = Action("overheat", "motor",
                    effects=[Effect("temp", "add", 9.0)],
                    tags={"harm_human"})
    policy = Policy.make("timer", None, action, priority=99,
                         source="learned", author="implant",
                         policy_id="rogue-p")
    return MalevolentPayload(policies=[policy])


def slow_burn_fixture(bank_ticks=4, **kwargs):
    sim = Simulator(seed=6)
    devices = {name: make_test_device(name) for name in ("a1", "a2", "a3")}
    ledger = ReputationLedger(decay=0.0)
    attack = SlowBurnRogue(devices, rogue_payload(), ledger,
                           bank_ticks=bank_ticks, **kwargs)
    record = AttackInjector(sim).launch_at(1.0, attack)
    return sim, devices, ledger, attack, record


def test_slow_burn_banks_then_strikes_the_first_sorted_device():
    sim, devices, ledger, attack, record = slow_burn_fixture()
    sim.run(until=10.0)
    assert record.detail["target"] == "a1"         # deterministic pick
    assert record.detail["banked"] == 4
    assert record.detail["struck_at"] == 5.0       # launch + 4 bank rounds
    # The halo was purchased into the real ledger before the strike...
    assert record.detail["banked_score"] == ledger.score("a1", 6.0)
    assert record.detail["banked_score"] == pytest.approx(0.58)
    # ...and the strike is a real compromise, not a simulation of one.
    assert "a1" in record.affected
    assert "rogue-p" in devices["a1"].engine.policies


def test_slow_burn_halo_drains_faster_than_it_banked():
    sim, devices, ledger, attack, record = slow_burn_fixture(bank_ticks=10)
    sim.run(until=15.0)
    banked = record.detail["banked_score"]
    assert banked > ledger.baseline
    drained, now = 0, sim.now
    while ledger.score("a1", now) > ledger.baseline:
        ledger.record("a1", "alert", now)
        drained += 1
        now += 1.0
    assert drained < attack.bank_ticks             # cheap to lose

def test_slow_burn_honours_avoid_and_dead_targets():
    sim, devices, ledger, attack, record = slow_burn_fixture(
        avoid=lambda: {"a1"})
    sim.run(until=10.0)
    assert record.detail["target"] == "a2"

    sim, devices, ledger, attack, record = slow_burn_fixture()
    sim.schedule_at(3.5, setattr, devices["a1"], "status",
                    DeviceStatus.DEACTIVATED, label="test:kill")
    sim.run(until=10.0)
    assert record.detail["struck_at"] is None      # grooming died with it
    assert record.affected == {}


def test_lease_abuser_replays_and_forgeries_all_die_at_the_registry():
    seed = 9
    sim = Simulator(seed=seed)
    network = Network(sim, base_latency=0.05, jitter=0.0)
    keyring = Keyring(seed=seed)
    keyring.issue("overseer")
    authority = LeaseAuthority(sim, signer=CommandSigner(keyring, "overseer"),
                               max_duration=4.0, name="overseer")
    registry = LeaseAuthority(sim, verifier=EnvelopeVerifier(keyring,
                                                             window=30.0),
                              grantor="overseer", name="registry")
    network.register("overseer", lambda message: None)
    network.register("registry",
                     lambda message: registry.admit_grant(message.body))

    def grant_round():
        lease = authority.grant(("m0",), ("safety.kill",), 4.0)
        network.send("overseer", "registry", LEASE_GRANT_TOPIC,
                     authority.grant_body(lease))

    sim.schedule_at(1.0, grant_round, label="grant")
    attack = LeaseAbuser(network, "registry", grantor="overseer",
                         forge_rounds=2, replay_slack=1.0)
    record = AttackInjector(sim).launch_at(0.5, attack)
    sim.run(until=15.0)

    assert record.detail["captured"] == 1
    assert record.detail["replays_sent"] == 1
    assert record.detail["forgeries_sent"] == 2
    assert len(registry.leases()) == 1             # only the genuine grant
    reasons = sorted(e.detail["reason"] for e in
                     sim.trace.query("lease.rejected", subject="registry"))
    assert reasons == ["bad-mac", "bad-mac", "replayed"]
    assert registry.active_leases() == []          # and it expired on time
    assert record.affected == {}                   # control-plane victim only
