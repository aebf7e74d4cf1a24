"""Unit tests for the E21 forgery / replay / stolen-key attack family."""

from repro.attacks.forgery import (ForgedKillOrder, ReplayedKillOrder,
                                   StolenKeyRogue)
from repro.attacks.injector import AttackInjector
from repro.crypto.envelope import CommandSigner, EnvelopeVerifier
from repro.crypto.keyring import Keyring
from repro.net.network import Network
from repro.safeguards.deactivation import OverseerLink, Watchdog
from repro.safeguards.gateway import ActuationGateway
from repro.sim.simulator import Simulator
from repro.statespace.classifier import ThresholdBand, ThresholdClassifier
from repro.types import DeviceStatus

from tests.conftest import make_test_device


def classifier():
    return ThresholdClassifier([
        ThresholdBand("temp", safe_high=80.0, hard_high=100.0),
    ])


def build_fleet(n=4, signed=False, seed=20, **gateway_kwargs):
    sim = Simulator(seed=seed)
    network = Network(sim, base_latency=0.05, jitter=0.0)
    devices = {f"d{i}": make_test_device(f"d{i}") for i in range(n)}
    ring = Keyring(seed=seed)
    signer = CommandSigner(ring, "watchdog") if signed else None
    gateway = (ActuationGateway(sim, EnvelopeVerifier(ring), **gateway_kwargs)
               if signed else None)
    watchdog = Watchdog(sim, devices, classifier(), check_interval=1.0,
                        transport=network, signer=signer)
    for device in devices.values():
        OverseerLink(sim, device, network, overseer=watchdog.address,
                     report_interval=1.0, attest=False, gateway=gateway)
    return sim, network, devices, ring, gateway


def killed(devices):
    return sorted(d for d, dev in devices.items()
                  if dev.status == DeviceStatus.DEACTIVATED)


class TestForgedKillOrder:
    def test_unsigned_fleet_executes_forgeries(self):
        sim, network, devices, _, _ = build_fleet(signed=False)
        attack = ForgedKillOrder(network, devices, victims=2, rounds=1)
        record = AttackInjector(sim).launch_at(1.0, attack)
        sim.run(until=5.0)
        assert killed(devices) == ["d0", "d1"]
        assert record.detail["victims"] == ["d0", "d1"]
        assert record.affected == {}          # wrongful kills, not compromise
        assert int(sim.metrics.value("attacks.forged_orders")) == 2

    def test_signed_fleet_rejects_forgeries_at_the_gateway(self):
        sim, network, devices, _, gateway = build_fleet(signed=True)
        attack = ForgedKillOrder(network, devices, victims=2, rounds=2)
        AttackInjector(sim).launch_at(1.0, attack)
        sim.run(until=6.0)
        assert killed(devices) == []
        assert len(gateway.rejects("bad-mac")) == 4
        assert int(sim.metrics.value("authz.accepted")) == 0

    def test_avoid_set_spares_listed_devices(self):
        sim, network, devices, _, _ = build_fleet(signed=False)
        attack = ForgedKillOrder(network, devices, victims=2, rounds=1,
                                 avoid=lambda: {"d0", "d1"})
        AttackInjector(sim).launch_at(1.0, attack)
        sim.run(until=5.0)
        assert killed(devices) == ["d2", "d3"]


class TestReplayedKillOrder:
    def launch(self, signed):
        sim, network, devices, _, gateway = build_fleet(signed=signed)
        attack = ReplayedKillOrder(network, devices, delay=1.0)
        record = AttackInjector(sim).launch_at(0.0, attack)
        # A genuine kill for d0 gets captured off the wire.
        devices["d0"].state.set("temp", 120.0)
        sim.run(until=12.0)
        return sim, devices, gateway, record

    def test_unsigned_fleet_executes_the_readdressed_capture(self):
        sim, devices, _, record = self.launch(signed=False)
        assert "d0" in killed(devices)        # the genuine kill
        assert record.detail["captured"] >= 1
        # The captured order, re-delivered to a healthy device's safety
        # address, killed it too.
        assert len(killed(devices)) >= 2
        assert record.detail["victims"]

    def test_signed_fleet_contains_the_replay(self):
        sim, devices, gateway, record = self.launch(signed=True)
        assert killed(devices) == ["d0"]      # only the genuine kill landed
        assert record.detail["replays_sent"] >= 2
        reasons = {d.reason for d in gateway.rejects()}
        # Re-addressed copies fail the target binding (or the nonce cache
        # if the genuine acceptance consumed them first).  The verbatim
        # copy aimed back at d0 dies even earlier: the deactivated link
        # drops it before the gateway sees it.
        assert reasons <= {"target-mismatch", "replayed", "stale"}
        assert len(gateway.rejects()) >= 1
        assert len(gateway.accepts()) == 1


class TestStolenKeyRogue:
    def test_unsigned_fleet_is_wiped(self):
        sim, network, devices, ring, _ = build_fleet(signed=False)
        attack = StolenKeyRogue(network, devices, ring, interval=0.5)
        AttackInjector(sim).launch_at(1.0, attack)
        sim.run(until=10.0)
        assert len(killed(devices)) == 4

    def test_budget_contains_a_stolen_key(self):
        sim, network, devices, ring, gateway = build_fleet(
            signed=True, budget=2, budget_window=60.0)
        attack = StolenKeyRogue(network, devices, ring, interval=0.5)
        record = AttackInjector(sim).launch_at(1.0, attack)
        sim.run(until=10.0)
        # The envelopes were cryptographically perfect...
        assert record.detail["orders_sent"] >= 3
        # ...but the per-issuer budget capped the damage and froze the
        # gateway for everything after.
        assert len(killed(devices)) == 2
        assert gateway.frozen
        assert int(sim.metrics.value("authz.freezes")) == 1
        assert len(gateway.rejects("budget")) == 1
        assert len(gateway.rejects("frozen")) >= 1
