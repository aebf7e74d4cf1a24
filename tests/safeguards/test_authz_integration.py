"""E21 integration: signed kill orders end-to-end, retry ≠ replay, and
watchdog attestation-baseline durability."""

from repro.crypto.envelope import CommandSigner, EnvelopeVerifier
from repro.crypto.keyring import Keyring
from repro.crypto.envelope import TRANSPORT_KEYS
from repro.net.network import Network
from repro.net.reliable import ReliableChannel
from repro.safeguards.deactivation import (KILL_TOPIC, OverseerLink, Watchdog,
                                           safety_address)
from repro.safeguards.gateway import ActuationGateway
from repro.safeguards.tamper import attest_fleet
from repro.sim.simulator import Simulator
from repro.statespace.classifier import ThresholdBand, ThresholdClassifier
from repro.store.journal import Journal
from repro.store.stable import StableStorage
from repro.types import DeviceStatus

from tests.conftest import make_test_device


def classifier():
    return ThresholdClassifier([
        ThresholdBand("temp", safe_high=80.0, hard_high=100.0),
    ])


def build_signed_fleet(n=2, reliable=True, **gateway_kwargs):
    sim = Simulator(seed=6)
    network = Network(sim, base_latency=0.05, jitter=0.0)
    transport = (ReliableChannel(network, timeout=0.5, backoff=2.0,
                                 max_attempts=5) if reliable else network)
    devices = {f"d{i}": make_test_device(f"d{i}") for i in range(n)}
    ring = Keyring(seed=6)
    signer = CommandSigner(ring, "watchdog")
    verifier = EnvelopeVerifier(ring)
    gateway = ActuationGateway(sim, verifier, **gateway_kwargs)
    watchdog = Watchdog(sim, devices, classifier(), check_interval=1.0,
                        transport=transport, signer=signer)
    links = {
        device_id: OverseerLink(sim, device, transport,
                                overseer=watchdog.address,
                                report_interval=1.0, attest=False,
                                gateway=gateway)
        for device_id, device in devices.items()
    }
    return sim, network, devices, watchdog, gateway, links


def test_signed_kill_order_executes_through_the_gateway():
    sim, _, devices, watchdog, gateway, _ = build_signed_fleet()
    devices["d0"].state.set("temp", 120.0)
    sim.run(until=6.0)
    assert devices["d0"].status == DeviceStatus.DEACTIVATED
    assert devices["d1"].status == DeviceStatus.ACTIVE
    assert len(gateway.accepts()) == 1
    assert gateway.accepts()[0].issuer == "watchdog"


def test_retry_is_accepted_replay_is_rejected():
    """Satellite 1: an ack-timeout retransmission of the kill order is the
    *same* envelope and is accepted; a later duplicate delivery of that
    consumed envelope is rejected as a replay."""
    sim, network, devices, watchdog, gateway, _ = build_signed_fleet()
    captured = []
    network.tap(lambda m: captured.append(dict(m.body))
                if m.topic == KILL_TOPIC else None)
    devices["d0"].state.set("temp", 120.0)
    # Black out the wire as the first kill order goes out, so the
    # reliable channel must retry it after the ack timeout.
    def set_loss(rate):
        network.loss_rate = rate

    sim.schedule(1.9, set_loss, 1.0)
    sim.schedule(2.4, set_loss, 0.0)
    sim.run(until=10.0)
    assert devices["d0"].status == DeviceStatus.DEACTIVATED
    assert int(sim.metrics.value("reliable.resends")) >= 1
    # Every capture of the kill order carries the same nonce: retries and
    # re-issues present one envelope, and exactly one acceptance happened.
    nonces = {body["_nonce"] for body in captured}
    assert len(nonces) == 1
    assert len(gateway.accepts()) == 1
    # Duplicate delivery of the consumed envelope (what an attacker — or
    # a confused network — would present again): rejected, not executed.
    replayed = {key: value for key, value in captured[-1].items()
                if key not in TRANSPORT_KEYS}
    decision = gateway.admit(replayed, KILL_TOPIC, target="d0")
    assert (decision.allowed, decision.reason) == (False, "replayed")


def test_forged_order_is_rejected_and_device_survives():
    sim, network, devices, _, gateway, _ = build_signed_fleet()
    network.register("attacker", lambda m: None)
    forged = {"cause": "forged", "target": "d1", "_issuer": "watchdog",
              "_nonce": "forged:1", "_tick": 0.0, "_mac": "0" * 64}
    sim.schedule(1.0, lambda: network.send(
        "attacker", safety_address("d1"), KILL_TOPIC, forged))
    sim.run(until=5.0)
    assert devices["d1"].status == DeviceStatus.ACTIVE
    assert len(gateway.rejects("bad-mac")) == 1


def test_unsigned_link_without_gateway_still_trusts():
    """The historical behaviour is preserved when no gateway is armed."""
    sim = Simulator(seed=7)
    network = Network(sim, base_latency=0.05, jitter=0.0)
    device = make_test_device("d0")
    watchdog = Watchdog(sim, {"d0": device}, classifier(),
                        check_interval=1.0, transport=network)
    OverseerLink(sim, device, network, overseer=watchdog.address,
                 report_interval=1.0, attest=False)
    network.register("attacker", lambda m: None)
    sim.schedule(1.0, lambda: network.send(
        "attacker", safety_address("d0"), KILL_TOPIC, {"cause": "forged"}))
    sim.run(until=3.0)
    assert device.status == DeviceStatus.DEACTIVATED
    assert device.deactivation_reason == "watchdog: forged"


def test_kill_envelope_cached_within_resign_window():
    sim = Simulator(seed=8)
    network = Network(sim)
    devices = {"d0": make_test_device("d0")}
    signer = CommandSigner(Keyring(seed=8), "watchdog")
    watchdog = Watchdog(sim, devices, classifier(), transport=network,
                        signer=signer, resign_after=5.0)
    first = watchdog._kill_body("d0", "bad_state")
    again = watchdog._kill_body("d0", "reissued")
    assert again is first                    # same envelope, same nonce
    sim.run(until=6.0)                       # past resign_after
    fresh = watchdog._kill_body("d0", "reissued")
    assert fresh["_nonce"] != first["_nonce"]


# -- watchdog baseline durability (satellite 2) -----------------------------------

def test_baseline_journal_survives_crash_and_restart():
    sim = Simulator(seed=9)
    devices = {"d0": make_test_device("d0"), "d1": make_test_device("d1")}
    storage = StableStorage()
    journal = Journal(storage, "watchdog.baseline")
    watchdog = Watchdog(sim, devices, classifier(),
                        attestation_baseline=attest_fleet(devices.values()),
                        baseline_journal=journal)
    before = dict(watchdog.attestation_baseline)
    report = watchdog.crash_volatile()
    assert report["journaled"] and report["lost"] == 2
    assert watchdog.attestation_baseline == {}
    assert watchdog.recover()["replayed"] >= 2
    assert watchdog.attestation_baseline == before


def test_rebaseline_is_journaled_and_last_hash_wins():
    sim = Simulator(seed=10)
    device = make_test_device("d0")
    devices = {"d0": device}
    storage = StableStorage()
    watchdog = Watchdog(sim, devices, classifier(),
                        attestation_baseline=attest_fleet(devices.values()),
                        baseline_journal=Journal(storage, "watchdog.baseline"))
    # A legitimate, re-approved configuration change.
    from repro.core.policy import Policy
    device.engine.policies.add(
        Policy.make("timer", None, device.engine.actions.get("cool_down")))
    watchdog.approve_current_configuration(["d0"])
    approved = watchdog.attestation_baseline["d0"]
    watchdog.crash_volatile()
    watchdog.recover()
    # The re-approval, not the stale original, is what recovery restores.
    assert watchdog.attestation_baseline["d0"] == approved


def test_crash_without_baseline_journal_blesses_reprogramming():
    """The failure mode the journal closes: an amnesiac watchdog has no
    baseline left, so a pre-crash reprogramming goes unnoticed."""
    sim = Simulator(seed=11)
    device = make_test_device("d0")
    watchdog = Watchdog(sim, {"d0": device}, classifier(),
                        attestation_baseline=attest_fleet([device]))
    report = watchdog.crash_volatile()
    assert not report["journaled"]
    assert watchdog.recover()["replayed"] == 0
    assert watchdog.attestation_baseline == {}
