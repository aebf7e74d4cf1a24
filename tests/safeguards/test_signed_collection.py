"""E21 collection hardening: join verdicts as signed, device-bound envelopes."""

from repro.crypto.envelope import CommandSigner, EnvelopeVerifier
from repro.crypto.keyring import Keyring
from repro.net.network import Network
from repro.safeguards.collection import (VERDICT_TOPIC, AggregateConstraint,
                                         CollectionGuard, JoinClient,
                                         JoinDesk, OfflineAnalyzer)
from repro.sim.simulator import Simulator

from tests.conftest import make_test_device


def fixture():
    sim = Simulator(seed=13)
    network = Network(sim, base_latency=0.05, jitter=0.0)
    guard = CollectionGuard(OfflineAnalyzer([
        AggregateConstraint("heat", "temp", "sum", 100.0),
    ]))
    ring = Keyring(seed=13)
    JoinDesk(sim, network, guard, signer=CommandSigner(ring, "collection-desk"))
    return sim, network, guard, ring


def test_signed_verdict_admits():
    sim, network, guard, ring = fixture()
    client = JoinClient(sim, make_test_device("d0"), network,
                        verifier=EnvelopeVerifier(ring))
    client.request_join()
    sim.run(until=3.0)
    assert client.joined is True and client.outcome == "verdict"
    assert "d0" in guard.remote_members


def test_forged_approval_is_ignored_and_fails_closed():
    sim, network, _, ring = fixture()
    client = JoinClient(sim, make_test_device("d0"), network,
                        timeout=5.0, verifier=EnvelopeVerifier(ring))
    network.register("attacker", lambda message: None)
    client.joined = None                      # undecided; no request sent
    client._on_result = None
    sim.schedule(0.5, lambda: network.send(
        "attacker", client.address, VERDICT_TOPIC,
        {"device_id": "d0", "approved": True}))
    sim.run(until=2.0)
    # The unsigned approval did not admit the device.
    assert client.joined is None
    assert int(sim.metrics.value("collection.verdicts_rejected")) == 1


def test_readdressed_verdict_does_not_admit_a_different_device():
    sim, network, guard, ring = fixture()
    ours = JoinClient(sim, make_test_device("d0"), network,
                      verifier=EnvelopeVerifier(ring))
    # d1 never asked to join and runs its own verifier (fresh nonce
    # cache), so the rejection below is the device binding — not the
    # replay cache — doing the work.
    other = JoinClient(sim, make_test_device("d1"), network,
                       verifier=EnvelopeVerifier(ring))
    network.register("attacker", lambda message: None)
    captured = []
    network.tap(lambda m: captured.append(dict(m.body))
                if m.topic == VERDICT_TOPIC and m.sender != "attacker"
                else None)

    def readdress():
        for body in captured:
            network.send("attacker", other.address, VERDICT_TOPIC, dict(body))

    ours.request_join()
    sim.schedule(2.0, readdress)
    sim.run(until=5.0)
    assert ours.joined is True
    assert other.joined is None               # the stolen approval bounced
    assert "d1" not in guard.remote_members
    rejected = sim.trace.query("collection.verdict_rejected")
    assert rejected and rejected[0].detail["reason"] == "target-mismatch"


def test_unverified_client_remains_trusting():
    """Without a verifier the legacy trust model is unchanged."""
    sim, network, _, _ = fixture()
    client = JoinClient(sim, make_test_device("d0"), network)
    network.register("attacker", lambda message: None)
    client._on_result = None
    sim.schedule(0.5, lambda: network.send(
        "attacker", client.address, VERDICT_TOPIC,
        {"device_id": "d0", "approved": True}))
    sim.run(until=2.0)
    assert client.joined is True
