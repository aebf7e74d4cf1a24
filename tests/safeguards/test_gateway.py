"""Unit tests for the E21 actuation gateway."""

import pytest

from repro.audit.log import AuditLog
from repro.crypto.envelope import CommandSigner, EnvelopeVerifier
from repro.crypto.keyring import Keyring
from repro.errors import ConfigurationError
from repro.safeguards.gateway import ActuationGateway
from repro.sim.simulator import Simulator
from repro.store.journal import Journal
from repro.store.stable import StableStorage


def build(**kwargs):
    sim = Simulator(seed=1)
    ring = Keyring(seed=1)
    signer = CommandSigner(ring, "watchdog")
    verifier = EnvelopeVerifier(ring)
    gateway = ActuationGateway(sim, verifier, **kwargs)
    return sim, signer, verifier, gateway


def kill(signer, sim, target, cause="bad_state"):
    return signer.sign({"cause": cause, "target": target}, tick=sim.now)


def test_verify_then_execute():
    sim, signer, _, gateway = build()
    fired = []
    decision = gateway.admit(kill(signer, sim, "d0"), kind="safety.kill",
                             target="d0", execute=lambda: fired.append(1))
    assert decision.allowed and decision.reason == "ok"
    assert fired == [1]
    assert len(gateway.accepts()) == 1


def test_rejects_do_not_execute():
    sim, signer, _, gateway = build()
    fired = []
    body = kill(signer, sim, "d0")
    body["cause"] = "tampered"
    decision = gateway.admit(body, kind="safety.kill", target="d0",
                             execute=lambda: fired.append(1))
    assert not decision.allowed and decision.reason == "bad-mac"
    assert fired == []
    assert int(sim.metrics.value("authz.rejected.bad-mac")) == 1


def test_consumed_envelope_cannot_actuate_twice():
    sim, signer, _, gateway = build()
    body = kill(signer, sim, "d0")
    assert gateway.admit(body, "safety.kill", target="d0").allowed
    again = gateway.admit(body, "safety.kill", target="d0")
    assert (again.allowed, again.reason) == (False, "replayed")


def test_target_binding_rejects_readdressed_envelope():
    sim, signer, _, gateway = build()
    body = kill(signer, sim, "d0")
    decision = gateway.admit(body, "safety.kill", target="d1")
    assert (decision.allowed, decision.reason) == (False, "target-mismatch")
    assert decision.detail["claimed"] == "d0"
    # The nonce was NOT burned by the failed attempt; the genuine
    # delivery still actuates.
    assert gateway.admit(body, "safety.kill", target="d0").allowed


def test_budget_caps_an_issuer_and_trips_the_freeze():
    sim, signer, _, gateway = build(budget=2, budget_window=60.0)
    assert gateway.admit(kill(signer, sim, "d0"), "k", target="d0").allowed
    assert gateway.admit(kill(signer, sim, "d1"), "k", target="d1").allowed
    third = gateway.admit(kill(signer, sim, "d2"), "k", target="d2")
    assert (third.allowed, third.reason) == (False, "budget")
    assert gateway.frozen
    # While frozen even a fresh, valid envelope rejects.
    after = gateway.admit(kill(signer, sim, "d3"), "k", target="d3")
    assert (after.allowed, after.reason) == (False, "frozen")
    assert int(sim.metrics.value("authz.freezes")) == 1


def test_budget_window_rolls():
    sim, signer, _, gateway = build(budget=1, budget_window=5.0,
                                    freeze_on_budget=False)
    assert gateway.admit(kill(signer, sim, "d0"), "k", target="d0").allowed
    assert not gateway.admit(kill(signer, sim, "d1"), "k", target="d1").allowed
    sim.run(until=10.0)                      # the window slides past d0
    assert gateway.admit(kill(signer, sim, "d1"), "k", target="d1").allowed
    assert not gateway.frozen


def test_cooldown_spaces_acceptances():
    sim, signer, _, gateway = build(cooldown=2.0)
    assert gateway.admit(kill(signer, sim, "d0"), "k", target="d0").allowed
    rushed = gateway.admit(kill(signer, sim, "d1"), "k", target="d1")
    assert (rushed.allowed, rushed.reason) == (False, "cooldown")
    sim.run(until=3.0)
    assert gateway.admit(kill(signer, sim, "d1"), "k", target="d1").allowed


def test_unfreeze_restores_service():
    sim, signer, _, gateway = build()
    gateway.freeze("operator drill")
    assert not gateway.admit(kill(signer, sim, "d0"), "k", target="d0").allowed
    gateway.unfreeze("operator")
    assert gateway.admit(kill(signer, sim, "d0"), "k", target="d0").allowed


def test_rejects_are_audit_chained():
    sim = Simulator(seed=2)
    ring = Keyring(seed=2)
    signer = CommandSigner(ring, "watchdog")
    audit = AuditLog()
    gateway = ActuationGateway(sim, EnvelopeVerifier(ring), audit=audit)
    gateway.admit({"cause": "x"}, "safety.kill", target="d0")
    entries = audit.entries("authz.reject")
    assert len(entries) == 1
    assert entries[0].detail["reason"] == "unsigned"
    assert audit.verify()
    gateway.freeze("drill")
    assert audit.entries("authz.freeze")


def test_config_validation():
    sim = Simulator(seed=0)
    verifier = EnvelopeVerifier(Keyring())
    with pytest.raises(ConfigurationError):
        ActuationGateway(sim, verifier, budget=0)
    with pytest.raises(ConfigurationError):
        ActuationGateway(sim, verifier, budget_window=0.0)
    with pytest.raises(ConfigurationError):
        ActuationGateway(sim, verifier, cooldown=-1.0)


# -- durability (E18): crash/restart cannot launder a replay ---------------------

def journaled_gateway(sim, ring, storage):
    return ActuationGateway(
        sim, EnvelopeVerifier(ring),
        journal=Journal(storage, "gateway.authz"),
    )


def test_crash_without_journal_would_launder_a_replay():
    sim, signer, verifier, gateway = build()
    body = kill(signer, sim, "d0")
    assert gateway.admit(body, "k", target="d0").allowed
    report = gateway.crash_volatile()
    assert report["journaled"] is False and report["lost"] == 1
    # Amnesia: the very same consumed envelope actuates again.
    assert gateway.admit(body, "k", target="d0").allowed


def test_journal_replay_keeps_consumed_nonces_burned():
    sim = Simulator(seed=3)
    ring = Keyring(seed=3)
    signer = CommandSigner(ring, "watchdog")
    storage = StableStorage()
    gateway = journaled_gateway(sim, ring, storage)
    body = signer.sign({"cause": "bad_state", "target": "d0"}, tick=sim.now)
    assert gateway.admit(body, "k", target="d0").allowed
    gateway.crash_volatile()
    recovered = gateway.recover()
    assert recovered["replayed"] >= 1
    laundered = gateway.admit(body, "k", target="d0")
    assert (laundered.allowed, laundered.reason) == (False, "replayed")


def test_journal_replay_reasserts_the_freeze():
    sim = Simulator(seed=4)
    ring = Keyring(seed=4)
    signer = CommandSigner(ring, "watchdog")
    storage = StableStorage()
    gateway = journaled_gateway(sim, ring, storage)
    gateway.freeze("stolen key suspected")
    gateway.crash_volatile()
    assert not gateway.frozen                # the crash forgot the freeze
    gateway.recover()
    assert gateway.frozen
    assert gateway.freeze_reason == "stolen key suspected"
    body = signer.sign({"cause": "x", "target": "d0"}, tick=sim.now)
    assert not gateway.admit(body, "k", target="d0").allowed


def test_unfreeze_survives_recovery_too():
    sim = Simulator(seed=5)
    ring = Keyring(seed=5)
    storage = StableStorage()
    gateway = journaled_gateway(sim, ring, storage)
    gateway.freeze("drill")
    gateway.unfreeze("operator")
    gateway.crash_volatile()
    gateway.recover()
    assert not gateway.frozen
