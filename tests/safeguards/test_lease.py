"""Emergency leases (E22): lifecycle, envelope-gated admission, and the
crash-safety property — a journaled lease never outlives its expiry
tick, no matter when the process dies and comes back."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.envelope import CommandSigner, EnvelopeVerifier
from repro.crypto.keyring import Keyring
from repro.errors import ConfigurationError
from repro.net.network import Network
from repro.safeguards.lease import (GRANT_FIELDS, LEASE_GRANT_TOPIC,
                                    LeaseAuthority)
from repro.sim.simulator import Simulator
from repro.store.journal import Journal
from repro.store.stable import StableStorage
from repro.trust.reputation import ReputationLedger


def make_authority(sim=None, **kwargs):
    sim = sim if sim is not None else Simulator(seed=1)
    return sim, LeaseAuthority(sim, **kwargs)


# -- lifecycle ---------------------------------------------------------------------


def test_grant_caps_duration_and_dies_at_its_expiry_tick():
    sim, authority = make_authority(max_duration=5.0)
    lease = authority.grant(("m0",), ("vent",), duration=50.0, cause="test")
    assert lease.expires_at == 5.0                 # capped
    assert lease.active(4.999)
    assert not lease.active(5.0)                   # dead AT the tick
    sim.run(until=6.0)
    assert lease.expired
    assert sim.metrics.value("lease.expired") == 1
    assert [e.kind for e in sim.trace.query("lease", subject=authority.name)] \
        == ["lease.grant", "lease.expired"]


def test_grant_requires_aggregate_reputation():
    ledger = ReputationLedger(decay=0.0)
    ledger.record("m0", "quarantine", 0.0)         # 0.25
    sim, authority = make_authority(ledger=ledger, min_aggregate=1.0)
    denied = authority.grant(("m0",), ("vent",), 5.0, cause="partition")
    assert denied is None
    assert sim.metrics.value("lease.denied") == 1
    assert sim.trace.query("lease")[0].kind == "lease.denied"
    # A second earner pushes the group over the line (0.25 + 0.5 + ...).
    for _ in range(20):
        ledger.record("m1", "validated", 0.0)
    lease = authority.grant(("m0", "m1"), ("vent",), 5.0)
    assert lease is not None
    assert lease.aggregate_reputation == pytest.approx(
        ledger.aggregate(("m0", "m1"), 0.0))


def test_lease_for_matches_scope_and_grantee_and_exercise_counts():
    sim, authority = make_authority()
    lease = authority.grant(("m0", "m1"), ("vent", "purge"), 5.0)
    assert authority.lease_for("vent", "m0") is lease
    assert authority.lease_for("purge", "m1") is lease
    assert authority.lease_for("vent", "intruder") is None
    assert authority.lease_for("safety.kill", "m0") is None
    authority.exercise(lease.lease_id)
    authority.exercise(lease.lease_id)
    assert lease.exercised == 2
    assert sim.metrics.value("lease.exercised") == 2


def test_revoke_and_revoke_all():
    sim, authority = make_authority()
    first = authority.grant(("m0",), ("vent",), 5.0)
    second = authority.grant(("m1",), ("purge",), 5.0)
    assert authority.revoke(first.lease_id, cause="heal")
    assert not authority.revoke(first.lease_id)    # already dead
    assert first.revoke_cause == "heal"
    assert not first.active(0.0)
    assert authority.revoke_all() == 1             # just the survivor
    assert not second.active(0.0)
    assert authority.active_leases() == []


def test_grant_validation():
    sim, authority = make_authority()
    with pytest.raises(ConfigurationError):
        authority.grant((), ("vent",), 5.0)
    with pytest.raises(ConfigurationError):
        authority.grant(("m0",), (), 5.0)
    with pytest.raises(ConfigurationError):
        LeaseAuthority(sim, max_duration=0.0)
    with pytest.raises(ConfigurationError):
        LeaseAuthority(sim, min_aggregate=-1.0)
    with pytest.raises(ConfigurationError):
        authority.admit_grant({})                  # verifier-less registry


# -- admission: the E21 envelope gate ----------------------------------------------


def signed_pair(seed=7, grantor="overseer", window=30.0):
    sim = Simulator(seed=seed)
    keyring = Keyring(seed=seed)
    keyring.issue(grantor)
    authority = LeaseAuthority(sim, signer=CommandSigner(keyring, grantor),
                               name=grantor)
    registry = LeaseAuthority(sim, verifier=EnvelopeVerifier(keyring,
                                                             window=window),
                              grantor=grantor, name="registry")
    return sim, keyring, authority, registry


def test_genuine_grant_admits_once_then_deduplicates():
    sim, keyring, authority, registry = signed_pair()
    lease = authority.grant(("m0",), ("vent",), 5.0)
    body = authority.grant_body(lease)
    ok, reason, admitted = registry.admit_grant(dict(body))
    assert (ok, reason) == (True, "ok")
    assert admitted.lease_id == lease.lease_id
    assert registry.lease_for("vent", "m0") is admitted
    # A re-send is a fresh envelope (new nonce) but the same lease.
    ok, reason, again = registry.admit_grant(authority.grant_body(lease))
    assert (ok, reason) == (True, "duplicate")
    assert again is admitted


def test_admission_rejects_replay_forgery_and_wrong_grantor():
    sim, keyring, authority, registry = signed_pair()
    lease = authority.grant(("m0",), ("vent",), 5.0)
    body = authority.grant_body(lease)
    registry.admit_grant(dict(body))

    ok, reason, _ = registry.admit_grant(dict(body))       # byte replay
    assert (ok, reason) == (False, "replayed")

    forged = dict(body)
    forged["grantees"] = ["intruder"]                      # tampered
    forged_fresh = {k: v for k, v in forged.items()}
    ok, reason, _ = registry.admit_grant(forged_fresh)
    assert (ok, reason) == (False, "bad-mac")

    keyring.issue("mallory")
    mallory = CommandSigner(keyring, "mallory")
    ok, reason, _ = registry.admit_grant(
        mallory.sign({key: body[key] for key in GRANT_FIELDS}, tick=sim.now))
    assert (ok, reason) == (False, "grantor-mismatch")

    assert sim.metrics.value("lease.rejected") == 3
    assert sim.metrics.value("lease.rejected.bad-mac") == 1


def test_admission_rejects_malformed_and_posthumous_grants():
    sim, keyring, authority, registry = signed_pair()
    signer = authority.signer
    truncated = signer.sign({"lease_id": "x", "scope": ["vent"]},
                            tick=sim.now)
    ok, reason, _ = registry.admit_grant(truncated)
    assert (ok, reason) == (False, "malformed")

    lease = authority.grant(("m0",), ("vent",), 2.0)
    stale = authority.grant_body(lease)
    sim.run(until=3.0)                             # past the expiry tick
    ok, reason, _ = registry.admit_grant(stale)
    assert (ok, reason) == (False, "expired")
    assert registry.lease_for("vent", "m0") is None


def test_replayed_and_forged_grants_rejected_over_the_wire():
    """E2E over a real network: genuine grant admitted, a byte-replay
    and a from-scratch forgery both die at the registry."""
    sim, keyring, authority, registry = signed_pair()
    network = Network(sim, base_latency=0.05, jitter=0.0)
    network.register("overseer", lambda message: None)
    network.register("red", lambda message: None)
    network.register("registry",
                     lambda message: registry.admit_grant(message.body))

    lease = authority.grant(("m0",), ("vent",), 5.0)
    body = authority.grant_body(lease)
    network.send("overseer", "registry", LEASE_GRANT_TOPIC, dict(body))
    sim.schedule_at(1.0, network.send, "red", "registry", LEASE_GRANT_TOPIC,
                    dict(body), label="replay")
    forged = {key: (list(lease.scope) if key == "scope" else "red")
              for key in GRANT_FIELDS}
    forged.update({"granted_at": 0.0, "expires_at": 99.0,
                   "_issuer": "overseer", "_nonce": "forge:1",
                   "_tick": 1.0, "_mac": "0" * 64})
    sim.schedule_at(2.0, network.send, "red", "registry", LEASE_GRANT_TOPIC,
                    forged, label="forge")
    sim.run(until=3.0)

    assert len(registry.leases()) == 1             # only the genuine grant
    reasons = sorted(e.detail["reason"] for e in
                     sim.trace.query("lease.rejected", subject="registry"))
    assert reasons == ["bad-mac", "replayed"]


# -- the crash-safety property (E18) -----------------------------------------------


@settings(max_examples=60, deadline=None)
@given(duration=st.floats(0.5, 15.0),
       crash_at=st.floats(0.1, 20.0),
       downtime=st.floats(0.0, 10.0),
       settle=st.floats(0.0, 10.0))
def test_journaled_lease_never_outlives_its_expiry_after_recovery(
        duration, crash_at, downtime, settle):
    """Whenever the crash lands — before, at, or after the expiry tick —
    and however long the process stays down, the restarted lease table
    never serves a lease at or past its expiry tick.  The restart is a
    genuinely fresh process: new simulator, new authority, same
    journal — the dead process's expiry timers are gone with it."""
    storage = StableStorage()
    sim = Simulator(seed=11)
    authority = LeaseAuthority(sim, journal=Journal(storage, "leases"),
                               max_duration=30.0, name="auth")
    lease = authority.grant(("m0",), ("vent",), duration, cause="prop")
    authority.exercise(lease.lease_id)
    sim.run(until=crash_at)                                # then: crash

    restart = Simulator(seed=12)
    restart.run(until=crash_at + downtime)                 # downtime elapses
    recovered = LeaseAuthority(restart, journal=Journal(storage, "leases"),
                               max_duration=30.0, name="auth")
    recovered.recover()
    # The bound holds at the very first instant after recovery...
    for entry in recovered.leases():
        if restart.now >= entry.expires_at:
            assert entry.expired and not entry.active(restart.now)
    live = recovered.lease_for("vent", "m0")
    assert live is None or restart.now < live.expires_at
    assert live is None or live.exercised == 1             # replay was exact

    # ...and forever after: the re-armed timer finishes the job.
    restart.run(until=crash_at + downtime + settle)
    now = restart.now
    for entry in recovered.leases():
        assert not (now >= entry.expires_at and entry.active(now))
    if now >= lease.expires_at:
        assert recovered.lease_for("vent", "m0") is None


def test_recovery_force_expires_with_recovery_cause_and_continues_ids():
    storage = StableStorage()
    sim = Simulator(seed=2)
    authority = LeaseAuthority(sim, journal=Journal(storage, "leases"),
                               name="auth")
    authority.grant(("m0",), ("vent",), 2.0)       # expires at 2.0, then: crash

    restart = Simulator(seed=3)
    restart.run(until=5.0)                         # expiry passed while down
    recovered = LeaseAuthority(restart, journal=Journal(storage, "leases"),
                               name="auth")
    recovered.recover()
    (entry,) = recovered.leases()
    assert entry.expired
    (expired,) = restart.trace.query("lease.expired", subject="auth")
    assert expired.detail["cause"] == "recovery"
    fresh = recovered.grant(("m0",), ("vent",), 2.0)
    assert fresh.lease_id == "auth:L2"             # counter continues


def test_crash_volatile_then_recover_same_authority():
    """A crash wipes the in-memory table; only the journal brings a live
    lease back, and it still dies at its original expiry tick."""
    storage = StableStorage()
    sim = Simulator(seed=4)
    authority = LeaseAuthority(sim, journal=Journal(storage, "leases"),
                               name="auth")
    lease = authority.grant(("m0",), ("vent",), 5.0)
    authority.exercise(lease.lease_id)
    sim.run(until=2.0)
    assert authority.crash_volatile() == {"lost": 1, "kind": "leases",
                                          "journaled": True}
    assert authority.leases() == []
    assert authority.lease_for("vent", "m0") is None
    authority.recover()
    back = authority.lease_for("vent", "m0")
    assert back is not None and back.lease_id == lease.lease_id
    assert back.expires_at == 5.0 and back.exercised == 1
    sim.run(until=4.999)
    assert authority.lease_for("vent", "m0") is back
    sim.run(until=5.0)
    assert back.expired and authority.lease_for("vent", "m0") is None


def test_crash_volatile_without_journal_loses_the_lease_for_good():
    sim, authority = make_authority(name="auth")
    authority.grant(("m0",), ("vent",), 5.0)
    sim.run(until=1.0)
    assert authority.crash_volatile() == {"lost": 1, "kind": "leases",
                                          "journaled": False}
    assert authority.recover() == {"replayed": 0}
    assert authority.leases() == []
    assert authority.lease_for("vent", "m0") is None
