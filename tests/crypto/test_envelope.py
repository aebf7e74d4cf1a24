"""Unit + property tests for the E21 envelope layer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.envelope import (
    CommandSigner, EnvelopeVerifier, canonical_payload, compute_mac, envelope_payload,
    payload_digest, signed_body,
)
from repro.crypto.keyring import Keyring
from repro.errors import ConfigurationError


# -- keyring ---------------------------------------------------------------------

def test_keyring_is_seed_deterministic():
    a, b = Keyring(seed=7), Keyring(seed=7)
    assert a.issue("watchdog") == b.issue("watchdog")
    assert Keyring(seed=8).issue("watchdog") != a.issue("watchdog")


def test_keys_differ_per_issuer_and_per_keyring_name():
    ring = Keyring(seed=1)
    assert ring.issue("watchdog") != ring.issue("desk")
    assert Keyring(seed=1, name="other").issue("watchdog") != \
        Keyring(seed=1).issue("watchdog")


def test_steal_returns_key_without_authorizing():
    ring = Keyring(seed=3)
    issued = ring.issue("watchdog")
    assert ring.steal("watchdog") == issued
    assert ring.steal("nobody") != issued
    assert not ring.known("nobody")
    assert ring.key_for("nobody") is None


def test_revoke_deauthorizes():
    ring = Keyring(seed=0)
    ring.issue("watchdog")
    assert ring.revoke("watchdog")
    assert ring.key_for("watchdog") is None
    assert not ring.revoke("watchdog")


def test_empty_issuer_rejected():
    with pytest.raises(ConfigurationError):
        Keyring().derive("")


# -- sign / verify ----------------------------------------------------------------

def build(window=10.0, cache_size=4096):
    ring = Keyring(seed=5)
    signer = CommandSigner(ring, "watchdog")
    verifier = EnvelopeVerifier(ring, window=window, cache_size=cache_size)
    return ring, signer, verifier


def test_round_trip_verifies_and_consumes():
    _, signer, verifier = build()
    body = signer.sign({"cause": "bad_state", "target": "d0"}, tick=4.0)
    assert verifier.verify(body, now=4.5) == (True, "ok")
    assert verifier.consume(body, now=4.5) == (True, "ok")
    assert verifier.consume(body, now=4.6) == (False, "replayed")
    assert verifier.seen(body["_nonce"])


def test_rejection_reasons():
    ring, signer, verifier = build()
    assert verifier.verify({"cause": "x"}, now=0.0) == (False, "unsigned")

    rogue_key = ring.steal("rogue")            # never issued to the verifier
    body = signed_body(rogue_key, "rogue", {"cause": "x"}, "rogue:1", 0.0)
    assert verifier.verify(body, now=0.0) == (False, "unknown-issuer")

    body = signer.sign({"cause": "x", "target": "d0"}, tick=0.0)
    tampered = dict(body)
    tampered["cause"] = "y"
    assert verifier.verify(tampered, now=0.0) == (False, "bad-mac")

    stale = signer.sign({"cause": "x"}, tick=0.0)
    assert verifier.verify(stale, now=11.0) == (False, "stale")

    future = signer.sign({"cause": "x"}, tick=50.0)
    assert verifier.verify(future, now=0.0) == (False, "future")


def test_transport_retry_metadata_is_outside_the_mac():
    _, signer, verifier = build()
    body = signer.sign({"cause": "bad_state", "target": "d0"}, tick=1.0)
    retransmit = dict(body)
    retransmit["_rmid"] = 42          # what a ReliableChannel retry stamps on
    retransmit["_rfrom"] = "watchdog"
    assert verifier.verify(retransmit, now=1.1) == (True, "ok")
    assert envelope_payload(retransmit) == {"cause": "bad_state",
                                            "target": "d0"}


def test_signer_nonces_are_deterministic_and_distinct():
    _, signer, _ = build()
    a = signer.sign({"cause": "x"}, tick=0.0)
    b = signer.sign({"cause": "x"}, tick=0.0)
    assert a["_nonce"] == "watchdog:1" and b["_nonce"] == "watchdog:2"
    assert a["_mac"] != b["_mac"]
    assert signer.signed == 2


def test_eviction_raises_tick_floor_and_keeps_replays_out():
    _, signer, verifier = build(cache_size=2)
    first = signer.sign({"n": 1}, tick=1.0)
    verifier.consume(first, now=1.0)
    verifier.consume(signer.sign({"n": 2}, tick=2.0), now=2.0)
    verifier.consume(signer.sign({"n": 3}, tick=3.0), now=3.0)   # evicts #1
    assert verifier.evictions == 1
    assert verifier.floor == 1.0
    assert not verifier.seen(first["_nonce"])
    # The evicted envelope cannot sneak back in: its tick is at the floor.
    assert verifier.verify(first, now=3.0) == (False, "stale")


def test_forget_all_keeps_floor():
    _, signer, verifier = build(cache_size=1)
    verifier.consume(signer.sign({"n": 1}, tick=1.0), now=1.0)
    verifier.consume(signer.sign({"n": 2}, tick=2.0), now=2.0)
    assert verifier.forget_all() == 1
    assert verifier.cache_len() == 0
    assert verifier.floor == 1.0


def test_restore_burns_nonce_after_amnesia():
    _, signer, verifier = build()
    body = signer.sign({"n": 1}, tick=1.0)
    verifier.consume(body, now=1.0)
    verifier.forget_all()
    assert verifier.verify(body, now=1.5)[0]       # amnesia would re-accept
    verifier.restore(body["_nonce"], body["_tick"])
    assert verifier.verify(body, now=1.5) == (False, "replayed")


def test_payload_digest_is_canonical():
    assert payload_digest({"b": 1, "a": 2}) == payload_digest({"a": 2, "b": 1})
    assert payload_digest({"a": 2}) != payload_digest({"a": 3})
    assert canonical_payload({"b": 1, "a": 2}) == '{"a":2,"b":1}'


# -- properties (hypothesis) -------------------------------------------------------

_payloads = st.dictionaries(
    st.text(min_size=1, max_size=8).filter(lambda k: not k.startswith("_")),
    st.one_of(st.text(max_size=16), st.integers(-10**6, 10**6),
              st.booleans()),
    max_size=5,
)


@settings(max_examples=60, deadline=None)
@given(payload=_payloads, tick=st.floats(0.0, 1e6), seed=st.integers(0, 2**16))
def test_property_round_trip(payload, tick, seed):
    ring = Keyring(seed=seed)
    key = ring.issue("watchdog")
    body = signed_body(key, "watchdog", payload, "watchdog:1", tick)
    verifier = EnvelopeVerifier(ring, window=1e9)
    assert verifier.verify(body, now=tick) == (True, "ok")
    assert envelope_payload(body) == dict(payload)
    assert body["_mac"] == compute_mac(key, "watchdog", "watchdog:1",
                                       tick, payload)


@settings(max_examples=60, deadline=None)
@given(payload=_payloads, tick=st.floats(0.0, 1e6),
       field=st.sampled_from(["payload", "nonce", "tick", "issuer", "mac"]))
def test_property_any_mutation_breaks_the_mac(payload, tick, field):
    ring = Keyring(seed=9)
    ring.issue("watchdog")
    ring.issue("other")                      # authorized, but a different key
    key = ring.key_for("watchdog")
    body = signed_body(key, "watchdog", payload, "watchdog:1", tick)
    mutated = dict(body)
    if field == "payload":
        mutated["__extra"] = "x"             # grows the MAC'd payload
    elif field == "nonce":
        mutated["_nonce"] = "watchdog:2"
    elif field == "tick":
        mutated["_tick"] = tick + 1.0
    elif field == "issuer":
        mutated["_issuer"] = "other"
    else:
        flipped = "0" if body["_mac"][0] != "0" else "1"
        mutated["_mac"] = flipped + body["_mac"][1:]
    verifier = EnvelopeVerifier(ring, window=1e9)
    ok, reason = verifier.verify(mutated, now=tick)
    assert not ok
    assert reason == "bad-mac"


@settings(max_examples=40, deadline=None)
@given(n_extra=st.integers(1, 8))
def test_property_eviction_boundary_never_reopens_replay(n_extra):
    """The oldest-evicted nonce is always rejected inside the window."""
    ring = Keyring(seed=11)
    signer = CommandSigner(ring, "watchdog")
    verifier = EnvelopeVerifier(ring, window=1e9, cache_size=n_extra)
    first = signer.sign({"n": 0}, tick=0.0)
    verifier.consume(first, now=0.0)
    for i in range(n_extra):                 # overflow the cache by one
        verifier.consume(signer.sign({"n": i + 1}, tick=float(i + 1)),
                         now=float(i + 1))
    assert not verifier.seen(first["_nonce"])
    ok, reason = verifier.verify(first, now=float(n_extra))
    assert (ok, reason) == (False, "stale")
