"""Cryptographic execution authorization (E21).

The paper's sec VI safeguards all "assume that they can be performed in a
manner that is tamper-proof".  :mod:`repro.safeguards.tamper` covers the
*in-device* half (sealed guard chains, attestation hashes); this package
covers the *wire* half: a rogue that forges or replays watchdog traffic
must not be able to turn the fail-closed machinery against the fleet.

Three pieces, modelled on the Sentinel SCA gateway pattern (HMAC request
signing, nonce replay protection, timestamp window enforcement):

* :class:`~repro.crypto.keyring.Keyring` — deterministic, seed-derived
  per-issuer HMAC keys, so signed runs replay byte-identically;
* :class:`~repro.crypto.envelope.CommandSigner` /
  :func:`~repro.crypto.envelope.signed_body` — HMAC-SHA256 command
  envelopes binding payload + issuer + nonce + sim-tick (and nothing
  else: transport-layer retry metadata stays outside the MAC, so a
  retransmit of the same envelope verifies identically);
* :class:`~repro.crypto.envelope.EnvelopeVerifier` — verify-then-consume
  with a timestamp window and a bounded nonce cache whose eviction
  raises a tick floor (an evicted nonce can never be replayed, it just
  fails the staleness check instead of the cache lookup).

The enforcement point in front of device actuators is
:class:`repro.safeguards.gateway.ActuationGateway`, which adds per-issuer
budgets, cooldowns, and a journaled global-freeze kill switch on top.
"""
