"""HMAC-SHA256 signed command envelopes with replay protection.

An envelope rides a :class:`~repro.net.message.Message` body as four
reserved keys (``_issuer``, ``_nonce``, ``_tick``, ``_mac``) alongside the
application payload.  The MAC covers **payload + issuer + nonce + tick**
— and deliberately nothing else.  The
:class:`~repro.net.reliable.ReliableChannel` stamps its own retry
metadata (``_rmid``/``_rfrom``) onto the wire form; those keys are
excluded from the MAC, so an ack-timeout *retransmission* of the same
envelope verifies identically (retry ≠ replay).  What distinguishes a
replay is consumption: the verifier's nonce cache records each accepted
nonce, so a second delivery of an envelope that already actuated is
rejected no matter which transport carried it.

The nonce cache is bounded.  Eviction does not reopen a replay hole:
evicting a nonce raises the verifier's *tick floor* to that nonce's
tick, and any envelope at or below the floor is rejected as stale —
an evicted nonce fails the staleness check instead of the cache lookup.
"""

from __future__ import annotations

import hashlib
import hmac
import itertools
from collections import OrderedDict
from typing import Optional

from repro.canonical import canonical_json
from repro.crypto.keyring import Keyring

#: The reserved envelope keys on a wire body.
ENVELOPE_KEYS = ("_issuer", "_nonce", "_tick", "_mac")

#: Transport-layer retry metadata excluded from the MAC (the
#: :class:`~repro.net.reliable.ReliableChannel` protocol keys).
TRANSPORT_KEYS = ("_rmid", "_rfrom")

_EXCLUDED = frozenset(ENVELOPE_KEYS) | frozenset(TRANSPORT_KEYS)


#: Deterministic JSON for signing: the shared canonical encoding.
canonical_payload = canonical_json


def payload_digest(payload: dict) -> str:
    """SHA-256 digest of a canonical payload (governance digest-match)."""
    return hashlib.sha256(canonical_payload(payload).encode("utf-8")).hexdigest()


def envelope_payload(body: dict) -> dict:
    """The application payload of a wire body: everything the MAC covers."""
    return {key: value for key, value in body.items() if key not in _EXCLUDED}


def compute_mac(key: bytes, issuer: str, nonce: str, tick: float,
                payload: dict) -> str:
    """HMAC-SHA256 over the canonical ``payload + issuer + nonce + tick``."""
    message = canonical_payload({
        "issuer": issuer, "nonce": nonce, "tick": float(tick),
        "payload": payload,
    })
    return hmac.new(key, message.encode("utf-8"), hashlib.sha256).hexdigest()


def signed_body(key: bytes, issuer: str, payload: dict, nonce: str,
                tick: float) -> dict:
    """Build the wire body: payload plus the four envelope keys.

    This is the raw signing primitive — legitimate issuers use
    :class:`CommandSigner` (which manages nonces); attack code uses this
    directly with a stolen key and nonces of its own choosing.
    """
    payload = dict(payload)
    body = dict(payload)
    body["_issuer"] = issuer
    body["_nonce"] = nonce
    body["_tick"] = float(tick)
    body["_mac"] = compute_mac(key, issuer, nonce, tick, payload)
    return body


class CommandSigner:
    """A legitimate issuer's signing handle.

    Nonces are ``"<issuer>:<n>"`` from a per-signer counter — fully
    deterministic, so signed runs replay byte-identically.  Signing the
    *same* logical command twice mints two distinct envelopes; callers
    that retransmit (the watchdog re-issuing an unexecuted kill order)
    should cache and resend the signed body instead, so the receiver
    sees one nonce per command (retry ≠ replay).
    """

    def __init__(self, keyring: Keyring, issuer: str):
        self.issuer = issuer
        self._key = keyring.issue(issuer)
        self._counter = itertools.count(1)
        self.signed = 0

    def sign(self, payload: dict, tick: float) -> dict:
        """Sign ``payload`` at sim-time ``tick``; returns the wire body."""
        self.signed += 1
        nonce = f"{self.issuer}:{next(self._counter)}"
        return signed_body(self._key, self.issuer, payload, nonce, tick)


class EnvelopeVerifier:
    """Verify-then-consume envelope validation with replay protection.

    * ``window`` — accepted sim-tick skew: an envelope older than
      ``window`` (or more than ``window`` in the future) is rejected;
    * ``cache_size`` — bound on the consumed-nonce cache; eviction
      raises the tick floor (see module docstring) so boundedness never
      reopens a replay window.

    :meth:`verify` is the pure check; :meth:`consume` additionally
    records the nonce so later deliveries of the same envelope are
    rejected as ``"replayed"``.  Rejection reasons (stable strings, used
    as metric suffixes): ``unsigned``, ``unknown-issuer``, ``bad-mac``,
    ``stale``, ``future``, ``replayed``.
    """

    def __init__(self, keyring: Keyring, window: float = 10.0,
                 cache_size: int = 4096):
        if window <= 0:
            raise ValueError("window must be positive")
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        self.keyring = keyring
        self.window = float(window)
        self.cache_size = int(cache_size)
        self._seen: "OrderedDict[str, float]" = OrderedDict()
        self._floor: Optional[float] = None
        self.accepted = 0
        self.rejected = 0
        self.evictions = 0

    # -- checks ----------------------------------------------------------------

    def verify(self, body: dict, now: float) -> tuple:
        """``(ok, reason)`` for ``body`` at sim-time ``now`` (no consume)."""
        issuer = body.get("_issuer")
        nonce = body.get("_nonce")
        tick = body.get("_tick")
        mac = body.get("_mac")
        if not (isinstance(issuer, str) and isinstance(nonce, str)
                and isinstance(tick, (int, float)) and isinstance(mac, str)):
            return False, "unsigned"
        key = self.keyring.key_for(issuer)
        if key is None:
            return False, "unknown-issuer"
        expected = compute_mac(key, issuer, nonce, float(tick),
                               envelope_payload(body))
        if not hmac.compare_digest(expected, mac):
            return False, "bad-mac"
        if now - tick > self.window or (self._floor is not None
                                        and tick <= self._floor):
            # The floor clause closes the eviction boundary: an evicted
            # nonce's tick is at or below the floor, so its replay is
            # stale even though the cache forgot it.
            return False, "stale"
        if tick - now > self.window:
            return False, "future"
        if nonce in self._seen:
            return False, "replayed"
        return True, "ok"

    def consume(self, body: dict, now: float) -> tuple:
        """Verify and, on success, burn the nonce.  ``(ok, reason)``."""
        ok, reason = self.verify(body, now)
        if ok:
            self.accepted += 1
            self._remember(body["_nonce"], float(body["_tick"]))
        else:
            self.rejected += 1
        return ok, reason

    def restore(self, nonce: str, tick: float) -> None:
        """Re-burn a nonce from a journal replay (crash recovery): a
        restart must not launder an already-consumed envelope."""
        self._remember(nonce, float(tick))

    def seen(self, nonce: str) -> bool:
        return nonce in self._seen

    def forget_all(self) -> int:
        """Drop the whole nonce cache (crash amnesia); returns how many.

        The tick floor survives deliberately: it only ever widens the
        stale-rejection region, so keeping it is fail-closed.
        """
        dropped = len(self._seen)
        self._seen.clear()
        return dropped

    def cache_len(self) -> int:
        return len(self._seen)

    @property
    def floor(self) -> Optional[float]:
        """Ticks at or below this are rejected as stale (``None`` = unset)."""
        return self._floor

    # -- internals -------------------------------------------------------------

    def _remember(self, nonce: str, tick: float) -> None:
        self._seen[nonce] = tick
        while len(self._seen) > self.cache_size:
            _evicted, evicted_tick = self._seen.popitem(last=False)
            self.evictions += 1
            if self._floor is None or evicted_tick > self._floor:
                self._floor = evicted_tick
