"""Deterministic, seed-derived HMAC keyring.

Key distribution is out of scope for the simulation (the paper assumes a
provisioning step); what matters for the experiments is that (a) every
issuer's key is derived from the run seed alone, so signed arms replay
byte-identically, and (b) the *authorization* question — which issuers a
verifier trusts — is separate from the *derivation* question, so an
attacker who learns the derivation (:meth:`Keyring.steal`) models a
stolen key without ever becoming an authorized issuer of its own.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.errors import ConfigurationError


class Keyring:
    """Per-issuer HMAC-SHA256 keys derived from a master seed.

    ``issue(name)`` both derives the key and marks the issuer as
    *authorized* — verifiers reject envelopes from issuers the keyring
    never issued.  ``steal(name)`` returns the same key bytes **without**
    authorizing the name: it is the attack-side API, modelling key
    exfiltration from a compromised issuer (the derivation is no secret;
    possession of the master seed is the simulated compromise).
    """

    def __init__(self, seed: int = 0, name: str = "fleet"):
        self.seed = int(seed)
        self.name = name
        self._master = hashlib.sha256(
            f"keyring:{name}:{self.seed}".encode("utf-8")).digest()
        self._issued: dict[str, bytes] = {}

    def derive(self, issuer: str) -> bytes:
        """The raw key derivation (no authorization side effect)."""
        if not issuer:
            raise ConfigurationError("issuer name must be non-empty")
        return hmac.new(self._master, issuer.encode("utf-8"),
                        hashlib.sha256).digest()

    def issue(self, issuer: str) -> bytes:
        """Derive ``issuer``'s key and authorize the issuer."""
        key = self._issued.get(issuer)
        if key is None:
            key = self._issued[issuer] = self.derive(issuer)
        return key

    def key_for(self, issuer: str) -> bytes:
        """The verification key for an *authorized* issuer, else ``None``."""
        return self._issued.get(issuer)

    def known(self, issuer: str) -> bool:
        return issuer in self._issued

    def steal(self, issuer: str) -> bytes:
        """An attacker's copy of ``issuer``'s key (no authorization change).

        Signing with a stolen key produces envelopes that verify — the
        stolen-key threat the :class:`~repro.safeguards.gateway.ActuationGateway`
        budgets/cooldowns/freeze exist to contain.
        """
        return self.derive(issuer)

    def revoke(self, issuer: str) -> bool:
        """De-authorize an issuer (post-incident key rotation)."""
        return self._issued.pop(issuer, None) is not None
