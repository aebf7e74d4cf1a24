"""Leased emergency powers for partitioned minorities (E22).

``quorum_mode="reachable-majority"`` (E18) already lets the reachable
side of a partition close a ballot — but when even that cannot form (the
quorum authority itself is unreachable), the fleet's safe actuations
stall entirely.  The paper's alternative to stalling is *graded*
autonomy: a reachable group that has **earned** enough aggregate
reputation may issue itself a narrow, temporary grant.

An :class:`EmergencyLease` is that grant:

* **scope-limited** — it names the actuation kinds it covers; the
  :class:`~repro.safeguards.gateway.ActuationGateway` honors it only for
  those kinds, and only for the named grantees;
* **tick-bounded** — it expires at ``expires_at`` exactly (a lease is
  dead *at* its expiry tick, not after it), and is revoked early the
  moment the partition heals;
* **HMAC-signed** — the grant travels as an E21 command envelope, so a
  forged or replayed grant is rejected at admission like any other
  forged command;
* **journaled** — every grant/exercise/expiry/revocation writes through
  (E18), and :meth:`LeaseAuthority.recover` force-expires anything whose
  expiry tick passed while the process was down: a crash/restart can
  never resurrect emergency powers.

One class plays both ends of the wire: a signer-armed
:class:`LeaseAuthority` *grants* (the reachable minority's overseer); a
verifier-armed one *admits* grants at the actuation side and answers the
gateway's ``lease_for`` lookups.  Co-located deployments use a single
instance for both.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.errors import ConfigurationError

#: Wire topics of the lease protocol.
LEASE_GRANT_TOPIC = "lease.grant"
LEASE_REVOKE_TOPIC = "lease.revoke"

#: Fields a lease-grant payload must carry to be admissible.
GRANT_FIELDS = ("lease_id", "scope", "grantees", "granted_at", "expires_at")


@dataclass
class EmergencyLease:
    """One expiring, scope-limited emergency grant."""

    lease_id: str
    scope: tuple                  # actuation kinds the lease covers
    grantees: tuple               # issuers allowed to exercise it
    granted_at: float
    expires_at: float
    cause: str = ""
    aggregate_reputation: Optional[float] = None
    revoked_at: Optional[float] = None
    revoke_cause: Optional[str] = None
    exercised: int = 0
    expired: bool = False
    detail: dict = field(default_factory=dict)

    def active(self, now: float) -> bool:
        """Live at ``now``: not revoked, and strictly before the expiry
        tick (a lease never covers its own expiry instant)."""
        return (self.revoked_at is None and not self.expired
                and now < self.expires_at)

    def covers(self, kind: str, issuer: Optional[str]) -> bool:
        return kind in self.scope and (not self.grantees
                                       or issuer in self.grantees)


class LeaseAuthority:
    """Grants, admits, and accounts for emergency leases.

    ``ledger`` (a :class:`~repro.trust.reputation.ReputationLedger`)
    gates granting: the grantees' *aggregate* reputation at grant time
    must reach ``min_aggregate`` — emergency powers are something a
    group earns, not something a partition confers.  ``signer`` /
    ``verifier`` are the E21 envelope ends; ``max_duration`` caps any
    requested lease length.

    The lifecycle record is the simulator trace: ``lease.grant``,
    ``lease.denied``, ``lease.rejected``, ``lease.revoked`` and
    ``lease.expired``, subject ``name`` (E22's ``leases.jsonl`` is built
    from these records).  ``trace=False`` silences them (used by
    per-shard registry replicas so the merged F4 trace stays
    shard-count-invariant; the single granting authority keeps tracing);
    the ``lease.*`` counters still count every event.
    """

    def __init__(
        self,
        sim,
        ledger=None,
        signer=None,
        verifier=None,
        min_aggregate: float = 1.0,
        max_duration: float = 20.0,
        grantor: Optional[str] = None,
        journal=None,
        audit=None,
        name: str = "lease-authority",
        trace: bool = True,
    ):
        if max_duration <= 0:
            raise ConfigurationError("max_duration must be positive")
        if min_aggregate < 0:
            raise ConfigurationError("min_aggregate must be non-negative")
        self.sim = sim
        self.ledger = ledger
        self.signer = signer
        self.verifier = verifier
        self.min_aggregate = min_aggregate
        self.max_duration = max_duration
        #: Admission-side pin: only grants signed by this issuer count.
        self.grantor = grantor
        self._journal = journal
        self._audit = audit
        self.name = name
        self.trace = trace
        self._leases: dict[str, EmergencyLease] = {}
        self._counter = itertools.count(1)

    # -- granting (authority role) ----------------------------------------------

    def grant(self, grantees: Iterable[str], scope: Iterable[str],
              duration: float, cause: str = "") -> Optional[EmergencyLease]:
        """Issue a lease to ``grantees`` over actuation kinds ``scope``
        for ``duration`` sim-seconds (capped at ``max_duration``).
        Returns ``None`` — metered and journaled as a denial — when the
        group's aggregate reputation falls short."""
        now = self.sim.now
        grantees = tuple(sorted(grantees))
        scope = tuple(sorted(scope))
        if not grantees or not scope:
            raise ConfigurationError("a lease needs grantees and a scope")
        aggregate = None
        if self.ledger is not None:
            aggregate = self.ledger.aggregate(grantees, now)
            if aggregate < self.min_aggregate:
                self.sim.metrics.counter("lease.denied").inc()
                if self.trace:
                    self.sim.record("lease.denied", self.name,
                                    grantees=list(grantees),
                                    aggregate=aggregate,
                                    required=self.min_aggregate)
                return None
        lease = EmergencyLease(
            lease_id=f"{self.name}:L{next(self._counter)}",
            scope=scope, grantees=grantees, granted_at=now,
            expires_at=now + min(duration, self.max_duration),
            cause=cause, aggregate_reputation=aggregate,
        )
        self._register(lease, journal=True)
        self.sim.metrics.counter("lease.granted").inc()
        if self.trace:
            self.sim.record("lease.grant", self.name, lease=lease.lease_id,
                            scope=list(scope), grantees=list(grantees),
                            expires_at=lease.expires_at, cause=cause)
        self._span("lease.grant", lease.lease_id, cause=cause,
                   expires_at=lease.expires_at)
        self._audit_write("lease.grant", {
            "lease": lease.lease_id, "scope": list(scope),
            "grantees": list(grantees), "expires_at": lease.expires_at,
            "cause": cause,
        })
        return lease

    def grant_body(self, lease: EmergencyLease) -> dict:
        """The lease as a wire payload — a fresh signed envelope per call
        (each recipient gets its own nonce; retransmits are re-signs, so
        a captured copy replayed elsewhere still burns as a replay)."""
        payload = {
            "lease_id": lease.lease_id, "scope": list(lease.scope),
            "grantees": list(lease.grantees), "granted_at": lease.granted_at,
            "expires_at": lease.expires_at, "cause": lease.cause,
        }
        if self.signer is None:
            return payload
        return self.signer.sign(payload, tick=self.sim.now)

    # -- admission (registry role) ----------------------------------------------

    def admit_grant(self, body: dict) -> tuple:
        """Verify-then-register a lease-grant envelope.

        Returns ``(ok, reason, lease)``.  Rejections are metered
        ``lease.rejected.<reason>`` — the E21 envelope reasons (forged →
        ``bad-mac``, replayed → ``replayed``, …) plus ``grantor-mismatch``
        (signed by someone other than the pinned grantor), ``malformed``,
        and ``expired`` (a stale grant arriving after its own expiry
        tick).  A duplicate of an already-registered lease is idempotent
        (``ok`` with reason ``duplicate``)."""
        now = self.sim.now
        if self.verifier is None:
            raise ConfigurationError(
                "admit_grant needs a verifier-armed authority")
        ok, reason = self.verifier.consume(body, now)
        if ok and self.grantor is not None and body.get("_issuer") != self.grantor:
            ok, reason = False, "grantor-mismatch"
        if ok and any(key not in body for key in GRANT_FIELDS):
            ok, reason = False, "malformed"
        if ok and float(body["expires_at"]) <= now:
            ok, reason = False, "expired"
        if not ok:
            self.sim.metrics.counter("lease.rejected").inc()
            self.sim.metrics.counter(f"lease.rejected.{reason}").inc()
            if self.trace:
                self.sim.record("lease.rejected", self.name,
                                lease=body.get("lease_id"), reason=reason,
                                issuer=body.get("_issuer"))
            self._audit_write("lease.rejected", {
                "lease": body.get("lease_id"), "reason": reason,
                "issuer": body.get("_issuer"),
            })
            return False, reason, None
        lease_id = body["lease_id"]
        existing = self._leases.get(lease_id)
        if existing is not None:
            return True, "duplicate", existing
        lease = EmergencyLease(
            lease_id=lease_id, scope=tuple(body["scope"]),
            grantees=tuple(body["grantees"]),
            granted_at=float(body["granted_at"]),
            expires_at=float(body["expires_at"]),
            cause=body.get("cause", ""),
        )
        self._register(lease, journal=True)
        self.sim.metrics.counter("lease.admitted").inc()
        return True, "ok", lease

    def _register(self, lease: EmergencyLease, journal: bool) -> None:
        self._leases[lease.lease_id] = lease
        if journal:
            self._journal_write({
                "kind": "grant", "lease": lease.lease_id,
                "scope": list(lease.scope), "grantees": list(lease.grantees),
                "granted_at": lease.granted_at, "expires_at": lease.expires_at,
                "cause": lease.cause,
            })
        self.sim.schedule(max(0.0, lease.expires_at - self.sim.now),
                          self._expire, lease, label="lease:expire")

    # -- lifecycle ---------------------------------------------------------------

    def lease_for(self, kind: str, issuer: Optional[str]) -> Optional[EmergencyLease]:
        """The first live lease covering ``kind`` for ``issuer`` (grant
        order — deterministic), or ``None``."""
        now = self.sim.now
        for lease in self._leases.values():
            if lease.active(now) and lease.covers(kind, issuer):
                return lease
        return None

    def exercise(self, lease_id: str) -> None:
        """Account one actuation served under the lease."""
        lease = self._leases[lease_id]
        lease.exercised += 1
        now = self.sim.now
        self.sim.metrics.counter("lease.exercised").inc()
        self._journal_write({"kind": "exercise", "lease": lease_id,
                             "time": now})
        self._span("lease.exercise", lease_id, count=lease.exercised)

    def revoke(self, lease_id: str, cause: str = "heal") -> bool:
        """Early revocation (partition healed, operator override).
        Returns whether a live lease was actually revoked."""
        lease = self._leases.get(lease_id)
        now = self.sim.now
        if lease is None or not lease.active(now):
            return False
        lease.revoked_at = now
        lease.revoke_cause = cause
        self.sim.metrics.counter("lease.revoked").inc()
        self._journal_write({"kind": "revoke", "lease": lease_id,
                             "time": now, "cause": cause})
        if self.trace:
            self.sim.record("lease.revoked", self.name, lease=lease_id,
                            cause=cause)
        self._span("lease.revoke", lease_id, cause=cause)
        self._audit_write("lease.revoked", {"lease": lease_id, "cause": cause})
        return True

    def revoke_all(self, cause: str = "heal") -> int:
        """Revoke every live lease (the partition-heal sweep)."""
        revoked = 0
        for lease_id in list(self._leases):
            if self.revoke(lease_id, cause):
                revoked += 1
        return revoked

    def _expire(self, lease: EmergencyLease, cause: str = "expiry") -> None:
        if lease.expired or lease.revoked_at is not None:
            return
        lease.expired = True
        now = self.sim.now
        self.sim.metrics.counter("lease.expired").inc()
        self._journal_write({"kind": "expire", "lease": lease.lease_id,
                             "time": now, "cause": cause})
        if self.trace:
            self.sim.record("lease.expired", self.name, lease=lease.lease_id,
                            cause=cause)
        self._span("lease.expire", lease.lease_id, cause=cause)

    def active_leases(self) -> list[EmergencyLease]:
        now = self.sim.now
        return [lease for lease in self._leases.values() if lease.active(now)]

    def leases(self) -> list[EmergencyLease]:
        return list(self._leases.values())

    # -- durability (E18) --------------------------------------------------------

    def crash_volatile(self) -> dict:
        """Crash semantics: the lease table is in-memory — without the
        journal a restart forgets both live leases (stalling the minority
        again) and *dead* ones (a stale grant could re-admit)."""
        lost = len(self._leases)
        self._leases = {}
        return {"lost": lost, "kind": "leases",
                "journaled": self._journal is not None}

    def recover(self) -> dict:
        """Replay the lease table, then enforce the expiry bound: any
        replayed lease whose expiry tick passed while the process was
        down is force-expired *before* anything can look it up — a
        journaled lease never outlives its expiry tick, crash or no
        crash.  Still-live leases get their expiry timer re-armed."""
        replayed = 0
        if self._journal is not None:
            for record in self._journal.replay():
                payload = record.payload
                kind = payload.get("kind")
                if kind == "grant":
                    lease = EmergencyLease(
                        lease_id=payload["lease"],
                        scope=tuple(payload.get("scope", ())),
                        grantees=tuple(payload.get("grantees", ())),
                        granted_at=float(payload.get("granted_at", 0.0)),
                        expires_at=float(payload.get("expires_at", 0.0)),
                        cause=payload.get("cause", ""),
                    )
                    self._leases[lease.lease_id] = lease
                elif kind == "exercise":
                    lease = self._leases.get(payload.get("lease"))
                    if lease is not None:
                        lease.exercised += 1
                elif kind == "revoke":
                    lease = self._leases.get(payload.get("lease"))
                    if lease is not None:
                        lease.revoked_at = float(payload.get("time", 0.0))
                        lease.revoke_cause = payload.get("cause")
                elif kind == "expire":
                    lease = self._leases.get(payload.get("lease"))
                    if lease is not None:
                        lease.expired = True
                replayed += 1
        now = self.sim.now
        highest = 0
        for lease in self._leases.values():
            _name, _sep, number = lease.lease_id.rpartition(":L")
            if number.isdigit():
                highest = max(highest, int(number))
            if lease.revoked_at is not None or lease.expired:
                continue
            if lease.expires_at <= now:
                self._expire(lease, cause="recovery")
            else:
                self.sim.schedule(lease.expires_at - now, self._expire,
                                  lease, label="lease:expire")
        self._counter = itertools.count(highest + 1)
        return {"replayed": replayed}

    # -- plumbing ----------------------------------------------------------------

    def _journal_write(self, payload: dict) -> None:
        if self._journal is not None:
            self._journal.append(payload)

    def _audit_write(self, kind: str, detail: dict) -> None:
        if self._audit is not None:
            self._audit.append(self.sim.now, kind, self.name, detail)

    def _span(self, name: str, lease_id: str, **attrs) -> None:
        telemetry = self.sim.telemetry
        if telemetry.enabled and telemetry.active_context() is not None:
            telemetry.start_span(name, lease_id,
                                 parent=telemetry.active_context(), **attrs)
