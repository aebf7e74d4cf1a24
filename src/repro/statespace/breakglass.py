"""Break-glass rules (paper sec VI-B, ref [12]).

"Break-glass rules are typically used in medical systems to allow
operators emergency access to data and IT systems when normal
authentication cannot be successfully completed or the access control
policies would not allow access.  Use of such rules in our context would
require support for audits to verify that devices did not abuse the
break-glass rules."

A :class:`BreakGlassRule` names an emergency condition under which a
specific safeguard may be bypassed for a bounded duration.  Every grant
and every use is recorded through an audit sink; the paper further
requires "trustworthy information concerning its own status and the
environment", which is modelled by a pluggable *context verifier* (backed
by ``repro.trust`` secure aggregation in the experiments).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.conditions import Condition, parse_condition
from repro.errors import BreakGlassError

_grant_ids = itertools.count(1)


@dataclass(frozen=True)
class BreakGlassRule:
    """An emergency bypass authorization.

    ``emergency_condition`` must hold over the *verified* context for a
    grant to issue.  ``bypasses`` names the safeguards whose vetoes are
    suspended (e.g. ``{"statespace"}``).  ``max_duration`` bounds the
    grant in simulated time; ``max_uses`` bounds how many vetoes it can
    absorb.
    """

    rule_id: str
    emergency_condition: Condition
    bypasses: frozenset
    max_duration: float = 10.0
    max_uses: int = 5
    description: str = ""

    def __post_init__(self):
        object.__setattr__(self, "bypasses", frozenset(self.bypasses))
        if self.max_duration <= 0:
            raise BreakGlassError("max_duration must be positive")
        if self.max_uses <= 0:
            raise BreakGlassError("max_uses must be positive")

    @staticmethod
    def make(rule_id: str, condition: object, bypasses: set, *,
             max_duration: float = 10.0, max_uses: int = 5,
             description: str = "") -> "BreakGlassRule":
        if isinstance(condition, str):
            condition = parse_condition(condition)
        return BreakGlassRule(
            rule_id=rule_id, emergency_condition=condition,
            bypasses=frozenset(bypasses), max_duration=max_duration,
            max_uses=max_uses, description=description,
        )


@dataclass
class BreakGlassGrant:
    """An active (or expired) emergency bypass for one device."""

    rule: BreakGlassRule
    device_id: str
    justification: str
    granted_at: float
    expires_at: float
    grant_id: int = field(default_factory=lambda: next(_grant_ids))
    uses: int = 0
    revoked: bool = False

    def active(self, time: float) -> bool:
        return (not self.revoked and time <= self.expires_at
                and self.uses < self.rule.max_uses)

    def covers(self, safeguard_name: str, time: float) -> bool:
        return self.active(time) and safeguard_name in self.rule.bypasses


class BreakGlassController:
    """Issues, tracks, and audits break-glass grants for a fleet.

    ``context_verifier(device_id) -> dict`` supplies the trustworthy
    context the emergency condition is evaluated against — the paper's
    requirement that the decision to break the glass rest "on true
    information".  ``audit_sink(kind, detail)`` receives every grant,
    use, denial, and revocation.
    """

    def __init__(
        self,
        context_verifier: Callable[[str], dict],
        audit_sink: Optional[Callable[[str, dict], None]] = None,
    ):
        self._rules: dict[str, BreakGlassRule] = {}
        self._grants: list[BreakGlassGrant] = []
        self._verify = context_verifier
        self._audit = audit_sink or (lambda kind, detail: None)

    def register_rule(self, rule: BreakGlassRule) -> None:
        if rule.rule_id in self._rules:
            raise BreakGlassError(f"duplicate break-glass rule {rule.rule_id!r}")
        self._rules[rule.rule_id] = rule

    def request(self, device_id: str, rule_id: str, justification: str,
                time: float) -> Optional[BreakGlassGrant]:
        """Request an emergency grant; returns it, or ``None`` when denied.

        Denials happen when the verified context does not satisfy the
        rule's emergency condition — the defense against devices claiming
        fake emergencies.
        """
        rule = self._rules.get(rule_id)
        if rule is None:
            raise BreakGlassError(f"unknown break-glass rule {rule_id!r}")
        if not justification.strip():
            raise BreakGlassError("break-glass requests require a justification")
        context = self._verify(device_id)
        if not rule.emergency_condition.evaluate(context, None):
            self._audit("breakglass.denied", {
                "device": device_id, "rule": rule_id,
                "justification": justification, "time": time,
                "context": dict(context),
            })
            return None
        grant = BreakGlassGrant(
            rule=rule, device_id=device_id, justification=justification,
            granted_at=time, expires_at=time + rule.max_duration,
        )
        self._grants.append(grant)
        self._audit("breakglass.granted", {
            "device": device_id, "rule": rule_id, "grant_id": grant.grant_id,
            "justification": justification, "time": time,
            "expires_at": grant.expires_at,
        })
        return grant

    def is_bypassed(self, device_id: str, safeguard_name: str, time: float) -> bool:
        """True when an active grant covers this safeguard for this device.

        A ``True`` answer consumes one use of the covering grant and is
        audited — uses are exactly what the post-hoc abuse audit counts.
        """
        for grant in self._grants:
            if grant.device_id == device_id and grant.covers(safeguard_name, time):
                grant.uses += 1
                self._audit("breakglass.used", {
                    "device": device_id, "safeguard": safeguard_name,
                    "grant_id": grant.grant_id, "use": grant.uses, "time": time,
                })
                return True
        return False

    def revoke(self, grant_id: int, time: float, reason: str) -> bool:
        for grant in self._grants:
            if grant.grant_id == grant_id and not grant.revoked:
                grant.revoked = True
                self._audit("breakglass.revoked", {
                    "grant_id": grant_id, "reason": reason, "time": time,
                })
                return True
        return False

    def grants_for(self, device_id: str) -> list[BreakGlassGrant]:
        return [grant for grant in self._grants if grant.device_id == device_id]

    def all_grants(self) -> list[BreakGlassGrant]:
        return list(self._grants)
