"""Event-condition-action policies and policy sets (paper sec IV, V).

A :class:`Policy` fires when its event pattern matches and its condition
holds over the current state; it then proposes an action.  A
:class:`PolicySet` holds a device's policies, finds the applicable ones
for an event, resolves among them by priority, and detects conflicts
(distinct same-priority applicable policies driving the same actuator to
different actions).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core.actions import Action
from repro.core.conditions import Condition, TrueCondition, parse_condition
from repro.core.events import Event
from repro.errors import PolicyConflictError, PolicyError

_policy_seq = itertools.count(1)

#: Where a policy came from — the paper distinguishes human-written
#: ("manual"/"policy-based") from device-generated ("generative") and
#: learned policies; audits and governance reviews treat them differently.
POLICY_SOURCES = ("human", "generated", "learned", "shared", "builtin")


@dataclass(frozen=True)
class Policy:
    """One event-condition-action rule."""

    policy_id: str
    event_pattern: str
    condition: Condition
    action: Action
    priority: int = 0
    source: str = "human"
    author: str = ""
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.source not in POLICY_SOURCES:
            raise PolicyError(f"unknown policy source {self.source!r}")

    @staticmethod
    def make(
        event_pattern: str,
        condition: object,
        action: Action,
        *,
        priority: int = 0,
        source: str = "human",
        author: str = "",
        policy_id: Optional[str] = None,
        **metadata,
    ) -> "Policy":
        """Build a policy, parsing string conditions on the way in."""
        if isinstance(condition, str):
            condition = parse_condition(condition)
        elif condition is None:
            condition = TrueCondition()
        elif not isinstance(condition, Condition):
            raise PolicyError(f"condition must be str or Condition, got {condition!r}")
        return Policy(
            policy_id=policy_id or f"p{next(_policy_seq)}",
            event_pattern=event_pattern,
            condition=condition,
            action=action,
            priority=priority,
            source=source,
            author=author,
            metadata=dict(metadata),
        )

    def applies(self, event: Event, state: dict) -> bool:
        """True when the event matches and the condition holds."""
        return event.matches_kind(self.event_pattern) and self.condition.evaluate(
            state, event
        )

    def __repr__(self) -> str:
        return (
            f"Policy({self.policy_id}: on {self.event_pattern} "
            f"if {self.condition!r} do {self.action.name} prio={self.priority})"
        )


def _pattern_root(pattern: str) -> str:
    """The first dotted segment of an event pattern ("*" stays "*")."""
    if pattern == "*":
        return "*"
    return pattern.split(".", 1)[0]


class PolicySet:
    """A device's active policies with deterministic conflict resolution.

    Lookup is indexed by the event pattern's root segment: an event of
    kind ``"sensor.smoke"`` only scans policies rooted at ``sensor`` plus
    the wildcard bucket, so per-event cost scales with the *relevant*
    policies rather than the whole set (generative fleets accumulate
    thousands of peer-bound rules — see benchmark F2).
    """

    def __init__(self, policies: Iterable[Policy] = ()):
        self._policies: dict[str, Policy] = {}
        #: root segment -> {policy_id: insertion seq}
        self._by_root: dict[str, dict] = {}
        self._insert_seq = 0
        for policy in policies:
            self.add(policy)

    def __len__(self) -> int:
        return len(self._policies)

    def __contains__(self, policy_id: str) -> bool:
        return policy_id in self._policies

    def __iter__(self):
        return iter(self._policies.values())

    def _index(self, policy: Policy) -> None:
        bucket = self._by_root.setdefault(_pattern_root(policy.event_pattern), {})
        bucket[policy.policy_id] = self._insert_seq
        self._insert_seq += 1

    def _unindex(self, policy: Policy) -> None:
        bucket = self._by_root.get(_pattern_root(policy.event_pattern))
        if bucket is not None:
            bucket.pop(policy.policy_id, None)

    def add(self, policy: Policy) -> None:
        if policy.policy_id in self._policies:
            raise PolicyError(f"duplicate policy id {policy.policy_id!r}")
        self._policies[policy.policy_id] = policy
        self._index(policy)

    def remove(self, policy_id: str) -> Policy:
        try:
            policy = self._policies.pop(policy_id)
        except KeyError:
            raise PolicyError(f"no policy with id {policy_id!r}") from None
        self._unindex(policy)
        return policy

    def replace(self, policy: Policy) -> None:
        """Add or overwrite by id (used by governance-approved updates)."""
        existing = self._policies.get(policy.policy_id)
        if existing is not None:
            self._unindex(existing)
        self._policies[policy.policy_id] = policy
        self._index(policy)

    def get(self, policy_id: str) -> Policy:
        try:
            return self._policies[policy_id]
        except KeyError:
            raise PolicyError(f"no policy with id {policy_id!r}") from None

    def by_source(self, source: str) -> list[Policy]:
        return [p for p in self._policies.values() if p.source == source]

    def ordered(self) -> list[Policy]:
        """Every policy in resolution order: priority descending, then
        insertion sequence — the key :meth:`applicable` sorts its hits by,
        so the policies applicable to any event are an order-preserving
        subset of this list."""
        seq = {policy_id: n for bucket in self._by_root.values()
               for policy_id, n in bucket.items()}
        return sorted(self._policies.values(),
                      key=lambda p: (-p.priority, seq[p.policy_id]))

    def applicable(self, event: Event, state: dict) -> list[Policy]:
        """All policies that fire for this event+state, highest priority first.

        Within a priority level, insertion order is preserved, keeping
        resolution deterministic.  Only the event's root bucket and the
        wildcard bucket are scanned.
        """
        event_root = event.kind.split(".", 1)[0]
        policies = self._policies
        hits: list[tuple[int, Policy]] = []
        for root in (event_root, "*"):
            bucket = self._by_root.get(root)
            if bucket:
                for policy_id, seq in bucket.items():
                    policy = policies[policy_id]
                    if policy.applies(event, state):
                        hits.append((seq, policy))
        if len(hits) > 1:
            hits.sort(key=lambda item: (-item[1].priority, item[0]))
        return [policy for _seq, policy in hits]

    def select(self, event: Event, state: dict, *, strict: bool = False) -> Optional[Policy]:
        """The winning policy for this event+state (or ``None``).

        With ``strict=True`` a same-priority conflict on the same actuator
        raises :class:`PolicyConflictError`; otherwise the earliest-added
        wins (and callers may log the conflict).
        """
        hits = self.applicable(event, state)
        if not hits:
            return None
        winner = hits[0]
        if strict:
            for other in hits[1:]:
                if other.priority != winner.priority:
                    break
                if (
                    other.action.actuator == winner.action.actuator
                    and other.action.name != winner.action.name
                ):
                    raise PolicyConflictError(
                        f"policies {winner.policy_id} and {other.policy_id} conflict "
                        f"on actuator {winner.action.actuator!r} for event {event.kind}"
                    )
        return winner

    def find_conflicts(self) -> list[tuple[Policy, Policy]]:
        """Static pairwise conflict scan.

        Reports pairs with identical event pattern and priority whose
        actions drive the same actuator differently.  Condition overlap is
        undecidable in general; this is the conservative syntactic check
        used by the governance legislature before admitting generated
        policies.
        """
        conflicts = []
        policies = list(self._policies.values())
        for i, first in enumerate(policies):
            for second in policies[i + 1:]:
                if (
                    first.event_pattern == second.event_pattern
                    and first.priority == second.priority
                    and first.action.actuator == second.action.actuator
                    and first.action.actuator != ""
                    and first.action.name != second.action.name
                ):
                    conflicts.append((first, second))
        return conflicts

    def snapshot(self) -> list[str]:
        """Stable ids of the active policies (for audits/attestation)."""
        return sorted(self._policies)
