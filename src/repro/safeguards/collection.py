"""Checks on collection formation (paper sec VI-D).

"the combination of many innocuous devices could become a dangerous
device... components within an electronic device may each be operating
within regions where the heat that they generate is acceptable... but the
cumulative amount of heat generated may exceed the safety limits."

Three cooperating pieces:

* :class:`OfflineAnalyzer` — the "another machine which remains offline
  and disconnected from other machines" assisting the human check.  It has
  no network interface; it receives only state snapshots and evaluates
  aggregate constraints over the proposed membership.
* :class:`HumanCheckModel` — the rate-limited human in the loop at every
  join/leave, with a configurable error rate (sec IV human error).
* :class:`CollectiveStateAssessment` — "collaborative state assessment
  techniques by which a group of devices would jointly determine whether a
  set of actions... could lead to some aggregate bad states, even though
  each device would still be in good state."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from repro.core.device import Device
from repro.errors import ConfigurationError
from repro.net.message import Message
from repro.sim.rng import SeededRNG

#: Topics of the remote join protocol (sec VI-D over the wire).
JOIN_TOPIC = "collection.join"
VERDICT_TOPIC = "collection.join.verdict"

_REDUCERS = {
    "sum": sum,
    "max": lambda values: max(values) if values else 0.0,
    "mean": lambda values: (sum(values) / len(values)) if values else 0.0,
    "count": len,
}


@dataclass(frozen=True)
class AggregateConstraint:
    """A fleet-level safety limit over a state variable.

    ``reducer`` folds the member values (``sum``/``max``/``mean``/``count``);
    the aggregate must stay ≤ ``limit``.  The paper's heat example is
    ``AggregateConstraint("heat", "heat_output", "sum", 100.0)``.
    """

    name: str
    variable: str
    reducer: str
    limit: float

    def __post_init__(self):
        if self.reducer not in _REDUCERS:
            raise ConfigurationError(f"unknown reducer {self.reducer!r}")

    def evaluate(self, vectors: Sequence[dict]) -> float:
        values = [
            float(vector[self.variable]) for vector in vectors
            if self.variable in vector
            and isinstance(vector[self.variable], (int, float))
            and not isinstance(vector[self.variable], bool)
        ]
        if self.reducer == "count":
            return float(len(values))
        return float(_REDUCERS[self.reducer](values))

    def violated_by(self, vectors: Sequence[dict]) -> bool:
        return self.evaluate(vectors) > self.limit

    def headroom(self, vectors: Sequence[dict]) -> float:
        return self.limit - self.evaluate(vectors)


class OfflineAnalyzer:
    """The disconnected analysis machine assisting the human check.

    By construction it has no reference to the network or simulator: it is
    handed plain snapshots and worst-case bounds and answers whether the
    proposed collection can violate any aggregate constraint.
    """

    def __init__(self, constraints: Iterable[AggregateConstraint]):
        self.constraints = list(constraints)
        self.analyses = 0

    def analyze(self, member_snapshots: Sequence[dict],
                candidate_snapshot: Optional[dict] = None,
                worst_case: bool = False) -> dict:
        """Evaluate the (proposed) collection against every constraint.

        ``worst_case=True`` substitutes each member's declared per-variable
        maximum (``<variable>_max`` key in the snapshot when present) for
        its current value — the situational analysis of what the
        collection *could* do, not just what it is doing now.
        """
        self.analyses += 1
        vectors = list(member_snapshots)
        if candidate_snapshot is not None:
            vectors = vectors + [candidate_snapshot]
        if worst_case:
            vectors = [self._worst(vector) for vector in vectors]
        violations = []
        report = {}
        for constraint in self.constraints:
            value = constraint.evaluate(vectors)
            report[constraint.name] = {"value": value, "limit": constraint.limit}
            if value > constraint.limit:
                violations.append(constraint.name)
        return {"safe": not violations, "violations": violations,
                "constraints": report, "members": len(vectors)}

    @staticmethod
    def _worst(vector: dict) -> dict:
        worst = dict(vector)
        for key, value in vector.items():
            if key.endswith("_max") and isinstance(value, (int, float)):
                base = key[: -len("_max")]
                if base in worst:
                    worst[base] = value
        return worst


class HumanCheckModel:
    """The human approving each collection change (sec VI-D).

    Rate-limited (a human can only review so fast) and fallible: with
    probability ``error_rate`` the human approves against the analyzer's
    advice or rejects a safe join.  Decisions outside the rate limit queue
    conceptually; here they simply fail closed (reject) and are counted,
    modelling review backlog as unavailability.
    """

    def __init__(self, rng: SeededRNG, error_rate: float = 0.0,
                 min_interval: float = 0.0):
        if not 0.0 <= error_rate <= 1.0:
            raise ConfigurationError("error_rate must be in [0, 1]")
        self._rng = rng
        self.error_rate = error_rate
        self.min_interval = min_interval
        self._last_review: Optional[float] = None
        self.reviews = 0
        self.errors = 0
        self.rate_limited = 0

    def review(self, analysis: dict, time: float) -> bool:
        """Approve or reject a membership change given the analyzer output."""
        if (self._last_review is not None and self.min_interval > 0
                and time - self._last_review < self.min_interval):
            self.rate_limited += 1
            return False
        self._last_review = time
        self.reviews += 1
        correct = bool(analysis["safe"])
        if self._rng.chance(self.error_rate):
            self.errors += 1
            return not correct
        return correct


class CollectionGuard:
    """Gatekeeper for joining/leaving a device collection (sec VI-D)."""

    def __init__(
        self,
        analyzer: OfflineAnalyzer,
        human: Optional[HumanCheckModel] = None,
        worst_case: bool = True,
        audit_sink: Optional[Callable[[str, dict], None]] = None,
    ):
        self.analyzer = analyzer
        self.human = human
        self.worst_case = worst_case
        self._audit = audit_sink or (lambda kind, detail: None)
        self.members: dict[str, Device] = {}
        self.remote_members: dict[str, dict] = {}   # device_id -> snapshot
        self.rejections = 0

    def request_join(self, device: Device, time: float) -> bool:
        """Run the analyzer (+ human check) for a candidate; admit or refuse."""
        analysis = self.analyzer.analyze(
            self._member_snapshots(), device.state.snapshot(),
            worst_case=self.worst_case,
        )
        approved = analysis["safe"]
        if self.human is not None:
            approved = self.human.review(analysis, time)
        self._audit("collection.join_review", {
            "device": device.device_id, "time": time,
            "approved": approved, "analysis": analysis,
        })
        if not approved:
            self.rejections += 1
            return False
        self.members[device.device_id] = device
        return True

    def review_snapshot(self, device_id: str, snapshot: dict,
                        time: float) -> bool:
        """Review a join request that arrived as a state snapshot (a
        remote candidate the guard holds no object reference for).
        Admitted snapshots join the aggregate baseline for later reviews."""
        analysis = self.analyzer.analyze(
            self._member_snapshots(), dict(snapshot),
            worst_case=self.worst_case,
        )
        approved = analysis["safe"]
        if self.human is not None:
            approved = self.human.review(analysis, time)
        self._audit("collection.join_review", {
            "device": device_id, "time": time,
            "approved": approved, "analysis": analysis,
        })
        if not approved:
            self.rejections += 1
            return False
        self.remote_members[device_id] = dict(snapshot)
        return True

    def force_join(self, device: Device) -> None:
        """Admit without review (the unguarded baseline)."""
        self.members[device.device_id] = device

    def leave(self, device_id: str, time: float) -> None:
        self.members.pop(device_id, None)
        self.remote_members.pop(device_id, None)
        self._audit("collection.leave", {"device": device_id, "time": time})

    def _member_snapshots(self) -> list[dict]:
        return ([member.state.snapshot() for member in self.members.values()]
                + list(self.remote_members.values()))


class CollectiveStateAssessment:
    """Joint pre-commit check of a *set* of planned actions (sec VI-D).

    Each device proposes an action; the assessment applies every proposed
    action's declared effects to its proposer's snapshot and evaluates the
    aggregate constraints over the predicted vectors.  If any constraint
    would be violated, the assessment returns the largest subset of
    proposals (greedily, in deterministic device order) that keeps every
    aggregate within limits — devices whose proposals are deferred simply
    do not act this round.
    """

    def __init__(self, constraints: Iterable[AggregateConstraint]):
        self.constraints = list(constraints)
        self.assessments = 0
        self.deferrals = 0

    def assess(self, proposals: dict) -> dict:
        """``proposals``: device_id -> (Device, Action).  Returns
        {"approved": [ids], "deferred": [ids], "violations": [names]}."""
        self.assessments += 1
        ordered = sorted(proposals)
        predicted: dict[str, dict] = {}
        baseline: dict[str, dict] = {}
        for device_id in ordered:
            device, action = proposals[device_id]
            current = device.state.snapshot()
            baseline[device_id] = current
            changes = action.predicted_changes(current)
            after = dict(current)
            after.update(changes)
            predicted[device_id] = after

        all_after = [predicted[device_id] for device_id in ordered]
        violations = [
            constraint.name for constraint in self.constraints
            if constraint.violated_by(all_after)
        ]
        if not violations:
            return {"approved": ordered, "deferred": [], "violations": []}

        # Greedy admission: add proposals one at a time, keeping the rest
        # at their current (pre-action) vectors.
        approved: list[str] = []
        for device_id in ordered:
            trial = [
                predicted[other] if (other in approved or other == device_id)
                else baseline[other]
                for other in ordered
            ]
            if not any(constraint.violated_by(trial) for constraint in self.constraints):
                approved.append(device_id)
        deferred = [device_id for device_id in ordered if device_id not in approved]
        self.deferrals += len(deferred)
        return {"approved": approved, "deferred": deferred,
                "violations": violations}


class JoinDesk:
    """Network front desk for a :class:`CollectionGuard` (sec VI-D).

    Devices petition to join over the wire; the desk runs the analyzer
    (+ human check) on the snapshot they sent and replies with a verdict.
    Pair with :class:`JoinClient` on the device side; put safety-critical
    desks on a :class:`~repro.net.reliable.ReliableChannel`.
    """

    def __init__(self, sim, transport, guard: CollectionGuard,
                 address: str = "collection-desk", signer=None,
                 reputation=None, min_reputation: float = 0.35):
        """``signer`` (a :class:`~repro.crypto.envelope.CommandSigner`)
        signs each verdict into a command envelope, so a verifying
        :class:`JoinClient` cannot be admitted by a forged or replayed
        approval (E21).

        ``reputation`` (a :class:`~repro.trust.reputation.ReputationLedger`)
        tightens admission as trust drops (E22): a petitioner whose score
        sits below ``min_reputation`` is refused before the analyzer even
        runs — a device that vetoes, trips the gateway, or fails
        cross-validation argues its way out of new collections."""
        self.sim = sim
        self.transport = transport
        self.guard = guard
        self.address = address
        self.signer = signer
        self.reputation = reputation
        self.min_reputation = min_reputation
        self.requests_handled = 0
        self.reputation_rejects = 0
        transport.register(address, self._on_message)

    def _on_message(self, message: Message) -> None:
        if message.topic != JOIN_TOPIC:
            return
        body = message.body
        device_id = body.get("device_id")
        reply_to = body.get("reply_to")
        if device_id is None or reply_to is None:
            return
        self.requests_handled += 1
        if (self.reputation is not None
                and self.reputation.score(device_id, self.sim.now)
                < self.min_reputation):
            self.reputation_rejects += 1
            self.sim.metrics.counter("collection.reputation_rejects").inc()
            self.sim.record("collection.reputation_reject", device_id,
                            score=self.reputation.score(device_id, self.sim.now),
                            floor=self.min_reputation)
            approved = False
        else:
            approved = self.guard.review_snapshot(
                device_id, body.get("snapshot", {}), self.sim.now
            )
        verdict = {"device_id": device_id, "approved": approved}
        if self.signer is not None:
            verdict = self.signer.sign(verdict, tick=self.sim.now)
        self.transport.send(self.address, reply_to, VERDICT_TOPIC, verdict)


class JoinClient:
    """Device-side remote join that **fails closed**.

    A device may only consider itself admitted on an explicit approve
    verdict.  No verdict — a dead-lettered request over reliable
    transport, or the deadline passing over datagrams — resolves to *not
    joined* (``collection.fail_closed`` metric), never to membership by
    default.
    """

    def __init__(self, sim, device: Device, transport,
                 desk: str = "collection-desk", timeout: float = 5.0,
                 verifier=None):
        """``verifier`` (an :class:`~repro.crypto.envelope.EnvelopeVerifier`)
        requires verdicts to arrive as valid signed envelopes naming this
        device.  A forged, replayed, or re-addressed approval is ignored
        — and since the client fails closed, ignoring it means *not
        joined* when no genuine verdict follows (E21)."""
        self.sim = sim
        self.device = device
        self.transport = transport
        self.desk = desk
        self.timeout = timeout
        self.verifier = verifier
        self.address = f"{device.device_id}.join"
        #: ``None`` while undecided, then the final verdict.
        self.joined: Optional[bool] = None
        self.outcome: Optional[str] = None   # "verdict" | "dead_letter" | "timeout"
        self._reliable = bool(getattr(transport, "reliable", False))
        transport.register(self.address, self._on_message)

    def request_join(
        self, on_result: Optional[Callable[[bool, str], None]] = None
    ) -> None:
        """Petition the desk; ``on_result(joined, outcome)`` fires once."""
        self.joined = None
        self.outcome = None
        self._on_result = on_result
        body = {
            "device_id": self.device.device_id,
            "snapshot": self.device.state.snapshot(),
            "reply_to": self.address,
        }
        if self._reliable:
            self.transport.send(
                self.address, self.desk, JOIN_TOPIC, body,
                on_fail=lambda pending: self._decide(False, "dead_letter"),
            )
        else:
            self.transport.send(self.address, self.desk, JOIN_TOPIC, body)
        self.sim.schedule(self.timeout, self._deadline,
                          label=f"{self.device.device_id}:join-deadline")

    def _deadline(self) -> None:
        if self.joined is None:
            self._decide(False, "timeout")

    def _on_message(self, message: Message) -> None:
        if message.topic != VERDICT_TOPIC or self.joined is not None:
            return
        body = message.body
        if self.verifier is not None:
            ok, reason = self.verifier.consume(body, self.sim.now)
            if ok and body.get("device_id") != self.device.device_id:
                # Target binding: an approval signed for another device
                # (captured and re-addressed) does not admit this one.
                ok, reason = False, "target-mismatch"
            if not ok:
                self.sim.metrics.counter("collection.verdicts_rejected").inc()
                self.sim.record("collection.verdict_rejected",
                                self.device.device_id, reason=reason)
                return
        self._decide(bool(body.get("approved")), "verdict")

    def _decide(self, joined: bool, outcome: str) -> None:
        if self.joined is not None:
            return
        self.joined = joined
        self.outcome = outcome
        if outcome != "verdict":
            self.sim.metrics.counter("collection.fail_closed").inc()
        self.sim.record("collection.join_result", self.device.device_id,
                        joined=joined, outcome=outcome)
        if self._on_result is not None:
            self._on_result(joined, outcome)
