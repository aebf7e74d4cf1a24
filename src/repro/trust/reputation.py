"""Per-device reputation: autonomy scaled by earned trust (E22).

The paper's safeguards treat every device as equally trustworthy: a
vote, a join petition, and a gateway budget are identical whether the
device's audit history is spotless or riddled with vetoes.  This module
extends the sec VI-B trust idea from *sensors* to the *devices
themselves*: a :class:`ReputationLedger` folds audit outcomes (vetoes,
authorization rejects, alert involvement, cross-validation failures,
successful validations) into a deterministic per-device score with
configurable decay, and the control plane reads that score as

* a **quorum weight** — low-reputation ballots count fractionally in a
  reputation-armed :class:`~repro.safeguards.governance.BallotBox`;
* an **admission / budget scale** — the
  :class:`~repro.safeguards.collection.JoinDesk` and the
  :class:`~repro.safeguards.gateway.ActuationGateway` tighten as
  reputation drops;
* a **strictness band** — the :class:`ReputationAdjuster` proposes
  stricter per-device safeness thresholds and shorter quarantine fuses
  through the E20 :class:`~repro.telemetry.health.knobs.KnobArbiter`
  while a device sits in probation or suspicion.

Determinism is load-bearing: the score is a pure function of the
outcome sequence and their times — decay is applied lazily as
``baseline + (score - baseline) * (1 - decay)**dt`` at read time, so no
periodic task (whose cadence could differ across shard layouts) ever
touches the ledger.  Updates journal through (E18), so recovery
reproduces every weight a ballot or budget decision was made with.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import ConfigurationError

#: Default score delta per audit outcome.  Positive outcomes accrue
#: slowly; negative ones bite hard — reputation must be cheap to lose
#: and expensive to bank, or a slow-burn rogue could arbitrage it.
OUTCOME_WEIGHTS = {
    "validated": 0.02,        # successful validation / clean decision
    "alert": -0.08,           # named in a fired alert's evidence
    "veto": -0.12,            # a safeguard vetoed the device's action
    "crossval-fail": -0.15,   # cross-validation disagreed with peers
    "authz-reject": -0.18,    # authenticated command rejected at the gateway
    "quarantine": -0.25,      # watchdog/overseer containment
}

#: Reputation bands, from most to least trusted.
BANDS = ("trusted", "probation", "suspect")


class ReputationLedger:
    """Deterministic per-device reputation scores in ``[0, 1]``.

    ``decay`` pulls every score back toward ``baseline`` per unit of
    sim-time — grudges and halos both fade.  ``weight()`` maps a score
    onto a quorum/budget multiplier: full weight at or above
    ``full_weight_at``, linearly down to ``min_weight`` below it (never
    zero: a suspect device still counts *fractionally*, it is not
    silently disenfranchised).
    """

    def __init__(
        self,
        baseline: float = 0.5,
        decay: float = 0.02,
        weights: Optional[dict] = None,
        min_weight: float = 0.25,
        full_weight_at: float = 0.6,
        probation_at: float = 0.35,
        journal=None,
    ):
        if not 0.0 <= baseline <= 1.0:
            raise ConfigurationError("baseline must be in [0, 1]")
        if not 0.0 <= decay < 1.0:
            raise ConfigurationError("decay must be in [0, 1)")
        if not 0.0 < min_weight <= 1.0:
            raise ConfigurationError("min_weight must be in (0, 1]")
        if not 0.0 < full_weight_at <= 1.0:
            raise ConfigurationError("full_weight_at must be in (0, 1]")
        if not 0.0 <= probation_at <= full_weight_at:
            raise ConfigurationError(
                "probation_at must be in [0, full_weight_at]")
        self.baseline = baseline
        self.decay = decay
        self.weights = dict(OUTCOME_WEIGHTS if weights is None else weights)
        self.min_weight = min_weight
        self.full_weight_at = full_weight_at
        self.probation_at = probation_at
        self._journal = journal
        #: device_id -> (score at last update, time of last update)
        self._scores: dict[str, tuple] = {}
        #: outcome -> count, fleet-wide.
        self.outcomes: dict[str, int] = {}

    # -- reads -------------------------------------------------------------------

    def score(self, device_id: str, now: float) -> float:
        """The device's reputation at ``now`` (decay applied lazily)."""
        stored = self._scores.get(device_id)
        if stored is None:
            return self.baseline
        value, last = stored
        return self._decayed(value, last, now)

    def _decayed(self, value: float, last: float, now: float) -> float:
        dt = now - last
        if dt <= 0 or self.decay == 0.0:
            return value
        return self.baseline + (value - self.baseline) * (1.0 - self.decay) ** dt

    def weight(self, device_id: str, now: float) -> float:
        """Quorum/budget multiplier in ``[min_weight, 1]`` for the device."""
        score = self.score(device_id, now)
        if score >= self.full_weight_at:
            return 1.0
        return max(self.min_weight, score / self.full_weight_at)

    def band(self, device_id: str, now: float) -> str:
        """``trusted`` / ``probation`` / ``suspect`` strictness band."""
        score = self.score(device_id, now)
        if score >= self.full_weight_at:
            return "trusted"
        if score >= self.probation_at:
            return "probation"
        return "suspect"

    def known(self) -> list[str]:
        """Device ids with at least one recorded outcome, sorted."""
        return sorted(self._scores)

    def aggregate(self, device_ids, now: float) -> float:
        """Summed reputation of a group — the lease-grant eligibility
        signal: emergency powers require *aggregate* earned trust, not
        just a headcount."""
        return sum(self.score(device_id, now) for device_id in device_ids)

    # -- writes ------------------------------------------------------------------

    def record(self, device_id: str, outcome: str, now: float,
               scale: float = 1.0) -> float:
        """Fold one audit ``outcome`` for ``device_id`` in; returns the
        new score.  ``scale`` multiplies the outcome's configured delta
        (e.g. severity-weighted alert involvement)."""
        if outcome not in self.weights:
            raise ConfigurationError(
                f"unknown outcome {outcome!r}; expected one of "
                f"{sorted(self.weights)}")
        current = self.score(device_id, now)
        updated = min(1.0, max(0.0, current + self.weights[outcome] * scale))
        self._scores[device_id] = (updated, now)
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        if self._journal is not None:
            self._journal.append({
                "kind": "outcome", "device": device_id, "outcome": outcome,
                "time": now, "score": updated,
            })
        return updated

    # -- fleet views -------------------------------------------------------------

    def mean(self, now: float) -> Optional[float]:
        if not self._scores:
            return None
        return sum(self.score(d, now) for d in self._scores) / len(self._scores)

    def minimum(self, now: float) -> Optional[float]:
        if not self._scores:
            return None
        return min(self.score(d, now) for d in self._scores)

    def in_band(self, band: str, now: float) -> list[str]:
        if band not in BANDS:
            raise ConfigurationError(f"unknown band {band!r}")
        return [d for d in self.known() if self.band(d, now) == band]

    def snapshot(self, now: float) -> dict:
        return {device_id: self.score(device_id, now)
                for device_id in self.known()}

    # -- durability (E18) --------------------------------------------------------

    def crash_volatile(self) -> dict:
        """Crash semantics: scores live in process memory — without the
        journal a restart resets every device to the baseline, and
        recovered ballots would tally with the wrong weights."""
        lost = len(self._scores)
        self._scores = {}
        self.outcomes = {}
        return {"lost": lost, "kind": "reputation",
                "journaled": self._journal is not None}

    def recover(self) -> dict:
        """Replay outcome records: the last journaled score per device is
        exact (updates are journaled post-fold), so recovered weights are
        bit-identical to the pre-crash ledger's."""
        replayed = 0
        if self._journal is not None:
            for record in self._journal.replay():
                payload = record.payload
                if payload.get("kind") != "outcome":
                    continue
                self._scores[payload["device"]] = (
                    float(payload["score"]), float(payload["time"]))
                outcome = payload.get("outcome", "validated")
                self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
                replayed += 1
        return {"replayed": replayed}


class ReputationAdjuster:
    """Escalates guard strictness for low-reputation devices (E22).

    Wired like E20's :class:`~repro.telemetry.health.adaptive.AdaptiveQuarantine`
    — a closed loop from an observed signal to a safeguard knob — but
    *per device* and through the
    :class:`~repro.telemetry.health.knobs.KnobArbiter`, so it composes
    deterministically with fleet-wide adjusters tuning the same knobs:
    this adjuster's proposals carry :attr:`PRIORITY` 20 and outrank the
    storm-relaxation's 10, because a specific distrust signal must beat
    a general "the network is bad" relaxation (fail closed).

    Rules bind a knob-name template (``{device}`` substituted) to a
    per-band value function of the knob's base value::

        adjuster.add_rule(quarantine_knob, suspect=lambda base: max(1, base - 2))

    Each tick the adjuster walks the ledger's known devices in sorted
    order and proposes (or withdraws) accordingly — evaluation order is
    deterministic, and the arbiter span-attributes every effective
    change to its winning proposer.
    """

    #: Outranks AdaptiveQuarantine's storm relaxation (priority 10).
    PRIORITY = 20

    def __init__(self, sim, ledger: ReputationLedger, arbiter, monitor=None,
                 interval: float = 1.0, name: str = "reputation"):
        """Ticks on ``monitor`` (a
        :class:`~repro.telemetry.health.monitor.HealthMonitor`) when
        given — one sampling cadence for the whole health plane — or on
        its own ``sim.every(interval)`` task otherwise."""
        self.sim = sim
        self.ledger = ledger
        self.arbiter = arbiter
        self.name = name
        self._rules: list[tuple] = []
        self._proposed: dict[tuple, object] = {}
        if monitor is not None:
            monitor.subscribe(self._on_tick)
        else:
            sim.every(interval, self._tick, label="reputation:adjust")

    def add_rule(self, knob_for: Callable[[str], str],
                 probation: Optional[Callable] = None,
                 suspect: Optional[Callable] = None) -> None:
        """``knob_for(device_id)`` names the knob; ``probation`` /
        ``suspect`` map the knob's base value to the value proposed while
        the device sits in that band (``None`` = no proposal, i.e. the
        band inherits whatever lower-priority adjusters decide)."""
        self._rules.append((knob_for, {"probation": probation,
                                       "suspect": suspect}))

    def _on_tick(self, now: float, _readings: dict) -> None:
        self._tick(now)

    def _tick(self, now: Optional[float] = None) -> None:
        now = self.sim.now if now is None else now
        for device_id in self.ledger.known():
            band = self.ledger.band(device_id, now)
            for knob_for, by_band in self._rules:
                knob = knob_for(device_id)
                if not self.arbiter.has(knob):
                    continue
                value_fn = by_band.get(band)
                key = (knob,)
                if value_fn is None:
                    if key in self._proposed:
                        del self._proposed[key]
                        self.arbiter.withdraw(knob, self.name)
                    continue
                value = value_fn(self.arbiter.base(knob))
                if self._proposed.get(key) == value:
                    continue
                self._proposed[key] = value
                self.arbiter.propose(knob, self.name, self.PRIORITY, value,
                                     cause=f"band:{band}")
