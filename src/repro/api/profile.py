"""The evaluation profile a control plane serves (E23).

A profile bundles everything one guarded decision needs: the declared
:class:`~repro.core.state.StateSpace`, the policy set, the action
library with safe alternatives, and the sec VI-B safeness classifier.
The vectorized ``/batch`` path states no decisions of its own: its
programs are compiled from the same policy set, in the engine's
resolution order (:meth:`~repro.core.policy.PolicySet.ordered`), so a
row picks the policy ``/evaluate`` would pick for that policy's event.
The service hosts one profile per process; :func:`default_profile`
builds a paper-flavoured patrol-drone profile so ``python -m repro.api``
answers real guarded decisions out of the box.

The default profile is deliberately adversary-shaped: ``engage`` sets a
bool (a constant the batch compiler resolves once, so every program of
the profile vectorizes and the per-response ``scalar_evals`` reads 0),
``vent_heat`` is the guard-suggested substitute when ``advance`` would
overheat, and the classifier's bad region is reachable from the default
state in two ``advance`` steps — `/evaluate` demonstrably vetoes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.actions import Action, ActionLibrary, Effect
from repro.core.device import Actuator, Device
from repro.core.policy import Policy, PolicySet
from repro.safeguards.batch import BatchPolicyEvaluator
from repro.safeguards.statespace import StateSpaceGuard
from repro.core.state import StateSpace, StateVariable
from repro.statespace.classifier import SafenessClassifier, ThresholdBand, ThresholdClassifier


@dataclass
class EvaluationProfile:
    """Everything the control plane needs to answer policy decisions."""

    name: str
    space: StateSpace
    policies: PolicySet
    actions: ActionLibrary
    classifier: SafenessClassifier
    initial_state: Optional[dict] = None

    def build_device(self, device_id: str = "api-device",
                     clock=None, tracer=None) -> Device:
        """A guarded device hosting this profile (one per control plane)."""
        device = Device(
            device_id, self.name, self.space,
            initial_state=dict(self.initial_state or {}),
            policies=self.policies, actions=self.actions,
            safeguards=[StateSpaceGuard(self.classifier)],
            clock=clock,
        )
        for name in sorted({self.actions.get(action_name).actuator
                            for action_name in self.actions.names()}):
            if name:
                device.add_actuator(Actuator(name))
        if tracer is not None:
            device.telemetry = tracer
        return device

    def build_batch_evaluator(self) -> BatchPolicyEvaluator:
        """A fresh vectorized evaluator compiled from this profile's policies."""
        return BatchPolicyEvaluator(self.space, self.policies.ordered(),
                                    classifier=self.classifier)


def default_profile() -> EvaluationProfile:
    """The built-in patrol-drone profile the service boots with."""
    space = StateSpace([
        StateVariable("speed", "float", 0.0, low=0.0, high=120.0),
        StateVariable("heat", "float", 20.0, low=0.0, high=200.0),
        StateVariable("battery", "float", 100.0, low=0.0, high=100.0),
        StateVariable("civilians_near", "int", 0, low=0, high=50),
        StateVariable("weapon_armed", "bool", False),
    ])

    advance = Action(
        "advance", actuator="drive", effects=(
            Effect("speed", "add", 25.0),
            Effect("heat", "add", 45.0),
            Effect("battery", "add", -5.0),
        ),
        tags={"mobility"}, description="push the patrol forward",
    )
    vent_heat = Action(
        "vent_heat", actuator="cooling", effects=(
            Effect("heat", "add", -40.0),
            Effect("speed", "set", 0.0),
        ),
        tags={"thermal"}, description="stop and dump heat",
    )
    engage = Action(
        "engage", actuator="weapon",
        effects=(Effect("weapon_armed", "set", True),),
        tags={"kinetic"}, reversible=False, description="arm the weapon",
    )
    hold = Action("hold", description="refuse to act (explicit safe no-op)")
    actions = ActionLibrary([advance, vent_heat, engage, hold])

    # Venting is listed first: among the equal-priority policies, /batch
    # (which has no event to narrow them) tries it before moving or
    # engaging.
    policies = PolicySet([
        Policy.make("sensor.overheat", "heat > 110", vent_heat,
                    priority=10, source="human", author="operator",
                    policy_id="vent-on-overheat"),
        Policy.make("mgmt.command.move", "battery > 10", advance,
                    priority=10, source="human", author="operator",
                    policy_id="move-when-charged"),
        Policy.make("mgmt.command.move", None, hold, priority=1,
                    source="human", author="operator",
                    policy_id="hold-when-drained"),
        Policy.make("sensor.threat", "civilians_near == 0", engage,
                    priority=10, source="human", author="operator",
                    policy_id="engage-when-clear"),
        Policy.make("sensor.threat", None, hold, priority=1,
                    source="human", author="operator",
                    policy_id="hold-near-civilians"),
    ])

    classifier = ThresholdClassifier([
        ThresholdBand("heat", safe_high=110.0, hard_high=150.0),
        ThresholdBand("battery", safe_low=15.0, hard_low=5.0),
    ])

    return EvaluationProfile(
        name="patrol-drone", space=space, policies=policies, actions=actions,
        classifier=classifier, initial_state={},
    )
