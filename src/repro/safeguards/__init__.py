"""The paper's Skynet-prevention mechanisms (sec VI A-E and sec VII).

Each module implements one mechanism as a :class:`~repro.core.engine.Safeguard`
(or fleet-level service) wired into device engines:

* ``preaction`` — VI-A pre-action harm checks (+ obligations for indirect harm)
* ``statespace`` — VI-B never-enter-a-bad-state guard with preference
  ontology, risk estimation, and break-glass escalation
* ``deactivation`` — VI-C tamper-proof watchdog that kills devices in bad states
* ``collection`` — VI-D checks on collection formation and collaborative
  aggregate-state assessment
* ``governance`` — VI-E three mutually-checking collectives (2-of-3)
* ``utility`` — VII partial-derivative (pleasure/pain) utility functions
* ``tamper`` — the tamper-proofing primitive the paper assumes throughout
* ``gateway`` — E21 replay-proof actuation gateway (verify-then-execute
  in front of device actuators, with budgets/cooldowns/global freeze)
"""

from repro.safeguards.batch import BatchPolicyEvaluator, compile_condition
from repro.safeguards.crossvalidation import CrossValidationGuard
from repro.safeguards.collection import (
    AggregateConstraint,
    CollectionGuard,
    CollectiveStateAssessment,
    HumanCheckModel,
    JoinClient,
    JoinDesk,
    OfflineAnalyzer,
)
from repro.safeguards.deactivation import OverseerLink, Watchdog, WatchdogReport
from repro.safeguards.gateway import ActuationGateway, AuthzDecision
from repro.safeguards.lease import EmergencyLease, LeaseAuthority
from repro.safeguards.governance import (
    Ballot,
    BallotBox,
    BallotMember,
    Collective,
    GovernanceGuard,
    GovernanceSystem,
    MetaPolicy,
    policy_digest,
)
from repro.safeguards.preaction import CallableHarmModel, HarmModel, PreActionCheck
from repro.safeguards.statespace import StateSpaceGuard
from repro.safeguards.tamper import SealedChain, attest_device, seal_guard_chain
from repro.safeguards.utility import PartialDerivativeUtility, UtilityGuard

__all__ = [
    "ActuationGateway",
    "BatchPolicyEvaluator",
    "AggregateConstraint",
    "AuthzDecision",
    "Ballot",
    "BallotBox",
    "BallotMember",
    "CallableHarmModel",
    "Collective",
    "CollectionGuard",
    "CollectiveStateAssessment",
    "CrossValidationGuard",
    "EmergencyLease",
    "LeaseAuthority",
    "GovernanceGuard",
    "GovernanceSystem",
    "HarmModel",
    "HumanCheckModel",
    "JoinClient",
    "JoinDesk",
    "MetaPolicy",
    "OverseerLink",
    "OfflineAnalyzer",
    "PartialDerivativeUtility",
    "PreActionCheck",
    "SealedChain",
    "StateSpaceGuard",
    "UtilityGuard",
    "Watchdog",
    "WatchdogReport",
    "attest_device",
    "compile_condition",
    "policy_digest",
    "seal_guard_chain",
]
