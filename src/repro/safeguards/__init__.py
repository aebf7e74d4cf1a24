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
