"""Cyber attacks: device compromise and worm-style conversion (paper sec IV).

"A system of devices can be subject to cyber-attacks, and an intruder may
be able to insert spyware or other types of malicious software in the
device.  A reprogrammed device may turn malevolent and convert other
devices into following the same behaviors."

:func:`compromise_device` is the reusable implant step: it injects
malevolent policies, disarms on-device controls it can reach, and attempts
to strip safeguards — the last failing when the guard chain is sealed by
``repro.safeguards.tamper`` (the tamper-proofness the paper requires).
:class:`WormAttack` seeds one or more devices and spreads over the network
topology, exactly the "convert other devices" behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.attacks.injector import Attack, AttackRecord
from repro.core.device import Device
from repro.core.policy import Policy
from repro.errors import TamperError
from repro.sim.simulator import Simulator
from repro.types import DeviceStatus, ThreatChannel


@dataclass
class MalevolentPayload:
    """What an implant installs on a victim.

    ``policies`` are injected into the victim's policy set (typically high
    priority rules proposing harmful actions).  ``disarm_detectors`` calls
    ``disarm()`` on any anomaly detectors registered in
    ``device.attributes["anomaly_detectors"]``.  ``strip_safeguards``
    attempts to empty the guard chain — the step tamper-proofing exists to
    stop.  ``on_compromise`` is an arbitrary extra step (scenarios use it
    to flip behaviour flags).
    """

    policies: list = field(default_factory=list)
    disarm_detectors: bool = True
    strip_safeguards: bool = True
    on_compromise: Optional[Callable[[Device], None]] = None


def compromise_device(device: Device, payload: MalevolentPayload,
                      time: float, sim: Optional[Simulator] = None) -> dict:
    """Apply a payload to a victim; returns a report of what succeeded.

    Safeguard stripping honours tamper-proofing: if the engine's guard
    chain is sealed (``repro.safeguards.tamper.seal_guard_chain``), the
    attempt raises internally and is reported as blocked.
    """
    report = {"policies_injected": 0, "detectors_disarmed": 0,
              "safeguards_stripped": False, "strip_blocked": False}
    span = None
    if sim is not None and sim.telemetry.enabled:
        # The compromise span hangs under the attack's root (the ambient
        # context when called from a worm) and is implanted device-wide —
        # NOT on the payload policies, which are shared objects reused
        # across every victim of the same worm.
        span = sim.telemetry.start_span(
            "attack.compromise", device.device_id, time,
            parent=sim.telemetry.active_context())
        device.trace_context = span.context
    device.status = DeviceStatus.COMPROMISED
    for policy in payload.policies:
        replaced: Policy = policy
        device.engine.policies.replace(replaced)
        if replaced.action.name not in device.engine.actions:
            device.engine.actions.add(replaced.action)
        report["policies_injected"] += 1
        if span is not None:
            sim.telemetry.start_span("policy.inject", device.device_id, time,
                                     parent=span.context,
                                     policy=replaced.policy_id)
    if payload.disarm_detectors:
        for detector in device.attributes.get("anomaly_detectors", []):
            detector.disarm()
            report["detectors_disarmed"] += 1
    if payload.strip_safeguards:
        try:
            _strip_safeguards(device)
            report["safeguards_stripped"] = True
        except TamperError:
            report["strip_blocked"] = True
    if payload.on_compromise is not None:
        payload.on_compromise(device)
    if sim is not None:
        sim.record("attack.compromise", device.device_id, **report)
        sim.metrics.counter("attacks.compromised").inc()
    if span is not None:
        span.detail.update(report)
    return report


def _strip_safeguards(device: Device) -> None:
    """Remove every safeguard from the engine — unless the chain is sealed."""
    guard_list = device.engine.safeguards
    seal = getattr(guard_list, "sealed", None)
    if seal:
        raise TamperError(
            f"guard chain of {device.device_id} is sealed; strip attempt blocked"
        )
    # Clear in place so aliased references observe the stripped chain.
    del guard_list[:]


class WormAttack(Attack):
    """Self-propagating compromise over the network topology.

    Seeds the payload on ``initial_targets``; every ``spread_interval``
    each still-active infected device tries to infect each reachable,
    uninfected, non-deactivated peer with probability ``spread_prob``.
    Deactivated devices neither spread nor can be infected — which is why
    the sec VI-C watchdog contains worms (experiment E3).
    """

    name = "worm"
    channel = ThreatChannel.CYBER_ATTACK

    def __init__(
        self,
        devices: dict,
        payload: MalevolentPayload,
        initial_targets: Sequence[str],
        topology,
        spread_prob: float = 0.3,
        spread_interval: float = 1.0,
        max_rounds: int = 1000,
    ):
        self.devices = devices          # device_id -> Device (live view)
        self.payload = payload
        self.initial_targets = list(initial_targets)
        self.topology = topology
        self.spread_prob = spread_prob
        self.spread_interval = spread_interval
        self.max_rounds = max_rounds
        self.infected: set = set()

    def launch(self, sim: Simulator, record: AttackRecord) -> None:
        # Stream name must be a pure function of sim-local facts (name +
        # launch time), never the process-global attack counter — otherwise
        # two identical scenarios in one process would draw differently.
        rng = sim.rng.stream(f"attacks/{record.name}/{record.launched_at}")
        for device_id in self.initial_targets:
            self._infect(device_id, sim, record)
        sim.every(self.spread_interval, self._spread_round, sim, record, rng,
                  label=f"worm:{record.attack_id}")

    def _infect(self, device_id: str, sim: Simulator, record: AttackRecord) -> None:
        device = self.devices.get(device_id)
        if device is None or device.status == DeviceStatus.DEACTIVATED:
            return
        if device_id in self.infected:
            return
        self.infected.add(device_id)
        compromise_device(device, self.payload, sim.now, sim)
        record.mark_affected(device_id, sim.now)

    def _spread_round(self, sim: Simulator, record: AttackRecord, rng) -> None:
        if self.max_rounds <= 0:
            return
        self.max_rounds -= 1
        # Snapshot: infections this round do not spread until next round.
        spreaders = [
            device_id for device_id in sorted(self.infected)
            if (device := self.devices.get(device_id)) is not None
            and device.status != DeviceStatus.DEACTIVATED
        ]
        for spreader in spreaders:
            for peer_id in sorted(self.devices):
                if peer_id in self.infected:
                    continue
                peer = self.devices[peer_id]
                if peer.status == DeviceStatus.DEACTIVATED:
                    continue
                if not self.topology.can_reach(spreader, peer_id):
                    continue
                if rng.chance(self.spread_prob):
                    self._infect(peer_id, sim, record)
