"""Attack scheduling framework.

An :class:`Attack` is a reusable threat description; the
:class:`AttackInjector` launches attacks at scheduled simulated times and
keeps the ground-truth record (which devices were compromised when) that
experiments score detection and containment against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.errors import AttackError
from repro.sim.simulator import Simulator
from repro.types import ThreatChannel

class Attack:
    """Base class for injectable threats."""

    name = "attack"
    channel = ThreatChannel.CYBER_ATTACK

    def launch(self, sim: Simulator, record: "AttackRecord") -> None:
        """Begin the attack.  Implementations schedule their own follow-ups
        and append affected device ids to ``record``."""
        raise NotImplementedError


@dataclass
class AttackRecord:
    """Ground truth about one launched attack."""

    attack_id: int
    name: str
    channel: ThreatChannel
    launched_at: float
    #: device_id -> time of compromise/effect
    affected: dict = field(default_factory=dict)
    #: device_id -> time of containment (deactivation/repair)
    contained: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)

    def mark_affected(self, device_id: str, time: float) -> None:
        self.affected.setdefault(device_id, time)

    def mark_contained(self, device_id: str, time: float) -> None:
        if device_id in self.affected:
            self.contained.setdefault(device_id, time)

    def active_at(self, time: float) -> set:
        """Device ids compromised and not yet contained at ``time``."""
        return {
            device_id for device_id, start in self.affected.items()
            if start <= time and (device_id not in self.contained
                                  or self.contained[device_id] > time)
        }

    def containment_latency(self) -> list[float]:
        """Per-device time from compromise to containment (contained only)."""
        return [
            self.contained[device_id] - self.affected[device_id]
            for device_id in self.contained
        ]


class AttackInjector:
    """Schedules attacks and owns the ground-truth records."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.records: list[AttackRecord] = []
        # Per-injector ids: a process-global counter would make attack ids
        # (and thus traces) depend on how many simulations ran before this
        # one, breaking byte-identical replay.
        self._attack_ids = itertools.count(1)

    def launch_at(self, time: float, attack: Attack, **detail) -> AttackRecord:
        if time < self.sim.now:
            raise AttackError(f"cannot launch attack in the past at {time}")
        record = AttackRecord(
            attack_id=next(self._attack_ids),
            name=attack.name,
            channel=attack.channel,
            launched_at=time,
            detail=dict(detail),
        )
        self.records.append(record)
        self.sim.schedule_at(time, self._launch, attack, record,
                             label=f"attack:{attack.name}")
        return record

    def _launch(self, attack: Attack, record: AttackRecord) -> None:
        self.sim.record("attack.launch", attack.name, channel=attack.channel.value,
                        attack_id=record.attack_id)
        self.sim.metrics.counter("attacks.launched").inc()
        telemetry = self.sim.telemetry
        if not telemetry.enabled:
            attack.launch(self.sim, record)
            return
        # Every attack launch roots a fresh trace: the whole causal chain
        # (compromise → rogue decisions → safeguard response) hangs off it,
        # and the ground-truth record carries the trace id so experiments
        # can ask `explain(sim, record.detail["trace_id"])`.
        span = telemetry.start_trace(f"attack.{attack.name}", attack.name,
                                     self.sim.now, attack_id=record.attack_id,
                                     channel=attack.channel.value)
        record.detail["trace_id"] = span.context.trace_id
        previous = telemetry.activate(span.context)
        try:
            attack.launch(self.sim, record)
        finally:
            telemetry.activate(previous)

    # -- ground-truth queries -----------------------------------------------------

    def compromised_ever(self) -> set:
        out: set = set()
        for record in self.records:
            out |= set(record.affected)
        return out

    def compromised_at(self, time: float) -> set:
        out: set = set()
        for record in self.records:
            out |= record.active_at(time)
        return out
