"""The simulated physical world.

The paper's sec III "Physical Aspect": "In order to cause damage to the
humans, the Skynet system must have a physical component".  The
:class:`World` holds positions of humans and hazards on a 2D field,
advances humans on random walks, detects hazard encounters, and records
every :class:`HarmEvent` — the ground-truth harm accounting all
experiments report.

The dig-a-hole story of sec VI-A maps directly: a digging action adds a
:class:`Hazard`; a human later walking within its radius is harmed
*indirectly*; a posted warning (obligation remedy) mitigates the hazard so
humans avoid it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigurationError
from repro.safeguards.preaction import HarmModel
from repro.sim.simulator import Simulator
from repro.types import HarmKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.actions import Action
    from repro.core.device import Device

_hazard_ids = itertools.count(1)


@dataclass
class Human:
    """A human in the field (civilian or war-fighter)."""

    human_id: str
    x: float
    y: float
    friendly: bool = True
    speed: float = 1.0
    alive: bool = True
    injured: bool = False


@dataclass
class Hazard:
    """A physical hazard left in the world (hole, spill, unexploded charge)."""

    kind: str
    x: float
    y: float
    radius: float
    created_by: str
    created_at: float
    hazard_id: int = field(default_factory=lambda: next(_hazard_ids))
    mitigated: bool = False     # warning posted / fenced off
    removed: bool = False       # filled in / cleaned up
    harmed: set = field(default_factory=set)   # humans already hurt by it

    @property
    def dangerous(self) -> bool:
        return not (self.mitigated or self.removed)


@dataclass(frozen=True)
class HarmEvent:
    """Ground truth: a human was harmed."""

    time: float
    human_id: str
    kind: HarmKind
    cause: str
    device_id: str


_convoy_ids = itertools.count(1)


@dataclass
class Convoy:
    """A suspect convoy crossing the field (paper sec II: "if it sees a
    suspect convoy, it may call upon a ground mule to intercept the convoy
    along the path")."""

    x: float
    y: float
    target_x: float
    target_y: float
    speed: float = 2.0
    convoy_id: int = field(default_factory=lambda: next(_convoy_ids))
    intercepted_by: Optional[str] = None
    escaped: bool = False

    @property
    def active(self) -> bool:
        return self.intercepted_by is None and not self.escaped


def _distance(x1: float, y1: float, x2: float, y2: float) -> float:
    return math.hypot(x1 - x2, y1 - y2)


class World:
    """2D field with humans, hazards, and harm accounting."""

    def __init__(self, sim: Simulator, width: float = 100.0, height: float = 100.0,
                 step_interval: float = 1.0):
        if width <= 0 or height <= 0:
            raise ConfigurationError("world dimensions must be positive")
        self.sim = sim
        self.width = width
        self.height = height
        self.humans: dict[str, Human] = {}
        self.hazards: list[Hazard] = []
        self.harm_events: list[HarmEvent] = []
        self.convoys: list[Convoy] = []
        self._rng = sim.rng.stream("world")
        self._task = sim.every(step_interval, self._step, label="world-step")

    # -- population -------------------------------------------------------------

    def add_human(self, human_id: str, x: float, y: float, *,
                  friendly: bool = True, speed: float = 1.0) -> Human:
        if human_id in self.humans:
            raise ConfigurationError(f"duplicate human {human_id!r}")
        human = Human(human_id=human_id, x=self._clamp_x(x), y=self._clamp_y(y),
                      friendly=friendly, speed=speed)
        self.humans[human_id] = human
        return human

    def scatter_humans(self, count: int, prefix: str = "civ", *,
                       friendly: bool = True, speed: float = 1.0) -> list[Human]:
        return [
            self.add_human(
                f"{prefix}{index}",
                self._rng.uniform(0, self.width),
                self._rng.uniform(0, self.height),
                friendly=friendly, speed=speed,
            )
            for index in range(count)
        ]

    # -- hazards -----------------------------------------------------------------

    def add_hazard(self, kind: str, x: float, y: float, radius: float,
                   created_by: str) -> Hazard:
        hazard = Hazard(kind=kind, x=self._clamp_x(x), y=self._clamp_y(y),
                        radius=radius, created_by=created_by,
                        created_at=self.sim.now)
        self.hazards.append(hazard)
        self.sim.record("world.hazard", created_by, hazard_kind=kind, x=x, y=y)
        return hazard

    def mitigate_hazard(self, hazard_id: int) -> bool:
        """Post a warning: humans will avoid the hazard from now on."""
        for hazard in self.hazards:
            if hazard.hazard_id == hazard_id and not hazard.removed:
                hazard.mitigated = True
                self.sim.record("world.hazard_mitigated", hazard.created_by,
                                hazard_id=hazard_id)
                return True
        return False

    def mitigate_hazards_by(self, device_id: str) -> int:
        """Mitigate every open hazard a device created (obligation remedy)."""
        count = 0
        for hazard in self.hazards:
            if hazard.created_by == device_id and hazard.dangerous:
                hazard.mitigated = True
                count += 1
        if count:
            self.sim.record("world.hazard_mitigated", device_id, count=count)
        return count

    def remove_hazard(self, hazard_id: int) -> bool:
        for hazard in self.hazards:
            if hazard.hazard_id == hazard_id:
                hazard.removed = True
                return True
        return False

    def open_hazards(self) -> list[Hazard]:
        return [hazard for hazard in self.hazards if hazard.dangerous]

    # -- convoys ---------------------------------------------------------------------

    def add_convoy(self, x: float, y: float, target_x: float, target_y: float,
                   speed: float = 2.0) -> Convoy:
        convoy = Convoy(x=self._clamp_x(x), y=self._clamp_y(y),
                        target_x=self._clamp_x(target_x),
                        target_y=self._clamp_y(target_y), speed=speed)
        self.convoys.append(convoy)
        self.sim.record("world.convoy", f"convoy{convoy.convoy_id}",
                        x=x, y=y)
        return convoy

    def active_convoys(self) -> list[Convoy]:
        return [convoy for convoy in self.convoys if convoy.active]

    def nearest_active_convoy(self, x: float, y: float) -> Optional[Convoy]:
        candidates = self.active_convoys()
        if not candidates:
            return None
        return min(candidates,
                   key=lambda convoy: (_distance(convoy.x, convoy.y, x, y),
                                       convoy.convoy_id))

    def intercept_convoy(self, convoy_id: int, by: str) -> bool:
        """Mark a convoy intercepted (mule within capture range)."""
        for convoy in self.convoys:
            if convoy.convoy_id == convoy_id and convoy.active:
                convoy.intercepted_by = by
                self.sim.metrics.counter("world.convoys_intercepted").inc()
                self.sim.record("world.convoy_intercepted", by,
                                convoy=convoy_id)
                return True
        return False

    def convoys_intercepted(self) -> int:
        return sum(1 for convoy in self.convoys
                   if convoy.intercepted_by is not None)

    def convoys_escaped(self) -> int:
        return sum(1 for convoy in self.convoys if convoy.escaped)

    # -- queries ---------------------------------------------------------------------

    def humans_near(self, x: float, y: float, radius: float,
                    friendly_only: bool = False) -> list[Human]:
        return [
            human for human in self.humans.values()
            if human.alive
            and (_distance(human.x, human.y, x, y) <= radius)
            and (human.friendly or not friendly_only)
        ]

    def harm_count(self, kind: Optional[HarmKind] = None) -> int:
        if kind is None:
            return len(self.harm_events)
        return sum(1 for event in self.harm_events if event.kind == kind)

    # -- harm ------------------------------------------------------------------------

    def harm_human(self, human_id: str, kind: HarmKind, cause: str,
                   device_id: str) -> Optional[HarmEvent]:
        human = self.humans.get(human_id)
        if human is None or not human.alive:
            return None
        human.injured = True
        event = HarmEvent(time=self.sim.now, human_id=human_id, kind=kind,
                          cause=cause, device_id=device_id)
        self.harm_events.append(event)
        self.sim.metrics.counter("world.harm").inc()
        self.sim.metrics.counter(f"world.harm.{kind.value}").inc()
        self.sim.record("world.harm", device_id, human=human_id,
                        harm_kind=kind.value, cause=cause)
        return event

    def harm_humans_near(self, x: float, y: float, radius: float,
                         cause: str, device_id: str,
                         kind: HarmKind = HarmKind.DIRECT) -> int:
        """Direct-harm helper for kinetic actuators; returns humans harmed."""
        harmed = 0
        for human in self.humans_near(x, y, radius):
            if self.harm_human(human.human_id, kind, cause, device_id):
                harmed += 1
        return harmed

    # -- dynamics -------------------------------------------------------------------

    def _step(self) -> None:
        for human_id in sorted(self.humans):
            human = self.humans[human_id]
            if not human.alive:
                continue
            angle = self._rng.uniform(0.0, 2 * math.pi)
            human.x = self._clamp_x(human.x + human.speed * math.cos(angle))
            human.y = self._clamp_y(human.y + human.speed * math.sin(angle))
            self._check_hazards(human)
        for convoy in self.convoys:
            if not convoy.active:
                continue
            dx = convoy.target_x - convoy.x
            dy = convoy.target_y - convoy.y
            dist = math.hypot(dx, dy)
            if dist <= convoy.speed:
                convoy.x, convoy.y = convoy.target_x, convoy.target_y
                convoy.escaped = True
                self.sim.metrics.counter("world.convoys_escaped").inc()
                self.sim.record("world.convoy_escaped",
                                f"convoy{convoy.convoy_id}")
            else:
                convoy.x = self._clamp_x(convoy.x + dx / dist * convoy.speed)
                convoy.y = self._clamp_y(convoy.y + dy / dist * convoy.speed)

    def _check_hazards(self, human: Human) -> None:
        for hazard in self.hazards:
            if not hazard.dangerous or human.human_id in hazard.harmed:
                continue
            if _distance(human.x, human.y, hazard.x, hazard.y) <= hazard.radius:
                hazard.harmed.add(human.human_id)
                self.harm_human(
                    human.human_id, HarmKind.INDIRECT,
                    cause=f"hazard:{hazard.kind}", device_id=hazard.created_by,
                )

    def _clamp_x(self, x: float) -> float:
        return min(self.width, max(0.0, x))

    def _clamp_y(self, y: float) -> float:
        return min(self.height, max(0.0, y))


class WorldHarmModel(HarmModel):
    """A device's harm prediction backed by (partial) world observation.

    ``sensor_range`` bounds what the device can anticipate: the pre-action
    check only sees humans currently within range of the device's
    position — which is precisely how the paper's dig-a-hole indirect harm
    escapes it ("the machine does not anticipate a human to come on the
    path").  ``omniscient=True`` removes the bound, the idealized upper
    baseline in E1.
    """

    #: Action tags considered directly harmful when humans are in range.
    DIRECT_TAGS = frozenset({"kinetic", "harm_human", "crush"})
    #: Action tags that leave a hazard behind.
    HAZARD_TAGS = frozenset({"digging", "chemical", "incendiary"})

    def __init__(self, world: World, sensor_range: float = 15.0,
                 effect_radius: float = 5.0, omniscient: bool = False):
        self.world = world
        self.sensor_range = sensor_range
        self.effect_radius = effect_radius
        self.omniscient = omniscient

    def _device_position(self, device: "Device") -> tuple:
        return (float(device.state.get("x")), float(device.state.get("y")))

    def predict_direct_harm(self, device: "Device", action: "Action",
                            time: float) -> Optional[str]:
        if not (action.tags & self.DIRECT_TAGS):
            return None
        x, y = self._device_position(device)
        radius = (self.effect_radius if self.omniscient
                  else min(self.effect_radius, self.sensor_range))
        victims = self.world.humans_near(x, y, radius)
        if victims:
            return (f"{len(victims)} human(s) within {radius:.0f}m of "
                    f"{action.name!r}")
        return None

    def predict_hazard(self, device: "Device", action: "Action",
                       time: float) -> Optional[str]:
        if not (action.tags & self.HAZARD_TAGS):
            return None
        return f"action {action.name!r} leaves a {sorted(action.tags & self.HAZARD_TAGS)[0]} hazard"
