"""Sensor towers and coalition threat assessment (paper sec VI-B, ref [13]).

Devices "acquire information by using sensors (both their own and possibly
of other devices)" and must be protected "from deception attacks".  A
:class:`make_tower` device is a static sensing platform that counts
hostiles in its coverage area; the :class:`ThreatAssessmentService` fuses
the towers' redundant readings with robust aggregation into the fleet's
threat estimate — the trustworthy context that break-glass verification
and risk estimation consume.
"""

from __future__ import annotations

from typing import Optional

from repro.core.device import Device, Sensor
from repro.core.state import StateSpace, StateVariable
from repro.devices.world import World
from repro.errors import ConfigurationError
from repro.sim.simulator import Simulator
from repro.trust.aggregation import IterativeFilteringAggregator, SensorReading
from repro.trust.provenance import TrustLedger

TOWER_TYPE = "tower"


def tower_state_space(world: World) -> StateSpace:
    return StateSpace([
        StateVariable("x", "float", 0.0, 0.0, world.width),
        StateVariable("y", "float", 0.0, 0.0, world.height),
        StateVariable("threat_reading", "float", 0.0, 0.0, 1000.0),
        StateVariable("online", "bool", True),
    ])


def make_tower(
    device_id: str,
    world: World,
    *,
    organization: str = "default",
    x: float = 0.0,
    y: float = 0.0,
    coverage: float = 40.0,
    noise_sigma: float = 0.3,
    attributes: Optional[dict] = None,
) -> Device:
    """A static sensing platform counting hostiles within ``coverage``.

    The tower's threat sensor reads the number of non-friendly humans in
    range plus Gaussian noise; a hijacked tower's sensor can be overridden
    via ``Sensor.inject`` (what the deception experiments do).
    """
    attrs = {"coverage": coverage, "capability": "sensing", "airborne": False}
    attrs.update(attributes or {})
    device = Device(
        device_id=device_id,
        device_type=TOWER_TYPE,
        space=tower_state_space(world),
        organization=organization,
        initial_state={"x": x, "y": y},
        attributes=attrs,
    )
    rng = world.sim.rng.stream(f"tower/{device_id}")

    def read_threat() -> float:
        if not device.state.get("online"):
            return 0.0
        hostiles = [
            human for human in world.humans_near(
                float(device.state.get("x")), float(device.state.get("y")),
                coverage,
            )
            if not human.friendly
        ]
        return max(0.0, len(hostiles) + rng.gauss(0.0, noise_sigma))

    device.add_sensor(Sensor("threat", read_fn=read_threat))
    return device


class ThreatAssessmentService:
    """Fuses tower readings into the coalition's threat estimate.

    Each ``interval`` the service polls every tower's threat sensor,
    aggregates robustly (iterative filtering), updates the per-tower trust
    ledger from the aggregation weights, and records the estimate.  A
    compromised minority of towers reporting a coordinated false value is
    out-weighted, and its trust scores decay — the sources to decommission.
    """

    def __init__(self, sim: Simulator, towers: dict, interval: float = 2.0,
                 aggregator: Optional[IterativeFilteringAggregator] = None,
                 ledger: Optional[TrustLedger] = None):
        if not towers:
            raise ConfigurationError("threat assessment needs at least one tower")
        self.sim = sim
        self.towers = towers     # device_id -> Device (live view)
        self.aggregator = aggregator or IterativeFilteringAggregator()
        self.ledger = ledger or TrustLedger()
        self.estimate: float = 0.0
        self.rounds = 0
        self._task = sim.every(interval, self.assess, label="threat-assessment")

    def readings(self) -> list:
        out = []
        for tower_id in sorted(self.towers):
            tower = self.towers[tower_id]
            if not tower.active:
                continue
            out.append(SensorReading(
                source=tower_id,
                value=float(tower.sensors["threat"].read()),
                time=self.sim.now,
            ))
        return out

    def assess(self) -> float:
        """One fusion round; returns (and stores) the robust estimate."""
        readings = self.readings()
        if not readings:
            return self.estimate
        self.rounds += 1
        self.estimate = self.aggregator.aggregate(readings)
        self.ledger.observe_weights(self.aggregator.last_weights)
        self.sim.metrics.timeseries("threat.estimate").record(
            self.sim.now, self.estimate,
        )
        return self.estimate

    def suspected_towers(self) -> list:
        """Towers the last round's weights flagged as out of consensus."""
        return self.aggregator.suspected_sources()

    def context_verifier(self):
        """A break-glass context verifier backed by the fused estimate."""

        def verify(device_id: str) -> dict:
            return {"threat_level": self.assess()}

        return verify
