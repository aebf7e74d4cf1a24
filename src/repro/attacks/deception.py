"""Sensor deception attacks (paper sec VI-B, ref [13]).

"it is critical that a device be able to obtain trustworthy information
concerning its own status and the environment... This in turn requires the
deployment of specialized techniques to protect devices that typically
acquire information by using sensors (both their own and possibly of other
devices) from deception attacks."

A :class:`SensorDeceptionAttack` hijacks a colluding subset of the
redundant sources feeding one logical measurement and makes them all
report a common false value — the collusion pattern the iterative
filtering aggregator in ``repro.trust`` is designed to defeat.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.attacks.injector import Attack, AttackRecord
from repro.errors import AttackError
from repro.sim.simulator import Simulator
from repro.trust.aggregation import SensorReading
from repro.types import ThreatChannel


class SensorDeceptionAttack(Attack):
    """Collusion of hijacked sources around a false value."""

    name = "sensor_deception"
    channel = ThreatChannel.MALICIOUS_ACTOR

    def __init__(self, sources: Sequence[str], colluders: Sequence[str],
                 false_value: float, noise: float = 0.0):
        colluders = list(colluders)
        unknown = set(colluders) - set(sources)
        if unknown:
            raise AttackError(f"colluders not among sources: {sorted(unknown)}")
        self.sources = list(sources)
        self.colluders = colluders
        self.false_value = false_value
        self.noise = noise
        self.active = False

    def launch(self, sim: Simulator, record: AttackRecord) -> None:
        self.active = True
        for colluder in self.colluders:
            record.mark_affected(colluder, sim.now)
        sim.record("attack.deception", ",".join(self.colluders),
                   false_value=self.false_value)

    def corrupt(self, readings: Sequence[SensorReading],
                rng=None) -> list[SensorReading]:
        """Replace colluders' readings with the coordinated false value.

        ``rng`` (a SeededRNG) adds small per-colluder noise when
        ``noise > 0`` so colluders are not byte-identical (harder for
        naive duplicate detection).
        """
        if not self.active:
            return list(readings)
        corrupted = []
        colluder_set = set(self.colluders)
        for reading in readings:
            if reading.source in colluder_set:
                value = self.false_value
                if self.noise > 0 and rng is not None:
                    value += rng.gauss(0.0, self.noise)
                corrupted.append(SensorReading(
                    source=reading.source, value=value, time=reading.time,
                ))
            else:
                corrupted.append(reading)
        return corrupted


def make_reading_provider(
    truth_fn: Callable[[], float],
    sources: Sequence[str],
    rng,
    honest_noise: float = 0.5,
    attack: Optional[SensorDeceptionAttack] = None,
):
    """A callable producing one aggregation round's readings.

    Honest sources report truth plus Gaussian noise; if an attack is
    active, its colluders are overridden.  Used by the E8 experiment and
    the break-glass context verifier.
    """

    def provide(time: float = 0.0) -> list[SensorReading]:
        truth = truth_fn()
        readings = [
            SensorReading(source=source, value=truth + rng.gauss(0.0, honest_noise),
                          time=time)
            for source in sources
        ]
        if attack is not None:
            readings = attack.corrupt(readings, rng)
        return readings

    return provide
