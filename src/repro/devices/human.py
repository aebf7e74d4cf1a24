"""Human operators (paper sec II, Figure 1).

"several devices within control of a human collaboratively decide how to
execute actions that satisfy the command of that individual... Since each
human will oversee many different devices, ranging from tens to hundreds,
the devices would need to be self-managing."

The :class:`HumanOperator` issues commands to its device fleet, answers
cross-validation requests (rate-limited — the scarce resource that
motivates self-management), and can be made error-prone via the
``repro.attacks.human_error`` wrapper.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.device import Device
from repro.errors import ConfigurationError
from repro.sim.simulator import Simulator


class HumanOperator:
    """A command source overseeing a fleet of devices."""

    def __init__(
        self,
        operator_id: str,
        sim: Simulator,
        review_capacity_per_unit: float = 1.0,
    ):
        """``review_capacity_per_unit`` caps how many cross-validation
        requests the human can answer per simulated time unit — beyond it,
        requests are auto-deferred (returned False)."""
        if review_capacity_per_unit <= 0:
            raise ConfigurationError("review capacity must be positive")
        self.operator_id = operator_id
        self.sim = sim
        self.review_capacity = review_capacity_per_unit
        self.devices: dict[str, Device] = {}
        self.commands_issued = 0
        self.reviews_answered = 0
        self.reviews_deferred = 0
        self._review_budget_window_start = 0.0
        self._reviews_in_window = 0

    # -- fleet ---------------------------------------------------------------------

    def assign(self, device: Device) -> None:
        self.devices[device.device_id] = device

    # -- commanding -------------------------------------------------------------------

    def command(self, device_id: str, verb: str,
                params: Optional[dict] = None):
        """Order one device; returns the engine Decision (None if unknown)."""
        device = self.devices.get(device_id)
        if device is None:
            return None
        self.commands_issued += 1
        self.sim.metrics.counter("human.commands").inc()
        return device.command(verb, params, source=self.operator_id)

    def command_all(self, verb: str, params: Optional[dict] = None) -> int:
        """Order the whole fleet; returns how many devices acted."""
        acted = 0
        for device_id in sorted(self.devices):
            decision = self.command(device_id, verb, params)
            if decision is not None and decision.acted:
                acted += 1
        return acted

    # -- cross-validation ---------------------------------------------------------------

    def cross_validate(self, question: str,
                       judge: Optional[Callable[[str], bool]] = None) -> Optional[bool]:
        """A device asks the human to validate a decision (sec II: "only a
        few decisions being sent for human cross-validation").

        Returns True/False when the human had capacity, None when deferred.
        ``judge`` supplies the human's answer (default: approve).
        """
        now = self.sim.now
        if now - self._review_budget_window_start >= 1.0:
            self._review_budget_window_start = now
            self._reviews_in_window = 0
        if self._reviews_in_window >= self.review_capacity:
            self.reviews_deferred += 1
            self.sim.metrics.counter("human.reviews_deferred").inc()
            return None
        self._reviews_in_window += 1
        self.reviews_answered += 1
        self.sim.metrics.counter("human.reviews").inc()
        return judge(question) if judge is not None else True

    @property
    def intervention_count(self) -> int:
        return self.commands_issued + self.reviews_answered
