"""Mechanic (repair) device (paper sec II).

"They would need to repair themselves, or go to another mechanic device to
be repaired" — the mechanic patrols the fleet, restores deactivated
devices to a known-good configuration, and re-attests them with the
watchdog so the deactivation safeguard composes with recovery instead of
permanently attriting the fleet.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.device import Device
from repro.core.policy import PolicySet
from repro.sim.simulator import Simulator
from repro.types import DeviceStatus


class MechanicDevice:
    """A repair service for a device fleet.

    ``baseline_policies(device) -> PolicySet`` rebuilds the known-good
    policy set for a device (typically from the generative engine or the
    builtin factory).  Repair: reset unsafe state variables to declared
    defaults, restore policies, reactivate, and notify the watchdog to
    re-baseline attestation.
    """

    def __init__(
        self,
        mechanic_id: str,
        sim: Simulator,
        devices: dict,
        baseline_policies: Callable[[Device], PolicySet],
        repair_interval: float = 5.0,
        repair_capacity: int = 1,
        watchdog=None,
        safe_defaults: Optional[dict] = None,
    ):
        """``safe_defaults`` optionally maps variable name -> value to
        force during repair (e.g. temp back to ambient)."""
        self.mechanic_id = mechanic_id
        self.sim = sim
        self.devices = devices
        self.baseline_policies = baseline_policies
        self.repair_capacity = max(1, repair_capacity)
        self.watchdog = watchdog
        self.safe_defaults = dict(safe_defaults or {})
        self.repairs: list[tuple] = []     # (time, device_id, cause)
        self._task = sim.every(repair_interval, self.sweep,
                               label=f"mechanic:{mechanic_id}")

    def sweep(self) -> list[str]:
        """Repair up to ``repair_capacity`` deactivated devices."""
        repaired = []
        for device_id in sorted(self.devices):
            if len(repaired) >= self.repair_capacity:
                break
            device = self.devices[device_id]
            if device.status == DeviceStatus.DEACTIVATED:
                self.repair(device)
                repaired.append(device_id)
        return repaired

    def repair(self, device: Device) -> None:
        """Restore a device to a known-good configuration and reactivate."""
        cause = device.deactivation_reason or "unknown"
        # 1. Reset state: declared defaults for unsafe values, then overrides.
        defaults = device.state.space.defaults()
        changes = {}
        for name, value in self.safe_defaults.items():
            if name in device.state.space:
                changes[name] = value
        for name in device.state.space.names():
            if name not in changes:
                changes[name] = defaults[name]
        # Preserve position: a repaired device does not teleport.
        for positional in ("x", "y"):
            if positional in device.state.space:
                changes[positional] = device.state.get(positional)
        device.state.apply(changes, time=self.sim.now,
                           cause=f"repair:{self.mechanic_id}")
        # 2. Restore known-good logic (drops injected malevolent policies).
        device.engine.policies = self.baseline_policies(device)
        # 3. Reactivate and re-baseline attestation.
        device.reactivate()
        if self.watchdog is not None:
            self.watchdog.approve_current_configuration([device.device_id])
        self.repairs.append((self.sim.now, device.device_id, cause))
        self.sim.metrics.counter("mechanic.repairs").inc()
        self.sim.record("mechanic.repair", device.device_id, cause=cause,
                        mechanic=self.mechanic_id)
