"""Binding core devices to the simulator and network.

:class:`SimDevice` is a thin composition: a core
:class:`~repro.core.device.Device` plus its network registration, clock
wiring, discovery participation, and optional gossip node — the glue the
core deliberately leaves out.
"""

from __future__ import annotations

from typing import Optional

from repro.core.device import Device
from repro.core.events import Event
from repro.net.discovery import DiscoveryService
from repro.net.gossip import GossipNode
from repro.net.message import Message
from repro.net.network import Network
from repro.sim.simulator import Simulator


def bind_device(device: Device, sim: Simulator, network: Network,
                discovery: Optional[DiscoveryService] = None,
                gossip_interval: Optional[float] = None) -> "SimDevice":
    """Wire a device into the simulation; returns the :class:`SimDevice`."""
    return SimDevice(device, sim, network, discovery, gossip_interval)


class SimDevice:
    """A device living on the simulator and network."""

    def __init__(self, device: Device, sim: Simulator, network: Network,
                 discovery: Optional[DiscoveryService] = None,
                 gossip_interval: Optional[float] = None):
        self.device = device
        self.sim = sim
        self.network = network
        self.discovery = discovery
        self.gossip: Optional[GossipNode] = None

        device.set_clock(lambda: sim.now)
        device.telemetry = sim.telemetry
        network.register(device.device_id, self._on_message)
        device.send_hook = lambda to, topic, body: network.send(
            device.device_id, to, topic, body
        )
        if discovery is not None:
            discovery.join(device.device_id, device.describe)
        if gossip_interval is not None:
            self.gossip = GossipNode(
                device.device_id, sim, network, interval=gossip_interval,
            )
        # Obligations pump: discharge due remedies and expire overdue ones.
        if device.engine.obligations is not None:
            self._obligation_task = sim.every(
                1.0, self._pump_obligations, label=f"{device.device_id}:obligations"
            )
        else:
            self._obligation_task = None

    @property
    def device_id(self) -> str:
        return self.device.device_id

    def _on_message(self, message: Message) -> None:
        """Route inbound traffic: protocol messages to their services,
        everything else into the device's event path (Fig 2 collaboration
        port)."""
        if self.discovery is not None and DiscoveryService.is_announcement(message):
            self.discovery.handle_announcement(self.device_id, message)
            return
        if self.gossip is not None and GossipNode.is_exchange(message):
            self.gossip.handle_exchange(message)
            return
        self.device.receive_message(message.topic, message.body, message.sender)

    # -- conveniences ------------------------------------------------------------

    def attach_audit(self, audit) -> None:
        """Chain a per-device :class:`~repro.audit.log.AuditLog` onto the
        engine's decision stream (sec VI-B: "collection of comprehensive
        context information").  Every decision becomes one hash-chained
        entry — the forensic record a post-incident auditor replays, and
        the thing the durability layer journals so it survives a crash.
        Any previously installed ``on_decision`` hook keeps running.
        """
        previous = self.device.engine.on_decision

        def on_decision(decision) -> None:
            if previous is not None:
                previous(decision)
            audit.append(
                self.sim.now, f"decision.{decision.outcome.value}",
                self.device.device_id, {
                    "requested": decision.requested,
                    "executed": decision.executed,
                    "vetoes": len(decision.vetoes),
                })

        self.device.engine.on_decision = on_decision
        self.audit = audit

    def every(self, interval: float, label: str = ""):
        """Periodic management tick feeding ``timer.<label>`` events."""
        return self.sim.every(
            interval,
            lambda: self.device.deliver(
                Event.timer(label or "tick", time=self.sim.now)
            ),
            label=f"{self.device_id}:{label or 'tick'}",
        )

    def _pump_obligations(self) -> None:
        manager = self.device.engine.obligations
        if manager is None:
            return
        manager.discharge_due(self.sim.now)
        for violated in manager.expire(self.sim.now):
            self.sim.metrics.counter("obligations.violated").inc()
            self.sim.record("obligation.violated", self.device_id,
                            obligation=violated.obligation.name,
                            source_action=violated.source_action)

    def shutdown(self) -> None:
        """Remove the device from the network (retirement, not the VI-C kill)."""
        self.network.unregister(self.device_id)
        if self.discovery is not None:
            self.discovery.leave(self.device_id)
        if self.gossip is not None:
            self.gossip.stop()
