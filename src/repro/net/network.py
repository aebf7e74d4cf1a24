"""The in-simulation message bus.

Delivers :class:`~repro.net.message.Message` objects between registered
handlers with configurable latency and loss, respecting a
:class:`~repro.net.topology.Topology`.  All timing flows through the
discrete-event simulator; all randomness through its seeded RNG, so runs
replay exactly.

A send is one pass over its recipients (every other registered address,
in sorted order, for a broadcast; the one addressee for a unicast).  The
work that is the same for every recipient -- the label, the clock, the
active span, the link parameters and whether the topology restricts
reachability at all -- is done once per message.  Per recipient, in
order: unroutable, unreachable, then the ``net`` substream's loss draw
(only when ``0 < loss_rate < 1``) and its jitter draw (only when
``jitter > 0``); each delivery that survives is one event-queue push at
``now + (base_latency + jitter draw)``, labelled ``net:<topic>``.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import NetworkError
from repro.net.message import BROADCAST, Message
from repro.net.topology import Topology
from repro.sim.simulator import Simulator

Handler = Callable[[Message], None]


class Network:
    """Latency/loss message delivery over a topology."""

    def __init__(
        self,
        sim: Simulator,
        topology: Optional[Topology] = None,
        base_latency: float = 0.1,
        jitter: float = 0.05,
        loss_rate: float = 0.0,
    ):
        if not 0.0 <= loss_rate <= 1.0:
            # loss_rate == 1.0 is a total blackout link, used by the
            # partition/chaos experiments (E17).
            raise NetworkError("loss_rate must be in [0, 1]")
        self.sim = sim
        self.topology = topology if topology is not None else Topology()
        self.base_latency = base_latency
        self.jitter = jitter
        self.loss_rate = loss_rate
        self._handlers: dict[str, Handler] = {}
        self._order: Optional[tuple] = None     # sorted(self._handlers), cached
        self._suspended: set = set()
        self._rng = sim.rng.stream("net")
        self._taps: list[Callable[[Message], None]] = []
        # Cached metric handles: send/deliver run once per message, so the
        # registry's dict-lookup-by-string is hoisted out of the hot path.
        metrics = sim.metrics
        self._m_sent = metrics.counter("net.sent")
        self._m_unroutable = metrics.counter("net.unroutable")
        self._m_unreachable = metrics.counter("net.unreachable")
        self._m_dropped = metrics.counter("net.dropped")
        self._m_suspended_drop = metrics.counter("net.suspended_drop")
        self._m_delivered = metrics.counter("net.delivered")
        self._m_latency = metrics.histogram("net.latency")
        self._telemetry = sim.telemetry

    # -- latency ------------------------------------------------------------------
    # Validated on every assignment (fault injection changes base_latency
    # mid-run): a delivery is pushed at ``now + latency`` without passing
    # through ``Simulator.schedule``'s negative-delay check.

    @property
    def base_latency(self) -> float:
        return self._base_latency

    @base_latency.setter
    def base_latency(self, value: float) -> None:
        if value < 0:
            raise NetworkError("latency parameters must be non-negative")
        self._base_latency = value

    @property
    def jitter(self) -> float:
        return self._jitter

    @jitter.setter
    def jitter(self, value: float) -> None:
        if value < 0:
            raise NetworkError("latency parameters must be non-negative")
        self._jitter = value

    # -- registration ------------------------------------------------------------

    def register(self, address: str, handler: Handler) -> None:
        """Attach a handler; the address joins the topology if absent."""
        if address == BROADCAST:
            raise NetworkError(f"{BROADCAST!r} is reserved for broadcasts")
        if address in self._handlers:
            raise NetworkError(f"address {address!r} already registered")
        self._handlers[address] = handler
        self._order = None
        if address not in self.topology:
            self.topology.add_member(address)

    def unregister(self, address: str) -> None:
        self._handlers.pop(address, None)
        self._order = None
        self._suspended.discard(address)
        self.topology.remove_member(address)

    def replace_handler(self, address: str, handler: Handler) -> Handler:
        """Swap the handler at ``address``; returns the previous one.

        Transport layers (e.g. :class:`~repro.net.reliable.ReliableChannel`)
        use this to wrap an already-registered endpoint.
        """
        if address not in self._handlers:
            raise NetworkError(f"address {address!r} is not registered")
        previous = self._handlers[address]
        self._handlers[address] = handler
        return previous

    def suspend(self, address: str) -> None:
        """Silence an address (crashed device): inbound deliveries drop,
        counted as ``net.suspended_drop``; the registration survives for
        :meth:`resume`."""
        if address in self._handlers:
            self._suspended.add(address)

    def resume(self, address: str) -> None:
        self._suspended.discard(address)

    def is_suspended(self, address: str) -> bool:
        return address in self._suspended

    def addresses(self) -> list[str]:
        return list(self._recipients())

    def _recipients(self) -> tuple:
        order = self._order
        if order is None:
            order = self._order = tuple(sorted(self._handlers))
        return order

    def tap(self, callback: Callable[[Message], None]) -> None:
        """Observe every *sent* message (monitoring, worm propagation studies)."""
        self._taps.append(callback)

    # -- sending -----------------------------------------------------------------

    def send(self, sender: str, recipient: str, topic: str, body: dict) -> Message:
        """Queue a message for delivery.  Returns the message object.

        Loss and unreachability are silent at the sender (datagram
        semantics) but counted in metrics and recorded in the trace.
        """
        # Reads (never materializes) the active causal context: plain
        # datagram traffic under an unmaterialized lazy root stays
        # span-free, while traffic inside a real trace carries it along.
        ctx = self._telemetry.current
        message = Message(sender=sender, recipient=recipient, topic=topic,
                         body=dict(body), sent_at=self.sim.now, trace=ctx)
        for tap in self._taps:
            tap(message)
        self._m_sent.inc()
        if ctx is not None and not topic.startswith("__"):
            self._telemetry.start_span("net.send", sender, parent=ctx,
                                       topic=topic, recipient=recipient)
        if message.is_broadcast:
            self._deliver(message, self._recipients(), skip=sender)
        else:
            self._deliver(message, (recipient,))
        return message

    def _deliver(self, message: Message, recipients: tuple,
                 skip: Optional[str] = None) -> None:
        """Deliver ``message`` to each of ``recipients`` but ``skip``."""
        sender = message.sender
        topic = message.topic
        sim = self.sim
        handlers = self._handlers
        topology = self.topology
        can_reach = topology.can_reach
        # Registering an address adds it to the topology, so when nothing
        # restricts reachability every registered address but the
        # sender's own is in reach of a member sender.
        reach_all = topology.fully_connected() and sender in topology
        loss_rate = self.loss_rate
        lossy = loss_rate > 0.0
        chance = self._rng.chance
        base = self.base_latency
        jitter = self.jitter
        jittered = jitter > 0
        # ``jitter * random()`` is ``uniform(0.0, jitter)`` bit for bit
        # (``random.Random.uniform`` is ``a + (b - a) * random()``), one
        # Python frame instead of two per delivery.
        draw = self._rng.random
        push = sim.queue.push
        arrive = self._arrive
        now = sim.now
        span = self._telemetry.current
        label = f"net:{topic}"
        for address in recipients:
            if address == skip:
                continue
            if address not in handlers:
                self._m_unroutable.inc()
                sim.record("net.unroutable", sender, recipient=address, topic=topic)
            elif ((not reach_all or address == sender)
                  and not can_reach(sender, address)):
                self._m_unreachable.inc()
                sim.record("net.unreachable", sender, recipient=address, topic=topic)
            elif lossy and chance(loss_rate):
                self._m_dropped.inc()
                sim.record("net.dropped", sender, recipient=address, topic=topic)
            elif jittered:
                push(now + (base + jitter * draw()), arrive, (message, address),
                     0, label, span)
            else:
                push(now + base, arrive, (message, address), 0, label, span)

    def _arrive(self, message: Message, recipient: str) -> None:
        handler = self._handlers.get(recipient)
        if handler is None:
            self._m_unroutable.inc()
            return
        if recipient in self._suspended:
            self._m_suspended_drop.inc()
            return
        self._m_delivered.inc()
        self._m_latency.observe(self.sim.now - message.sent_at)
        if message.trace is not None and not message.topic.startswith("__"):
            self._telemetry.start_span("net.deliver", recipient,
                                       parent=message.trace,
                                       topic=message.topic,
                                       sender=message.sender)
        handler(message)

    # -- convenience -----------------------------------------------------------------

    def broadcast(self, sender: str, topic: str, body: dict) -> Message:
        return self.send(sender, BROADCAST, topic, body)
