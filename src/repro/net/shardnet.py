"""Deterministic cross-shard message transport (F4).

Why the existing :class:`~repro.net.network.Network` cannot carry
cross-shard traffic: its latency/loss draws come from a *shared* RNG
stream (``sim.rng.stream("net")``), so each draw depends on the global
arrival order of every send in the process.  Re-partitioning the fleet
reorders those draws and the byte-identical-trace guarantee dies.  The
:class:`ShardRouter` instead derives latency **statelessly** per message
— CRC32 over ``(seed, sender, recipient, per-sender sequence number)``,
the same ``cell_seed`` construction the sweep executor uses — so a
message's arrival time is a pure function of who sent it and how many
messages that sender has sent, never of what other devices were doing.
The router never loses a message.

Delivery protocol (conservative barrier synchronization):

* every send — local *or* remote — lands in an outbox, never directly in
  the event queue: local and cross-shard messages take the identical
  path, so the n_shards=1 run is byte-identical to any sharded run;
* latency is ``window + jitter`` with ``jitter < JITTER_FRAC * window``
  and ``JITTER_FRAC < 1``, so a message sent inside window ``W`` always
  arrives after the barrier that closes ``W`` — one window of lookahead
  is enough and no shard can receive a message for simulated time it
  has already executed;
* the coordinator sorts each barrier's batch by ``(deliver_at, sender,
  seq)`` (:func:`wire_sort_key`) before injection, making injection
  order a pure function of the message *set*;
* injected deliveries are scheduled at ``priority=1`` — strictly after
  same-timestamp tick events (priority 0) — so per-device interleaving
  of ticks and deliveries is shard-invariant too.

:class:`~repro.net.reliable.ReliableChannel` interoperates unchanged:
the router exposes the ``register`` / ``send`` / ``sim`` surface that
``ReliableChannel.register`` duck-types against, so ack/retry traffic
can cross shard boundaries.  (``ReliableChannel.attach`` rewraps an
already-registered handler and so needs a plain
:class:`~repro.net.network.Network`.  Give each shard's channel a distinct
``rmid_prefix`` so concurrently minted message ids never collide at a
shared recipient; note the channel's retry *jitter* draws from a
per-shard RNG stream, so runs that must stay byte-identical across
shard counts should use ``jitter=0`` reliable channels or the plain
router.)  Causal span contexts (E19) ride each wire message and are
re-activated at delivery, so traces stitch across process boundaries.
"""

from __future__ import annotations

import zlib
from typing import Callable

from repro.errors import NetworkError
from repro.net.message import BROADCAST, Message

Handler = Callable[[Message], None]

#: Latency jitter spans ``[0, JITTER_FRAC * window)``; it must stay below
#: 1.0 so the one-window lookahead holds.
JITTER_FRAC = 0.5


def crc01(*parts) -> float:
    """A deterministic uniform in ``[0, 1)`` from hashed coordinates.

    Same construction as ``scenarios.sweep.cell_seed``: CRC32 over the
    ``repr`` of the parts — identical in every process, independent of
    evaluation order.
    """
    text = "|".join(repr(part) for part in parts)
    return zlib.crc32(text.encode("utf-8")) / 4294967296.0


class WireMessage:
    """One cross-barrier message: picklable, deterministic, sortable."""

    __slots__ = ("sender", "recipient", "topic", "body", "sent_at",
                 "deliver_at", "seq", "trace")

    def __init__(self, sender: str, recipient: str, topic: str, body: dict,
                 sent_at: float, deliver_at: float, seq: int, trace=None):
        self.sender = sender
        self.recipient = recipient
        self.topic = topic
        self.body = body
        self.sent_at = sent_at
        self.deliver_at = deliver_at
        self.seq = seq
        self.trace = trace

    def __repr__(self) -> str:
        return (f"WireMessage({self.sender} -> {self.recipient} "
                f"topic={self.topic!r} at {self.deliver_at})")


def wire_sort_key(message: WireMessage) -> tuple:
    """The canonical barrier-merge order: a pure function of the message."""
    return (message.deliver_at, message.sender, message.seq)


class ShardRouter:
    """Outbox-based deterministic transport for one shard's simulator.

    ``window`` must equal the barrier window of the sharded run (it is
    the delivery lookahead).
    """

    def __init__(self, sim, seed: int, window: float):
        if window <= 0:
            raise NetworkError("barrier window must be positive")
        self.sim = sim
        self.seed = int(seed)
        self.window = float(window)
        self._handlers: dict[str, Handler] = {}
        self._outbox: list[WireMessage] = []
        self._seq: dict[str, int] = {}
        metrics = sim.metrics
        self._m_sent = metrics.counter("net.shard.sent")
        self._m_delivered = metrics.counter("net.shard.delivered")
        self._m_unroutable = metrics.counter("net.shard.unroutable")
        self._telemetry = sim.telemetry

    # -- registration ---------------------------------------------------------

    def register(self, address: str, handler: Handler) -> None:
        if address == BROADCAST:
            raise NetworkError(f"{BROADCAST!r} is reserved")
        if address in self._handlers:
            raise NetworkError(f"address {address!r} already registered")
        self._handlers[address] = handler

    # -- sending --------------------------------------------------------------

    def send(self, sender: str, recipient: str, topic: str, body: dict,
             trace=None) -> WireMessage:
        """Queue a message into the outbox and return it.

        Latency is CRC-derived from ``(seed, sender, recipient, seq)`` —
        deterministic and shard-assignment-invariant.
        """
        if recipient == BROADCAST:
            raise NetworkError(
                "shard router has no broadcast; fan out unicast sends")
        seq = self._seq.get(sender, 0) + 1
        self._seq[sender] = seq
        self._m_sent.inc()
        jitter = crc01(self.seed, "lat", sender, recipient, seq) \
            * self.window * JITTER_FRAC
        now = self.sim.now
        if trace is None:
            trace = self._telemetry.current
        message = WireMessage(sender, recipient, topic, dict(body),
                              sent_at=now, deliver_at=now + self.window + jitter,
                              seq=seq, trace=trace)
        self._outbox.append(message)
        return message

    def drain_outbox(self) -> list:
        """All messages sent since the last drain (the barrier exchange)."""
        outbox = self._outbox
        self._outbox = []
        return outbox

    # -- barrier injection ----------------------------------------------------

    def inject(self, batch) -> int:
        """Schedule a barrier batch for delivery.

        The coordinator pre-sorts with :func:`wire_sort_key`; scheduling
        in that order (the event queue breaks time ties by insertion
        sequence) makes same-timestamp delivery order deterministic.
        Deliveries run at ``priority=1`` — after same-time tick events.
        """
        schedule_at = self.sim.schedule_at
        count = 0
        for message in batch:
            schedule_at(message.deliver_at, self._deliver, message,
                        priority=1, label=f"{message.recipient}:deliver")
            count += 1
        return count

    def _deliver(self, message: WireMessage) -> None:
        handler = self._handlers.get(message.recipient)
        if handler is None:
            self._m_unroutable.inc()
            return
        self._m_delivered.inc()
        delivered = Message(sender=message.sender, recipient=message.recipient,
                            topic=message.topic, body=message.body,
                            sent_at=message.sent_at, trace=message.trace)
        # Re-activate the sender's causal context (possibly captured in a
        # different process) so handlers and their spans join the trace.
        previous = self._telemetry.activate(message.trace)
        try:
            handler(delivered)
        finally:
            self._telemetry.activate(previous)
