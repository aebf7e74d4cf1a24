"""Reliable delivery over the lossy datagram :class:`~repro.net.network.Network`.

The base network is deliberately fire-and-forget: ordinary fleet gossip
should stay cheap and lossy.  Safety-critical traffic — watchdog
telemetry and kill orders (sec VI-C), governance ballots (sec VI-E),
collection join reviews (sec VI-D) — instead rides a
:class:`ReliableChannel`: positive acknowledgement, retry with
exponential backoff and jitter, duplicate suppression by message id, a
bounded attempt budget, and a dead-letter queue.  A dead letter is a
*signal*, not a shrug: the safeguard that sent it can fail closed (e.g. a
device that cannot reach its overseer quarantines itself).

Both endpoints must be registered (or :meth:`~ReliableChannel.attach`\\ ed)
through the channel so acknowledgements and duplicates are intercepted;
plain datagram messages pass through to the wrapped handler untouched.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import NetworkError
from repro.net.message import BROADCAST, Message
from repro.net.network import Handler, Network

#: Topic carrying acknowledgements (never delivered to application handlers).
ACK_TOPIC = "__ack__"

_PROTOCOL_KEYS = ("_rmid", "_rfrom")


@dataclass
class PendingSend:
    """One reliable send in flight, queued, or finished.

    ``coalesce`` tags sends that carry full-state snapshots: while such a
    send waits in the flow-control queue, a newer send with the same
    ``(recipient, topic, coalesce)`` replaces it (the old handle reads
    ``superseded=True`` and none of its callbacks ever fire).
    """

    rmid: str
    sender: str
    recipient: str
    topic: str
    body: dict
    first_sent: float
    attempts: int = 0
    acked: bool = False
    dead: bool = False
    superseded: bool = False
    coalesce: Optional[str] = None
    acked_at: Optional[float] = None
    on_fail: Optional[Callable[["PendingSend"], None]] = field(
        default=None, repr=False)
    on_ack: Optional[Callable[["PendingSend"], None]] = field(
        default=None, repr=False)
    #: Causal span context captured at send(); every (re)transmission of
    #: this message is attributed to it, even when a queued send finally
    #: drains during some other message's resolution.
    ctx: object = field(default=None, repr=False)


class ReliableChannel:
    """Ack/retry unicast channel over a datagram network."""

    #: Duck-typing marker: safeguards check this to know dead-letter
    #: feedback exists (a raw ``Network`` gives none).
    reliable = True

    def __init__(
        self,
        network: Network,
        timeout: float = 0.5,
        backoff: float = 2.0,
        jitter: float = 0.1,
        max_attempts: int = 4,
        max_in_flight: Optional[int] = None,
        rmid_prefix: str = "r",
    ):
        """``max_in_flight`` caps how many of one sender's messages may be
        on the wire (transmitted, unresolved) at once; excess sends queue
        per sender in FIFO order and drain as earlier ones ack or die.
        ``None`` (the default) keeps the historical uncapped behaviour.
        Under a fault storm the cap stops a cut-off sender from pyramiding
        retries for every queued snapshot at once — combined with
        ``coalesce`` tags, stale telemetry collapses to the newest
        snapshot instead of replaying a backlog after the partition heals.

        ``rmid_prefix`` namespaces this channel's message ids.  Duplicate
        suppression at a receiver is keyed by rmid alone, so when several
        channel instances can reach one recipient — one per shard in an F4
        sharded run — each must mint ids from a distinct prefix (e.g.
        ``f"s{shard_index}-"``) or two channels' ``r1`` messages would
        shadow each other in the receiver's seen-set.
        """
        if not rmid_prefix:
            raise NetworkError("rmid_prefix must be non-empty")
        if timeout <= 0:
            raise NetworkError("timeout must be positive")
        if backoff < 1.0:
            raise NetworkError("backoff factor must be >= 1")
        if jitter < 0:
            raise NetworkError("jitter must be non-negative")
        if max_attempts < 1:
            raise NetworkError("max_attempts must be >= 1")
        if max_in_flight is not None and max_in_flight < 1:
            raise NetworkError("max_in_flight must be >= 1 or None")
        self.network = network
        self.sim = network.sim
        self.timeout = timeout
        self.backoff = backoff
        self.jitter = jitter
        self.max_attempts = max_attempts
        self.max_in_flight = max_in_flight
        self.dead_letters: list[PendingSend] = []
        self.rmid_prefix = rmid_prefix
        self._rng = self.sim.rng.stream("net.reliable")
        self._counter = itertools.count(1)
        self._pending: dict[str, PendingSend] = {}
        self._seen: dict[str, set] = {}   # receiving address -> rmids delivered
        self._in_flight: dict[str, int] = {}        # sender -> wire count
        self._queued: dict[str, list] = {}          # sender -> FIFO backlog
        # Metric handles for the once-per-message counters, resolved on
        # first use: a name appears in the registry when it first counts.
        self._m_sent = None
        self._m_acked = None
        self._m_rtt = None

    # -- registration ----------------------------------------------------------

    def register(self, address: str, handler: Handler) -> None:
        """Register a fresh endpoint whose traffic flows through the channel."""
        self.network.register(address, self._wrap(address, handler))

    def attach(self, address: str) -> None:
        """Wrap an endpoint already registered directly with the network."""
        inner = self.network.replace_handler(address, lambda message: None)
        self.network.replace_handler(address, self._wrap(address, inner))

    # -- sending ---------------------------------------------------------------

    def send(
        self,
        sender: str,
        recipient: str,
        topic: str,
        body: dict,
        on_fail: Optional[Callable[[PendingSend], None]] = None,
        on_ack: Optional[Callable[[PendingSend], None]] = None,
        coalesce: Optional[str] = None,
    ) -> PendingSend:
        """Send with delivery tracking; returns the in-flight handle.

        ``on_ack(pending)`` fires when the acknowledgement arrives;
        ``on_fail(pending)`` fires when the attempt budget is exhausted
        (the message is then in :attr:`dead_letters`).

        ``coalesce`` (with :attr:`max_in_flight` set) marks the message
        as a superseding snapshot: if an *unsent* message with the same
        ``(recipient, topic, coalesce)`` is still queued behind the
        in-flight cap, the new send replaces it in place (the superseded
        handle fires no callbacks).  In-flight messages never coalesce —
        they are already on the wire.
        """
        if recipient == BROADCAST:
            raise NetworkError(
                "reliable broadcast is not supported; fan out unicast sends "
                "(gossip should stay on the datagram network)"
            )
        pending = PendingSend(
            rmid=f"{self.rmid_prefix}{next(self._counter)}",
            sender=sender, recipient=recipient,
            topic=topic, body=dict(body), first_sent=self.sim.now,
            coalesce=coalesce, on_fail=on_fail, on_ack=on_ack,
            # Capture the caller's context so retries and dead-letter
            # verdicts stay attributed to the decision that sent the
            # message.  Read-only: routine heartbeats with nothing
            # traceable in flight mint no spans (the ~5% overhead budget
            # lives or dies on this path); causally interesting senders —
            # kill orders, compromised-device reports — activate their
            # span before calling send.
            ctx=self.sim.telemetry.current,
        )
        sent = self._m_sent
        if sent is None:
            sent = self._m_sent = self.sim.metrics.counter("reliable.sent")
        sent.inc()
        cap = self.max_in_flight
        if cap is not None and self._in_flight.get(sender, 0) >= cap:
            self._enqueue(pending)
        else:
            self._pending[pending.rmid] = pending
            self._in_flight[sender] = self._in_flight.get(sender, 0) + 1
            self._transmit(pending)
        return pending

    def outstanding(self) -> int:
        return len(self._pending) + sum(
            len(queue) for queue in self._queued.values())

    def queue_depth(self, sender: Optional[str] = None) -> int:
        """Messages waiting behind the in-flight cap (0 when uncapped)."""
        if sender is not None:
            return len(self._queued.get(sender, ()))
        return sum(len(queue) for queue in self._queued.values())

    # -- internals -------------------------------------------------------------

    def _enqueue(self, pending: PendingSend) -> None:
        queue = self._queued.setdefault(pending.sender, [])
        if pending.coalesce is not None:
            slot = (pending.recipient, pending.topic, pending.coalesce)
            for index, waiting in enumerate(queue):
                if (waiting.recipient, waiting.topic, waiting.coalesce) == slot:
                    waiting.superseded = True
                    queue[index] = pending     # keep the old queue position
                    self.sim.metrics.counter("reliable.coalesced").inc()
                    self.sim.metrics.histogram("reliable.queue_depth").observe(
                        len(queue))
                    return
        queue.append(pending)
        self.sim.metrics.counter("reliable.queued").inc()
        self.sim.metrics.histogram("reliable.queue_depth").observe(len(queue))

    def _resolve(self, pending: PendingSend) -> None:
        """One in-flight send finished (ack or dead): admit the backlog."""
        sender = pending.sender
        in_flight = self._in_flight.get(sender, 0) - 1
        if in_flight > 0:
            self._in_flight[sender] = in_flight
        else:
            self._in_flight.pop(sender, None)
            in_flight = max(in_flight, 0)
        cap = self.max_in_flight
        queue = self._queued.get(sender)
        while queue and (cap is None or in_flight < cap):
            next_pending = queue.pop(0)
            self._pending[next_pending.rmid] = next_pending
            in_flight += 1
            self._in_flight[sender] = in_flight
            self._transmit(next_pending)
        if queue is not None and not queue:
            del self._queued[sender]

    def _transmit(self, pending: PendingSend) -> None:
        pending.attempts += 1
        wire = dict(pending.body)
        wire["_rmid"] = pending.rmid
        wire["_rfrom"] = pending.sender
        # Transmit under the context captured at send() so the network
        # stamps the right trace even when this message drains out of the
        # flow-control queue during another message's resolution, and so
        # the retry check below inherits it via scheduler capture.
        telemetry = self.sim.telemetry
        previous = telemetry.activate(
            pending.ctx if pending.ctx is not None else telemetry.current)
        try:
            self.network.send(pending.sender, pending.recipient,
                              pending.topic, wire)
            delay = self.timeout * (self.backoff ** (pending.attempts - 1))
            if self.jitter > 0:
                delay += self._rng.uniform(0.0, self.jitter * delay)
            self.sim.schedule(delay, self._check, pending,
                              label=f"{pending.sender}:reliable-retry")
        finally:
            telemetry.activate(previous)

    def _check(self, pending: PendingSend) -> None:
        if pending.acked or pending.dead:
            return
        if pending.attempts >= self.max_attempts:
            pending.dead = True
            self._pending.pop(pending.rmid, None)
            self.dead_letters.append(pending)
            self.sim.metrics.counter("reliable.dead_letter").inc()
            self.sim.record("reliable.dead_letter", pending.sender,
                            recipient=pending.recipient, topic=pending.topic,
                            attempts=pending.attempts)
            if pending.ctx is not None:
                self.sim.telemetry.start_span(
                    "reliable.dead_letter", pending.sender, parent=pending.ctx,
                    topic=pending.topic, recipient=pending.recipient,
                    attempts=pending.attempts)
            if pending.on_fail is not None:
                pending.on_fail(pending)
            self._resolve(pending)
            return
        self.sim.metrics.counter("reliable.resends").inc()
        self._transmit(pending)

    def _on_ack(self, rmid: Optional[str]) -> None:
        pending = self._pending.pop(rmid, None) if rmid is not None else None
        if pending is None or pending.acked:
            return
        pending.acked = True
        pending.acked_at = self.sim.now
        if self._m_acked is None:
            metrics = self.sim.metrics
            self._m_acked = metrics.counter("reliable.acked")
            self._m_rtt = metrics.histogram("reliable.rtt")
        self._m_acked.inc()
        self._m_rtt.observe(self.sim.now - pending.first_sent)
        if pending.on_ack is not None:
            pending.on_ack(pending)
        self._resolve(pending)

    def _wrap(self, address: str, inner: Handler) -> Handler:
        def handler(message: Message) -> None:
            if message.topic == ACK_TOPIC:
                self._on_ack(message.body.get("_rmid"))
                return
            rmid = message.body.get("_rmid")
            if rmid is None:            # ordinary datagram traffic
                inner(message)
                return
            # Always re-ack: the previous ack may have been lost.
            origin = message.body.get("_rfrom", message.sender)
            self.network.send(address, origin, ACK_TOPIC, {"_rmid": rmid})
            seen = self._seen.setdefault(address, set())
            if rmid in seen:
                self.sim.metrics.counter("reliable.duplicates").inc()
                return
            seen.add(rmid)
            clean = {key: value for key, value in message.body.items()
                     if key not in _PROTOCOL_KEYS}
            inner(Message(sender=message.sender, recipient=message.recipient,
                          topic=message.topic, body=clean,
                          sent_at=message.sent_at, msg_id=message.msg_id,
                          trace=message.trace))

        return handler
