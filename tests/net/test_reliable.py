"""Unit tests for the ack/retry channel (net/reliable.py)."""

import pytest

import repro.net.reliable as reliable
from repro.errors import NetworkError
from repro.net.message import BROADCAST
from repro.net.network import Network
from repro.net.reliable import ACK_TOPIC, ReliableChannel
from repro.sim.simulator import Simulator
from repro.telemetry.spans import SpanContext


def build(loss_rate=0.0, seed=7, **channel_kwargs):
    sim = Simulator(seed=seed)
    network = Network(sim, base_latency=0.1, jitter=0.0, loss_rate=loss_rate)
    channel = ReliableChannel(network, **channel_kwargs)
    return sim, network, channel


def test_lossless_send_delivers_once_and_acks():
    sim, network, channel = build()
    inbox = []
    channel.register("a", lambda message: None)
    channel.register("b", inbox.append)
    pending = channel.send("a", "b", "hello", {"x": 1})
    sim.run(until=5.0)
    assert [message.body for message in inbox] == [{"x": 1}]
    assert pending.acked and pending.attempts == 1
    assert channel.outstanding() == 0
    assert sim.metrics.value("reliable.acked") == 1
    # Protocol bookkeeping is stripped before the application handler.
    assert "_rmid" not in inbox[0].body


def test_retries_recover_from_heavy_loss():
    # Flat backoff: 30 attempts at 0.5 s intervals.  Seed 9 loses ten
    # attempts to the 60% loss before an ack makes it back.
    sim, network, channel = build(loss_rate=0.6, max_attempts=30,
                                  timeout=0.5, backoff=1.0, seed=9)
    inbox = []
    channel.register("a", lambda message: None)
    channel.register("b", inbox.append)
    pending = channel.send("a", "b", "hello", {"x": 1})
    sim.run(until=300.0)
    assert pending.acked
    assert pending.attempts > 1                      # loss actually bit
    assert len(inbox) == 1                           # duplicates suppressed
    assert sim.metrics.value("reliable.resends") > 0


def test_duplicate_deliveries_suppressed_and_reacked():
    sim, network, channel = build()
    inbox = []
    acks = []
    channel.register("b", inbox.append)
    network.register("raw", lambda message: acks.append(message))
    # The same rmid arriving twice (a retry whose first copy survived):
    # one delivery, two acks (the re-ack covers a lost first ack).
    for _ in range(2):
        network.send("raw", "b", "hello", {"x": 1, "_rmid": "r99",
                                           "_rfrom": "raw"})
    sim.run(until=5.0)
    assert len(inbox) == 1
    assert [message.topic for message in acks] == [ACK_TOPIC, ACK_TOPIC]
    assert sim.metrics.value("reliable.duplicates") == 1


def test_dead_letter_after_attempt_budget():
    sim, network, channel = build(max_attempts=3, timeout=0.5, jitter=0.0)
    failures = []
    channel.register("a", lambda message: None)
    # "b" is registered but suspended: every attempt vanishes.
    channel.register("b", lambda message: None)
    network.suspend("b")
    pending = channel.send("a", "b", "hello", {}, on_fail=failures.append)
    sim.run(until=60.0)
    assert pending.dead and not pending.acked
    assert pending.attempts == 3
    assert failures == [pending]
    assert channel.dead_letters == [pending]
    assert channel.outstanding() == 0
    assert sim.metrics.value("reliable.dead_letter") == 1


def test_backoff_delays_grow_exponentially():
    sim, network, channel = build(max_attempts=4, timeout=1.0, jitter=0.0)
    channel.register("a", lambda message: None)
    channel.register("b", lambda message: None)
    network.suspend("b")
    sent_at = []
    network.tap(lambda message: sent_at.append(sim.now)
                if message.topic == "hello" else None)
    channel.send("a", "b", "hello", {})
    sim.run(until=60.0)
    gaps = [b - a for a, b in zip(sent_at, sent_at[1:])]
    assert len(sent_at) == 4
    assert gaps == pytest.approx([1.0, 2.0, 4.0])


def test_plain_datagrams_pass_through_untouched():
    sim, network, channel = build()
    inbox = []
    channel.register("b", inbox.append)
    network.register("raw", lambda message: None)
    network.send("raw", "b", "gossip", {"x": 2})
    sim.run(until=5.0)
    assert [message.body for message in inbox] == [{"x": 2}]
    assert sim.metrics.value("reliable.acked") == 0


def test_attach_wraps_an_existing_endpoint():
    sim, network, channel = build()
    inbox = []
    network.register("b", inbox.append)
    channel.attach("b")
    channel.register("a", lambda message: None)
    channel.send("a", "b", "hello", {"x": 3})
    sim.run(until=5.0)
    assert [message.body for message in inbox] == [{"x": 3}]
    assert sim.metrics.value("reliable.acked") == 1


def test_broadcast_rejected_and_parameters_validated():
    sim, network, channel = build()
    channel.register("a", lambda message: None)
    with pytest.raises(NetworkError):
        channel.send("a", BROADCAST, "hello", {})
    for kwargs in ({"timeout": 0.0}, {"backoff": 0.5}, {"jitter": -1.0},
                   {"max_attempts": 0}):
        with pytest.raises(NetworkError):
            ReliableChannel(network, **kwargs)


def test_same_seed_same_retry_schedule():
    def retry_times(seed):
        sim, network, channel = build(max_attempts=4, timeout=1.0,
                                      jitter=0.5, seed=seed)
        channel.register("a", lambda message: None)
        channel.register("b", lambda message: None)
        network.suspend("b")
        sent_at = []
        network.tap(lambda message: sent_at.append(sim.now)
                    if message.topic == "hello" else None)
        channel.send("a", "b", "hello", {})
        sim.run(until=60.0)
        return sent_at

    assert retry_times(5) == retry_times(5)
    assert retry_times(5) != retry_times(6)


# -- flow control: per-sender in-flight cap + snapshot coalescing -------------------


def test_in_flight_cap_queues_excess_sends():
    sim, network, channel = build(max_in_flight=2)
    inbox = []
    channel.register("a", lambda message: None)
    channel.register("b", inbox.append)
    handles = [channel.send("a", "b", "data", {"n": n}) for n in range(5)]
    assert channel.queue_depth("a") == 3           # 2 on the wire, 3 waiting
    assert channel.outstanding() == 5
    sim.run(until=10.0)
    # Everything drains, in FIFO order, exactly once each.
    assert [message.body["n"] for message in inbox] == [0, 1, 2, 3, 4]
    assert all(handle.acked for handle in handles)
    assert channel.queue_depth() == 0
    assert channel.outstanding() == 0
    assert sim.metrics.value("reliable.queued") == 3


def test_queue_drains_on_dead_letters_too():
    # Unreachable recipient: every send dead-letters, but the cap still
    # admits the backlog one resolution at a time instead of stalling.
    sim, network, channel = build(max_in_flight=1, max_attempts=2,
                                  timeout=0.5, jitter=0.0)
    channel.register("a", lambda message: None)
    handles = [channel.send("a", "nowhere", "data", {"n": n}) for n in range(3)]
    sim.run(until=60.0)
    assert all(handle.dead for handle in handles)
    assert len(channel.dead_letters) == 3
    assert channel.queue_depth() == 0


def test_coalescing_supersedes_queued_snapshots():
    sim, network, channel = build(max_in_flight=1)
    inbox = []
    channel.register("a", lambda message: None)
    channel.register("b", inbox.append)
    first = channel.send("a", "b", "report", {"v": 1}, coalesce="telemetry")
    stale = channel.send("a", "b", "report", {"v": 2}, coalesce="telemetry")
    fresh = channel.send("a", "b", "report", {"v": 3}, coalesce="telemetry")
    other = channel.send("a", "b", "order", {"v": 4})   # different topic: kept
    assert stale.superseded and not fresh.superseded
    assert channel.queue_depth("a") == 2                # fresh + order
    sim.run(until=10.0)
    # The wire only ever carried v=1 (in flight before v=2 arrived), the
    # winning v=3 snapshot, and the non-coalescible order.
    assert [message.body for message in inbox] == [{"v": 1}, {"v": 3}, {"v": 4}]
    assert first.acked and fresh.acked and other.acked
    assert not stale.acked and not stale.dead           # dropped silently
    assert sim.metrics.value("reliable.coalesced") == 1


def test_coalescing_never_touches_in_flight_messages():
    sim, network, channel = build(max_in_flight=2)
    inbox = []
    channel.register("a", lambda message: None)
    channel.register("b", inbox.append)
    wire1 = channel.send("a", "b", "report", {"v": 1}, coalesce="telemetry")
    wire2 = channel.send("a", "b", "report", {"v": 2}, coalesce="telemetry")
    assert not wire1.superseded and not wire2.superseded
    sim.run(until=10.0)
    assert [message.body["v"] for message in inbox] == [1, 2]


def test_uncapped_channel_ignores_coalesce_tag():
    sim, network, channel = build()                      # max_in_flight=None
    inbox = []
    channel.register("a", lambda message: None)
    channel.register("b", inbox.append)
    for value in range(4):
        channel.send("a", "b", "report", {"v": value}, coalesce="telemetry")
    assert channel.queue_depth() == 0                    # nothing ever queues
    sim.run(until=10.0)
    assert [message.body["v"] for message in inbox] == [0, 1, 2, 3]


def test_caps_are_per_sender_not_global():
    sim, network, channel = build(max_in_flight=1)
    channel.register("a", lambda message: None)
    channel.register("b", lambda message: None)
    channel.register("c", lambda message: None)
    channel.send("a", "c", "data", {})
    channel.send("b", "c", "data", {})                  # different sender
    assert channel.queue_depth("a") == 0
    assert channel.queue_depth("b") == 0                # both on the wire
    channel.send("a", "c", "data", {})
    assert channel.queue_depth("a") == 1                # a is at its cap


def test_max_in_flight_validation():
    with pytest.raises(NetworkError):
        build(max_in_flight=0)


def test_inner_handler_gets_the_wire_message_without_protocol_keys():
    sim, network, channel = build()
    wire, inbox = [], []
    network.tap(lambda message: wire.append(message)
                if message.topic == "hello" else None)
    channel.register("a", lambda message: None)
    channel.register("b", inbox.append)
    previous = sim.telemetry.activate(SpanContext("t0", "s0"))
    try:
        channel.send("a", "b", "hello", {"x": 1, "y": [2, 3]})
    finally:
        sim.telemetry.activate(previous)
    sim.run(until=5.0)
    [sent], [got] = wire, inbox
    assert sent.body.keys() == {"x", "y", "_rmid", "_rfrom"}
    assert got.body == {"x": 1, "y": [2, 3]}
    assert (got.msg_id, got.sent_at, got.sender, got.recipient, got.topic) == (
        sent.msg_id, sent.sent_at, sent.sender, sent.recipient, sent.topic)
    assert got.trace is sent.trace == SpanContext("t0", "s0")
    # The delivery is rebuilt directly, not through ``dataclasses.replace``.
    assert not hasattr(reliable, "replace")
