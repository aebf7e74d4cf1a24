"""Unit tests for the message bus."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NetworkError
from repro.net.message import Message
from repro.net.network import Network
from repro.net.topology import Topology
from repro.sim.simulator import Simulator
from repro.telemetry.spans import SpanContext


def make_net(**kwargs):
    sim = Simulator(seed=1)
    return sim, Network(sim, **kwargs)


def test_basic_delivery_with_latency():
    sim, net = make_net(base_latency=0.5, jitter=0.0)
    inbox = []
    net.register("a", lambda message: None)
    net.register("b", inbox.append)
    net.send("a", "b", "topic", {"x": 1})
    sim.run()
    assert len(inbox) == 1
    assert inbox[0].body == {"x": 1}
    assert sim.now == 0.5


def test_broadcast_excludes_sender():
    sim, net = make_net(jitter=0.0)
    boxes = {name: [] for name in ("a", "b", "c")}
    for name in boxes:
        net.register(name, boxes[name].append)
    net.broadcast("a", "topic", {})
    sim.run()
    assert len(boxes["a"]) == 0
    assert len(boxes["b"]) == 1
    assert len(boxes["c"]) == 1


def test_loss_rate_drops_messages():
    sim, net = make_net(loss_rate=1.0 - 1e-12)  # effectively always drop
    inbox = []
    net.register("a", lambda message: None)
    net.register("b", inbox.append)
    for _ in range(20):
        net.send("a", "b", "topic", {})
    sim.run()
    assert inbox == []
    assert sim.metrics.value("net.dropped") == 20


def test_unroutable_and_unreachable_counted():
    sim, net = make_net()
    net.register("a", lambda message: None)
    net.send("a", "ghost", "topic", {})
    assert sim.metrics.value("net.unroutable") == 1

    net.register("b", lambda message: None)
    net.topology.partition([["a"], ["b"]])
    net.send("a", "b", "topic", {})
    assert sim.metrics.value("net.unreachable") == 1


def test_register_validation():
    _sim, net = make_net()
    net.register("a", lambda message: None)
    with pytest.raises(NetworkError):
        net.register("a", lambda message: None)
    with pytest.raises(NetworkError):
        net.register("*", lambda message: None)


def test_unregister_removes_from_topology():
    sim, net = make_net()
    net.register("a", lambda message: None)
    net.register("b", lambda message: None)
    net.unregister("b")
    net.send("a", "b", "topic", {})
    sim.run()
    assert sim.metrics.value("net.unroutable") == 1


def test_tap_sees_all_sends():
    sim, net = make_net()
    taps = []
    net.tap(taps.append)
    net.register("a", lambda message: None)
    net.register("b", lambda message: None)
    net.send("a", "b", "t1", {})
    net.send("a", "ghost", "t2", {})   # even unroutable sends are tapped
    assert [message.topic for message in taps] == ["t1", "t2"]


def test_latency_histogram_recorded():
    sim, net = make_net(base_latency=0.2, jitter=0.0)
    net.register("a", lambda message: None)
    net.register("b", lambda message: None)
    net.send("a", "b", "topic", {})
    sim.run()
    histogram = sim.metrics.get("net.latency")
    assert histogram.count == 1
    assert histogram.mean == pytest.approx(0.2)


def test_invalid_parameters_rejected():
    sim = Simulator(seed=1)
    with pytest.raises(NetworkError):
        Network(sim, base_latency=-1.0)
    with pytest.raises(NetworkError):
        Network(sim, loss_rate=1.5)
    with pytest.raises(NetworkError):
        Network(sim, loss_rate=-0.1)
    # A delivery's latency is validated when it is set, not when it is used.
    net = Network(sim)
    for name in ("base_latency", "jitter"):
        with pytest.raises(NetworkError):
            setattr(net, name, -0.01)
    assert (net.base_latency, net.jitter) == (0.1, 0.05)


def test_total_blackout_loss_rate_allowed():
    # loss_rate == 1.0 models a fully severed link (partition experiments).
    sim, net = make_net(loss_rate=1.0)
    inbox = []
    net.register("a", lambda message: None)
    net.register("b", inbox.append)
    net.send("a", "b", "topic", {})
    sim.run()
    assert inbox == []
    assert sim.metrics.value("net.dropped") == 1


def test_suspend_and_resume_silence_an_address():
    sim, net = make_net()
    inbox = []
    net.register("a", lambda message: None)
    net.register("b", inbox.append)
    net.suspend("b")
    net.send("a", "b", "topic", {"n": 1})
    sim.run()
    assert inbox == []
    assert sim.metrics.value("net.suspended_drop") == 1
    net.resume("b")
    net.send("a", "b", "topic", {"n": 2})
    sim.run()
    assert [message.body["n"] for message in inbox] == [2]


def test_explicit_topology_respected():
    sim = Simulator(seed=1)
    topo = Topology.line(["a", "b", "c"])
    net = Network(sim, topology=topo, jitter=0.0)
    boxes = {name: [] for name in ("a", "b", "c")}
    for name in boxes:
        net.register(name, boxes[name].append)
    net.send("a", "c", "topic", {})   # no direct a-c link
    sim.run()
    assert boxes["c"] == []
    net.send("a", "b", "topic", {})
    sim.run()
    assert len(boxes["b"]) == 1


def test_recipient_order_follows_register_and_unregister():
    sim, net = make_net(jitter=0.0)
    inbox = []
    for name in ("c", "a"):
        net.register(name, lambda message, name=name: inbox.append(name))
    assert net.addresses() == ["a", "c"]
    net.broadcast("a", "t", {})
    sim.run()
    net.register("b", lambda message: inbox.append("b"))
    assert net.addresses() == ["a", "b", "c"]
    net.broadcast("a", "t", {})
    sim.run()
    net.unregister("c")
    assert net.addresses() == ["a", "b"]
    net.broadcast("a", "t", {})
    sim.run()
    assert inbox == ["c", "b", "c", "b"]
    assert sim.metrics.value("net.unroutable") == 0


def test_mutating_addresses_leaves_the_network_unchanged():
    sim, net = make_net(jitter=0.0)
    inbox = []
    for name in ("a", "b", "c"):
        net.register(name, lambda message, name=name: inbox.append(name))
    listed = net.addresses()
    listed.remove("b")
    listed.append("ghost")
    assert net.addresses() == ["a", "b", "c"]
    net.broadcast("a", "t", {})
    sim.run()
    assert inbox == ["b", "c"]
    assert sim.metrics.value("net.unroutable") == 0


# -- the one-pass fan-out against the per-recipient delivery it replaced -------


class PerRecipientNetwork(Network):
    """The former send path: every recipient went through its own
    ``_deliver_one`` call and ``Simulator.schedule``."""

    def send(self, sender, recipient, topic, body):
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
            for address in sorted(self._handlers):
                if address != sender:
                    self._deliver_one(message, address)
        else:
            self._deliver_one(message, recipient)
        return message

    def _deliver_one(self, message, recipient):
        if recipient not in self._handlers:
            self._m_unroutable.inc()
            self.sim.record("net.unroutable", message.sender, recipient=recipient,
                            topic=message.topic)
            return
        if not self.topology.can_reach(message.sender, recipient):
            self._m_unreachable.inc()
            self.sim.record("net.unreachable", message.sender, recipient=recipient,
                            topic=message.topic)
            return
        if self._rng.chance(self.loss_rate):
            self._m_dropped.inc()
            self.sim.record("net.dropped", message.sender, recipient=recipient,
                            topic=message.topic)
            return
        latency = self.base_latency
        if self.jitter > 0:
            latency += self._rng.uniform(0.0, self.jitter)
        self.sim.schedule(latency, self._arrive, message, recipient,
                          label=f"net:{message.topic}")


class LabelLog:
    """Stands in for the simulator's profiler: logs every event's label."""

    def __init__(self):
        self.labels = []

    def add(self, label, _elapsed):
        self.labels.append(label)


class Side:
    """One network and everything it is compared on."""

    def __init__(self, cls, seed, size, link):
        self.sim = Simulator(seed=seed)
        self.sim.profiler = LabelLog()
        self.net = cls(self.sim, **link)
        self.names = [f"d{i}" for i in range(size)]
        self.arrivals = []
        for name in self.names:
            self.register(name)

    def register(self, name):
        def handler(message, name=name):
            span = self.sim.telemetry.current
            self.arrivals.append((self.sim.now, name, message.topic,
                                  None if span is None else span.span_id))
        self.net.register(name, handler)

    def apply(self, op):
        kind, *args = op
        net, names = self.net, self.names
        if kind == "send":
            sender, recipient, traced = args
            topic = f"u{len(self.arrivals)}"
            recipient = "ghost" if recipient is None else names[recipient]
            if traced:
                previous = self.sim.telemetry.activate(SpanContext("t0", "s0"))
                net.send(names[sender], recipient, topic, {})
                self.sim.telemetry.activate(previous)
            else:
                net.send(names[sender], recipient, topic, {})
        elif kind == "broadcast":
            sender = "outsider" if args[0] is None else names[args[0]]
            net.broadcast(sender, "announce", {})
        elif kind == "link":
            a, b = args
            if a != b:
                net.topology.add_link(names[a], names[b])
        elif kind == "partition":
            # Residue classes mod k; the last class stays unmentioned.
            k = args[0]
            net.topology.partition([[n for i, n in enumerate(names) if i % k == group]
                                    for group in range(k - 1)])
        elif kind == "heal":
            net.topology.heal()
        elif kind in ("loss_rate", "jitter", "base_latency"):
            setattr(net, kind, args[0])
        elif kind == "suspend":
            net.suspend(names[args[0]])
        elif kind == "resume":
            net.resume(names[args[0]])
        elif kind == "unregister":
            net.unregister(names[args[0]])
        elif kind == "register":
            if names[args[0]] not in net.addresses():
                self.register(names[args[0]])
        elif kind == "run":
            self.sim.run(until=self.sim.now + args[0])

    def observed(self):
        return {
            "trace": [(e.time, e.kind, e.subject, e.detail)
                      for e in self.sim.trace.events],
            "metrics": self.sim.metrics.snapshot(),
            "arrivals": self.arrivals,
            "labels": self.sim.profiler.labels,
            "spans": [span.to_dict() for span in self.sim.telemetry.spans],
        }


LOSS_RATES = st.sampled_from([0.0, 0.3, 1.0])
JITTERS = st.sampled_from([0.0, 0.05])
BASE_LATENCIES = st.sampled_from([0.0, 0.1, 0.25])


def fleet_ops(size):
    index = st.integers(0, size - 1)
    return st.lists(st.one_of(
        st.tuples(st.just("send"), index, st.one_of(st.none(), index), st.booleans()),
        st.tuples(st.just("broadcast"), st.one_of(st.none(), index)),
        st.tuples(st.just("broadcast"), index),
        st.tuples(st.just("link"), index, index),
        st.tuples(st.just("partition"), st.integers(1, 3)),
        st.tuples(st.just("heal")),
        st.tuples(st.just("loss_rate"), LOSS_RATES),
        st.tuples(st.just("jitter"), JITTERS),
        st.tuples(st.just("base_latency"), BASE_LATENCIES),
        st.tuples(st.just("suspend"), index),
        st.tuples(st.just("resume"), index),
        st.tuples(st.just("unregister"), index),
        st.tuples(st.just("register"), index),
        st.tuples(st.just("run"), st.sampled_from([0.0, 0.05, 0.2, 1.0])),
    ), max_size=40)


@st.composite
def fleets(draw):
    size = draw(st.integers(2, 12))
    link = {"loss_rate": draw(LOSS_RATES), "jitter": draw(JITTERS),
            "base_latency": draw(BASE_LATENCIES)}
    return draw(st.integers(0, 2**16)), size, link, draw(fleet_ops(size))


@settings(max_examples=200, deadline=None)
@given(fleets())
def test_one_pass_fan_out_matches_per_recipient_delivery(fleet):
    seed, size, link, ops = fleet
    sides = [Side(Network, seed, size, link), Side(PerRecipientNetwork, seed, size, link)]
    for op in ops + [("run", 10.0)]:
        for side in sides:
            side.apply(op)
        assert sides[0].observed() == sides[1].observed(), op
