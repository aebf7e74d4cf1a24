"""The sharded execution engine: partitioning, barriers, merge, timing.

The scenario-level byte-identity property lives in
``tests/scenarios/test_sharded_scenario.py``; here we pin down the
engine pieces it stands on — deterministic partitions, the barrier
schedule, routing order, the summary/trace/audit merges, and the
:class:`~repro.sim.profiling.BarrierTiming` satellite.
"""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.net.shardnet import ShardRouter, WireMessage, crc01, wire_sort_key
from repro.sim.profiling import BarrierTiming
from repro.sim.sharding import (
    ShardPlan,
    ShardResult,
    audit_chain_digest,
    barrier_schedule,
    cut_edges,
    merge_summaries,
    merge_trace,
    partition_crc,
    partition_graph,
    route_batches,
)
from repro.sim.simulator import Simulator


# -- partitioning --------------------------------------------------------------


def ring(n):
    names = [f"d{i:03d}" for i in range(n)]
    return names, [(names[i], names[(i + 1) % n]) for i in range(n)]


def test_partition_graph_is_deterministic_and_balanced():
    members, edges = ring(40)
    a = partition_graph(members, edges, 4)
    b = partition_graph(list(reversed(members)), list(reversed(edges)), 4)
    assert a == b                    # input order never matters
    sizes = [sum(1 for s in a.values() if s == k) for k in range(4)]
    assert all(size == 10 for size in sizes)


def test_partition_graph_beats_crc_on_community_topology():
    # Contiguous communities chained in a ring: BFS growth should cut far
    # fewer edges than hashing members uniformly.
    members, edges = ring(64)
    graph = partition_graph(members, edges, 4)
    crc = partition_crc(members, 4)
    assert cut_edges(graph, edges) < cut_edges(crc, edges)
    assert cut_edges(graph, edges) <= 8


def test_partition_crc_assigns_every_member_stably():
    members, _ = ring(20)
    a = partition_crc(members, 3, salt=7)
    assert set(a) == set(members)
    assert a == partition_crc(members, 3, salt=7)
    assert a != partition_crc(members, 3, salt=8)  # salt reshuffles


def test_shard_plan_pins_and_members():
    members, edges = ring(12)
    plan = ShardPlan.build(members + ["watchdog"], 3, edges=edges,
                           pins={"watchdog": 2})
    assert plan.shard_of("watchdog") == 2
    assert "watchdog" in plan.members_of(2)
    assert sum(plan.sizes()) == 13
    with pytest.raises(ConfigurationError):
        ShardPlan.build(members, 3, pins={"watchdog": 5})
    with pytest.raises(ConfigurationError):
        ShardPlan.build(members, 0)


# -- barrier schedule and routing ----------------------------------------------


def test_barrier_schedule_covers_horizon_without_drift():
    assert barrier_schedule(48.0, 4.0) == [4.0 * (i + 1) for i in range(12)]
    assert barrier_schedule(10.0, 4.0) == [4.0, 8.0, 10.0]
    assert barrier_schedule(3.0, 4.0) == [3.0]
    with pytest.raises(ConfigurationError):
        barrier_schedule(0.0, 4.0)
    with pytest.raises(ConfigurationError):
        barrier_schedule(10.0, -1.0)


def wire(sender, recipient, deliver_at, seq):
    return WireMessage(sender, recipient, "t", {}, sent_at=0.0,
                       deliver_at=deliver_at, seq=seq)


def test_route_batches_orders_by_canonical_key_and_counts_unroutable():
    assignment = {"a": 0, "b": 1}
    outboxes = [
        [wire("x", "b", 5.0, 2), wire("x", "a", 3.0, 1)],
        [wire("y", "b", 5.0, 1), wire("y", "ghost", 1.0, 1)],
    ]
    batches, unroutable = route_batches(outboxes, assignment, 2)
    assert unroutable == 1
    assert [m.recipient for m in batches[0]] == ["a"]
    # deliver_at ties break by sender name then per-sender seq.
    assert [(m.sender, m.seq) for m in batches[1]] == [("x", 2), ("y", 1)]
    assert [wire_sort_key(m) for m in batches[1]] == sorted(
        wire_sort_key(m) for m in batches[1])


# -- the shard router ----------------------------------------------------------


def test_shard_router_latency_is_stateless_and_within_lookahead():
    # The same (sender, recipient, seq) must get the same latency in any
    # process, and every latency must stay inside [window, 2*window).
    sim_a, sim_b = Simulator(seed=5), Simulator(seed=5)
    ra = ShardRouter(sim_a, seed=5, window=4.0)
    rb = ShardRouter(sim_b, seed=5, window=4.0)
    # Interleave unrelated traffic on router A only: B's draws for dev-x
    # must match anyway (a shared RNG stream would diverge here).
    for i in range(5):
        ra.send("noise", "elsewhere", "t", {})
    a = [ra.send("dev-x", "dev-y", "t", {"i": i}) for i in range(10)]
    b = [rb.send("dev-x", "dev-y", "t", {"i": i}) for i in range(10)]
    assert [m.deliver_at for m in a] == [m.deliver_at for m in b]
    for m in a:
        assert 4.0 <= m.deliver_at - m.sent_at < 8.0


def test_shard_router_delivers_injected_batch_in_order(sim):
    router = ShardRouter(sim, seed=1, window=2.0)
    got = []
    router.register("dst", lambda message: got.append(message.body["i"]))
    batch = [WireMessage("s", "dst", "t", {"i": i}, 0.0, 2.0, i + 1)
             for i in range(4)]
    router.inject(sorted(batch, key=wire_sort_key))
    sim.run(until=3.0)
    assert got == [0, 1, 2, 3]
    assert sim.metrics.counter("net.shard.delivered").value == 4


def test_shard_router_validation_and_loss(sim):
    with pytest.raises(Exception):
        ShardRouter(sim, seed=0, window=0.0)
    # The router never drops: every send is in the next drained outbox.
    router = ShardRouter(sim, seed=0, window=1.0)
    sent = [router.send("a", "b", "t", {"i": i}) for i in range(20)]
    assert router.drain_outbox() == sent


def test_crc01_range_and_stability():
    values = [crc01(7, "lat", "a", "b", seq) for seq in range(50)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert values == [crc01(7, "lat", "a", "b", seq) for seq in range(50)]
    assert len(set(values)) > 40      # well spread


# -- merges --------------------------------------------------------------------


def result(shard, trace=(), summary=None, audit=()):
    return ShardResult(shard_index=shard, trace=list(trace),
                       summary=dict(summary or {}), audit=list(audit))


def test_merge_trace_is_stable_per_subject():
    r0 = result(0, trace=[(1.0, "a", "a first"), (1.0, "a", "a second")])
    r1 = result(1, trace=[(1.0, "b", "b line"), (0.5, "z", "z early")])
    lines = merge_trace([r0, r1])
    # time first, then subject; equal (time, subject) keeps shard order.
    assert lines == ["z early", "a first", "a second", "b line"]


def test_merge_summaries_sums_numbers_and_dicts_checks_flags():
    merged = merge_summaries([
        {"killed": 2, "rejected": {"bad-mac": 1}, "signed": True},
        {"killed": 3, "rejected": {"bad-mac": 2, "replayed": 1},
         "signed": True},
    ])
    assert merged == {"killed": 5,
                      "rejected": {"bad-mac": 3, "replayed": 1},
                      "signed": True}
    with pytest.raises(SimulationError):
        merge_summaries([{"signed": True}, {"signed": False}])


def test_audit_chain_digest_is_order_insensitive_but_content_sensitive():
    a = audit_chain_digest([result(0, audit=["x", "y"]), result(1, audit=["z"])])
    b = audit_chain_digest([result(0, audit=["z"]), result(1, audit=["y", "x"])])
    c = audit_chain_digest([result(0, audit=["x", "y", "w"])])
    assert a == b
    assert a != c


# -- BarrierTiming (satellite) -------------------------------------------------


def test_barrier_timing_accounts_busy_vs_wait():
    timing = BarrierTiming(2)
    timing.add_window([0.10, 0.30], window_wall=0.32)
    timing.add_window([0.20, 0.20], window_wall=0.25)
    assert timing.windows == 2
    assert timing.busy_sec == [pytest.approx(0.30), pytest.approx(0.50)]
    assert timing.barrier_sec[0] == pytest.approx(0.27)
    assert timing.imbalance() == pytest.approx(0.50 / 0.40)
    with pytest.raises(ValueError):
        timing.add_window([0.1], window_wall=0.2)
    with pytest.raises(ValueError):
        BarrierTiming(0)
