"""The sharded fleet sets up in closed form.

The coordinator's plan walks positions in sorted-name order, each
position's peers taken from :func:`neighbor_cells`, with no edge list.
Each :class:`~repro.scenarios.sharded.FleetShard` derives its initial
state from one CRC prefix (:func:`initial_matrix`) and a device's
name-sorted neighbor list only when that device first spreads
(:meth:`FleetShard.neighbors_of`).  Each must agree exactly with the
definition it replaces: the adjacency spelled out by
:func:`fleet_edges`, :func:`initial_vector` per device, the plan
:meth:`ShardPlan.build` makes from the edge list, and the 100k-device
plan as it was assigned before.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.scenarios.sharded import (
    FORGER,
    WATCHDOG,
    FleetShard,
    ShardedFleetSpec,
    ShardedScenario,
    build_shard,
    community_block,
    device_name,
    fleet_edges,
    fleet_members,
    fleet_space,
    initial_matrix,
    initial_vector,
    neighbor_indices,
)
from repro.sim.sharding import ShardPlan, run_sharded

#: sha256 over ``json.dumps(list(plan.assignment.items()))`` of the
#: perfbench sharded-fleet plan (100k devices, 2 shards, seed 1): the
#: member -> shard map and the order members were claimed in.
PLAN_100K_DIGEST = "0aa51d549337d62ac00f17af135dfc2f9221c8016f6e9d8f18d9837127ffbcda"


def edge_adjacency(spec: ShardedFleetSpec) -> dict:
    adjacency: dict = {name: set() for name in fleet_members(spec)}
    for a, b in fleet_edges(spec):
        adjacency[a].add(b)
        adjacency[b].add(a)
    return adjacency


@pytest.mark.parametrize("n_devices", [4, 5, 96, 200, 1000])
@pytest.mark.parametrize("n_communities", [1, 3, 8, 64, 5000])
def test_closed_form_neighbors_are_the_edge_adjacency(n_devices,
                                                      n_communities):
    spec = ShardedFleetSpec(n_devices=n_devices, n_communities=n_communities)
    block = community_block(spec)
    adjacency = edge_adjacency(spec)
    for index in range(n_devices):
        peers = {device_name(peer)
                 for peer in neighbor_indices(index, n_devices, block)}
        assert peers == adjacency[device_name(index)], index


def test_shard_neighbor_lists_are_name_sorted_past_five_digits():
    """Past 99999 a name is six digits wide, so name order is not index
    order; the shard's lists must still be sorted as names."""
    spec = ShardedFleetSpec(n_devices=100_010, n_communities=4)
    adjacency = edge_adjacency(spec)
    members = [device_name(i) for i in (*range(99_990, 100_010), 0, 1, 7)]
    shard = FleetShard(0, members + [WATCHDOG, FORGER], spec)
    assert shard.neighbor_lists == {}
    assert {name: shard.neighbors_of(name) for name in sorted(members)} == {
        name: sorted(adjacency[name]) for name in sorted(members)}
    # Each list is kept: a second read is the same object.
    assert all(shard.neighbors_of(name) is shard.neighbor_lists[name]
               for name in members)


def test_a_shard_builds_neighbor_lists_only_for_devices_that_spread():
    """The set-up gain, counted: after a full run only devices the worm
    compromised have a neighbor list, not all of the shard's devices."""
    spec = ShardedFleetSpec(seed=7, horizon=24.0, window=4.0,
                            n_communities=64, n_devices=10_000)
    scenario = ShardedScenario(n_shards=2, **dataclasses.asdict(spec))
    hosts = []

    def keep(shard_index, n_shards, members, build_args):
        hosts.append(build_shard(shard_index, n_shards, members, build_args))
        return hosts[-1]

    run = run_sharded(keep, {"spec": spec}, scenario.plan(),
                      horizon=spec.horizon, window=spec.window)
    assert run.summary["infected"] > 0
    spread = 0
    for host in hosts:
        compromised = {name for name, ever
                       in zip(host.devices, host.ever_compromised) if ever}
        assert set(host.neighbor_lists) <= compromised
        spread += len(host.neighbor_lists)
    assert spread > 0


@pytest.mark.parametrize("seed", [1, 7, -3])
def test_initial_matrix_holds_initial_vector_bit_for_bit(seed):
    spec = ShardedFleetSpec(seed=seed, n_devices=300)
    names = fleet_members(spec)
    matrix = initial_matrix(spec, fleet_space(), names)
    assert list(matrix.columns) == fleet_space().names()
    assert matrix.n_rows == len(names)
    for i, name in enumerate(names):
        assert matrix.row(i) == initial_vector(spec, name), name
    for name, column in matrix.columns.items():
        expected = np.array([initial_vector(spec, n)[name] for n in names])
        assert column.dtype == expected.dtype
        assert column.tobytes() == expected.tobytes(), name


def test_100k_plan_is_assigned_as_before():
    plan = ShardedScenario(n_shards=2, seed=1, n_devices=100_000,
                           horizon=48.0).plan()
    text = json.dumps(list(plan.assignment.items()))
    assert hashlib.sha256(text.encode()).hexdigest() == PLAN_100K_DIGEST
    assert plan.sizes() == [50_001, 50_001]


@pytest.mark.parametrize("n_shards", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n_communities", [1, 3, 8, 64])
@pytest.mark.parametrize("n_devices", [4, 5, 96, 1000, 100_010])
def test_plan_is_the_partition_of_the_edge_list(n_devices, n_communities,
                                                n_shards):
    """The scenario's plan, made from closed-form neighbor positions,
    claims the members in the same order and for the same shards as
    :meth:`ShardPlan.build` walking :func:`fleet_edges`; 100_010 devices
    is past the point where name order leaves index order."""
    scenario = ShardedScenario(n_shards=n_shards, n_devices=n_devices,
                               n_communities=n_communities)
    spec = scenario.spec
    expected = ShardPlan.build(fleet_members(spec), n_shards,
                               edges=fleet_edges(spec),
                               pins={WATCHDOG: 0, FORGER: n_shards - 1})
    assert (list(scenario.plan().assignment.items())
            == list(expected.assignment.items()))
