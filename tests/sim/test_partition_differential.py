"""``partition_graph`` walks member positions; it must assign exactly as
the member-keyed walk it replaced.

``reference_partition`` below is that walk, kept verbatim as the oracle:
every dict keyed by member strings, adjacency deduplicated with a set.
The comparison is on the pickled dicts, so insertion order (the order
members were claimed) must match too.
"""

from __future__ import annotations

import math
import pickle
from collections import deque

from hypothesis import given, settings, strategies as st

from repro.sim.sharding import partition_graph


def reference_partition(members, edges, n_shards: int) -> dict:
    ordered = sorted(set(members))
    n = len(ordered)
    if n == 0:
        return {}
    adjacency: dict = {member: [] for member in ordered}
    for a, b in edges:
        if a in adjacency and b in adjacency:
            adjacency[a].append(b)
            adjacency[b].append(a)
    for member in ordered:
        adjacency[member] = sorted(set(adjacency[member]))
    quota = math.ceil(n / n_shards)
    seeds = [ordered[(index * n) // n_shards] for index in range(n_shards)]
    assignment: dict = {}
    frontiers = [deque([seed]) for seed in seeds]
    sizes = [0] * n_shards
    cursor = 0
    while len(assignment) < n:
        progress = False
        for shard in range(n_shards):
            if sizes[shard] >= quota:
                continue
            member = None
            frontier = frontiers[shard]
            while frontier:
                candidate = frontier.popleft()
                if candidate not in assignment:
                    member = candidate
                    break
            if member is None:
                while cursor < n and ordered[cursor] in assignment:
                    cursor += 1
                if cursor >= n:
                    continue
                member = ordered[cursor]
            assignment[member] = shard
            sizes[shard] += 1
            progress = True
            frontier.extend(adjacency[member])
        if not progress:
            break
    for member in ordered:
        if member not in assignment:
            shard = min(range(n_shards), key=lambda s: (sizes[s], s))
            assignment[member] = shard
            sizes[shard] += 1
    return assignment


#: A small name pool, so members repeat and edges hit the same pairs.
names = st.sampled_from([f"m{i:02d}" for i in range(16)])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_index_space_walk_assigns_as_the_member_keyed_walk(data):
    members = data.draw(st.lists(names, max_size=20), label="members")
    # Edge ends are mostly members, some unknown; a pair may repeat or
    # be a self-edge.
    ends = st.sampled_from(members + ["ghost", "zz-unknown"])
    edges = data.draw(st.lists(st.tuples(ends, ends), max_size=40),
                      label="edges")
    n_shards = data.draw(st.integers(min_value=1, max_value=12),
                         label="n_shards")
    expected = reference_partition(members, edges, n_shards)
    got = partition_graph(members, edges, n_shards)
    assert pickle.dumps(got) == pickle.dumps(expected)


def test_more_shards_than_members():
    members = ["b", "a", "a"]
    edges = [("a", "b"), ("b", "b"), ("a", "nobody")]
    got = partition_graph(members, edges, 5)
    assert got == reference_partition(members, edges, 5)
    assert sorted(got) == ["a", "b"]
