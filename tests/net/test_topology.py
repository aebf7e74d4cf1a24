"""Unit tests for network topology and partitions."""

import pytest

from repro.errors import NetworkError
from repro.net.topology import Topology


def test_implicit_full_connectivity():
    topo = Topology(["a", "b", "c"])
    assert topo.can_reach("a", "b")
    assert topo.can_reach("c", "a")
    assert not topo.can_reach("a", "a")
    assert sorted(topo.neighbors("a")) == ["b", "c"]


def test_explicit_mode_after_first_link():
    topo = Topology(["a", "b", "c"])
    topo.add_link("a", "b")
    assert topo.can_reach("a", "b")
    assert not topo.can_reach("a", "c")   # explicit now; no link
    assert topo.neighbors("a") == ["b"]


def test_unknown_members_unreachable():
    topo = Topology(["a"])
    assert not topo.can_reach("a", "ghost")
    assert topo.neighbors("ghost") == []


def test_self_link_rejected():
    with pytest.raises(NetworkError):
        Topology(["a"]).add_link("a", "a")


def test_partition_and_heal():
    topo = Topology(["a", "b", "c", "d"])
    topo.partition([["a", "b"], ["c", "d"]])
    assert topo.can_reach("a", "b")
    assert not topo.can_reach("a", "c")
    topo.heal()
    assert topo.can_reach("a", "c")


def test_partition_in_explicit_mode():
    topo = Topology.line(["a", "b", "c"])
    assert topo.can_reach("a", "b")
    topo.partition([["a"], ["b", "c"]])
    assert not topo.can_reach("a", "b")
    assert topo.can_reach("b", "c")


def test_connected_component_explicit():
    topo = Topology.line(["a", "b", "c"])
    topo.add_member("lonely")
    assert topo.connected_component("a") == {"a", "b", "c"}
    assert topo.connected_component("lonely") == {"lonely"}


def test_connected_component_implicit_respects_partitions():
    topo = Topology(["a", "b", "c"])
    topo.partition([["a", "b"], ["c"]])
    assert topo.connected_component("a") == {"a", "b"}


def test_star_shape():
    topo = Topology.star("hub", ["l1", "l2"])
    assert topo.can_reach("hub", "l1")
    assert not topo.can_reach("l1", "l2")


def test_ring_shape():
    topo = Topology.ring(["a", "b", "c", "d"])
    assert topo.can_reach("a", "b")
    assert topo.can_reach("a", "d")
    assert not topo.can_reach("a", "c")
    with pytest.raises(NetworkError):
        Topology.ring(["a", "b"])


def test_remove_member_clears_partition_assignment():
    topo = Topology(["a", "b"])
    topo.partition([["a"], ["b"]])
    topo.remove_member("b")
    topo.add_member("b")
    # Fresh member defaults back to the unassigned group with nobody else
    # in a different partition... 'a' is in group 0, 'b' unassigned (-1).
    assert not topo.can_reach("a", "b")
    topo.heal()
    assert topo.can_reach("a", "b")


def test_fully_connected_until_a_link_or_partition_restricts_reach():
    topo = Topology(["a", "b", "c"])
    assert topo.fully_connected()
    topo.partition([["a"], ["b", "c"]])
    assert not topo.fully_connected()
    topo.heal()
    assert topo.fully_connected()
    topo.partition([])            # nobody split off: everyone in group -1
    assert topo.fully_connected()
    topo.add_link("a", "b")
    assert not topo.fully_connected()
    topo.heal()
    assert not topo.fully_connected()   # explicit links stay
