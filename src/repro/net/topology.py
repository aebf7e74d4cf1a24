"""Connectivity constraints between network addresses.

A :class:`Topology` answers "can A currently reach B?".  It combines a
static adjacency graph (who has a link) with dynamic partitions (which
links are currently severed), so experiments can model coalition networks
that split and heal.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import NetworkError


class Topology:
    """Adjacency + partition model.

    With no explicit links declared, the topology is fully connected over
    its member set (the common case for small device fleets); declaring
    any link switches it to explicit-adjacency mode.
    """

    def __init__(self, members: Iterable[str] = ()):
        #: address -> linked peers; insertion order is member order
        self._links: dict[str, set] = {member: set() for member in members}
        self._explicit = False
        self._partition_of: dict[str, int] = {}

    # -- membership -----------------------------------------------------------

    def add_member(self, address: str) -> None:
        self._links.setdefault(address, set())

    def remove_member(self, address: str) -> None:
        for peer in self._links.pop(address, ()):
            self._links[peer].discard(address)
        self._partition_of.pop(address, None)

    def __contains__(self, address: str) -> bool:
        return address in self._links

    # -- links ----------------------------------------------------------------

    def add_link(self, a: str, b: str) -> None:
        if a == b:
            raise NetworkError("self-links are not allowed")
        self._explicit = True
        self._links.setdefault(a, set()).add(b)
        self._links.setdefault(b, set()).add(a)

    def neighbors(self, address: str) -> list[str]:
        if address not in self._links:
            return []
        if not self._explicit:
            return [m for m in self._links
                    if m != address and self._same_partition(address, m)]
        return sorted(
            n for n in self._links[address]
            if self._same_partition(address, n)
        )

    # -- partitions -------------------------------------------------------------

    def partition(self, groups: Iterable[Iterable[str]]) -> None:
        """Split members into isolated groups (e.g. a netsplit).

        Group ``i`` becomes partition ``i``.  Every member no group
        mentions lands in one extra partition (index -1) with the other
        unmentioned members.  A new call replaces the previous split.
        """
        self._partition_of = {}
        for index, group in enumerate(groups):
            for address in group:
                self._partition_of[address] = index

    def heal(self) -> None:
        """Remove all partitions."""
        self._partition_of = {}

    def _same_partition(self, a: str, b: str) -> bool:
        return self._partition_of.get(a, -1) == self._partition_of.get(b, -1)

    # -- reachability -------------------------------------------------------------

    def fully_connected(self) -> bool:
        """No explicit links and no active partition: every member can
        reach every other member."""
        return not self._explicit and not self._partition_of

    def can_reach(self, a: str, b: str) -> bool:
        """Direct link (explicit mode) or co-membership (implicit), same partition."""
        if a not in self._links or b not in self._links or a == b:
            return False
        if not self._same_partition(a, b):
            return False
        if not self._explicit:
            return True
        return b in self._links[a]

    def connected_component(self, address: str) -> set:
        """All members transitively reachable from ``address`` (incl. itself)."""
        if address not in self._links:
            return set()
        if not self._explicit:
            return {m for m in self._links if self._same_partition(address, m)}
        component = set()
        frontier = [address]
        while frontier:
            node = frontier.pop()
            if node in component:
                continue
            component.add(node)
            frontier.extend(
                n for n in self._links[node]
                if self._same_partition(node, n) and n not in component
            )
        return component

    # -- canned shapes --------------------------------------------------------------

    @staticmethod
    def star(hub: str, leaves: Iterable[str]) -> "Topology":
        topo = Topology()
        topo.add_member(hub)
        for leaf in leaves:
            topo.add_member(leaf)
            topo.add_link(hub, leaf)
        return topo

    @staticmethod
    def ring(members: list) -> "Topology":
        topo = Topology()
        if len(members) < 3:
            raise NetworkError("a ring needs at least 3 members")
        for member in members:
            topo.add_member(member)
        for i, member in enumerate(members):
            topo.add_link(member, members[(i + 1) % len(members)])
        return topo

    @staticmethod
    def line(members: list) -> "Topology":
        topo = Topology()
        for member in members:
            topo.add_member(member)
        for a, b in zip(members, members[1:]):
            topo.add_link(a, b)
        return topo
