"""The interaction graph the human manager provides (paper sec IV).

Nodes declare the device *types* a device can expect to encounter and
their expected attributes; edges declare which interactions matter and
which policy templates should be instantiated when a device of one type
discovers a device of another.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class DeviceTypeNode:
    """One expected device type.

    ``expected_attributes`` maps attribute name -> kind ("float", "int",
    "bool", "str"); discovery records are validated against it so devices
    notice when the environment diverges from what the human described.
    """

    type_name: str
    expected_attributes: tuple = ()   # tuple of (name, kind)
    description: str = ""

    @staticmethod
    def make(type_name: str, description: str = "", **attributes) -> "DeviceTypeNode":
        return DeviceTypeNode(
            type_name=type_name,
            expected_attributes=tuple(sorted(attributes.items())),
            description=description,
        )

    def attribute_kinds(self) -> dict:
        return dict(self.expected_attributes)


@dataclass(frozen=True)
class InteractionEdge:
    """Observer-type -> discovered-type interaction.

    ``template_ids`` name the policy templates the observer instantiates
    when it discovers a device of ``discovered_type``.  ``relationship``
    is a human-readable label ("dispatches", "supports", "monitors").
    """

    observer_type: str
    discovered_type: str
    relationship: str
    template_ids: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "template_ids", tuple(self.template_ids))


class InteractionGraph:
    """The full environment description handed to every device."""

    def __init__(self) -> None:
        self._types: dict[str, DeviceTypeNode] = {}
        self._edges: list[InteractionEdge] = []

    # -- construction -----------------------------------------------------------

    def add_type(self, node: DeviceTypeNode) -> None:
        if node.type_name in self._types:
            raise ConfigurationError(f"duplicate type {node.type_name!r}")
        self._types[node.type_name] = node

    def add_interaction(self, edge: InteractionEdge) -> None:
        for type_name in (edge.observer_type, edge.discovered_type):
            if type_name not in self._types:
                raise ConfigurationError(
                    f"interaction references undeclared type {type_name!r}"
                )
        self._edges.append(edge)

    def extend_type(self, node: DeviceTypeNode) -> None:
        """Add-or-replace a type: the sec IV learned augmentation path
        ("add or remove from the types of devices that the human has
        specified")."""
        self._types[node.type_name] = node

    def remove_type(self, type_name: str) -> None:
        self._types.pop(type_name, None)
        self._edges = [
            edge for edge in self._edges
            if type_name not in (edge.observer_type, edge.discovered_type)
        ]

    # -- queries --------------------------------------------------------------------

    def knows_type(self, type_name: str) -> bool:
        return type_name in self._types

    def interactions_for(self, observer_type: str,
                         discovered_type: str) -> list[InteractionEdge]:
        return [
            edge for edge in self._edges
            if edge.observer_type == observer_type
            and edge.discovered_type == discovered_type
        ]

    def validate_record(self, record: dict) -> list[str]:
        """Mismatches between a discovery record and the declared type.

        Returns human-readable problems (empty list = conforming record).
        Unknown types are reported as one problem — the trigger for the
        refinement engine's type inference.
        """
        problems = []
        type_name = record.get("device_type", "")
        node = self._types.get(type_name)
        if node is None:
            return [f"unknown device type {type_name!r}"]
        kinds = {"float": (int, float), "int": (int,), "bool": (bool,), "str": (str,)}
        attributes = record.get("attributes", {})
        for name, kind in node.attribute_kinds().items():
            if name not in attributes:
                problems.append(f"missing expected attribute {name!r}")
                continue
            value = attributes[name]
            expected = kinds.get(kind, (object,))
            if kind != "bool" and isinstance(value, bool):
                problems.append(f"attribute {name!r}: bool where {kind} expected")
            elif not isinstance(value, expected):
                problems.append(
                    f"attribute {name!r}: {type(value).__name__} where {kind} expected"
                )
        return problems
