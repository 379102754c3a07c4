"""G-Log / WG-Log instance graphs.

WG-Log data are directed labelled graphs describing WWW/hypermedia
repositories: *entity* nodes (drawn as labelled rectangles — documents,
pages, monuments, ...) connected by labelled relationship edges, with
atomic *slots* (attribute leaves: strings, numbers) hanging off entities.

:class:`InstanceGraph` wraps the generic
:class:`~repro.graph.labeled_graph.LabeledGraph` with this entity/slot
discipline.  Slot nodes carry their value in the node payload and are
reached by an edge labelled with the attribute name.
"""

from __future__ import annotations

from typing import Hashable, Iterator, Optional

from ..graph.labeled_graph import Edge, LabeledGraph
from ..ssd.datatypes import Atomic

__all__ = ["SLOT_LABEL", "InstanceGraph"]

#: Node label shared by all slot (atomic-value) nodes.
SLOT_LABEL = "#slot"

NodeId = Hashable


class InstanceGraph:
    """A WG-Log database: entities, relationships, slots."""

    def __init__(self) -> None:
        self.graph = LabeledGraph()
        self._fresh = 0

    # -- construction ---------------------------------------------------------

    def _next_id(self, stem: str) -> str:
        """A fresh ``stem#N`` id, skipping ids already in the graph."""
        while True:
            self._fresh += 1
            candidate = f"{stem}#{self._fresh}"
            if candidate not in self.graph:
                return candidate

    def add_entity(self, label: str, node_id: Optional[NodeId] = None) -> NodeId:
        """Add an entity node of type ``label``; returns its id."""
        node_id = node_id if node_id is not None else self._next_id(label)
        if node_id in self.graph:
            raise KeyError(f"node id {node_id!r} already in use")
        return self.graph.add_node(node_id, label)

    def add_slot(self, entity: NodeId, name: str, value: Atomic) -> NodeId:
        """Set slot ``name = value`` on ``entity``; returns the slot node id.

        Slots are single-valued: when ``entity`` already has a slot
        ``name``, its value is replaced in place.
        """
        if entity not in self.graph:
            raise KeyError(f"unknown entity {entity!r}")
        for target in self.graph.successors(entity, name):
            if self.is_slot(target):
                self.graph.add_node(target, SLOT_LABEL, value=value)
                return target
        slot_id = self._next_id(f"{entity}.{name}")
        self.graph.add_node(slot_id, SLOT_LABEL, value=value)
        self.graph.add_edge(entity, slot_id, name)
        return slot_id

    def relate(self, source: NodeId, target: NodeId, label: str) -> Edge:
        """Add a relationship edge."""
        if self.is_slot(source):
            raise ValueError("slots cannot have outgoing relationships")
        return self.graph.add_edge(source, target, label)

    # -- inspection -----------------------------------------------------------

    def is_slot(self, node_id: NodeId) -> bool:
        """True when ``node_id`` is a slot (atomic) node."""
        return self.graph.label(node_id) == SLOT_LABEL

    def entities(self, label: Optional[str] = None) -> list[NodeId]:
        """Entity node ids, optionally of one type."""
        if label == SLOT_LABEL:
            return []
        if label is not None:
            return self.graph.nodes_with_label(label)
        return [n for n in self.graph.nodes() if not self.is_slot(n)]

    def entity_count(self) -> int:
        """Number of entity nodes."""
        return len(self.entities())

    def label(self, node_id: NodeId) -> str:
        """Entity type of a node (``#slot`` for slots)."""
        return self.graph.label(node_id)

    def slot_value(self, entity: NodeId, name: str) -> Optional[Atomic]:
        """The value of slot ``name`` on ``entity``, or ``None``."""
        for target in self.graph.successors(entity, name):
            if self.is_slot(target):
                return self.graph.value(target)  # type: ignore[return-value]
        return None

    def slots(self, entity: NodeId) -> dict[str, Atomic]:
        """All slots of ``entity`` as a name -> value dict."""
        result: dict[str, Atomic] = {}
        for edge in self.graph.out_edges(entity):
            if self.is_slot(edge.target):
                result[edge.label] = self.graph.value(edge.target)  # type: ignore[assignment]
        return result

    def relationships(self, entity: NodeId, label: Optional[str] = None) -> list[Edge]:
        """Outgoing relationship (non-slot) edges of ``entity``."""
        return [
            e
            for e in self.graph.out_edges(entity, label)
            if not self.is_slot(e.target)
        ]

    def relationship_edges(self) -> Iterator[Edge]:
        """Every entity-to-entity edge in the instance."""
        for edge in self.graph.edges():
            if not self.is_slot(edge.target):
                yield edge

    def has_relationship(self, source: NodeId, target: NodeId, label: str) -> bool:
        """True when the labelled relationship exists."""
        return self.graph.has_edge(source, target, label)

    # -- bulk -----------------------------------------------------------------

    def copy(self) -> "InstanceGraph":
        """Independent copy (fresh-id counter included)."""
        clone = InstanceGraph()
        clone.graph = self.graph.copy()
        clone._fresh = self._fresh
        return clone

    def describe(self) -> str:
        """Compact listing of entities, slots and relationships."""
        lines = []
        for entity in self.entities():
            slots = self.slots(entity)
            slot_text = (
                " {" + ", ".join(f"{k}={v!r}" for k, v in slots.items()) + "}"
                if slots
                else ""
            )
            lines.append(f"{entity}: {self.label(entity)}{slot_text}")
        for edge in self.relationship_edges():
            lines.append(f"{edge.source} -{edge.label}-> {edge.target}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"InstanceGraph(entities={self.entity_count()}, "
            f"edges={sum(1 for _ in self.relationship_edges())})"
        )
