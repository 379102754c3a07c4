"""Directed labelled multigraph, stored as int columns.

This is the graph substrate shared by the WG-Log data model (instances and
schemas are labelled graphs) and by the generic pattern matcher.  The library
ships its own implementation rather than depending on networkx so the
matching hot path stays free of third-party indirection; networkx is used
only as a test oracle.

Nodes are identified by caller-chosen hashable ids and carry a *label* (the
entity/type name) plus an optional atomic *value* (WG-Log prints atomic
slots inside the node).  Edges are labelled and parallel edges with
different labels are allowed; the graph is a *set* of labelled edges.

The store is columnar:

* every node id is interned to a **dense int** in insertion order, with
  label and value tables indexed by it and, per node label, a sorted
  ``array('i')`` of the dense ids carrying it.  Dense ints are never
  reused: a removed node keeps its entry in the id table, so rows of
  dense ids decode after later edits;
* every edge label keeps one append-only pair of ``array('i')`` columns
  (sources, targets), a set of packed ``(source << 32) | target`` keys
  for deduplication and :meth:`LabeledGraph.has_edge`, and a global
  insertion sequence number per edge, which orders a node's edges across
  labels;
* per label, an out- and an in-index (CSR offsets over the edge
  positions) answer adjacency.  Each is rebuilt lazily; edges appended
  since its last build are grouped on read, and the CSR is rebuilt only
  once that tail outgrows it, so interleaved appends and reads cost
  amortised O(1) per edge.

:class:`Edge` objects are made only by the public accessors (``edges``,
``out_edges``, ``in_edges``, ``add_edge``); the matcher reads the columns
through the dense-id methods (``label_pool``, ``edge_columns``,
``dense_successors`` ...) and instantiation appends with
:meth:`LabeledGraph.add_edge_columns`.
"""

from __future__ import annotations

from array import array
from bisect import insort
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Optional, Sequence

__all__ = ["NodeData", "Edge", "LabeledGraph"]

NodeId = Hashable


@dataclass(frozen=True)
class NodeData:
    """Payload of one node: its label and optional atomic value."""

    label: str
    value: Optional[object] = None


@dataclass(frozen=True)
class Edge:
    """One directed labelled edge."""

    source: NodeId
    target: NodeId
    label: str


class _Adjacency:
    """Positions of one label's edges, grouped by one endpoint column.

    A CSR (``starts``/``positions``) covers the first ``covered`` edges;
    edges appended since are grouped in ``tail`` when a read catches up
    with them, and once the tail holds more edges than the CSR the CSR is
    rebuilt over all of them.
    """

    __slots__ = ("starts", "positions", "covered", "tail", "seen")

    def __init__(self) -> None:
        self.starts = array("i")
        self.positions = array("i")
        self.covered = 0
        self.tail: dict[int, list[int]] = {}
        self.seen = 0

    def of(self, column: array, node: int) -> list[int]:
        """Ascending positions whose ``column`` entry is ``node``."""
        size = len(column)
        if self.seen < size:
            if size - self.covered > max(self.covered, 8):
                self._rebuild(column)
            else:
                tail = self.tail
                for position in range(self.seen, size):
                    tail.setdefault(column[position], []).append(position)
                self.seen = size
        found: list[int] = []
        if node + 1 < len(self.starts):
            found = self.positions[self.starts[node]:self.starts[node + 1]].tolist()
        found.extend(self.tail.get(node, ()))
        return found

    def _rebuild(self, column: array) -> None:
        # a stable sort keeps each node's positions ascending
        self.positions = array("i", sorted(range(len(column)), key=column.__getitem__))
        starts = array("i", bytes(4 * (max(column) + 2)))
        for node in column:
            starts[node + 1] += 1
        for node in range(1, len(starts)):
            starts[node] += starts[node - 1]
        self.starts = starts
        self.covered = self.seen = len(column)
        self.tail = {}


class _EdgeColumns:
    """The edges of one label: append-only int columns and their indexes."""

    __slots__ = ("sources", "targets", "order", "keys", "out", "into")

    def __init__(
        self,
        sources: Optional[array] = None,
        targets: Optional[array] = None,
        order: Optional[array] = None,
    ) -> None:
        self.sources = sources if sources is not None else array("i")
        self.targets = targets if targets is not None else array("i")
        #: global insertion sequence number of each edge
        self.order = order if order is not None else array("q")
        self.keys = {
            source << 32 | target for source, target in zip(self.sources, self.targets)
        }
        self.out = _Adjacency()
        self.into = _Adjacency()

    def copy(self) -> "_EdgeColumns":
        return _EdgeColumns(self.sources[:], self.targets[:], self.order[:])

    def without(self, keep: Sequence[int]) -> "_EdgeColumns":
        """The columns restricted to the positions in ``keep``."""
        return _EdgeColumns(
            array("i", (self.sources[p] for p in keep)),
            array("i", (self.targets[p] for p in keep)),
            array("q", (self.order[p] for p in keep)),
        )


class LabeledGraph:
    """A directed multigraph with labelled nodes and edges."""

    def __init__(self) -> None:
        self._dense: dict[NodeId, int] = {}
        self._ids: list[NodeId] = []
        self._labels: list[Optional[str]] = []  # None once removed
        self._values: list[Optional[object]] = []
        self._label_nodes: dict[str, array] = {}
        self._columns: dict[str, _EdgeColumns] = {}
        self._sequence = 0

    # -- construction ---------------------------------------------------------

    def add_node(
        self, node_id: NodeId, label: str, value: Optional[object] = None
    ) -> NodeId:
        """Add (or relabel) a node; returns its id."""
        index = self._dense.get(node_id)
        if index is None:
            index = len(self._ids)
            self._dense[node_id] = index
            self._ids.append(node_id)
            self._labels.append(label)
            self._values.append(value)
            self._label_nodes.setdefault(label, array("i")).append(index)
            return node_id
        old = self._labels[index]
        if old != label:
            self._label_nodes[old].remove(index)
            insort(self._label_nodes.setdefault(label, array("i")), index)
            self._labels[index] = label
        self._values[index] = value
        return node_id

    def add_edge(self, source: NodeId, target: NodeId, label: str = "") -> Edge:
        """Add a directed edge; both endpoints must exist.

        Duplicate (source, target, label) triples are idempotent — the graph
        is a set of labelled edges.
        """
        if source not in self._dense:
            raise KeyError(f"unknown source node {source!r}")
        if target not in self._dense:
            raise KeyError(f"unknown target node {target!r}")
        self.add_edge_columns(label, (self._dense[source],), (self._dense[target],))
        return Edge(source, target, label)

    def add_edge_columns(
        self, label: str, sources: Iterable[int], targets: Iterable[int]
    ) -> int:
        """Append ``label`` edges between dense ids, pairwise; returns how
        many were new.  Pairs already present (or repeated) are skipped.
        Both ends must be dense ids of nodes in the graph (unchecked: this
        is the bulk path for ids read back from the graph itself)."""
        columns = self._columns.get(label)
        if columns is None:
            columns = self._columns[label] = _EdgeColumns()
        keys = columns.keys
        add_key = keys.add
        add_source = columns.sources.append
        add_target = columns.targets.append
        before = len(keys)
        for source, target in zip(sources, targets):
            key = source << 32 | target
            if key not in keys:
                add_key(key)
                add_source(source)
                add_target(target)
        added = len(keys) - before
        columns.order.extend(range(self._sequence, self._sequence + added))
        self._sequence += added
        return added

    def remove_edge(self, edge: Edge) -> None:
        """Remove one edge; missing edges raise ``KeyError``."""
        if not self.has_edge(edge.source, edge.target, edge.label):
            raise KeyError(f"edge not in graph: {edge}")
        columns = self._columns[edge.label]
        source, target = self._dense[edge.source], self._dense[edge.target]
        self._columns[edge.label] = columns.without([
            p for p, pair in enumerate(zip(columns.sources, columns.targets))
            if pair != (source, target)
        ])

    def remove_node(self, node_id: NodeId) -> None:
        """Remove a node and every incident edge."""
        if node_id not in self._dense:
            raise KeyError(f"unknown node {node_id!r}")
        index = self._dense.pop(node_id)
        for label, columns in self._columns.items():
            self._columns[label] = columns.without([
                p for p, pair in enumerate(zip(columns.sources, columns.targets))
                if index not in pair
            ])
        self._label_nodes[self._labels[index]].remove(index)
        self._labels[index] = None
        self._values[index] = None

    # -- inspection -----------------------------------------------------------

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._dense

    def __len__(self) -> int:
        return len(self._dense)

    def nodes(self) -> Iterator[NodeId]:
        """All node ids (insertion order)."""
        return iter(self._dense)

    def node(self, node_id: NodeId) -> NodeData:
        """Payload of ``node_id``; raises ``KeyError`` when absent."""
        index = self._dense[node_id]
        return NodeData(self._labels[index], self._values[index])  # type: ignore[arg-type]

    def label(self, node_id: NodeId) -> str:
        """Label of ``node_id``."""
        return self._labels[self._dense[node_id]]  # type: ignore[return-value]

    def value(self, node_id: NodeId) -> Optional[object]:
        """Atomic value of ``node_id`` (``None`` for non-leaf nodes)."""
        return self._values[self._dense[node_id]]

    def edges(self) -> Iterator[Edge]:
        """All edges: by source in node order, each source's in insertion order."""
        ids = self._ids
        found = sorted(
            (source, sequence, target, label)
            for label, columns in self._columns.items()
            for source, target, sequence in zip(
                columns.sources, columns.targets, columns.order
            )
        )
        for source, _, target, label in found:
            yield Edge(ids[source], ids[target], label)

    def edge_count(self) -> int:
        """Number of edges."""
        return sum(len(columns.keys) for columns in self._columns.values())

    def has_edge(self, source: NodeId, target: NodeId, label: str = "") -> bool:
        """True when the exact (source, target, label) edge exists."""
        columns = self._columns.get(label)
        if columns is None or source not in self._dense or target not in self._dense:
            return False
        return self._dense[source] << 32 | self._dense[target] in columns.keys

    def out_edges(self, node_id: NodeId, label: Optional[str] = None) -> list[Edge]:
        """Outgoing edges in insertion order, optionally filtered by label."""
        ids = self._ids
        return [
            Edge(node_id, ids[target], edge_label)
            for edge_label, target in self._incident(node_id, label, outgoing=True)
        ]

    def in_edges(self, node_id: NodeId, label: Optional[str] = None) -> list[Edge]:
        """Incoming edges in insertion order, optionally filtered by label."""
        ids = self._ids
        return [
            Edge(ids[source], node_id, edge_label)
            for edge_label, source in self._incident(node_id, label, outgoing=False)
        ]

    def successors(self, node_id: NodeId, label: Optional[str] = None) -> list[NodeId]:
        """Targets of outgoing edges (with duplicates for parallel edges)."""
        ids = self._ids
        return [ids[t] for _, t in self._incident(node_id, label, outgoing=True)]

    def predecessors(self, node_id: NodeId, label: Optional[str] = None) -> list[NodeId]:
        """Sources of incoming edges."""
        ids = self._ids
        return [ids[s] for _, s in self._incident(node_id, label, outgoing=False)]

    def nodes_with_label(self, label: str) -> list[NodeId]:
        """All node ids carrying ``label`` (insertion order)."""
        ids = self._ids
        return [ids[index] for index in self._label_nodes.get(label, ())]

    def degree(self, node_id: NodeId) -> int:
        """Total (in + out) degree."""
        return len(self._incident(node_id, None, outgoing=True)) + len(
            self._incident(node_id, None, outgoing=False)
        )

    def _incident(
        self, node_id: NodeId, label: Optional[str], outgoing: bool
    ) -> list[tuple[str, int]]:
        """``(label, other end)`` of a node's edges in insertion order."""
        index = self._dense[node_id]
        if label is not None:
            columns = self._columns.get(label)
            if columns is None:
                return []
            other = columns.targets if outgoing else columns.sources
            return [(label, other[p]) for p in self._positions(columns, index, outgoing)]
        found = []
        for edge_label, columns in self._columns.items():
            other = columns.targets if outgoing else columns.sources
            order = columns.order
            found.extend(
                (order[p], edge_label, other[p])
                for p in self._positions(columns, index, outgoing)
            )
        found.sort()
        return [(edge_label, end) for _, edge_label, end in found]

    @staticmethod
    def _positions(columns: _EdgeColumns, index: int, outgoing: bool) -> list[int]:
        if outgoing:
            return columns.out.of(columns.sources, index)
        return columns.into.of(columns.targets, index)

    # -- dense-id view (the matcher's and instantiation's int interface) ------

    def dense_id(self, node_id: NodeId) -> int:
        """The dense int of ``node_id``; raises ``KeyError`` when absent."""
        return self._dense[node_id]

    def node_table(self) -> list[NodeId]:
        """Dense int -> node id, for decoding rows.  Read-only."""
        return self._ids

    def dense_label(self, index: int) -> Optional[str]:
        """Label of a dense id (``None`` once the node is removed)."""
        return self._labels[index]

    def dense_value(self, index: int) -> Optional[object]:
        """Atomic value of a dense id."""
        return self._values[index]

    def label_pool(self, label: Optional[str] = None) -> array:
        """Sorted dense ids carrying ``label`` (every node for ``None``);
        a fresh array the caller may consume."""
        if label is None:
            return array("i", self._dense.values())
        return array("i", self._label_nodes.get(label, ()))

    def edge_columns(self, label: str) -> tuple[array, array]:
        """The ``label`` edges as (sources, targets) dense-id columns in
        insertion order.  Read-only; appends land at the end."""
        columns = self._columns.get(label)
        if columns is None:
            return array("i"), array("i")
        return columns.sources, columns.targets

    def edge_marks(self) -> dict[str, int]:
        """Per label, the current column length: the edges appended after
        this call are ``edge_columns(label)[i][mark:]``."""
        return {label: len(c.sources) for label, c in self._columns.items()}

    def dense_successors(self, index: int, label: str) -> list[int]:
        """Dense targets of ``index``'s outgoing ``label`` edges."""
        columns = self._columns.get(label)
        if columns is None:
            return []
        targets = columns.targets
        return [targets[p] for p in columns.out.of(columns.sources, index)]

    def dense_predecessors(self, index: int, label: str) -> list[int]:
        """Dense sources of ``index``'s incoming ``label`` edges."""
        columns = self._columns.get(label)
        if columns is None:
            return []
        sources = columns.sources
        return [sources[p] for p in columns.into.of(columns.targets, index)]

    # -- bulk -----------------------------------------------------------------

    def copy(self) -> "LabeledGraph":
        """Shallow-payload deep-structure copy, in the same insertion order."""
        clone = LabeledGraph()
        clone._dense = dict(self._dense)
        clone._ids = list(self._ids)
        clone._labels = list(self._labels)
        clone._values = list(self._values)
        clone._label_nodes = {
            label: nodes[:] for label, nodes in self._label_nodes.items()
        }
        clone._columns = {
            label: columns.copy() for label, columns in self._columns.items()
        }
        clone._sequence = self._sequence
        return clone

    def subgraph(self, node_ids: Iterable[NodeId]) -> "LabeledGraph":
        """Induced subgraph on ``node_ids``, in this graph's insertion order."""
        keep = {self._dense[node_id] for node_id in node_ids}
        sub = LabeledGraph()
        for index in sorted(keep):
            sub.add_node(self._ids[index], self._labels[index], self._values[index])
        ids = self._ids
        found = sorted(
            (sequence, label, source, target)
            for label, columns in self._columns.items()
            for source, target, sequence in zip(
                columns.sources, columns.targets, columns.order
            )
            if source in keep and target in keep
        )
        for _, label, source, target in found:
            sub.add_edge(ids[source], ids[target], label)
        return sub

    def is_subgraph_of(self, other: "LabeledGraph") -> bool:
        """True when every node (same label/value) and edge also lies in ``other``."""
        for node_id in self._dense:
            if node_id not in other or other.node(node_id) != self.node(node_id):
                return False
        return all(
            other.has_edge(edge.source, edge.target, edge.label)
            for edge in self.edges()
        )

    def __repr__(self) -> str:
        return f"LabeledGraph(nodes={len(self)}, edges={self.edge_count()})"
