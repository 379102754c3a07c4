"""Query-side AST of XML-GL.

An XML-GL query is drawn as a *graph*: labelled boxes for elements, hollow
circles for PCDATA content, filled circles for attributes, and directed
containment edges.  This module is the abstract syntax of that drawing —
each class corresponds to one visual construct:

===========================  =============================================
Visual construct             AST class / flag
===========================  =============================================
labelled box                 :class:`ElementPattern` (tag)
box labelled ``*`` / blank   :class:`ElementPattern` with ``tag=None``
hollow circle                :class:`TextPattern`
filled circle                :class:`AttributePattern`
plain containment arc        :class:`ContainmentEdge`
arc crossed by a tick        ``ContainmentEdge(ordered=True)``
arc starred with ``*``       ``ContainmentEdge(deep=True)``
crossed-out arc              ``ContainmentEdge(negated=True)``
shared sub-node (DAG)        two edges pointing at the same node id (join)
predicate annotation         conditions on the owning :class:`QueryGraph`
or-arc over edges            :class:`OrGroup` of alternative edge sets
===========================  =============================================

Node ids double as the variable names visible to conditions and to the
construct part, which is exactly how the visual language works: there are
no separate variables, the drawing's nodes *are* the variables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from ..engine.conditions import Condition
from ..errors import QueryStructureError

__all__ = [
    "ElementPattern",
    "TextPattern",
    "AttributePattern",
    "QueryNode",
    "ContainmentEdge",
    "OrGroup",
    "QueryGraph",
]


@dataclass(frozen=True)
class ElementPattern:
    """A box: matches one element.

    Args:
        id: node id / variable name (unique in the query graph).
        tag: required element tag, or ``None`` for a wildcard box.
        anchored: when true this pattern only matches the *root* element of
            its source document (a box drawn at the very top of the query,
            directly under the document icon).
    """

    id: str
    tag: Optional[str] = None
    anchored: bool = False

    def describe(self) -> str:
        label = self.tag if self.tag is not None else "*"
        return f"[{label}]({self.id})"


@dataclass(frozen=True)
class TextPattern:
    """A hollow circle: matches the PCDATA content of its parent element.

    The bound value is the parent's immediate text (concatenated direct
    text children).  A parent with no non-empty immediate text does not
    match.  ``value`` / ``regex`` constrain the text.
    """

    id: str
    value: Optional[str] = None
    regex: Optional[str] = None

    def __post_init__(self) -> None:
        # Compile once at construction; the matcher fullmatches this per
        # candidate, so re-resolving through re's cache there is waste.
        object.__setattr__(
            self,
            "compiled_regex",
            re.compile(self.regex) if self.regex is not None else None,
        )

    def describe(self) -> str:
        constraint = self.value if self.value is not None else (
            f"/{self.regex}/" if self.regex else ""
        )
        return f"({constraint})({self.id})"


@dataclass(frozen=True)
class AttributePattern:
    """A filled circle: matches attribute ``name`` of its parent element.

    The bound value is the attribute's string value.  Parents lacking the
    attribute do not match.  ``value`` / ``regex`` constrain the value.
    """

    id: str
    name: str
    value: Optional[str] = None
    regex: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "compiled_regex",
            re.compile(self.regex) if self.regex is not None else None,
        )

    def describe(self) -> str:
        return f"(@{self.name})({self.id})"


QueryNode = Union[ElementPattern, TextPattern, AttributePattern]


@dataclass(frozen=True)
class ContainmentEdge:
    """A containment arc from a parent element box to a child node.

    Flags mirror the visual annotations:

    * ``deep`` — the ``*``-starred arc: the child element may occur at any
      depth below the parent (only meaningful for element children).
    * ``ordered`` — the arc crossed by a short stroke: among the ordered
      arcs of one parent, matched children must occur in the same relative
      document order as the arcs were drawn (their ``position``).
    * ``negated`` — the crossed-out arc: the parent must contain **no**
      match of the child subpattern.
    * ``position`` — drawing order of the arc among its siblings; gives
      ``ordered`` its meaning and fixes construct-side child order.
    """

    parent: str
    child: str
    deep: bool = False
    ordered: bool = False
    negated: bool = False
    position: int = 0

    def describe(self) -> str:
        marks = "".join(
            m
            for m, flag in (("*", self.deep), ("'", self.ordered), ("!", self.negated))
            if flag
        )
        return f"{self.parent} -{marks}-> {self.child}"


@dataclass(frozen=True)
class OrGroup:
    """An or-arc spanning alternative edges.

    At least one of the ``alternatives`` (each a tuple of edges forming one
    branch) must match.  Edges inside an OrGroup must not also be listed as
    plain edges of the graph.
    """

    alternatives: tuple[tuple[ContainmentEdge, ...], ...]


@dataclass
class QueryGraph:
    """The extract (left) part of an XML-GL rule.

    Attributes:
        nodes: node id -> pattern node.
        edges: plain containment arcs.
        or_groups: or-arcs over alternative containment arcs.
        conditions: predicate annotations; operand variables are node ids.
        source: name of the input document this graph queries (resolved by
            the evaluator against its document set; ``None`` = default doc).
    """

    nodes: dict[str, QueryNode] = field(default_factory=dict)
    edges: list[ContainmentEdge] = field(default_factory=list)
    or_groups: list[OrGroup] = field(default_factory=list)
    conditions: list[Condition] = field(default_factory=list)
    source: Optional[str] = None

    # -- construction ---------------------------------------------------------

    def add_node(self, node: QueryNode) -> QueryNode:
        """Add a pattern node; duplicate ids raise."""
        if node.id in self.nodes:
            raise QueryStructureError(f"duplicate query node id {node.id!r}")
        self.nodes[node.id] = node
        return node

    def add_edge(self, edge: ContainmentEdge) -> ContainmentEdge:
        """Add a containment arc; endpoints must exist (parent an element)."""
        self._check_edge(edge)
        self.edges.append(edge)
        return edge

    def add_or_group(self, group: OrGroup) -> OrGroup:
        """Add an or-arc; each alternative's edges are checked."""
        if not group.alternatives:
            raise QueryStructureError("or-group needs at least one alternative")
        for branch in group.alternatives:
            for edge in branch:
                self._check_edge(edge)
        self.or_groups.append(group)
        return group

    def add_condition(self, condition: Condition) -> Condition:
        """Attach a predicate annotation."""
        self.conditions.append(condition)
        return condition

    def _check_edge(self, edge: ContainmentEdge) -> None:
        parent = self.nodes.get(edge.parent)
        child = self.nodes.get(edge.child)
        if parent is None:
            raise QueryStructureError(f"edge parent {edge.parent!r} is not a node")
        if child is None:
            raise QueryStructureError(f"edge child {edge.child!r} is not a node")
        if not isinstance(parent, ElementPattern):
            raise QueryStructureError(
                f"containment parent {edge.parent!r} must be an element box"
            )
        if edge.deep and not isinstance(child, ElementPattern):
            raise QueryStructureError(
                f"starred (deep) arc to {edge.child!r} requires an element child"
            )

    # -- inspection -----------------------------------------------------------

    def all_edges(self) -> Iterator[ContainmentEdge]:
        """Plain edges plus every or-group branch edge."""
        yield from self.edges
        for group in self.or_groups:
            for branch in group.alternatives:
                yield from branch

    def element_nodes(self) -> list[ElementPattern]:
        """All element boxes (insertion order)."""
        return [n for n in self.nodes.values() if isinstance(n, ElementPattern)]

    def positive_edges(self) -> list[ContainmentEdge]:
        """Plain, non-negated edges."""
        return [e for e in self.edges if not e.negated]

    def negated_edges(self) -> list[ContainmentEdge]:
        """Crossed-out edges."""
        return [e for e in self.edges if e.negated]

    def negated_subtrees(self) -> list[tuple[ContainmentEdge, set[str]]]:
        """Each crossed arc with the ids of its subpattern: the arc's child
        and every node below it over plain arcs (crossed ones included)."""
        below: dict[str, list[str]] = {}
        for edge in self.edges:
            below.setdefault(edge.parent, []).append(edge.child)
        subtrees = []
        for edge in self.negated_edges():
            subtree, stack = {edge.child}, [edge.child]
            while stack:
                for child in below.get(stack.pop(), ()):
                    if child not in subtree:
                        subtree.add(child)
                        stack.append(child)
            subtrees.append((edge, subtree))
        return subtrees

    def negated_nodes(self) -> set[str]:
        """Nodes inside some crossed arc's subpattern: never bound."""
        return set().union(*(subtree for _, subtree in self.negated_subtrees()))

    def children_of(self, node_id: str) -> list[ContainmentEdge]:
        """Outgoing plain edges of ``node_id``, by drawing position."""
        return sorted(
            (e for e in self.edges if e.parent == node_id),
            key=lambda e: e.position,
        )

    def first_arcs(self) -> dict[str, ContainmentEdge]:
        """Each node's first incoming arc in drawing order (lowest
        ``position``, ties by edge order): a circle drawn under several
        boxes binds this arc's parent's value."""
        first: dict[str, ContainmentEdge] = {}
        for edge in self.all_edges():
            if first.setdefault(edge.child, edge).position > edge.position:
                first[edge.child] = edge
        return first

    def parents_of(self, node_id: str) -> list[str]:
        """Parents of ``node_id`` over plain non-negated edges."""
        return [e.parent for e in self.edges if e.child == node_id and not e.negated]

    def roots(self) -> list[str]:
        """Element boxes without any incoming containment (entry points)."""
        has_parent = {e.child for e in self.all_edges()}
        return [n.id for n in self.element_nodes() if n.id not in has_parent]

    # -- validation -----------------------------------------------------------

    def validate(self) -> None:
        """Structural well-formedness; raises :class:`QueryStructureError`.

        Checks: at least one element box, no dangling text/attribute nodes,
        no containment cycles over positive edges, negated subtrees are not
        shared with positive structure, or-group branches introduce no
        duplicates of plain edges.
        """
        if not self.element_nodes():
            raise QueryStructureError("query graph has no element box")
        reachable_children = {e.child for e in self.all_edges()}
        for node in self.nodes.values():
            if isinstance(node, (TextPattern, AttributePattern)):
                if node.id not in reachable_children:
                    raise QueryStructureError(
                        f"{type(node).__name__} {node.id!r} has no parent arc"
                    )
        self._check_acyclic()
        self._check_negated_subtrees()
        plain = {(e.parent, e.child) for e in self.edges}
        for group in self.or_groups:
            for branch in group.alternatives:
                for edge in branch:
                    if (edge.parent, edge.child) in plain:
                        raise QueryStructureError(
                            f"edge {edge.describe()} occurs both plainly and in an or-group"
                        )

    def _check_acyclic(self) -> None:
        children: dict[str, list[str]] = {}
        for edge in self.all_edges():
            children.setdefault(edge.parent, []).append(edge.child)
        WHITE, GREY, BLACK = 0, 1, 2
        colour = {node_id: WHITE for node_id in self.nodes}

        def visit(node_id: str) -> None:
            colour[node_id] = GREY
            for child in children.get(node_id, ()):
                if colour[child] == GREY:
                    raise QueryStructureError(
                        f"containment cycle through {child!r}"
                    )
                if colour[child] == WHITE:
                    visit(child)
            colour[node_id] = BLACK

        for node_id in self.nodes:
            if colour[node_id] == WHITE:
                visit(node_id)

    def _check_negated_subtrees(self) -> None:
        """A crossed arc's child subtree must be private to the negation.

        Edges *inside* the subtree are allowed (they form the negated
        subpattern); what is forbidden is an arc from outside the subtree
        into it, which would make a node both positively bound and negated.
        """
        for edge, subtree in self.negated_subtrees():
            for other in self.all_edges():
                if other is edge:
                    continue
                if other.child in subtree and other.parent not in subtree:
                    raise QueryStructureError(
                        f"negated node {other.child!r} is shared with "
                        "positive structure"
                    )

    def describe(self) -> str:
        """Compact multi-line textual rendering (for logs and tests)."""
        lines = [n.describe() for n in self.nodes.values()]
        lines += [e.describe() for e in self.edges]
        for group in self.or_groups:
            branches = " | ".join(
                "{" + ", ".join(e.describe() for e in branch) + "}"
                for branch in group.alternatives
            )
            lines.append(f"or: {branches}")
        lines += [f"where {c}" for c in self.conditions]
        return "\n".join(lines)
