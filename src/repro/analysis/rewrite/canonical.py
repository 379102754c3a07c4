"""Canonical text forms: one stable rendering per query meaning.

The plan cache keys compiled plans by a digest of the *canonical* text of
the rewritten rule, so two drawings that differ only in drawing order or
in variable names compile once and share one cache entry.

Soundness is the only hard requirement — **equal canonical text must
imply equal query semantics** — and it holds by construction: the text
renders every semantic feature (patterns, arc flags, relative order of
ordered arcs, or-groups, conditions, sources, the whole construct part)
under a variable renaming that is itself derived from the rendered
structure.  Completeness is best-effort: sibling branches are ordered by
an id-free structural signature, with original ids only breaking exact
signature ties, so isomorphic drawings normally converge but pathological
tie cases may not (they then simply compile twice, which is correct).
"""

from __future__ import annotations

from typing import Optional, Union

from ...engine.conditions import (
    And,
    Arith,
    AttributeOf,
    Comparison,
    Condition,
    Const,
    ContentOf,
    NameOf,
    Not,
    Operand,
    Or,
    Regex,
    _True,
)
from ...xmlgl.ast import (
    AttributePattern,
    ContainmentEdge,
    ElementPattern,
    OrGroup,
    QueryGraph,
    TextPattern,
)
from ...xmlgl.construct import (
    Aggregate,
    Collect,
    ConstructNode,
    Copy,
    GroupBy,
    NewElement,
    TextFrom,
    TextLiteral,
)
from ...xmlgl.rule import Rule

__all__ = ["canonical_rule_text", "canonical_graph_text"]

#: Bump when the rendering changes; keeps old digests from aliasing new ones.
_VERSION = "xglc1"


def _node_sig(node: Union[ElementPattern, TextPattern, AttributePattern]) -> str:
    if isinstance(node, ElementPattern):
        tag = node.tag if node.tag is not None else "*"
        return f"e[{tag}]{'@root' if node.anchored else ''}"
    if isinstance(node, AttributePattern):
        return f"a[{node.name}][{node.value!r}][{node.regex!r}]"
    return f"t[{node.value!r}][{node.regex!r}]"


def _edge_flags(edge: ContainmentEdge) -> str:
    return ("*" if edge.deep else "") + ("!" if edge.negated else "")


class _GraphCanon:
    """Canonical ids + rendering for one extract graph."""

    def __init__(self, graph: QueryGraph) -> None:
        self.graph = graph
        #: Each circle's first-drawn arc, marked ``^``: a circle drawn under
        #: several boxes binds that arc's parent's value.
        self._first = {
            id(edge)
            for child, edge in graph.first_arcs().items()
            if not isinstance(graph.nodes[child], ElementPattern)
        }
        self._sigs: dict[str, str] = {}
        self.mapping: dict[str, str] = {}
        self._assign_ids()

    # -- id-free structural signatures (ordering key) -----------------------

    def _signature(self, node_id: str) -> str:
        cached = self._sigs.get(node_id)
        if cached is not None:
            return cached
        self._sigs[node_id] = "..."  # acyclic by validation; guard anyway
        ordered, unordered = self._split_children(node_id)
        parts = [
            f"'{_edge_flags(e)}{self._signature(e.child)}" for e in ordered
        ]
        parts += sorted(
            f"{_edge_flags(e)}{self._signature(e.child)}" for e in unordered
        )
        sig = _node_sig(self.graph.nodes[node_id]) + "(" + ",".join(parts) + ")"
        self._sigs[node_id] = sig
        return sig

    def _split_children(
        self, node_id: str
    ) -> tuple[list[ContainmentEdge], list[ContainmentEdge]]:
        edges = [e for e in self.graph.edges if e.parent == node_id]
        ordered = sorted(
            (e for e in edges if e.ordered), key=lambda e: e.position
        )
        unordered = [e for e in edges if not e.ordered]
        return ordered, unordered

    def _child_order(self, node_id: str) -> list[ContainmentEdge]:
        """Ordered arcs first (by position), then unordered by signature."""
        ordered, unordered = self._split_children(node_id)
        return ordered + sorted(
            unordered,
            key=lambda e: (_edge_flags(e), self._signature(e.child), e.child),
        )

    # -- canonical id assignment --------------------------------------------

    def _assign_ids(self) -> None:
        roots = sorted(
            self.graph.roots(), key=lambda r: (self._signature(r), r)
        )
        for root in roots:
            self._visit(root)
        for group in sorted(
            self.graph.or_groups, key=self._group_sort_key
        ):
            for branch in self._sorted_alternatives(group.alternatives):
                for edge in branch:
                    self._visit(edge.child)
        # orphaned ids cannot occur (validation), but stay total anyway
        for node_id in sorted(self.graph.nodes):
            if node_id not in self.mapping:
                self._visit(node_id)

    def _visit(self, node_id: str) -> None:
        if node_id in self.mapping:
            return
        self.mapping[node_id] = f"n{len(self.mapping)}"
        for edge in self._child_order(node_id):
            self._visit(edge.child)

    def _group_sort_key(self, group: OrGroup) -> str:
        return "|".join(
            ",".join(self._or_edge_sig(e) for e in branch)
            for branch in self._sorted_alternatives(group.alternatives)
        )

    def _sorted_alternatives(
        self, alternatives: tuple[tuple[ContainmentEdge, ...], ...]
    ) -> list[tuple[ContainmentEdge, ...]]:
        return sorted(
            (
                tuple(sorted(branch, key=self._or_edge_sig))
                for branch in alternatives
            ),
            key=lambda branch: [self._or_edge_sig(e) for e in branch],
        )

    def _or_edge_sig(self, edge: ContainmentEdge) -> str:
        return (
            f"{self._signature(edge.parent)}-{_edge_flags(edge)}-"
            f"{self._signature(edge.child)}"
        )

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        emitted: set[str] = set()
        roots = sorted(
            self.graph.roots(), key=lambda r: (self._signature(r), r)
        )
        lines = [f"source={self.graph.source!r}"]
        for root in roots:
            lines.append("root " + self._render_node(root, emitted))
        for group in sorted(self.graph.or_groups, key=self._group_sort_key):
            branches = [
                "{"
                + " ".join(
                    self._render_or_edge(e, emitted) for e in branch
                )
                + "}"
                for branch in self._sorted_alternatives(group.alternatives)
            ]
            lines.append("or " + "|".join(branches))
        conditions = sorted(
            render_condition(c, self.mapping) for c in self.graph.conditions
        )
        lines.extend(f"where {c}" for c in conditions)
        return "\n".join(lines)

    def _render_node(self, node_id: str, emitted: set[str]) -> str:
        cid = self.mapping[node_id]
        if node_id in emitted:
            return f"&{cid}"  # shared (join) node: reference, not re-render
        emitted.add(node_id)
        ordered, _ = self._split_children(node_id)
        ordered_set = {id(e) for e in ordered}
        parts = []
        for edge in self._child_order(node_id):
            mark = "'" if id(edge) in ordered_set else ""
            mark += "^" if id(edge) in self._first else ""
            parts.append(
                f"{mark}{_edge_flags(edge)}"
                + self._render_node(edge.child, emitted)
            )
        body = "{" + " ".join(parts) + "}" if parts else ""
        return f"{_node_sig(self.graph.nodes[node_id])}:{cid}{body}"

    def _render_or_edge(self, edge: ContainmentEdge, emitted: set[str]) -> str:
        mark = "^" if id(edge) in self._first else ""
        return (
            f"{self.mapping[edge.parent]}-{_edge_flags(edge)}{mark}->"
            + self._render_node(edge.child, emitted)
        )


# ---------------------------------------------------------------------------
# Condition + construct rendering under a variable mapping
# ---------------------------------------------------------------------------

def _var(mapping: dict[str, str], variable: str) -> str:
    return mapping.get(variable, f"?{variable}")


def _render_operand(operand: Operand, mapping: dict[str, str]) -> str:
    if isinstance(operand, Const):
        return repr(operand.value)
    if isinstance(operand, ContentOf):
        return _var(mapping, operand.variable)
    if isinstance(operand, AttributeOf):
        return f"{_var(mapping, operand.variable)}.{operand.name}"
    if isinstance(operand, NameOf):
        return f"name({_var(mapping, operand.variable)})"
    assert isinstance(operand, Arith)
    return (
        f"({_render_operand(operand.left, mapping)} {operand.op} "
        f"{_render_operand(operand.right, mapping)})"
    )


def render_condition(condition: Condition, mapping: dict[str, str]) -> str:
    """``str(condition)`` with variables renamed through ``mapping``."""
    if isinstance(condition, Comparison):
        return (
            f"{_render_operand(condition.left, mapping)} {condition.op} "
            f"{_render_operand(condition.right, mapping)}"
        )
    if isinstance(condition, Regex):
        return (
            f"{_render_operand(condition.operand, mapping)} ~ "
            f"/{condition.pattern}/"
        )
    if isinstance(condition, And):
        return "(" + " and ".join(
            render_condition(c, mapping) for c in condition.conditions
        ) + ")"
    if isinstance(condition, Or):
        return "(" + " or ".join(
            render_condition(c, mapping) for c in condition.conditions
        ) + ")"
    if isinstance(condition, Not):
        return f"not {render_condition(condition.condition, mapping)}"
    assert isinstance(condition, _True)
    return "true"


def _render_construct(node: ConstructNode, mapping: dict[str, str]) -> str:
    if isinstance(node, NewElement):
        attrs = ",".join(
            f"{a.name}="
            + (
                f"@{_var(mapping, a.from_variable)}"
                if a.from_variable is not None
                else repr(a.value)
            )
            for a in node.attributes
        )
        children = ",".join(
            _render_construct(c, mapping) for c in node.children
        )
        for_each = ",".join(sorted(_var(mapping, v) for v in node.for_each))
        tag = (
            f"from:{_var(mapping, node.tag_from)}"
            if node.tag_from is not None
            else node.tag
        )
        sort = (
            _var(mapping, node.sort_by) if node.sort_by is not None else ""
        )
        return f"el({tag};for={for_each};sort={sort};[{attrs}];[{children}])"
    if isinstance(node, TextLiteral):
        return f"lit({node.text!r})"
    if isinstance(node, TextFrom):
        return f"text({_var(mapping, node.variable)})"
    if isinstance(node, Copy):
        return f"copy({_var(mapping, node.variable)};deep={node.deep})"
    if isinstance(node, Collect):
        return f"collect({_var(mapping, node.variable)};deep={node.deep})"
    if isinstance(node, GroupBy):
        group_on = ",".join(sorted(_var(mapping, v) for v in node.group_on))
        children = ",".join(
            _render_construct(c, mapping) for c in node.children
        )
        return f"group({group_on};[{children}])"
    assert isinstance(node, Aggregate)
    return f"agg({node.function};{_var(mapping, node.variable)})"


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def canonical_graph_text(graph: QueryGraph) -> str:
    """Canonical rendering of one extract graph (local variable names)."""
    return _GraphCanon(graph).render()


def canonical_rule_text(rule: Rule, *, name: Optional[str] = None) -> str:
    """The canonical text the plan cache digests.

    Graphs are rendered with per-graph canonical ids, sorted, and then
    given globally unique prefixes so cross-graph conditions and the
    construct part rename consistently.
    """
    canons = [_GraphCanon(g) for g in rule.queries]
    order = sorted(range(len(canons)), key=lambda i: canons[i].render())
    mapping: dict[str, str] = {}
    graph_texts = []
    for position, index in enumerate(order):
        canon = canons[index]
        for original, local in canon.mapping.items():
            mapping[original] = f"g{position}.{local}"
        graph_texts.append(f"graph g{position}\n{canon.render()}")
    conditions = sorted(
        render_condition(c, mapping) for c in rule.conditions
    )
    rule_name = name if name is not None else rule.name
    lines = [_VERSION, f"rule={rule_name!r}"]
    lines.extend(graph_texts)
    lines.extend(f"where {c}" for c in conditions)
    lines.append("construct " + _render_construct(rule.construct, mapping))
    return "\n".join(lines)
