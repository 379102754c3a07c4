"""Static analysis of XML-GL extract graphs.

Two pass families over the left-hand (extract) part of a rule:

* ``xmlgl.structure`` — the drawing is ill-formed: no element box, a
  dangling circle, a containment cycle, a negated subtree shared with
  positive structure, an or-branch duplicating a plain arc, a condition
  referencing an unknown or negated node, ``name()``/attribute access on
  a node kind that cannot answer it.
* ``xmlgl.satisfiability`` — the drawing is well-formed but provably
  matches nothing: contradictory predicate sets on one value (``= 'a'`` ∧
  ``= 'b'``, empty numeric ranges, a literal failing its own regex),
  constant-false conditions, two root-anchored boxes with different tags,
  or an anchored box drawn *below* another box.

Satisfiability findings carry ``unsatisfiable=True``; the evaluator
pre-flight uses exactly those to skip matching (the result is empty by
proof, so skipping preserves semantics — see
:mod:`repro.analysis.preflight`).
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from ..engine.conditions import (
    Arith,
    AttributeOf,
    Comparison,
    Condition,
    NameOf,
    Operand,
    Regex,
    condition_variables,
)
from ..xmlgl.ast import (
    AttributePattern,
    ElementPattern,
    QueryGraph,
    TextPattern,
)
from ..xmlgl.rule import Rule
from .diagnostics import Diagnostic, Severity
from .passes import AnalysisContext, register
from .satisfiability import ConstraintStore, ViewKey, conjuncts, extract_conjuncts

__all__ = ["structure_pass", "satisfiability_pass"]


def _error(code: str, message: str, **kw) -> Diagnostic:
    return Diagnostic(code, Severity.ERROR, message, **kw)


# ---------------------------------------------------------------------------
# Structure
# ---------------------------------------------------------------------------

@register("xmlgl.structure", "xmlgl", "structure")
def structure_pass(rule: Rule, context: AnalysisContext) -> list[Diagnostic]:
    """XGL001-XGL008, XGL013: well-formedness of every extract graph."""
    findings: list[Diagnostic] = []
    for graph in rule.queries:
        findings.extend(_graph_structure(graph))
        findings.extend(_condition_references(graph.conditions, graph, rule))
    all_nodes = {
        node_id: node
        for graph in rule.queries
        for node_id, node in graph.nodes.items()
    }
    findings.extend(
        _condition_references(rule.conditions, None, rule, all_nodes)
    )
    return [d.anchored(rule.name) for d in findings]


def _graph_structure(graph: QueryGraph) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    if not graph.element_nodes():
        findings.append(_error(
            "XGL001", "extract graph has no element box",
            hint="every query needs at least one labelled (or wildcard) box",
        ))
    reachable = {e.child for e in graph.all_edges()}
    for node in graph.nodes.values():
        if isinstance(node, (TextPattern, AttributePattern)):
            if node.id not in reachable:
                kind = "text" if isinstance(node, TextPattern) else "attribute"
                findings.append(_error(
                    "XGL002",
                    f"{kind} circle {node.id!r} has no containment arc "
                    "from an element box",
                    node=node.id,
                    hint="connect the circle to the element it belongs to",
                ))
    findings.extend(_cycles(graph))
    findings.extend(_negated_sharing(graph))
    plain = {(e.parent, e.child) for e in graph.edges}
    for group in graph.or_groups:
        for branch in group.alternatives:
            for edge in branch:
                if (edge.parent, edge.child) in plain:
                    findings.append(_error(
                        "XGL005",
                        f"arc {edge.parent!r} -> {edge.child!r} occurs both "
                        "plainly and inside an or-group",
                        edge=(edge.parent, edge.child),
                    ))
    return findings


def _cycles(graph: QueryGraph) -> list[Diagnostic]:
    """XGL003: containment cycles (ordered arcs included)."""
    children: dict[str, list[str]] = {}
    for edge in graph.all_edges():
        children.setdefault(edge.parent, []).append(edge.child)
    findings: list[Diagnostic] = []
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {node_id: WHITE for node_id in graph.nodes}

    def visit(node_id: str) -> None:
        colour[node_id] = GREY
        for child in children.get(node_id, ()):
            if child not in colour:
                continue
            if colour[child] == GREY:
                findings.append(_error(
                    "XGL003",
                    f"containment cycle through {child!r}: an element "
                    "cannot (transitively) contain itself",
                    node=child,
                ))
            elif colour[child] == WHITE:
                visit(child)
        colour[node_id] = BLACK

    for node_id in graph.nodes:
        if colour[node_id] == WHITE:
            visit(node_id)
    return findings


def _negated_sharing(graph: QueryGraph) -> list[Diagnostic]:
    """XGL004: a negated subtree node also bound by positive structure."""
    findings: list[Diagnostic] = []
    for edge, subtree in graph.negated_subtrees():
        for other in graph.all_edges():
            if other is edge:
                continue
            if other.child in subtree and other.parent not in subtree:
                findings.append(_error(
                    "XGL004",
                    f"negated node {other.child!r} is shared with positive "
                    "structure: a node cannot be both required and forbidden",
                    edge=(other.parent, other.child),
                    hint="duplicate the node, or drop one of the arcs",
                ))
    return findings


def _operands_of(condition: Condition) -> list[Operand]:
    flat: list[Operand] = []

    def of_operand(operand: Operand) -> None:
        if isinstance(operand, Arith):
            of_operand(operand.left)
            of_operand(operand.right)
        else:
            flat.append(operand)

    if isinstance(condition, Comparison):
        of_operand(condition.left)
        of_operand(condition.right)
    elif isinstance(condition, Regex):
        of_operand(condition.operand)
    return flat


def _condition_references(
    conditions: list[Condition],
    graph: Optional[QueryGraph],
    rule: Rule,
    all_nodes: Optional[dict[str, object]] = None,
) -> list[Diagnostic]:
    """XGL006-XGL008, XGL013: what each condition variable refers to.

    ``graph`` is the owning extract graph for per-graph conditions;
    rule-level conditions pass ``graph=None`` with the union of nodes.
    """
    findings: list[Diagnostic] = []
    if graph is not None:
        scope: dict[str, object] = dict(graph.nodes)
        negated = graph.negated_nodes()
        placement = "its extract graph"
    else:
        scope = all_nodes or {}
        negated = set()
        for owner in rule.queries:
            negated |= owner.negated_nodes()
        placement = "any extract graph"
    for top in conditions:
        for condition in conjuncts(top):
            for variable in sorted(condition_variables(condition)):
                if variable not in scope:
                    findings.append(_error(
                        "XGL006",
                        f"condition {condition} references {variable!r}, "
                        f"which is not a node of {placement}",
                        node=variable,
                        hint="check the node id for typos",
                        unsatisfiable=isinstance(condition, (Comparison, Regex)),
                    ))
                elif variable in negated:
                    findings.append(_error(
                        "XGL013",
                        f"condition {condition} references {variable!r}, "
                        "which is bound only inside a negated subtree",
                        node=variable,
                        hint="negated nodes are never bound; move the "
                        "predicate into the negated subpattern's constraints",
                    ))
            for operand in _operands_of(condition):
                node = scope.get(getattr(operand, "variable", ""))
                if node is None:
                    continue
                if isinstance(operand, NameOf) and not isinstance(
                    node, ElementPattern
                ):
                    findings.append(_error(
                        "XGL007",
                        f"name({operand.variable}) is applied to a "
                        "text/attribute circle, which has no tag",
                        node=operand.variable,
                    ))
                if isinstance(operand, AttributeOf) and not isinstance(
                    node, ElementPattern
                ):
                    findings.append(_error(
                        "XGL008",
                        f"{operand} reads an attribute of "
                        f"{operand.variable!r}, which is not an element box",
                        node=operand.variable,
                        hint="only element boxes carry attributes",
                        unsatisfiable=isinstance(condition, (Comparison, Regex)),
                    ))
    return findings


# ---------------------------------------------------------------------------
# Satisfiability
# ---------------------------------------------------------------------------

@register("xmlgl.satisfiability", "xmlgl", "sat")
def satisfiability_pass(rule: Rule, context: AnalysisContext) -> list[Diagnostic]:
    """XGL009-XGL012: provably-empty queries.

    Builds one :class:`ConstraintStore` per rule.  Pattern literals seed
    *exact* constraints; predicate annotations add coerced constraints;
    attribute and text circles are aliased onto the owning element's
    value views so constraints stated through either route meet.
    """
    findings: list[Diagnostic] = []
    store = ConstraintStore(aliases=_aliases(rule))
    known: set[str] = set()
    for graph in rule.queries:
        known |= set(graph.nodes)
        findings.extend(_anchoring(graph))
        for node in graph.nodes.values():
            if isinstance(node, ElementPattern):
                if node.tag is not None:
                    store.require_exact(("name", node.id), node.tag)
            elif isinstance(node, (TextPattern, AttributePattern)):
                if node.value is not None:
                    store.require_exact(("content", node.id), node.value)
                if node.regex is not None:
                    store.require_regex(("content", node.id), node.regex)
        extract_conjuncts(
            graph.conditions, store, lambda v, g=graph: v in g.nodes
        )
    extract_conjuncts(rule.conditions, store, lambda v: v in known)
    for contradiction in store.contradictions():
        code = "XGL011" if contradiction.key is None else "XGL010"
        findings.append(Diagnostic(
            code,
            Severity.ERROR,
            contradiction.message,
            node=contradiction.variable,
            hint=contradiction.hint,
            unsatisfiable=True,
        ))
    return [d.anchored(rule.name) for d in findings]


def _aliases(rule: Rule) -> dict[ViewKey, ViewKey]:
    """Map circle content views onto the owning element's value views.

    An attribute circle binds exactly the parent's attribute value and a
    text circle binds the parent's immediate text, so ``@year as Y`` with
    ``B.year >= 1995`` constrain the *same* value; sibling circles on one
    element meet on one key too.  A circle drawn under several boxes binds
    its first arc's value (the matcher joins the others to it by ``=``),
    so only that arc's parent is aliased — and none when that arc sits in
    an or-group, where some expansions lack it.
    """
    aliases: dict[ViewKey, ViewKey] = {}
    for graph in rule.queries:
        arcs = Counter(edge.child for edge in graph.all_edges())
        plain = {id(edge) for edge in graph.edges}
        for edge in graph.first_arcs().values():
            if arcs[edge.child] > 1 and id(edge) not in plain:
                continue
            child = graph.nodes.get(edge.child)
            if isinstance(child, AttributePattern):
                aliases[("content", child.id)] = ("attr", edge.parent, child.name)
            elif isinstance(child, TextPattern):
                aliases[("content", child.id)] = ("text", edge.parent)
    return aliases


def _anchoring(graph: QueryGraph) -> list[Diagnostic]:
    """XGL009: root-anchored boxes that cannot all sit at the root."""
    findings: list[Diagnostic] = []
    anchored = [
        n
        for n in graph.element_nodes()
        if n.anchored
    ]
    tags = {n.tag for n in anchored if n.tag is not None}
    if len(tags) > 1:
        findings.append(Diagnostic(
            "XGL009",
            Severity.ERROR,
            f"boxes anchored at the document root require different tags "
            f"{sorted(tags)}: a document has one root",
            node=anchored[0].id,
            unsatisfiable=True,
        ))
    has_parent = {e.child for e in graph.all_edges()}
    for node in anchored:
        if node.id in has_parent:
            findings.append(Diagnostic(
                "XGL009",
                Severity.ERROR,
                f"box {node.id!r} is anchored at the document root but "
                "drawn below another box: the root has no parent",
                node=node.id,
                unsatisfiable=True,
            ))
    return findings
