"""Embedding enumeration for WG-Log rules.

The red part of a rule is matched against an instance graph via the generic
subgraph matcher.  Two WG-Log specifics are layered on top:

* **Negation as an anti-join.**  Following the Datalog-style safety
  convention G-Log inherits, a node appearing *only* behind crossed edges is
  universally quantified inside the negation: ``idx =/=> d [index]`` with
  ``idx`` otherwise unconstrained means "no node links to d with an index
  edge" (GraphLog's root-link example).  A crossed edge between two
  positively bound nodes is plain pairwise negation.  Either way the
  crossed edge filters the positive core's rows: one anti-join per
  crossed edge (:func:`_anti_join`), never a separate route.
* **Schema checking.**  WG-Log queries are schema-based: with a schema
  supplied, red node labels must be declared entity types and red edges
  declared relations, caught *before* evaluation — the editor-level safety
  the paper attributes to schema-aware languages.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Hashable, Iterator, Optional, Sequence

from ..engine.bindings import Binding, BindingSet
from ..engine.conditions import condition_variables
from ..engine.limits import QueryBudget, arm_budget, mark_truncated
from ..engine.options import ExecOptions
from ..engine.stats import EvalStats
from ..engine.trace import Tracer, span as trace_span
from ..errors import BudgetExceeded, QueryStructureError, SchemaError
from ..graph.labeled_graph import Edge, LabeledGraph
from ..graph.matching import MatchSpec, find_homomorphisms, find_homomorphisms_setwise
from .ast import Color, RuleEdge, RuleGraph
from .data import SLOT_LABEL, InstanceGraph
from .schema import WGSchema

__all__ = [
    "GraphAccessor", "embeddings", "check_against_schema", "delta_restrictable",
]

NodeId = Hashable


class GraphAccessor:
    """Condition accessor reading slots/labels of bound instance nodes."""

    def __init__(self, instance: InstanceGraph) -> None:
        self._instance = instance

    def content(self, value: Any) -> Any:
        """Atomic view: slot nodes yield their value; entities have none."""
        if value in self._instance.graph and self._instance.is_slot(value):
            return self._instance.graph.value(value)
        return None

    def attribute(self, value: Any, name: str) -> Optional[Any]:
        """Slot ``name`` of a bound entity."""
        if value in self._instance.graph:
            return self._instance.slot_value(value, name)
        return None

    def name(self, value: Any) -> str:
        """Entity type of a bound node."""
        return self._instance.label(value)


def check_against_schema(rule: RuleGraph, schema: WGSchema) -> None:
    """Reject rules whose red part cannot possibly match a conformant
    instance: undeclared labels or undeclared relations.

    Wildcard endpoints and path edges are skipped (any label may realise
    them).  Green parts are checked too: derived structure should also be
    expressible in the schema, which is how WG-Log keeps derived graphs
    queryable.
    """
    for node in rule.nodes.values():
        if node.label is not None and not schema.has_entity(node.label):
            raise SchemaError(
                f"rule node {node.id!r} uses undeclared entity type "
                f"{node.label!r}"
            )
    for edge in rule.edges:
        if edge.path:
            continue
        source = rule.nodes[edge.source].label
        target = rule.nodes[edge.target].label
        if source is None or target is None:
            continue
        if not schema.allows_relation(source, edge.label, target):
            raise SchemaError(
                f"rule edge {source} -{edge.label}-> {target} is not a "
                "declared relation"
            )


def embeddings(
    rule: RuleGraph,
    instance: InstanceGraph,
    schema: Optional[WGSchema] = None,
    injective: bool = False,
    stats: Optional[EvalStats] = None,
    preflight: bool = True,
    *,
    options: Optional[ExecOptions] = None,
    trace: Optional[bool] = None,
    budget: Optional[QueryBudget] = None,
    delta: Optional[Sequence[Edge]] = None,
) -> BindingSet:
    """All embeddings of the rule's red part into ``instance``.

    Returns bindings from red node ids to instance node ids.  ``injective``
    requires distinct red nodes to bind distinct instance nodes (G-Log
    embeddings); the default is homomorphic matching.

    The keyword-only ``options=`` / ``trace=`` / ``budget=`` trio is the
    unified run contract shared with the XML-GL evaluator and
    ``QuerySession.run``: ``trace`` overrides ``options.trace``, ``budget``
    overrides ``options.budget``.  A tripped budget raises
    :class:`~repro.errors.BudgetExceeded` carrying the partial stats, or —
    under ``on_limit="partial"`` — returns the bindings gathered so far,
    flagged ``stats.extra["truncated"]``.

    ``options.engine`` picks the evaluation strategy: the set-at-a-time
    pipeline (default; forest-shaped rule fragments reduce by semi-joins,
    the rest falls back per fragment), the node-at-a-time backtracking
    core, or the narrowing-free naive scan (the ablation baseline).  Each
    crossed edge is one anti-join on the same engine: its fragment is
    matched once, seeded with the boundary values the core rows bind, and
    every core row whose boundary tuple it hits is dropped.  A pairwise
    crossed edge (both ends positively bound) has an empty fragment.

    ``delta`` (keyword-only) is the semi-naive hint: the instance edges
    added since this rule last matched.  Embeddings that use none of them
    may then be skipped — each positive red edge is matched in turn
    against the delta alone, and the union returned.  A rule the
    restriction cannot cover (see :func:`delta_restrictable`) is matched
    in full.

    ``preflight`` (default on) first asks the static analyser whether the
    red part can embed anywhere at all; a proof of unsatisfiability —
    contradictory predicates, a content comparison on an entity node —
    short-circuits to an empty binding set, counted in
    ``stats.preflight_skips``.  Structural and schema violations still
    raise (the pre-flight runs after ``validate`` and the schema check).
    """
    rule.validate()
    if schema is not None:
        check_against_schema(rule, schema)
    options = options or ExecOptions()
    stats = stats if stats is not None else EvalStats()
    tracing = trace if trace is not None else options.trace
    if tracing and stats.trace is None:
        stats.trace = Tracer()
    state = arm_budget(
        stats, budget if budget is not None else options.budget
    )
    if options.rewrite:
        from ..analysis.rewrite import rewrite_rulegraph

        with trace_span(stats.trace, "rewrite") as rewrite_span:
            rule, rewrite_report = rewrite_rulegraph(rule)
            if rewrite_span is not None:
                rewrite_span["summary"] = rewrite_report.describe()
                rewrite_span["changed"] = rewrite_report.changed
        for name, value in rewrite_report.counters.items():
            stats.bump(f"rewrite_{name}", value)
        if rewrite_report.static_false:
            stats.preflight_skips += 1
            return BindingSet()
    if preflight:
        from ..analysis.preflight import wglog_preflight

        stats.preflight_runs += 1
        if wglog_preflight(rule) is not None:
            stats.preflight_skips += 1
            return BindingSet()
    accessor = GraphAccessor(instance)

    core_ids, fragments = _split_negation(rule)
    pattern, path_edges = _red_pattern(rule, core_ids)
    engine = options.engine
    match = (
        find_homomorphisms_setwise if engine == "pipeline" else find_homomorphisms
    )
    base = MatchSpec(
        injective=injective,
        node_compat=_compat(rule, instance),
        path_edges=path_edges,
        narrow=engine != "naive",
    )
    results = BindingSet()
    with trace_span(stats.trace, "match", engine=engine, language="wglog"):
        try:
            if delta is not None and delta_restrictable(rule):
                mappings = _delta_mappings(
                    pattern, instance, base, match, delta, stats
                )
            else:
                mappings = match(pattern, instance.graph, base, stats=stats)
            for crossed, fragment in fragments:
                mappings = _anti_join(
                    list(mappings), rule, instance, crossed, fragment,
                    base, match, stats,
                )
            for mapping in mappings:
                stats.candidates_tried += 1
                if state is not None:
                    state.charge()
                binding = Binding(mapping)
                ok = True
                for condition in rule.conditions:
                    stats.condition_checks += 1
                    if not condition.evaluate(binding, accessor):
                        ok = False
                        break
                if ok:
                    if state is not None:
                        state.check_bindings(stats.bindings_produced + 1)
                    results.add(binding)
                    stats.bindings_produced += 1
        except BudgetExceeded as exc:
            if state is None or not state.budget.partial:
                raise
            mark_truncated(stats, exc.limit)
    return results


# ---------------------------------------------------------------------------
# Negation splitting
# ---------------------------------------------------------------------------

def _positively_anchored(rule: RuleGraph) -> set[str]:
    """Red nodes referenced outside crossed edges (the ∃-quantified ones)."""
    anchored: set[str] = set()
    for edge in rule.red_edges():
        if not edge.crossed:
            anchored.add(edge.source)
            anchored.add(edge.target)
    for edge in rule.green_edges():
        for endpoint in (edge.source, edge.target):
            if rule.nodes[endpoint].color is Color.RED:
                anchored.add(endpoint)
    for assertion in rule.slot_assertions:
        if rule.nodes[assertion.node].color is Color.RED:
            anchored.add(assertion.node)
        if assertion.from_node is not None:
            anchored.add(assertion.from_node)
    for condition in rule.conditions:
        anchored |= {
            v for v in condition_variables(condition) if v in rule.nodes
        }
    crossed_endpoints: set[str] = set()
    for edge in rule.red_edges():
        if edge.crossed:
            crossed_endpoints.add(edge.source)
            crossed_endpoints.add(edge.target)
    for node in rule.red_nodes():
        if node.id not in crossed_endpoints and node.id not in anchored:
            anchored.add(node.id)  # isolated red node: positively matched
    return anchored


def _split_negation(
    rule: RuleGraph,
) -> tuple[set[str], list[tuple[RuleEdge, set[str]]]]:
    """Split red nodes into the positive core and ∀-negated fragments.

    Returns ``(core_node_ids, [(crossed_edge, fragment_node_ids), ...])``
    where fragments are empty for pairwise (both-ends-bound) negations.
    """
    anchored = _positively_anchored(rule)
    red_ids = {n.id for n in rule.red_nodes()}
    adjacency: dict[str, set[str]] = {n: set() for n in red_ids}
    for edge in rule.red_edges():
        if not edge.crossed:
            adjacency[edge.source].add(edge.target)
            adjacency[edge.target].add(edge.source)

    fragments: list[tuple[RuleEdge, set[str]]] = []
    in_fragments: set[str] = set()
    for edge in rule.red_edges():
        if not edge.crossed:
            continue
        source_anchored = edge.source in anchored
        target_anchored = edge.target in anchored
        if source_anchored and target_anchored:
            fragments.append((edge, set()))  # pairwise negation
            continue
        far = edge.target if source_anchored else edge.source
        if not source_anchored and not target_anchored:
            raise QueryStructureError(
                f"crossed edge {edge.describe()} has no positively bound "
                "endpoint; anchor one side in the positive pattern"
            )
        fragment: set[str] = set()
        stack = [far]
        while stack:
            node = stack.pop()
            if node in fragment or node in anchored:
                continue
            fragment.add(node)
            stack.extend(adjacency[node])
        fragments.append((edge, fragment))
        in_fragments |= fragment
    core = red_ids - in_fragments
    return core, fragments


def _red_pattern(
    rule: RuleGraph, core_ids: set[str]
) -> tuple[LabeledGraph, set[Edge]]:
    """The positive core red pattern as a LabeledGraph plus its path edges."""
    pattern = LabeledGraph()
    for node_id in core_ids:
        node = rule.nodes[node_id]
        pattern.add_node(node_id, node.label or "*")
    path_edges: set[Edge] = set()
    for edge in rule.red_edges():
        if edge.crossed or edge.source not in core_ids or edge.target not in core_ids:
            continue
        if edge.path:
            path_edges.add(Edge(edge.source, edge.target, edge.label))
        pattern.add_edge(edge.source, edge.target, edge.label)
    return pattern, path_edges


def _compat(rule: RuleGraph, instance: InstanceGraph):
    """Node compatibility: labels must agree and entities never bind slots."""

    wanted_labels = {node.id: node.label for node in rule.nodes.values()}
    label = instance.graph.label

    def compat(pnode: NodeId, dnode: NodeId) -> bool:
        wanted = wanted_labels[pnode]
        actual = label(dnode)
        if actual == SLOT_LABEL:
            return wanted == SLOT_LABEL
        return wanted is None or wanted == actual

    return compat


def _anti_join(
    rows: list[dict[str, NodeId]],
    rule: RuleGraph,
    instance: InstanceGraph,
    crossed: RuleEdge,
    fragment: set[str],
    base: MatchSpec,
    match: Callable[..., Iterator[dict[str, NodeId]]],
    stats: EvalStats,
) -> list[dict[str, NodeId]]:
    """Core rows with no embedding of one crossed edge's fragment.

    Fragment nodes are exactly the red nodes that appear only behind
    crossed edges, so the fragment pattern is the crossed edge alone, made
    positive, between its far node and its bound boundary node.  It is
    matched once with the boundary pool seeded from the core rows; a row
    survives when its boundary value is not among the hits.  Injective
    mode keeps the far node off the boundary node.  A pairwise crossed
    edge has an empty fragment: both endpoints are seeded boundary nodes
    (one, for a self-loop).
    """
    if not rows:
        return rows
    boundary = [n for n in (crossed.source, crossed.target) if n not in fragment]
    pattern = LabeledGraph()
    for node_id in sorted(fragment) + boundary:
        pattern.add_node(node_id, rule.nodes[node_id].label or "*")
    pattern.add_edge(crossed.source, crossed.target, crossed.label)
    edge = Edge(crossed.source, crossed.target, crossed.label)
    spec = MatchSpec(
        injective=base.injective,
        node_compat=base.node_compat,
        path_edges={edge} if crossed.path else set(),
        narrow=base.narrow,
        candidates={
            node: list(dict.fromkeys(row[node] for row in rows))
            for node in boundary
        },
    )
    hits = {
        tuple(found[node] for node in boundary)
        for found in match(pattern, instance.graph, spec, stats=stats)
    }
    kept = [row for row in rows if tuple(row[n] for n in boundary) not in hits]
    stats.bump("antijoin_dropped", len(rows) - len(kept))
    return kept


# ---------------------------------------------------------------------------
# Semi-naive restriction
# ---------------------------------------------------------------------------

def delta_restrictable(rule: RuleGraph) -> bool:
    """Is "some positive red edge maps into the delta" a sound restriction?

    It is when matching is monotone in the edge set (no crossed edges, no
    conditions reading slots), every red edge is a direct one (a path may
    run through new edges without one of its own being new) and every red
    node touches a red edge (an isolated node could bind a node no delta
    edge mentions).
    """
    red_edges = rule.red_edges()
    if rule.conditions or any(e.crossed or e.path for e in red_edges):
        return False
    touched = {e.source for e in red_edges} | {e.target for e in red_edges}
    return all(node.id in touched for node in rule.red_nodes())


def _delta_mappings(
    pattern: LabeledGraph,
    instance: InstanceGraph,
    base: MatchSpec,
    match: Callable[..., Iterator[dict[str, NodeId]]],
    delta: Sequence[Edge],
    stats: EvalStats,
) -> list[dict[str, NodeId]]:
    """Mappings that send at least one pattern edge onto a delta edge.

    One run per pattern edge, with that edge's relation restricted to the
    delta edges of its label and its endpoint pools seeded from theirs;
    a mapping found by several runs is kept once.
    """
    by_label: dict[str, dict[tuple[NodeId, NodeId], None]] = {}
    for edge in delta:
        by_label.setdefault(edge.label, {})[edge.source, edge.target] = None
    found: dict[frozenset, dict[str, NodeId]] = {}
    for edge in pattern.edges():
        pairs = by_label.get(edge.label)
        if not pairs:
            continue
        sources = dict.fromkeys(source for source, _ in pairs)
        targets = dict.fromkeys(target for _, target in pairs)
        if edge.source == edge.target:
            candidates = {edge.source: [n for n in sources if n in targets]}
        else:
            candidates = {edge.source: list(sources), edge.target: list(targets)}
        spec = replace(base, candidates=candidates, edge_pairs={edge: pairs.keys()})
        for mapping in match(pattern, instance.graph, spec, stats=stats):
            found.setdefault(frozenset(mapping.items()), mapping)
    return list(found.values())
