"""Embedding enumeration for WG-Log rules.

The red part of a rule is matched against an instance graph via the generic
subgraph matcher.  Two WG-Log specifics are layered on top:

* **∀-negation for crossed edges.**  Following the Datalog-style safety
  convention G-Log inherits, a node appearing *only* behind crossed edges is
  universally quantified inside the negation: ``idx =/=> d [index]`` with
  ``idx`` otherwise unconstrained means "no node links to d with an index
  edge" (GraphLog's root-link example).  A crossed edge between two
  positively bound nodes is plain pairwise negation.
* **Schema checking.**  WG-Log queries are schema-based: with a schema
  supplied, red node labels must be declared entity types and red edges
  declared relations, caught *before* evaluation — the editor-level safety
  the paper attributes to schema-aware languages.
"""

from __future__ import annotations

from typing import Any, Hashable, Optional

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

__all__ = ["GraphAccessor", "embeddings", "check_against_schema"]

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
    core, or the narrowing-free naive scan (the ablation baseline).

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
    pattern, spec_edges = _red_pattern(rule, core_ids)
    engine = options.engine
    spec = MatchSpec(
        injective=injective,
        node_compat=_compat(rule, instance),
        path_edges=spec_edges["path"],
        negated_edges=spec_edges["negated"],
        narrow=engine != "naive",
    )
    results = BindingSet()
    with trace_span(stats.trace, "match", engine=engine, language="wglog"):
        if engine == "pipeline":
            mappings = find_homomorphisms_setwise(
                pattern, instance.graph, spec, stats=stats
            )
        else:
            mappings = find_homomorphisms(
                pattern, instance.graph, spec, stats=stats
            )

        try:
            for mapping in mappings:
                stats.candidates_tried += 1
                if state is not None:
                    state.charge()
                if any(
                    _fragment_exists(
                        rule, instance, fragment, crossed, mapping, injective
                    )
                    for crossed, fragment in fragments
                ):
                    continue
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
) -> tuple[LabeledGraph, dict[str, set[Edge]]]:
    """The core red pattern as a LabeledGraph plus special edge sets."""
    pattern = LabeledGraph()
    for node_id in core_ids:
        node = rule.nodes[node_id]
        pattern.add_node(node_id, node.label or "*")
    special: dict[str, set[Edge]] = {"path": set(), "negated": set()}
    for edge in rule.red_edges():
        if edge.source not in core_ids or edge.target not in core_ids:
            continue
        graph_edge = Edge(edge.source, edge.target, edge.label)
        if edge.crossed:
            special["negated"].add(graph_edge)
        if edge.path:
            special["path"].add(graph_edge)
        pattern.add_edge(edge.source, edge.target, edge.label)
    return pattern, special


def _compat(rule: RuleGraph, instance: InstanceGraph):
    """Node compatibility: labels must agree and entities never bind slots."""

    def compat(pnode: NodeId, dnode: NodeId) -> bool:
        wanted = rule.nodes[pnode].label
        actual = instance.graph.label(dnode)
        if actual == SLOT_LABEL:
            return wanted == SLOT_LABEL
        return wanted is None or wanted == actual

    return compat


def _fragment_exists(
    rule: RuleGraph,
    instance: InstanceGraph,
    fragment: set[str],
    crossed: RuleEdge,
    mapping: dict[str, NodeId],
    injective: bool,
) -> bool:
    """Does the ∀-negated fragment embed, given the core assignment?

    For pairwise negations (empty fragment) the generic matcher has already
    handled the check via ``negated_edges``; return False here.
    """
    if not fragment:
        return False
    boundary = {crossed.source, crossed.target} - fragment
    pattern = LabeledGraph()
    for node_id in fragment | boundary:
        node = rule.nodes[node_id]
        pattern.add_node(node_id, node.label or "*")
    # the crossed edge becomes a *positive* requirement inside the check
    path_edges: set[Edge] = set()
    crossed_edge = Edge(crossed.source, crossed.target, crossed.label)
    pattern.add_edge(crossed.source, crossed.target, crossed.label)
    if crossed.path:
        path_edges.add(crossed_edge)
    for edge in rule.red_edges():
        if edge is crossed or edge.crossed:
            continue
        if edge.source in fragment or edge.target in fragment:
            graph_edge = Edge(edge.source, edge.target, edge.label)
            pattern.add_edge(edge.source, edge.target, edge.label)
            if edge.path:
                path_edges.add(graph_edge)

    base_compat = _compat(rule, instance)

    def compat(pnode: NodeId, dnode: NodeId) -> bool:
        if pnode in boundary:
            return dnode == mapping[pnode]
        return base_compat(pnode, dnode)

    spec = MatchSpec(
        injective=injective, node_compat=compat, path_edges=path_edges
    )
    for _ in find_homomorphisms(pattern, instance.graph, spec):
        return True
    return False
