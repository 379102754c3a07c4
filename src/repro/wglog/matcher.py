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
from typing import Any, Hashable, Mapping, Optional, Sequence

from ..engine.bindings import Binding, BindingSet
from ..engine.conditions import condition_variables
from ..engine.limits import QueryBudget, arm_budget, mark_truncated
from ..engine.options import ExecOptions
from ..engine.stats import EvalStats
from ..engine.trace import Tracer, span as trace_span
from ..errors import BudgetExceeded, QueryStructureError, SchemaError
from ..graph.labeled_graph import Edge, LabeledGraph
from ..graph.matching import MatchSpec, match_rows
from .ast import Color, RuleEdge, RuleGraph
from .data import SLOT_LABEL, InstanceGraph
from .schema import WGSchema

__all__ = [
    "GraphAccessor", "Embeddings", "embeddings", "check_against_schema",
    "delta_restrictable",
]

NodeId = Hashable


class Embeddings(BindingSet):
    """Embeddings as rows of the instance's dense node ids.

    ``rows[i][j]`` is the dense id bound to red node ``columns[j]`` in the
    i-th embedding.  The :class:`Binding` objects are decoded from the
    rows on first read, so :func:`~repro.wglog.semantics.apply_rule`,
    which instantiates plain green edges straight from the row columns,
    never builds them.  ``rows`` describes the embeddings as matched; a
    later :meth:`add` changes only the bindings.
    """

    __slots__ = ("columns", "rows", "_table")

    def __init__(
        self,
        columns: Sequence[str],
        rows: list[tuple[int, ...]],
        table: Sequence[NodeId],
    ) -> None:
        # the base class's ``_bindings`` slot stays unset until first read
        self.columns = list(columns)
        self.rows = rows
        self._table = table

    def __getattr__(self, name: str) -> Any:
        if name != "_bindings":
            raise AttributeError(name)
        table, columns = self._table, self.columns
        self._bindings = [
            Binding(dict(zip(columns, [table[i] for i in row])))
            for row in self.rows
        ]
        return self._bindings


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
    delta: Optional[Mapping[str, int]] = None,
) -> Embeddings:
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
    pipeline (default; every rule fragment reduces by semi-joins, a path
    edge joins as a relation found by breadth-first search, and an edge
    closing a cycle filters the joined rows), the node-at-a-time
    backtracking core, or the narrowing-free naive scan (the ablation
    baseline).  Each
    crossed edge is one anti-join on the same engine: its fragment is
    matched once, seeded with the boundary values the core rows bind, and
    every core row whose boundary tuple it hits is dropped.  A pairwise
    crossed edge (both ends positively bound) has an empty fragment.

    ``delta`` (keyword-only) is the semi-naive hint: per edge label, the
    length its edge columns had when this rule last started matching
    (:meth:`~repro.graph.labeled_graph.LabeledGraph.edge_marks`), so the
    instance edges added since are the columns' tails (all of a label
    without a mark).  Embeddings that use none of them may then be
    skipped — each positive red edge is matched in turn against the delta
    alone, and the union returned.  A rule the restriction cannot cover
    (see :func:`delta_restrictable`) is matched in full.

    Matching, the anti-joins, the injective filter and the delta all run
    on rows of dense node ids; the result is an :class:`Embeddings`, which
    decodes its bindings only when they are read.

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
            return Embeddings([], [], instance.graph.node_table())
    if preflight:
        from ..analysis.preflight import wglog_preflight

        stats.preflight_runs += 1
        if wglog_preflight(rule) is not None:
            stats.preflight_skips += 1
            return Embeddings([], [], instance.graph.node_table())
    graph = instance.graph
    core_ids, fragments = _split_negation(rule)
    pattern, path_edges = _red_pattern(rule, core_ids)
    variables = list(pattern.nodes())
    engine = options.engine
    spec = MatchSpec(
        injective=injective, path_edges=path_edges, narrow=engine != "naive"
    )
    setwise = engine == "pipeline"
    kept: list[tuple[int, ...]] = []
    with trace_span(stats.trace, "match", engine=engine, language="wglog"):
        try:
            if delta is not None and delta_restrictable(rule):
                rows = _delta_rows(pattern, graph, spec, setwise, delta, stats)
            else:
                rows = match_rows(
                    pattern, graph, spec, stats, setwise=setwise,
                    pools=_entity_pools(pattern, graph),
                )
            for crossed, fragment in fragments:
                rows = _anti_join(
                    rows, variables, rule, graph, crossed, fragment, spec,
                    setwise, stats,
                )
            if state is None and not rule.conditions:
                kept = rows
                stats.candidates_tried += len(rows)
                stats.bindings_produced += len(rows)
            else:
                accessor = GraphAccessor(instance)
                table = graph.node_table()
                for row in rows:
                    stats.candidates_tried += 1
                    if state is not None:
                        state.charge()
                    if rule.conditions:
                        binding = Binding(
                            dict(zip(variables, [table[i] for i in row]))
                        )
                        ok = True
                        for condition in rule.conditions:
                            stats.condition_checks += 1
                            if not condition.evaluate(binding, accessor):
                                ok = False
                                break
                        if not ok:
                            continue
                    if state is not None:
                        state.check_bindings(stats.bindings_produced + 1)
                    kept.append(row)
                    stats.bindings_produced += 1
        except BudgetExceeded as exc:
            if state is None or not state.budget.partial:
                raise
            mark_truncated(stats, exc.limit)
    return Embeddings(variables, kept, graph.node_table())


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
    """The positive core red pattern as a LabeledGraph plus its path edges.

    Pattern nodes follow the rule's drawing order, so row columns (and the
    planner's tie-breaks) do not depend on set iteration order.
    """
    pattern = LabeledGraph()
    for node_id, node in rule.nodes.items():
        if node_id in core_ids:
            pattern.add_node(node_id, node.label or "*")
    path_edges: set[Edge] = set()
    for edge in rule.red_edges():
        if edge.crossed or edge.source not in core_ids or edge.target not in core_ids:
            continue
        if edge.path:
            path_edges.add(Edge(edge.source, edge.target, edge.label))
        pattern.add_edge(edge.source, edge.target, edge.label)
    return pattern, path_edges


def _entity_pools(
    pattern: LabeledGraph, graph: LabeledGraph
) -> dict[NodeId, list[int]]:
    """Pools for the pattern's wildcard nodes: every entity, never a slot.

    Labelled pattern nodes draw their pools from the label's node column,
    so only a wildcard needs one seeded.
    """
    wildcards = [p for p in pattern.nodes() if pattern.label(p) == "*"]
    if not wildcards:
        return {}
    slots = set(graph.label_pool(SLOT_LABEL))
    entities = [i for i in graph.label_pool() if i not in slots]
    return {p: entities for p in wildcards}


def _anti_join(
    rows: list[tuple[int, ...]],
    variables: list[str],
    rule: RuleGraph,
    graph: LabeledGraph,
    crossed: RuleEdge,
    fragment: set[str],
    base: MatchSpec,
    setwise: bool,
    stats: EvalStats,
) -> list[tuple[int, ...]]:
    """Core rows with no embedding of one crossed edge's fragment.

    Fragment nodes are exactly the red nodes that appear only behind
    crossed edges, so the fragment pattern is the crossed edge alone, made
    positive, between its far node and its bound boundary node.  It is
    matched once with the boundary pool seeded from the core rows'
    columns; a row survives when its boundary value is not among the
    hits.  Injective mode keeps the far node off the boundary node.  A
    pairwise crossed edge has an empty fragment: both endpoints are seeded
    boundary nodes (one, for a self-loop).
    """
    if not rows:
        return rows
    boundary = [n for n in (crossed.source, crossed.target) if n not in fragment]
    pattern = LabeledGraph()
    for node_id in sorted(fragment) + boundary:
        pattern.add_node(node_id, rule.nodes[node_id].label or "*")
    pattern.add_edge(crossed.source, crossed.target, crossed.label)
    edge = Edge(crossed.source, crossed.target, crossed.label)
    spec = replace(base, path_edges={edge} if crossed.path else set())
    at = [variables.index(node) for node in boundary]
    pools = _entity_pools(pattern, graph)
    for node, column in zip(boundary, at):
        pools[node] = list(dict.fromkeys(row[column] for row in rows))
    hit_at = [list(pattern.nodes()).index(node) for node in boundary]
    hits = {
        tuple(found[i] for i in hit_at)
        for found in match_rows(
            pattern, graph, spec, stats, setwise=setwise, pools=pools
        )
    }
    kept = [row for row in rows if tuple(row[i] for i in at) not in hits]
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


def _delta_rows(
    pattern: LabeledGraph,
    graph: LabeledGraph,
    spec: MatchSpec,
    setwise: bool,
    marks: Mapping[str, int],
    stats: EvalStats,
) -> list[tuple[int, ...]]:
    """Rows that send at least one pattern edge onto a delta edge.

    The delta of a label is the tail of its edge columns past
    ``marks[label]`` (the whole column for a label without a mark).  One
    run per pattern edge, with that edge's relation restricted to the
    delta columns of its label and its endpoint pools seeded from them; a
    row found by several runs is kept once.
    """
    entities = _entity_pools(pattern, graph)
    found: dict[tuple[int, ...], None] = {}
    for edge in pattern.edges():
        sources, targets = graph.edge_columns(edge.label)
        mark = marks.get(edge.label, 0)
        if len(sources) <= mark:
            continue
        sources, targets = sources[mark:], targets[mark:]
        seeds = {edge.source: dict.fromkeys(sources)}
        ends = dict.fromkeys(targets)
        if edge.source == edge.target:
            seeds[edge.source] = {n: None for n in seeds[edge.source] if n in ends}
        else:
            seeds[edge.target] = ends
        pools = dict(entities)
        for node, ids in seeds.items():
            if node in entities:
                allowed = set(entities[node])
                ids = {n: None for n in ids if n in allowed}
            pools[node] = list(ids)
        rows = match_rows(
            pattern, graph, spec, stats, setwise=setwise,
            pools=pools, pairs={edge: (sources, targets)},
        )
        found.update(dict.fromkeys(rows))
    return list(found)
