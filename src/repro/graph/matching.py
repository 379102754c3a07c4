"""Constrained subgraph matching.

Both graphical languages reduce to *graph pattern matching*: find all
mappings of a small pattern graph into a large data graph that preserve
labels and edges.  This module implements a backtracking matcher with

* candidate pre-filtering by node compatibility (label / value hooks),
* most-constrained-first variable ordering (fewest candidates, preferring
  nodes adjacent to already-matched ones),
* optional injectivity (isomorphic embeddings vs. plain homomorphisms),
* support for *regular path* pattern edges that match any non-empty
  directed path in the data graph (WG-Log's dashed edges).

The matcher works on :class:`~repro.graph.labeled_graph.LabeledGraph`
pattern/data pairs; XML documents are matched by a specialised tree matcher
in :mod:`repro.xmlgl.matcher` that shares the same ordering ideas.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Hashable, Iterator, Optional

from ..engine.narrowing import intersect_pools
from ..engine.pipeline import connected_components, evaluate_forest, is_forest, relation_for
from ..engine.stats import EvalStats
from ..engine.trace import span as trace_span
from ..errors import BudgetExceeded
from .labeled_graph import Edge, LabeledGraph
from .traversal import reachable_by_labels

__all__ = [
    "PatternEdgeKind",
    "MatchSpec",
    "find_homomorphisms",
    "find_homomorphisms_setwise",
    "count_homomorphisms",
]

NodeId = Hashable
NodeCompat = Callable[[NodeId, NodeId], bool]


class PatternEdgeKind:
    """Edge-matching modes, chosen per pattern-edge label prefix.

    * DIRECT — the pattern edge must map to one data edge with equal label.
    * PATH — the pattern edge matches any non-empty directed path; declared
      by :attr:`MatchSpec.path_edges`.  A path edge with a non-empty label
      only traverses data edges carrying that label (GraphLog's ``label*``);
      an empty label traverses any edge.
    """

    DIRECT = "direct"
    PATH = "path"


@dataclass
class MatchSpec:
    """Configuration of one matching run.

    Attributes:
        injective: require distinct pattern nodes to map to distinct data
            nodes (embedding) instead of allowing collapses (homomorphism).
        narrow: derive candidate pools from assigned neighbours' adjacency
            (on by default; disable for the EXT-A1 ablation baseline).
        node_compat: predicate deciding whether a pattern node may map to a
            data node.  Defaults to equal labels, with pattern label ``"*"``
            acting as a wildcard, and equal values whenever the pattern node
            carries a non-``None`` value.
        path_edges: set of pattern :class:`Edge` objects to be matched as
            arbitrary-length directed paths rather than single edges.
        negated_edges: pattern edges that must **not** have a counterpart in
            the data graph (crossed-out edges in WG-Log / XML-GL).  Both
            endpoints must also occur in positive pattern structure.
    """

    injective: bool = True
    node_compat: Optional[NodeCompat] = None
    path_edges: set[Edge] = field(default_factory=set)
    negated_edges: set[Edge] = field(default_factory=set)
    narrow: bool = True


def _default_compat(pattern: LabeledGraph, data: LabeledGraph) -> NodeCompat:
    def compat(pnode: NodeId, dnode: NodeId) -> bool:
        pdata = pattern.node(pnode)
        ddata = data.node(dnode)
        if pdata.label != "*" and pdata.label != ddata.label:
            return False
        if pdata.value is not None and pdata.value != ddata.value:
            return False
        return True

    return compat


def find_homomorphisms(
    pattern: LabeledGraph,
    data: LabeledGraph,
    spec: Optional[MatchSpec] = None,
    stats: Optional[EvalStats] = None,
) -> Iterator[dict[NodeId, NodeId]]:
    """Yield every mapping of ``pattern`` into ``data`` satisfying ``spec``.

    Mappings are dicts from pattern node ids to data node ids.  The empty
    pattern yields exactly one empty mapping.  ``stats`` is optional and
    only consulted for governance: when it carries an armed budget
    (``stats.budget``), each candidate tried charges one work unit, so
    deadlines and work caps interrupt the search cooperatively.
    """
    spec = spec or MatchSpec()
    budget = None if stats is None else stats.budget
    compat = spec.node_compat or _default_compat(pattern, data)
    positive_edges = [
        e for e in pattern.edges() if e not in spec.negated_edges
    ]
    pattern_nodes = list(pattern.nodes())
    if not pattern_nodes:
        yield {}
        return

    # Candidate lists per pattern node (pre-filtered by compatibility).
    candidates: dict[NodeId, list[NodeId]] = {}
    candidate_sets: dict[NodeId, set[NodeId]] = {}
    for pnode in pattern_nodes:
        cands = [dnode for dnode in data.nodes() if compat(pnode, dnode)]
        if budget is not None:
            budget.charge(max(1, len(cands)))
        if not cands:
            return
        candidates[pnode] = cands
        candidate_sets[pnode] = set(cands)

    order = _variable_order(pattern_nodes, candidates, positive_edges)
    # Index positive edges by endpoint for incremental checking.
    edges_by_node: dict[NodeId, list[Edge]] = {p: [] for p in pattern_nodes}
    for edge in positive_edges:
        edges_by_node[edge.source].append(edge)
        edges_by_node[edge.target].append(edge)

    reach_cache: dict[tuple, set[NodeId]] = {}

    def reaches(src: NodeId, dst: NodeId, label: str) -> bool:
        # reachable_by_labels excludes the start unless it lies on a cycle,
        # which is exactly the non-empty-path semantics we need.
        key = (src, label)
        if key not in reach_cache:
            reach_cache[key] = reachable_by_labels(
                data, src, edge_label=label or None
            )
        return dst in reach_cache[key]

    assignment: dict[NodeId, NodeId] = {}
    used: set[NodeId] = set()

    def edge_ok(edge: Edge) -> bool:
        src = assignment.get(edge.source)
        dst = assignment.get(edge.target)
        if src is None or dst is None:
            return True  # checked when the other endpoint is assigned
        if edge in spec.path_edges:
            return reaches(src, dst, edge.label)
        return data.has_edge(src, dst, edge.label)

    def negations_ok() -> bool:
        for edge in spec.negated_edges:
            src = assignment.get(edge.source)
            dst = assignment.get(edge.target)
            if src is None or dst is None:
                continue
            if edge in spec.path_edges:
                if reaches(src, dst, edge.label):
                    return False
            elif data.has_edge(src, dst, edge.label):
                return False
        return True

    def candidates_for(pnode: NodeId) -> list[NodeId]:
        """Narrow candidates via already-assigned direct-edge neighbours."""
        if not spec.narrow:
            return candidates[pnode]
        pools: list[list[NodeId]] = []
        for edge in edges_by_node[pnode]:
            if edge in spec.path_edges:
                continue  # path edges do not narrow (checked by edge_ok)
            if edge.source == pnode and edge.target in assignment:
                pools.append(data.predecessors(assignment[edge.target], edge.label))
            elif edge.target == pnode and edge.source in assignment:
                pools.append(data.successors(assignment[edge.source], edge.label))
        if not pools:
            return candidates[pnode]
        return intersect_pools(
            pools, allowed=candidate_sets[pnode], smallest_base=True
        )

    def backtrack(index: int) -> Iterator[dict[NodeId, NodeId]]:
        if index == len(order):
            yield dict(assignment)
            return
        pnode = order[index]
        for dnode in candidates_for(pnode):
            if budget is not None:
                budget.charge()
            if spec.injective and dnode in used:
                continue
            assignment[pnode] = dnode
            used.add(dnode)
            if all(edge_ok(e) for e in edges_by_node[pnode]) and negations_ok():
                yield from backtrack(index + 1)
            used.discard(dnode)
            del assignment[pnode]

    yield from backtrack(0)


def find_homomorphisms_setwise(
    pattern: LabeledGraph,
    data: LabeledGraph,
    spec: Optional[MatchSpec] = None,
    stats: Optional[EvalStats] = None,
) -> Iterator[dict[NodeId, NodeId]]:
    """Set-at-a-time counterpart of :func:`find_homomorphisms`.

    Pattern components whose direct-edge skeleton is a forest are compiled
    to candidate pools plus edge relations and evaluated through
    :func:`repro.engine.pipeline.evaluate_forest` (semi-join reduction,
    then hash joins).  Components the pipeline cannot cover — cyclic
    skeletons, path edges, negated edges — and injective runs (a global
    constraint no per-component plan can honour) fall back to the
    backtracking matcher; fallbacks are tallied in
    ``stats.pipeline_fallbacks``.  Yields the same mappings as
    :func:`find_homomorphisms`, though possibly in a different order.
    """
    spec = spec or MatchSpec()
    stats = stats if stats is not None else EvalStats()
    pattern_nodes = list(pattern.nodes())
    if not pattern_nodes:
        yield {}
        return
    if spec.injective:
        stats.pipeline_fallbacks += 1
        stats.bump("fallback_injective")
        with trace_span(
            stats.trace,
            "match.fragment",
            variables=[str(p) for p in pattern_nodes],
            decision="fallback",
            reason="injective",
        ):
            yield from find_homomorphisms(pattern, data, spec, stats=stats)
        return

    compat = spec.node_compat or _default_compat(pattern, data)
    all_edges = list(pattern.edges())
    components = connected_components(
        pattern_nodes, [(e.source, e.target) for e in all_edges]
    )
    per_component: list[list[dict[NodeId, NodeId]]] = []
    for component in components:
        nodes = [p for p in pattern_nodes if p in component]
        edges = [e for e in all_edges if e.source in component]
        fallback_reason = _setwise_fallback_reason(component, edges, spec)
        with trace_span(
            stats.trace,
            "match.fragment",
            variables=[str(p) for p in nodes],
            decision="pipeline" if fallback_reason is None else "fallback",
            reason=fallback_reason,
        ) as fragment_span:
            subspec = MatchSpec(
                injective=False,
                node_compat=compat,
                path_edges={
                    e for e in spec.path_edges if e.source in component
                },
                negated_edges={
                    e for e in spec.negated_edges if e.source in component
                },
                narrow=spec.narrow,
            )
            if fallback_reason is None:
                stats.pipeline_fragments += 1
                rows_before = 0 if stats.budget is None else stats.budget.rows
                try:
                    rows = _setwise_component(nodes, edges, data, compat, stats)
                except BudgetExceeded as exc:
                    if exc.limit != "max_hashjoin_rows":
                        raise
                    # Degradation ladder: the component's materialised
                    # relations blew the row cap — refund the discarded
                    # rows and re-run it node-at-a-time (bounded memory).
                    stats.pipeline_fallbacks += 1
                    stats.bump("fallback_budget")
                    stats.bump("degraded_fragments")
                    if stats.budget is not None:
                        stats.budget.rows = rows_before
                    if fragment_span is not None:
                        fragment_span["decision"] = "fallback"
                        fragment_span["reason"] = "budget"
                    if stats.trace is not None:
                        stats.trace.event(
                            "degraded",
                            reason="budget",
                            variables=[str(p) for p in nodes],
                        )
                    rows = [
                        dict(m)
                        for m in find_homomorphisms(
                            pattern.subgraph(nodes), data, subspec, stats=stats
                        )
                    ]
            else:
                stats.pipeline_fallbacks += 1
                stats.bump(f"fallback_{fallback_reason}")
                rows = [
                    dict(m)
                    for m in find_homomorphisms(
                        pattern.subgraph(nodes), data, subspec, stats=stats
                    )
                ]
            if fragment_span is not None:
                fragment_span["rows"] = len(rows)
        if not rows:
            return
        per_component.append(rows)
    for combo in product(*per_component):
        merged: dict[NodeId, NodeId] = {}
        for part in combo:
            merged.update(part)
        yield merged


def _setwise_fallback_reason(
    component: set[NodeId], edges: list[Edge], spec: MatchSpec
) -> Optional[str]:
    """Why one component cannot run on the pipeline (``None`` = it can).

    Reason strings are stable identifiers shared with EXPLAIN output and
    the ``fallback_<reason>`` counters.
    """
    if any(e in spec.path_edges for e in edges):
        return "path-edge"
    if any(e in spec.negated_edges for e in edges):
        return "negated"
    if not is_forest(component, [(e.source, e.target) for e in edges]):
        return "cyclic"
    return None


def _setwise_component(
    nodes: list[NodeId],
    edges: list[Edge],
    data: LabeledGraph,
    compat: NodeCompat,
    stats: EvalStats,
) -> list[dict[NodeId, NodeId]]:
    """Pools + edge relations + forest evaluation for one component.

    Data nodes are numbered by their position in ``data.nodes()``, so each
    pool is a sorted ``array('i')`` of positions and each edge relation a
    :class:`~repro.engine.joins.ColumnRelation` — the same int-column
    representation the XML-GL pipeline runs on.  Assembled rows map back
    to node ids through the position table.
    """
    node_ids = list(data.nodes())
    position = {node: i for i, node in enumerate(node_ids)}
    budget = stats.budget
    pools: dict[NodeId, array] = {}
    pool_sets: dict[NodeId, set[int]] = {}
    for pnode in nodes:
        pool = array(
            "i", (i for i, dnode in enumerate(node_ids) if compat(pnode, dnode))
        )
        if budget is not None:
            budget.charge(max(1, len(pool)))
        if not pool:
            return []
        pools[pnode] = pool
        pool_sets[pnode] = set(pool)
    relations = []
    for edge in edges:
        # enumerate from the smaller side's adjacency, deduplicating
        # parallel data edges (the relation is a set of pairs)
        left = array("i")
        right = array("i")
        seen: set[tuple[int, int]] = set()
        if len(pools[edge.source]) <= len(pools[edge.target]):
            target_set = pool_sets[edge.target]
            for source in pools[edge.source]:
                for node in data.successors(node_ids[source], edge.label):
                    target = position[node]
                    if target in target_set and (source, target) not in seen:
                        seen.add((source, target))
                        left.append(source)
                        right.append(target)
        else:
            source_set = pool_sets[edge.source]
            for target in pools[edge.target]:
                for node in data.predecessors(node_ids[target], edge.label):
                    source = position[node]
                    if source in source_set and (source, target) not in seen:
                        seen.add((source, target))
                        left.append(source)
                        right.append(target)
        if budget is not None:
            budget.add_rows(len(left))
        relation = relation_for(edge.source, edge.target, (left, right), stats)
        if not len(relation):
            return []
        relations.append(relation)
    order, rows = evaluate_forest(pools, relations, stats)
    return [
        {var: node_ids[candidate] for var, candidate in zip(order, row)}
        for row in rows
    ]


def count_homomorphisms(
    pattern: LabeledGraph,
    data: LabeledGraph,
    spec: Optional[MatchSpec] = None,
) -> int:
    """Number of matches (convenience wrapper)."""
    return sum(1 for _ in find_homomorphisms(pattern, data, spec))


def _variable_order(
    pattern_nodes: list[NodeId],
    candidates: dict[NodeId, list[NodeId]],
    edges: list[Edge],
) -> list[NodeId]:
    """Most-constrained-first ordering that keeps the frontier connected.

    Start with the node owning the fewest candidates; repeatedly pick the
    unordered node with the most already-ordered neighbours, tie-broken by
    candidate count.  Connected frontiers let ``edge_ok`` prune early.
    """
    neighbours: dict[NodeId, set[NodeId]] = {p: set() for p in pattern_nodes}
    for edge in edges:
        neighbours[edge.source].add(edge.target)
        neighbours[edge.target].add(edge.source)

    remaining = set(pattern_nodes)
    order: list[NodeId] = []
    while remaining:
        ordered = set(order)
        best = min(
            remaining,
            key=lambda p: (
                -len(neighbours[p] & ordered),
                len(candidates[p]),
            ),
        )
        order.append(best)
        remaining.discard(best)
    return order
