"""Constrained subgraph matching.

Both graphical languages reduce to *graph pattern matching*: find all
mappings of a small pattern graph into a large data graph that preserve
labels and edges.  This module implements a backtracking matcher with

* candidate pre-filtering by node compatibility (label / value hooks),
* most-constrained-first variable ordering from the shared planner
  (:func:`repro.engine.planner.plan_order`: nodes adjacent to
  already-matched ones first, then fewest candidates),
* optional injectivity (isomorphic embeddings vs. plain homomorphisms),
* support for *regular path* pattern edges that match any non-empty
  directed path in the data graph (WG-Log's dashed edges).

The matcher works on :class:`~repro.graph.labeled_graph.LabeledGraph`
pattern/data pairs; XML documents are matched by a specialised tree matcher
in :mod:`repro.xmlgl.matcher` that shares the same planner.  Its
set-at-a-time counterpart, :func:`match_rows`, reads the data graph's int
columns (per-label node ids and edge columns) and returns rows of dense
node ids for every pattern shape: cycles filter the joined rows, and a
path edge is a relation found by breadth-first search.  The backtracking
matcher stays the oracle it is checked against and reads only the public
accessors.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import product
from operator import itemgetter
from typing import (
    Callable, Collection, Hashable, Iterable, Iterator, Optional, Sequence,
)

from ..engine.narrowing import intersect_pools
from ..engine.pipeline import (
    connected_components,
    evaluate_forest,
    relation_for,
    run_fragment,
)
from ..engine.planner import plan_order
from ..engine.stats import EvalStats
from .labeled_graph import Edge, LabeledGraph
from .traversal import reachable_by_labels

__all__ = [
    "PatternEdgeKind",
    "MatchSpec",
    "find_homomorphisms",
    "find_homomorphisms_setwise",
    "match_rows",
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
        candidates: seeded pools.  A pattern node listed here draws its
            candidates from these data nodes only (still filtered by
            ``node_compat``) instead of scanning the whole data graph.
        edge_pairs: restricted relations.  A direct pattern edge listed
            here matches only these ``(source, target)`` pairs, each of
            which must be a data edge carrying the pattern edge's label.
    """

    injective: bool = True
    node_compat: Optional[NodeCompat] = None
    path_edges: set[Edge] = field(default_factory=set)
    narrow: bool = True
    candidates: dict[NodeId, Iterable[NodeId]] = field(default_factory=dict)
    edge_pairs: dict[Edge, Collection[tuple[NodeId, NodeId]]] = field(
        default_factory=dict
    )


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
    pattern_nodes = list(pattern.nodes())
    if not pattern_nodes:
        yield {}
        return

    # Candidate lists per pattern node (pre-filtered by compatibility).
    candidates: dict[NodeId, list[NodeId]] = {}
    candidate_sets: dict[NodeId, set[NodeId]] = {}
    for pnode in pattern_nodes:
        cands = [
            dnode
            for dnode in spec.candidates.get(pnode, data.nodes())
            if compat(pnode, dnode)
        ]
        if budget is not None:
            budget.charge(max(1, len(cands)))
        if not cands:
            return
        candidates[pnode] = cands
        candidate_sets[pnode] = set(cands)

    # Index edges by endpoint for incremental checking.
    edges_by_node: dict[NodeId, list[Edge]] = {p: [] for p in pattern_nodes}
    neighbours: dict[NodeId, set[NodeId]] = {p: set() for p in pattern_nodes}
    for edge in pattern.edges():
        edges_by_node[edge.source].append(edge)
        edges_by_node[edge.target].append(edge)
        neighbours[edge.source].add(edge.target)
        neighbours[edge.target].add(edge.source)
    # Most-constrained first, keeping the frontier connected so edge_ok
    # prunes early; ties break by pattern-node position.
    order = plan_order(
        pattern_nodes,
        estimate=lambda p: len(candidates[p]),
        adjacency=neighbours,
    )

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
        pairs = spec.edge_pairs.get(edge)
        if pairs is not None:
            return (src, dst) in pairs
        return data.has_edge(src, dst, edge.label)

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
            if all(edge_ok(e) for e in edges_by_node[pnode]):
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

    The public face of :func:`match_rows`: seeded pools
    (``spec.candidates``) and restricted relations (``spec.edge_pairs``)
    are translated to dense ids, and each row is decoded to a mapping.
    Yields the same mappings as :func:`find_homomorphisms`, though
    possibly in a different order.
    """
    spec = spec or MatchSpec()
    dense = data.dense_id
    pools = {
        pnode: [dense(node) for node in seeds]
        for pnode, seeds in spec.candidates.items()
    }
    pairs = {}
    for edge, restricted in spec.edge_pairs.items():
        unique = dict.fromkeys((dense(s), dense(t)) for s, t in restricted)
        pairs[edge] = (
            array("i", (s for s, _ in unique)), array("i", (t for _, t in unique))
        )
    variables = list(pattern.nodes())
    table = data.node_table()
    rows = match_rows(
        pattern, data, spec, stats if stats is not None else EvalStats(),
        pools=pools, pairs=pairs,
    )
    for row in rows:
        yield dict(zip(variables, [table[index] for index in row]))


def match_rows(
    pattern: LabeledGraph,
    data: LabeledGraph,
    spec: MatchSpec,
    stats: EvalStats,
    *,
    setwise: bool = True,
    pools: Optional[dict[NodeId, Iterable[int]]] = None,
    pairs: Optional[dict[Edge, tuple[Sequence[int], Sequence[int]]]] = None,
) -> list[tuple[int, ...]]:
    """Every match of ``pattern`` as a row of dense data ids.

    Row columns follow ``pattern.nodes()``.  Seeds are dense ids here:
    ``pools`` restricts a pattern node to the listed ids, ``pairs`` a
    direct pattern edge to the listed ``(sources, targets)`` columns;
    ``spec.candidates`` and ``spec.edge_pairs`` are not read.

    With ``setwise`` (the default), every pattern component is compiled
    to pools plus edge relations and evaluated through
    :func:`repro.engine.pipeline.evaluate_forest`, driven by
    :func:`repro.engine.pipeline.run_fragment`; only a component that
    trips the row cap re-runs on the backtracking matcher.  Without
    ``setwise`` the whole pattern runs on :func:`find_homomorphisms` (the
    oracle engines), its mappings encoded as rows.

    Injectivity is a filter, not a route: every component runs as a
    homomorphism, and rows that map two pattern nodes to one data node
    are dropped, counted in ``stats.extra["injective_dropped"]``.  Only
    the column pairs whose pools can overlap are compared.
    """
    pools = pools or {}
    pairs = pairs or {}
    variables = list(pattern.nodes())
    if not setwise:
        found = find_homomorphisms(
            pattern, data, _node_spec(spec, data, pools, pairs), stats
        )
        return _encode(data, variables, found)
    if not variables:
        return [()]
    all_edges = list(pattern.edges())
    components = connected_components(
        variables, [(e.source, e.target) for e in all_edges]
    )
    columns: list[NodeId] = []
    parts: list[list[tuple[int, ...]]] = []
    for component in components:
        nodes = [p for p in variables if p in component]
        edges = [e for e in all_edges if e.source in component]
        subspec = replace(spec, injective=False)
        rows = run_fragment(
            stats,
            nodes,
            partial(
                _setwise_component, pattern, nodes, edges, data, subspec,
                pools, pairs, stats,
            ),
            partial(
                _backtrack_component, pattern, nodes, data, subspec,
                pools, pairs, stats,
            ),
        )
        if not rows:
            return []
        columns.extend(nodes)
        parts.append(rows)
    if len(parts) == 1:
        rows = parts[0]
    else:
        rows = [sum(combo, ()) for combo in product(*parts)]
        if columns != variables:
            rows = _reorder(rows, [columns.index(p) for p in variables])
    clashes = _clashing_columns(pattern, variables, spec) if spec.injective else []
    if clashes:
        if len(clashes) == 1:
            (a, b), = clashes
            kept = [row for row in rows if row[a] != row[b]]
        else:
            kept = [row for row in rows if all(row[a] != row[b] for a, b in clashes)]
        if len(kept) < len(rows):
            stats.bump("injective_dropped", len(rows) - len(kept))
        rows = kept
    return rows


def _clashing_columns(
    pattern: LabeledGraph, variables: list[NodeId], spec: MatchSpec
) -> list[tuple[int, int]]:
    """Column pairs whose pools can share a node: equal pattern labels or
    a wildcard, or every pair under a custom ``spec.node_compat``."""
    labels = [pattern.label(p) for p in variables]
    return [
        (a, b)
        for a in range(len(labels))
        for b in range(a + 1, len(labels))
        if spec.node_compat is not None
        or labels[a] == labels[b]
        or "*" in (labels[a], labels[b])
    ]


def _reorder(rows: list, at: list[int]) -> list[tuple[int, ...]]:
    """Rows with their columns picked (and permuted) by ``at``."""
    if len(at) == 1:
        first = at[0]
        return [(row[first],) for row in rows]
    pick = itemgetter(*at)
    return [pick(row) for row in rows]


def _node_spec(
    spec: MatchSpec,
    data: LabeledGraph,
    pools: dict[NodeId, Iterable[int]],
    pairs: dict[Edge, tuple[Sequence[int], Sequence[int]]],
) -> MatchSpec:
    """``spec`` with dense-id seeds decoded for :func:`find_homomorphisms`."""
    table = data.node_table()
    return replace(
        spec,
        candidates={
            pnode: [table[index] for index in seeds]
            for pnode, seeds in pools.items()
        },
        edge_pairs={
            edge: {(table[s], table[t]) for s, t in zip(*columns)}
            for edge, columns in pairs.items()
        },
    )


def _encode(
    data: LabeledGraph,
    variables: list[NodeId],
    mappings: Iterable[dict[NodeId, NodeId]],
) -> list[tuple[int, ...]]:
    dense = data.dense_id
    return [tuple(dense(m[p]) for p in variables) for m in mappings]


def _backtrack_component(
    pattern: LabeledGraph,
    nodes: list[NodeId],
    data: LabeledGraph,
    spec: MatchSpec,
    pools: dict[NodeId, Iterable[int]],
    pairs: dict[Edge, tuple[Sequence[int], Sequence[int]]],
    stats: EvalStats,
) -> list[tuple[int, ...]]:
    """One component node-at-a-time: the pipeline's row-cap fallback."""
    found = find_homomorphisms(
        pattern.subgraph(nodes), data, _node_spec(spec, data, pools, pairs), stats
    )
    return _encode(data, nodes, found)


def _setwise_component(
    pattern: LabeledGraph,
    nodes: list[NodeId],
    edges: list[Edge],
    data: LabeledGraph,
    spec: MatchSpec,
    seeds: dict[NodeId, Iterable[int]],
    restricted: dict[Edge, tuple[Sequence[int], Sequence[int]]],
    stats: EvalStats,
) -> list[tuple[int, ...]]:
    """Pools + edge relations + forest evaluation for one component.

    Everything is dense ids, the same int-column representation the
    XML-GL pipeline runs on.  A pool is the pattern label's node column
    (every node for the wildcard ``*``), filtered by the pattern value;
    a seeded pool is its seeds with those filters; a custom
    ``spec.node_compat`` replaces both filters.  A relation is the edge
    label's columns filtered by the two pools, read through the label's
    adjacency index instead when one pool is much smaller than the
    label; a restricted relation is its pairs filtered by the pools, and
    a path edge's relation the pairs :func:`_path_pairs` reaches.
    """
    budget = stats.budget
    pools: dict[NodeId, array] = {}
    pool_sets: dict[NodeId, set[int]] = {}
    for pnode in nodes:
        pool = _pool(pattern, pnode, data, spec.node_compat, seeds.get(pnode))
        if budget is not None:
            budget.charge(max(1, len(pool)))
        if not pool:
            return []
        pools[pnode] = pool
        pool_sets[pnode] = set(pool)
    relations = []
    for edge in edges:
        left = array("i")
        right = array("i")
        source_set = pool_sets[edge.source]
        target_set = pool_sets[edge.target]
        pairs = restricted.get(edge)
        if edge in spec.path_edges:
            pairs = _path_pairs(data, edge, pools, stats)
        elif pairs is None:
            pairs = data.edge_columns(edge.label)
            smaller = min(len(source_set), len(target_set))
            if smaller * _ADJACENCY_RATIO < len(pairs[0]):
                pairs = _adjacent_pairs(data, edge.label, pools, edge)
        for source, target in zip(*pairs):
            if source in source_set and target in target_set:
                left.append(source)
                right.append(target)
        if budget is not None:
            budget.add_rows(len(left))
        relation = relation_for(edge.source, edge.target, (left, right), stats)
        if not len(relation):
            return []
        relations.append(relation)
    order, rows = evaluate_forest(pools, relations, stats)
    if order == nodes:
        return list(map(tuple, rows))
    return _reorder(rows, [order.index(p) for p in nodes])


#: A relation reads the label's adjacency index instead of scanning its
#: columns when its smaller pool times this is under the label's size.
_ADJACENCY_RATIO = 8


def _adjacent_pairs(
    data: LabeledGraph, label: str, pools: dict[NodeId, array], edge: Edge
) -> tuple[array, array]:
    """The ``label`` edges at the smaller pool, from the adjacency index."""
    left = array("i")
    right = array("i")
    if len(pools[edge.source]) <= len(pools[edge.target]):
        for source in pools[edge.source]:
            targets = data.dense_successors(source, label)
            left.extend([source] * len(targets))
            right.extend(targets)
    else:
        for target in pools[edge.target]:
            sources = data.dense_predecessors(target, label)
            left.extend(sources)
            right.extend([target] * len(sources))
    return left, right


def _path_pairs(
    data: LabeledGraph, edge: Edge, pools: dict[NodeId, array], stats: EvalStats
) -> tuple[array, array]:
    """The node pairs joined by a non-empty directed path of ``edge.label``
    edges (of every label when it is empty), for the smaller pool's nodes.

    One breadth-first search with a visited set per node of that pool:
    forward over the label's successors from the source pool, backward
    over its predecessors from the target pool.  A start node is reached
    only through a cycle.  Each visited node charges one budget unit.
    """
    budget = stats.budget
    labels = [edge.label] if edge.label else list(data.edge_marks())
    forward = len(pools[edge.source]) <= len(pools[edge.target])
    step = data.dense_successors if forward else data.dense_predecessors
    starts = array("i")
    reached = array("i")
    for start in pools[edge.source if forward else edge.target]:
        seen: set[int] = set()
        frontier = [start]
        while frontier:
            found = []
            for current in frontier:
                for label in labels:
                    for node in step(current, label):
                        if node not in seen:
                            seen.add(node)
                            found.append(node)
            frontier = found
            if budget is not None:
                budget.charge(len(found))
        starts.extend([start] * len(seen))
        reached.extend(sorted(seen))
    return (starts, reached) if forward else (reached, starts)


def _pool(
    pattern: LabeledGraph,
    pnode: NodeId,
    data: LabeledGraph,
    compat: Optional[NodeCompat],
    seeds: Optional[Iterable[int]],
) -> array:
    """The sorted candidate column of one pattern node."""
    if compat is not None:
        table = data.node_table()
        candidates = data.label_pool() if seeds is None else sorted(set(seeds))
        return array(
            "i", (i for i in candidates if compat(pnode, table[i]))
        )
    label = pattern.label(pnode)
    if seeds is None:
        pool = data.label_pool(None if label == "*" else label)
    elif label == "*":
        pool = array("i", sorted(set(seeds)))
    else:
        dense_label = data.dense_label
        pool = array(
            "i", sorted({i for i in seeds if dense_label(i) == label})
        )
    value = pattern.value(pnode)
    if value is not None:
        dense_value = data.dense_value
        pool = array("i", (i for i in pool if dense_value(i) == value))
    return pool


def count_homomorphisms(
    pattern: LabeledGraph,
    data: LabeledGraph,
    spec: Optional[MatchSpec] = None,
) -> int:
    """Number of matches (convenience wrapper)."""
    return sum(1 for _ in find_homomorphisms(pattern, data, spec))

