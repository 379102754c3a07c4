"""Generic set-at-a-time join pipeline.

Both graphical languages compile a query fragment to the same shape — the
paper's shared sub-nodes *are* relational joins — so the pipeline works on
that shape directly and leaves language semantics to the matchers:

* a *variable* per pattern node, with a **candidate pool** (unary relation)
  supplied by the caller as a sorted ``array('i')`` of int candidates —
  gap labels from a :class:`~repro.engine.index.DocumentIndex` for
  XML-GL, dense node ids of a
  :class:`~repro.graph.labeled_graph.LabeledGraph` for WG-Log graph
  matching;
* a :class:`~repro.engine.joins.ColumnRelation` per pattern edge holding
  the candidate **pairs** that satisfy it, as two parallel int columns.

:func:`evaluate_forest` then runs the classic acyclic-query plan: choose a
join order from cardinality estimates (pool sizes, which for indexed pools
are exactly the index label counts), root a join tree per connected
component, *fully reduce* pools and relations by Yannakakis semi-joins,
and assemble the answers with hash joins.  The reduction guarantees that
assembly never extends a row that cannot reach a final answer — the
set-at-a-time counterpart of a backtracking search that never backtracks.

Any join graph is accepted.  A relation the join tree does not use as a
parent link — a second parent, a parallel edge, a self-loop — closes a
cycle; it is applied to the assembled rows as a pair-set filter.
:func:`run_fragment` runs every fragment of both matchers; it degrades
a fragment that trips the ``max_hashjoin_rows`` cap to the fragment's
backtracking fallback (:func:`degrade`, step 1 of the
ladder in :mod:`repro.engine.limits`).
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Hashable, Iterable, Sequence

from ..errors import BudgetExceeded
from .joins import ColumnRelation, join_forest, semijoin_reduce
from .planner import plan_order
from .stats import EvalStats
from .trace import span as trace_span

__all__ = [
    "connected_components",
    "degrade",
    "evaluate_forest",
    "relation_for",
    "run_fragment",
]

Var = Hashable


def connected_components(
    variables: Iterable[Var], edges: Iterable[tuple[Var, Var]]
) -> list[set[Var]]:
    """Undirected connected components, in first-seen variable order."""
    parent: dict[Var, Var] = {}

    def find(var: Var) -> Var:
        root = var
        while parent[root] != root:
            root = parent[root]
        while parent[var] != root:  # path compression
            parent[var], var = root, parent[var]
        return root

    ordered = list(variables)
    for var in ordered:
        parent.setdefault(var, var)
    for left, right in edges:
        left_root, right_root = find(left), find(right)
        if left_root != right_root:
            parent[left_root] = right_root
    groups: dict[Var, set[Var]] = {}
    for var in ordered:
        groups.setdefault(find(var), set()).add(var)
    return list(groups.values())


def evaluate_forest(
    pools: dict[Var, array],
    relations: Sequence[ColumnRelation],
    stats: EvalStats,
    planner_enabled: bool = True,
) -> tuple[list[Var], list[list[int]]]:
    """All assignments of a join query, set-at-a-time.

    Args:
        pools: sorted int column per variable (consumed; reduced in place).
        relations: one :class:`ColumnRelation` per pattern edge, over
            ``pools``' keys, in any shape.  The relations the planner
            places as parent links form a join forest; every other one
            (a second parent, a parallel edge, a self-loop) filters the
            assembled rows.
        stats: semi-join / hash-join counters accumulate here.
        planner_enabled: when False, keep the pools' insertion order as the
            join order (planner ablation).

    Returns:
        ``(order, rows)`` — the join order and the assembled rows, each a
        flat int list aligned with ``order``.  Distinct trees of the forest
        combine by cross product.  The whole plan→reduce→assemble cascade
        never touches a node object: callers map ints back to nodes (the
        index's ``pre -> element`` table, a graph's dense-id node table).
    """
    if stats.budget is not None:
        stats.budget.poll()
    variables = list(pools)
    adjacency: dict[Var, list[Var]] = {var: [] for var in variables}
    for relation in relations:
        adjacency[relation.left_var].append(relation.right_var)
        adjacency[relation.right_var].append(relation.left_var)

    with trace_span(stats.trace, "plan") as plan_span:
        order = plan_order(
            variables,
            estimate=lambda var: len(pools[var]),
            adjacency=adjacency,
            enabled=planner_enabled,
        )
        relations_by_var: dict[Var, list[ColumnRelation]] = {
            var: [] for var in variables
        }
        for relation in relations:
            relations_by_var[relation.left_var].append(relation)
            relations_by_var[relation.right_var].append(relation)
        placed: set[Var] = set()
        parent_of: dict[Var, tuple[Var, ColumnRelation]] = {}
        for var in order:
            for relation in relations_by_var[var]:
                other = relation.other(var)
                if other in placed and var not in parent_of:
                    parent_of[var] = (other, relation)
            placed.add(var)
        links = {id(relation) for _, relation in parent_of.values()}
        tree = [r for r in relations if id(r) in links]
        closing = [r for r in relations if id(r) not in links]
        if plan_span is not None:
            plan_span["order"] = [str(var) for var in order]
            plan_span["pool_sizes"] = {
                str(var): len(pools[var]) for var in order
            }
            plan_span["forest"] = [
                {"var": str(var), "parent": str(parent)}
                for var, (parent, _) in parent_of.items()
            ]
            plan_span["planner"] = "cost" if planner_enabled else "input-order"

    if not semijoin_reduce(pools, tree, order, parent_of, stats):
        return list(order), []
    rows = join_forest(pools, order, parent_of, stats)
    for relation in closing:
        if not rows:
            break
        if stats.budget is not None:
            stats.budget.charge(len(rows))
        pairs = set(zip(relation.left, relation.right))
        left_at = order.index(relation.left_var)
        right_at = order.index(relation.right_var)
        rows = [row for row in rows if (row[left_at], row[right_at]) in pairs]
    return list(order), rows


def relation_for(
    left_var: Var,
    right_var: Var,
    pairs: tuple[array, array],
    stats: EvalStats,
) -> ColumnRelation:
    """Materialise a :class:`ColumnRelation`, tallying its size.

    ``pairs`` is a ``(left column, right column)`` pair, e.g. the output
    of a :mod:`repro.engine.columns` kernel.  One wholesale
    ``edge_checks`` bump per relation mirrors the interval convention:
    pairs drawn from index-backed pools satisfy their edge *by
    construction*, so they are counted as ``relation_pairs``, not as
    per-candidate trials.  Budget row-bounding happens at the call site
    (counts are known before or at materialisation).
    """
    relation = ColumnRelation(left_var, right_var, pairs[0], pairs[1])
    stats.edge_checks += 1
    stats.relation_pairs += len(relation)
    return relation


def run_fragment(
    stats: EvalStats,
    variables: Sequence[Var],
    setwise: Callable[[], list[Any]],
    fallback: Callable[[], list[Any]],
) -> list[Any]:
    """Evaluate one query fragment on the pipeline.

    ``setwise`` runs first; when it trips ``max_hashjoin_rows`` the
    fragment's own backtracking ``fallback`` runs instead.  Every other
    :class:`~repro.errors.BudgetExceeded` propagates.  Both callables
    return the fragment's rows.

    This is the only place that opens the ``match.fragment`` span
    (``decision``, ``reason``, ``rows``) and bumps
    ``pipeline_fragments``; a degraded fragment reports decision
    ``fallback`` with reason ``budget``, the string EXPLAIN output shares.
    """
    names = [str(var) for var in variables]
    with trace_span(
        stats.trace,
        "match.fragment",
        variables=names,
        decision="pipeline",
        reason=None,
    ) as fragment_span:
        stats.pipeline_fragments += 1
        rows_before = 0 if stats.budget is None else stats.budget.rows
        try:
            rows = setwise()
        except BudgetExceeded as exc:
            if exc.limit != "max_hashjoin_rows":
                raise
            degrade(stats, rows_before, variables=names)
            if fragment_span is not None:
                fragment_span["decision"] = "fallback"
                fragment_span["reason"] = "budget"
            rows = fallback()
        if fragment_span is not None:
            fragment_span["rows"] = len(rows)
    return rows


def degrade(stats: EvalStats, rows_before: int, **attributes: Any) -> None:
    """Book-keep one row-cap degradation before its fallback runs.

    The abandoned rows are refunded (``budget.rows`` back to
    ``rows_before``) so sibling fragments keep their headroom — those rows
    were discarded, not kept.  Records the fallback reason ``budget``
    (``fallback_budget``), plus the governance counter ``degraded_fragments``,
    and emits a ``degraded`` trace event carrying ``attributes``.
    """
    stats.pipeline_fallbacks += 1
    stats.bump("fallback_budget")
    stats.bump("degraded_fragments")
    if stats.budget is not None:
        stats.budget.rows = rows_before
    if stats.trace is not None:
        stats.trace.event("degraded", reason="budget", **attributes)
