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

The pipeline only accepts **forests** (acyclic join structure); callers
detect cyclic fragments with :func:`is_forest` /
:func:`connected_components` and fall back to their backtracking core for
those, per fragment.  :func:`run_fragment` is the one driver both matchers
run each fragment through: it makes that pipeline-or-fallback choice, and
it degrades a fragment that trips the ``max_hashjoin_rows`` cap to the
fallback (:func:`degrade`, step 1 of the ladder in
:mod:`repro.engine.limits`).
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Hashable, Iterable, Optional, Sequence

from ..errors import BudgetExceeded
from .joins import ColumnRelation, join_forest, semijoin_reduce
from .planner import plan_order
from .stats import EvalStats
from .trace import span as trace_span

__all__ = [
    "connected_components",
    "degrade",
    "is_forest",
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


def is_forest(variables: Iterable[Var], edges: Sequence[tuple[Var, Var]]) -> bool:
    """Whether the undirected (multi)graph is acyclic.

    Parallel edges and self-loops count as cycles — exactly the cases the
    semi-join tree cannot represent.
    """
    variable_list = list(variables)
    if any(left == right for left, right in edges):
        return False
    components = connected_components(variable_list, edges)
    # A forest has exactly |V| - #components edges; multigraph double
    # edges push the count past that.
    return len(edges) == len(variable_list) - len(components)


def evaluate_forest(
    pools: dict[Var, array],
    relations: Sequence[ColumnRelation],
    stats: EvalStats,
    planner_enabled: bool = True,
) -> tuple[list[Var], list[list[int]]]:
    """All assignments of a forest-shaped join query, set-at-a-time.

    Args:
        pools: sorted int column per variable (consumed; reduced in place).
        relations: one :class:`ColumnRelation` per pattern edge; the
            undirected graph they induce over ``pools``' keys must be a
            forest (:func:`is_forest`), else ``ValueError``.
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
                if other in placed:
                    if var in parent_of:
                        raise ValueError(
                            "cyclic join structure: "
                            f"variable {var!r} reaches two placed parents"
                        )
                    parent_of[var] = (other, relation)
            placed.add(var)
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

    if not semijoin_reduce(pools, relations, order, parent_of, stats):
        return list(order), []
    return list(order), join_forest(pools, order, parent_of, stats)


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
    reason: Optional[str],
    setwise: Callable[[], list[Any]],
    fallback: Callable[[], list[Any]],
) -> list[Any]:
    """Evaluate one query fragment on the pipeline or its fallback.

    ``reason`` is the fragment's static fallback reason (``None`` when the
    pipeline covers it; ``setwise`` is then called).  Otherwise, or when
    ``setwise`` trips ``max_hashjoin_rows``, the fragment's own
    backtracking ``fallback`` runs instead.  Every other
    :class:`~repro.errors.BudgetExceeded` propagates.  Both callables
    return the fragment's rows.

    This is the only place that opens the ``match.fragment`` span
    (``decision``, ``reason``, ``rows``) and bumps
    ``pipeline_fragments`` / ``pipeline_fallbacks`` /
    ``fallback_<reason>``; reason strings are the stable identifiers
    EXPLAIN output shares.
    """
    names = [str(var) for var in variables]
    with trace_span(
        stats.trace,
        "match.fragment",
        variables=names,
        decision="pipeline" if reason is None else "fallback",
        reason=reason,
    ) as fragment_span:
        rows = None
        if reason is None:
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
        else:
            stats.pipeline_fallbacks += 1
            stats.bump(f"fallback_{reason}")
        if rows is None:
            rows = fallback()
        if fragment_span is not None:
            fragment_span["rows"] = len(rows)
    return rows


def degrade(stats: EvalStats, rows_before: int, **attributes: Any) -> None:
    """Book-keep one row-cap degradation before its fallback runs.

    The abandoned rows are refunded (``budget.rows`` back to
    ``rows_before``) so sibling fragments keep their headroom — those rows
    were discarded, not kept.  Records the fallback reason ``budget`` like
    a static reason, plus the governance counter ``degraded_fragments``,
    and emits a ``degraded`` trace event carrying ``attributes``.
    """
    stats.pipeline_fallbacks += 1
    stats.bump("fallback_budget")
    stats.bump("degraded_fragments")
    if stats.budget is not None:
        stats.budget.rows = rows_before
    if stats.trace is not None:
        stats.trace.event("degraded", reason="budget", **attributes)
