"""Match-order and join-tree planning.

Backtracking pattern matching is exponentially sensitive to the order in
which pattern nodes are assigned, and the set-at-a-time pipeline needs a
rooted join tree whose reduction order visits small relations first.  The
planner picks an order that is

1. *selective first* — start from the pattern node with the fewest data
   candidates (estimated from index label counts), and
2. *connected* — every subsequent node is adjacent to an already-planned
   node whenever the pattern is connected, so structural checks (or
   semi-joins) prune as early as possible.

The planner is deliberately engine-agnostic: it sees pattern nodes as
opaque ids with a candidate-count estimate and an adjacency relation, so
the XML-GL document matcher, the WG-Log graph matcher and the join
pipeline all share it.  The ``enabled=False`` path preserves the input
order — that is the ablation baseline (EXT-A1 in DESIGN.md).

The selection loop is heap-based: attachment counts (how many already
placed neighbours a node has) are maintained incrementally and stale heap
entries are discarded lazily, so planning costs ``O((N + E) log N)``
instead of the quadratic ``min(remaining, key=rank)`` rescan it replaces —
noticeable now that the pipeline plans a join tree per query fragment.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping, Sequence

__all__ = [
    "FragmentCosts",
    "KERNEL_ITEM_COST",
    "choose_fragment_engine",
    "plan_order",
]

NodeId = Hashable


def plan_order(
    nodes: Sequence[NodeId],
    estimate: Callable[[NodeId], int],
    adjacency: Mapping[NodeId, Iterable[NodeId]],
    enabled: bool = True,
) -> list[NodeId]:
    """Choose an assignment order for pattern nodes.

    Args:
        nodes: the pattern node ids to order.
        estimate: candidate-count estimate per node (lower = more selective).
        adjacency: undirected pattern adjacency (ids absent from the map are
            treated as isolated).
        enabled: when false, return ``nodes`` unchanged (planner ablation).

    Returns:
        A list containing every id from ``nodes`` exactly once.  Ranking is
        most-attached-first, then lowest estimate, then input position (the
        same total order the quadratic rescan produced).
    """
    if not enabled:
        return list(nodes)
    estimates = {node: estimate(node) for node in nodes}
    position = {node: i for i, node in enumerate(nodes)}
    attached = {node: 0 for node in nodes}

    # Heap entries are (-attached, estimate, position); stale entries (an
    # attachment count bumped after push) are skipped on pop.
    heap: list[tuple[int, int, int]] = [
        (0, estimates[node], position[node]) for node in nodes
    ]
    heapq.heapify(heap)
    by_position = list(nodes)

    order: list[NodeId] = []
    placed: set[NodeId] = set()
    while heap:
        neg_attached, _, pos = heapq.heappop(heap)
        node = by_position[pos]
        if node in placed or -neg_attached != attached[node]:
            continue
        order.append(node)
        placed.add(node)
        for neighbour in adjacency.get(node, ()):
            if neighbour in attached and neighbour not in placed:
                attached[neighbour] += 1
                heapq.heappush(
                    heap,
                    (-attached[neighbour], estimates[neighbour], position[neighbour]),
                )
    return order


@dataclass(frozen=True)
class FragmentCosts:
    """Outcome of the pipeline-vs-backtracking cost comparison."""

    #: The cheaper engine: ``"pipeline"`` or ``"backtracking"``.
    engine: str
    #: Estimated set-at-a-time cost (pool + relation materialisation + rows).
    pipeline: float
    #: Estimated node-at-a-time cost (candidates enumerated over the walk).
    backtracking: float
    #: Estimated result rows of the fragment.
    rows: float


#: Per-item materialisation cost of pools and relations built by the
#: vectorised int-column kernels (:mod:`repro.engine.columns`), in the cost
#: model's common currency: one per-candidate step of the backtracking
#: walk, a Python-level loop iteration.  Kernel items are built by bisect
#: / vectorised passes: calibrated against bench_smoke fragment timings,
#: a kernel item runs ~20x cheaper than a walk step.  Callers whose pools
#: and relations come out of a Python loop pass ``item_cost=1.0``.
KERNEL_ITEM_COST = 0.05


def choose_fragment_engine(
    pool_sizes: Mapping[NodeId, float],
    edge_pairs: Sequence[tuple[NodeId, NodeId, float]],
    enabled: bool = True,
    item_cost: float = 1.0,
) -> FragmentCosts:
    """Cost-compare one acyclic fragment's two evaluation strategies.

    Args:
        pool_sizes: per-box candidate-pool size (after static narrowing).
        edge_pairs: ``(parent, child, estimated pair count)`` per
            containment arc, from
            :meth:`repro.engine.estimator.CardinalityEstimator.scaled_edge_pairs`.
        enabled: forwarded to :func:`plan_order` (planner ablation keeps
            the drawing order).
        item_cost: per-item cost of pool and relation materialisation for
            the kernels the caller actually runs (:data:`KERNEL_ITEM_COST`
            for the vectorised column kernels, 1.0 for a Python loop).
            Assembled rows always cost 1: they materialise nodes either way.

    The backtracking estimate walks the same selective-first order the
    engine would use: an unattached box scans its whole pool per partial
    assignment; an attached box enumerates an interval-verified candidate
    pool whose average size is the incident relation's pairs divided by
    the already-placed endpoint's pool (the best such edge wins, matching
    the engine's pool intersection).  The pipeline estimate charges every
    pool and relation once — set-at-a-time work is data-size-bound, not
    result-size-bound — plus the assembled rows.  Ties go to backtracking:
    when both walks touch the same candidates, node-at-a-time avoids
    materialising relations.
    """
    nodes = list(pool_sizes)
    adjacency: dict[NodeId, list[NodeId]] = {n: [] for n in nodes}
    incident: dict[NodeId, list[tuple[NodeId, float]]] = {n: [] for n in nodes}
    for parent, child, pairs in edge_pairs:
        adjacency[parent].append(child)
        adjacency[child].append(parent)
        incident[parent].append((child, pairs))
        incident[child].append((parent, pairs))
    order = plan_order(
        nodes,
        estimate=lambda n: pool_sizes[n],  # type: ignore[index,return-value]
        adjacency=adjacency,
        enabled=enabled,
    )
    placed: set[NodeId] = set()
    rows = 1.0
    backtracking = 0.0
    for node in order:
        branches = [
            pairs / max(1.0, float(pool_sizes[other]))
            for other, pairs in incident[node]
            if other in placed
        ]
        if branches:
            branch = min(branches)
            backtracking += rows * branch
            rows *= branch
        else:
            pool = float(pool_sizes[node])
            backtracking += rows * pool
            rows *= pool
        placed.add(node)
    materialise = float(sum(pool_sizes.values())) + float(
        sum(pairs for _, _, pairs in edge_pairs)
    )
    pipeline = materialise * item_cost + rows
    engine = "backtracking" if backtracking <= pipeline else "pipeline"
    return FragmentCosts(
        engine=engine, pipeline=pipeline, backtracking=backtracking, rows=rows
    )
