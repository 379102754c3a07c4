"""Shared candidate-pool intersection for the matchers.

Both backtracking matchers (the XML-GL document matcher and the WG-Log
graph matcher) narrow a pattern node's candidates from the adjacency of
already-assigned neighbours: each assigned edge contributes a *pool* and
the node's candidates are the pools' intersection, restricted to the
statically compatible set.  Doing that with nested list scans is quadratic;
this helper builds a membership set per pool once and streams the base pool
through them, preserving the base pool's order and de-duplicating.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, TypeVar

__all__ = ["intersect_pools"]

T = TypeVar("T")


def intersect_pools(
    pools: Sequence[Sequence[T]],
    allowed: Optional[set] = None,
    key: Optional[Callable[[T], object]] = None,
    smallest_base: bool = False,
) -> list[T]:
    """Intersection of ``pools`` restricted to ``allowed``, in pool order.

    Args:
        pools: candidate pools; must be non-empty.
        allowed: membership keys of statically admissible candidates
            (``None`` = no restriction).
        key: membership key per candidate (``None`` = the value itself;
            pass ``id`` for identity-keyed document nodes).
        smallest_base: iterate the smallest pool instead of the first one
            (faster, but the result follows that pool's order).

    Returns:
        De-duplicated candidates present in every pool, in base-pool order.
    """
    if not pools:
        raise ValueError("intersect_pools needs at least one pool")
    base = min(pools, key=len) if smallest_base else pools[0]
    if key is None:
        others = [set(pool) for pool in pools if pool is not base]
    else:
        others = [{key(x) for x in pool} for pool in pools if pool is not base]
    seen: set = set()
    result: list[T] = []
    for candidate in base:
        k = candidate if key is None else key(candidate)
        if k in seen:
            continue
        if allowed is not None and k not in allowed:
            continue
        if all(k in other for other in others):
            seen.add(k)
            result.append(candidate)
    return result
