"""Relational building blocks for set-at-a-time query evaluation.

The set-at-a-time pipeline (:mod:`repro.engine.pipeline`) compiles a query
fragment into *unary* relations (per-node candidate pools) and *binary*
relations (candidate pairs satisfying one pattern edge).  Candidates are
ints — gap labels for document elements, dense node ids for graph
nodes — so pools are sorted ``array('i')`` columns and every
relation is a :class:`ColumnRelation` of two parallel int columns.  This
module holds that representation and the two algorithms the pipeline
runs over it:

* :func:`semijoin_reduce` — a Yannakakis-style full reduction over an
  acyclic join structure: one bottom-up and one top-down semi-join pass
  remove every *dangling* candidate (one that participates in no final
  answer), so the subsequent joins never enumerate a dead end;
* :func:`join_forest` — hash-join assembly of the reduced relations along
  the join tree, producing complete assignments as flat int rows.

:func:`equijoin_key` is the hash-key normalisation for *value* equi-joins
(XML-GL's shared-value joins): two values receive the same key exactly when
:func:`repro.ssd.datatypes.equal_atoms` considers them equal, so a hash
join on these keys is equivalent to filtering a cross product with ``=``.
"""

from __future__ import annotations

from array import array
from typing import Any, Hashable, Optional, Sequence

from ..ssd.datatypes import coerce
from .columns import intersect_sorted, member_filter, unique_sorted
from .stats import EvalStats
from .trace import span as trace_span

__all__ = [
    "ColumnRelation",
    "equijoin_key",
    "join_forest",
    "semijoin_reduce",
]


def equijoin_key(value: Any) -> Optional[Hashable]:
    """Hash key under :func:`~repro.ssd.datatypes.equal_atoms` semantics.

    Numeric-coercible values key by their number (``"007"`` and ``7`` and
    ``7.0`` collide, as ``equal_atoms`` demands); everything else keys by
    its canonical string.  ``None`` (a missing attribute) returns ``None``
    — the caller must drop the row, matching ``Comparison``'s semantics
    that a ``None`` operand never compares equal.
    """
    if value is None:
        return None
    coerced = coerce(value)
    if isinstance(coerced, bool):
        return int(coerced)  # equal_atoms treats booleans as numbers
    if isinstance(coerced, (int, float)):
        return coerced
    return str(coerced)


class ColumnRelation:
    """A binary relation between the int candidates of two pattern nodes.

    Stores the satisfying pairs of one pattern edge in two parallel
    ``array('i')`` vectors, so restriction is an int-mask pass, semi-join
    membership an int-set probe, and the per-side partner grouping (used
    by hash joins) a dict of int keys to int lists — no node objects
    anywhere.
    """

    __slots__ = ("left_var", "right_var", "left", "right", "_by_left", "_by_right")

    def __init__(
        self,
        left_var: Hashable,
        right_var: Hashable,
        left: array,
        right: array,
    ) -> None:
        self.left_var = left_var
        self.right_var = right_var
        self.left = left
        self.right = right
        self._by_left: Optional[dict[int, list[int]]] = None
        self._by_right: Optional[dict[int, list[int]]] = None

    def __len__(self) -> int:
        return len(self.left)

    def other(self, var: Hashable) -> Hashable:
        """The opposite endpoint of ``var``."""
        return self.right_var if var == self.left_var else self.left_var

    def side(self, var: Hashable) -> array:
        """The int column of the ``var`` endpoint."""
        return self.left if var == self.left_var else self.right

    def partners(self, var: Hashable) -> dict[int, list[int]]:
        """Partners grouped by the ``var`` side's candidate (lazy, cached)."""
        if var == self.left_var:
            if self._by_left is None:
                grouped: dict[int, list[int]] = {}
                for left, right in zip(self.left, self.right):
                    grouped.setdefault(left, []).append(right)
                self._by_left = grouped
            return self._by_left
        if self._by_right is None:
            grouped = {}
            for left, right in zip(self.left, self.right):
                grouped.setdefault(right, []).append(left)
            self._by_right = grouped
        return self._by_right

    def restrict(self, left_keep: set, right_keep: set) -> int:
        """Drop pairs whose endpoints left the pools; returns pairs removed."""
        before = len(self.left)
        new_left = array("i")
        new_right = array("i")
        for left, right in zip(self.left, self.right):
            if left in left_keep and right in right_keep:
                new_left.append(left)
                new_right.append(right)
        self.left = new_left
        self.right = new_right
        self._by_left = None
        self._by_right = None
        return before - len(new_left)


def _semijoin(
    pools: dict[Hashable, array],
    relation: ColumnRelation,
    keep_var: Hashable,
    stats: EvalStats,
    direction: str,
) -> None:
    """Reduce ``pools[keep_var]`` to candidates with a partner in ``relation``."""
    side = relation.side(keep_var)
    pool = pools[keep_var]
    present = unique_sorted(side) if len(side) > 1 else set(side)
    if isinstance(present, set):
        kept = member_filter(pool, present)
    else:
        kept = intersect_sorted(pool, present)
    stats.semijoins += 1
    stats.semijoin_dropped += len(pool) - len(kept)
    pools[keep_var] = kept
    if stats.budget is not None:
        stats.budget.charge(len(pool))
    if stats.trace is not None:
        stats.trace.event(
            "semijoin",
            var=str(keep_var),
            via=f"{relation.left_var}-{relation.right_var}",
            direction=direction,
            before=len(pool),
            after=len(kept),
        )


def semijoin_reduce(
    pools: dict[Hashable, array],
    relations: Sequence[ColumnRelation],
    order: Sequence[Hashable],
    parent_of: dict[Hashable, tuple[Hashable, ColumnRelation]],
    stats: EvalStats,
) -> bool:
    """Yannakakis full reduction over a rooted join forest (in place).

    Args:
        pools: per-variable sorted int columns; mutated to their reduced
            form.
        relations: every edge relation of the forest.
        order: planner order; each non-root variable appears after its parent.
        parent_of: variable -> (parent variable, connecting relation) for
            every non-root variable.
        stats: semi-join counters are accumulated here.

    Returns:
        False when some pool became empty (no results exist), True
        otherwise.  After a True return every remaining candidate
        participates in at least one final assignment.

    Relations built *from* the current pools start consistent with them,
    so a restrict pass only runs against sides whose pool has shrunk since
    construction — a no-op filter skipped wholesale.
    """
    shrunk: set[Hashable] = set()

    def restrict(relation: ColumnRelation) -> None:
        if relation.left_var not in shrunk and relation.right_var not in shrunk:
            return
        relation.restrict(
            set(pools[relation.left_var]), set(pools[relation.right_var])
        )

    def reduced(var: Hashable, before: int) -> None:
        if len(pools[var]) < before:
            shrunk.add(var)

    with trace_span(stats.trace, "reduce") as reduce_span:
        if reduce_span is not None:
            reduce_span["before"] = {str(v): len(p) for v, p in pools.items()}
        for var in reversed(order):
            entry = parent_of.get(var)
            if entry is None:
                continue
            parent_var, relation = entry
            restrict(relation)
            before = len(pools[parent_var])
            _semijoin(pools, relation, parent_var, stats, "bottom-up")
            reduced(parent_var, before)
            if not pools[parent_var]:
                return False
        for var in order:
            entry = parent_of.get(var)
            if entry is None:
                continue
            parent_var, relation = entry
            restrict(relation)
            before = len(pools[var])
            _semijoin(pools, relation, var, stats, "top-down")
            reduced(var, before)
            if not pools[var]:
                return False
        if reduce_span is not None:
            reduce_span["after"] = {str(v): len(p) for v, p in pools.items()}
    return True


def join_forest(
    pools: dict[Hashable, array],
    order: Sequence[Hashable],
    parent_of: dict[Hashable, tuple[Hashable, ColumnRelation]],
    stats: EvalStats,
) -> list[list[int]]:
    """Assemble full assignments along the join forest by hash joins.

    Variables are added in planner order: a root variable contributes its
    pool wholesale (a cross product across trees of the forest), every
    other variable contributes the partners of its parent's value in the
    connecting relation.  After :func:`semijoin_reduce` no partial row ever
    dies, so the row count only tracks true results.  Rows are flat int
    lists aligned with ``order`` (``row[i]`` is the candidate bound to
    ``order[i]``); the caller maps them back to nodes after assembly.
    """
    position = {var: i for i, var in enumerate(order)}
    rows: list[list[int]] = [[]]
    with trace_span(stats.trace, "assemble") as assemble_span:
        for var in order:
            entry = parent_of.get(var)
            extended: list[list[int]] = []
            if entry is None:
                pool = pools[var]
                for row in rows:
                    for pre in pool:
                        extended.append(row + [pre])
            else:
                parent_var, relation = entry
                partners = relation.partners(parent_var)
                parent_at = position[parent_var]
                empty: list[int] = []
                for row in rows:
                    for pre in partners.get(row[parent_at], empty):
                        extended.append(row + [pre])
            stats.hashjoin_rows += len(extended)
            if stats.budget is not None:
                stats.budget.add_rows(len(extended))
            rows = extended
            if not rows:
                break
        if assemble_span is not None:
            assemble_span["rows"] = len(rows)
    return rows
