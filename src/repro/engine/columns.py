"""Columnar kernels over sorted label columns.

The set-at-a-time pipeline works on **columns**: candidate pools are flat
sorted ``array('i')`` vectors of the interval index's gap labels, and edge
relations are pairs of such columns.  Labels are sparse — neighbours sit
up to :data:`~repro.engine.index.LABEL_GAP` apart, with holes where edits
happened — so the kernels never use a candidate as a position: structure
comes from the index's label-keyed ``post`` and ``parent`` maps, and the
index's ``label -> element`` map defers object materialisation to
hash-join assembly.

This module holds the int-only kernels that representation enables:

* :func:`intersect_sorted` — semi-joins as sorted-array intersections
  (galloping binary search when one side is much smaller);
* :func:`containment_pairs` / :func:`containment_count` — an
  ancestor/descendant arc between two pools, answered per parent by two
  binary searches over the child column against the parent's
  ``(pre, post]`` interval;
* :func:`direct_pairs` — a parent/child arc, answered per child by one
  lookup in the ``parent`` map and a membership probe into the parent
  pool.

Every kernel has a pure-Python ``array('i')`` implementation and an
optional numpy fast path behind a feature probe: numpy is **not** a
dependency — when it is importable (and ``REPRO_COLUMNS`` is not
``python``) large inputs take the vectorised route, otherwise everything
runs on :mod:`array` + :mod:`bisect`.  The numpy path gathers the pool's
posts or parents with one :func:`numpy.fromiter` pass over the pool and
vectorises the rest.  Both paths produce identical output;
``REPRO_COLUMNS=python`` / ``REPRO_COLUMNS=numpy`` pin the backend for
differential testing.
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_left, bisect_right
from typing import Iterable, Mapping, Optional, Sequence

__all__ = [
    "HAVE_NUMPY",
    "backend",
    "column",
    "containment_count",
    "containment_pairs",
    "direct_pairs",
    "intersect_sorted",
    "member_filter",
    "unique_sorted",
]

try:  # feature probe — numpy is optional, never required
    import numpy as _np
except Exception:  # pragma: no cover - exercised only without numpy
    _np = None

#: Whether the numpy fast path is available in this process.
HAVE_NUMPY = _np is not None

#: Backend pin: ``auto`` (default), ``python``, or ``numpy``.
_FORCED = os.environ.get("REPRO_COLUMNS", "auto").strip().lower()

#: Below this input size the numpy call overhead beats the win.
_NUMPY_MIN = 256


def backend() -> str:
    """The backend large kernels will use: ``"numpy"`` or ``"python"``."""
    if _FORCED == "python" or _np is None:
        return "python"
    return "numpy"


def _use_numpy(size: int) -> bool:
    if _np is None or _FORCED == "python":
        return False
    return _FORCED == "numpy" or size >= _NUMPY_MIN


def _as_np(col: Sequence[int]):
    """Zero-copy numpy view of an ``array('i')`` (copying otherwise)."""
    if isinstance(col, array):
        return _np.frombuffer(col, dtype=_np.int32)
    return _np.asarray(col, dtype=_np.int32)


#: ``label -> label`` structure: the index's ``post`` / ``parent`` map, or
#: any int sequence indexable by label.
LabelMap = Mapping[int, int] | Sequence[int]


def _gather(labels: Sequence[int], by_label: LabelMap):
    """``by_label[l]`` for every ``l`` in ``labels``, as one numpy column."""
    return _np.fromiter(
        map(by_label.__getitem__, labels), dtype=_np.int32, count=len(labels)
    )


def _from_np(values) -> array:
    out = array("i")
    out.frombytes(values.astype(_np.int32, copy=False).tobytes())
    return out


def column(values: Iterable[int] = ()) -> array:
    """A fresh int column."""
    return array("i", values)


def unique_sorted(values: Iterable[int]) -> array:
    """Sorted de-duplicated column from arbitrary int values."""
    return array("i", sorted(set(values)))


def intersect_sorted(a: Sequence[int], b: Sequence[int]) -> array:
    """Intersection of two sorted unique columns, sorted ascending.

    Gallops the smaller column through the larger via binary search when
    the size ratio is lopsided; otherwise streams the smaller side through
    a membership set (both O-optimal in CPython for their regime).
    """
    if len(a) > len(b):
        a, b = b, a
    if not a or not b:
        return array("i")
    if _use_numpy(len(b)):
        na, nb = _as_np(a), _as_np(b)
        idx = _np.searchsorted(nb, na)
        idx_c = _np.minimum(idx, len(nb) - 1)
        return _from_np(na[nb[idx_c] == na])
    out = array("i")
    if len(b) >= 16 * len(a):
        hi = len(b)
        for value in a:
            i = bisect_left(b, value, 0, hi)
            if i < hi and b[i] == value:
                out.append(value)
    else:
        members = set(b)
        out.extend(value for value in a if value in members)
    return out


def containment_count(
    parents: Sequence[int],
    post_of: LabelMap,
    children: Sequence[int],
) -> int:
    """Number of pairs :func:`containment_pairs` would materialise."""
    if not parents or not children:
        return 0
    if _use_numpy(len(parents) + len(children)):
        np_child = _as_np(children)
        los = _np.searchsorted(np_child, _as_np(parents), side="right")
        his = _np.searchsorted(np_child, _gather(parents, post_of), side="right")
        return int((his - los).sum())
    total = 0
    hi_bound = len(children)
    for label in parents:
        lo = bisect_right(children, label)
        if lo >= hi_bound:
            continue
        total += bisect_right(children, post_of[label], lo) - lo
    return total


def containment_pairs(
    parents: Sequence[int],
    post_of: LabelMap,
    children: Sequence[int],
) -> tuple[array, array]:
    """All ``(ancestor, descendant)`` label pairs between two pools.

    ``parents`` and ``children`` must be sorted ascending; ``post_of``
    maps every parent label to its subtree's last label.  A child ``c`` is
    a proper descendant of parent ``p`` iff ``p < c <= post_of[p]``, so
    each parent contributes one contiguous bisect range of the child
    column.  Output is sorted lexicographically by ``(parent, child)``.
    """
    left = array("i")
    right = array("i")
    if not parents or not children:
        return left, right
    if _use_numpy(len(parents) + len(children)):
        np_child = _as_np(children)
        np_parent = _as_np(parents)
        los = _np.searchsorted(np_child, np_parent, side="right")
        his = _np.searchsorted(np_child, _gather(parents, post_of), side="right")
        counts = his - los
        total = int(counts.sum())
        if total == 0:
            return left, right
        reps = _np.repeat(_np.arange(len(np_parent)), counts)
        # Each output slot maps to one child index: its parent's ``lo``
        # plus the slot's offset within the parent's run.
        offsets = _np.arange(total) - _np.repeat(
            counts.cumsum() - counts, counts
        )
        return (
            _from_np(np_parent[reps]),
            _from_np(np_child[los[reps] + offsets]),
        )
    hi_bound = len(children)
    for label in parents:
        lo = bisect_right(children, label)
        if lo >= hi_bound:
            continue
        hi = bisect_right(children, post_of[label], lo)
        if hi > lo:
            left.extend(array("i", [label]) * (hi - lo))
            right.extend(children[lo:hi])
    return left, right


def direct_pairs(
    parents: Sequence[int],
    parent_of: LabelMap,
    children: Sequence[int],
) -> tuple[array, array]:
    """All ``(parent, child)`` label pairs joined by the parent pointer.

    ``parent_of`` maps every child label to its parent's label (``-1`` at
    the root).  Each child costs one map read plus one membership probe
    into the sorted parent pool.  Output is sorted by child; within one
    parent, children ascend.
    """
    left = array("i")
    right = array("i")
    if not parents or not children:
        return left, right
    if _use_numpy(len(children)):
        np_child = _as_np(children)
        np_parents_of = _gather(children, parent_of)
        np_pool = _as_np(parents)
        idx = _np.searchsorted(np_pool, np_parents_of)
        idx_c = _np.minimum(idx, len(np_pool) - 1)
        mask = (np_parents_of >= 0) & (np_pool[idx_c] == np_parents_of)
        return _from_np(np_parents_of[mask]), _from_np(np_child[mask])
    members = set(parents)
    for label in children:
        parent = parent_of[label]
        if parent >= 0 and parent in members:
            left.append(parent)
            right.append(label)
    return left, right


def member_filter(pool: Sequence[int], keep: Optional[set]) -> array:
    """``pool`` restricted to members of ``keep`` (order preserved)."""
    if keep is None:
        return array("i", pool)
    return array("i", (value for value in pool if value in keep))
