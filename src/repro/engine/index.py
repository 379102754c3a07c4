"""Document indexes for query evaluation.

The XML-GL matcher scans documents for elements matching pattern nodes; a
:class:`DocumentIndex` turns those scans into hash lookups and supplies the
label frequencies the planner's selectivity estimates use.

On top of the tag/attribute maps the index carries a **gap-based pre/post
interval encoding**: every element gets ``(pre, post, depth, parent)``
labels where ``pre`` orders elements by document position and ``post`` is
the largest ``pre`` label inside the subtree.  Labels are spaced
:data:`LABEL_GAP` apart at build time, so the structural predicates the
matchers hammer on stay two integer comparisons *and* a single-subtree
edit can label the new nodes inside the touched gap instead of relabeling
the whole document:

* ancestor/descendant — ``pre(a) < pre(d) <= post(a)``,
* document-order comparison — a ``pre`` comparison,
* "elements with tag T inside the subtree of P" — a :mod:`bisect` range
  over the per-tag label-sorted arrays instead of a subtree walk.

Mutability contract
-------------------
Indexes are **maintained, not rebuilt**, under the typed mutation API
(:mod:`repro.engine.mutate`): ``note_insert`` / ``note_delete`` /
``note_set_attribute`` update the label maps and per-tag/attribute pools
in ``O(k log n + depth)`` for a ``k``-node edit, falling back to a full
relabel only when an edit point's gap is exhausted (amortized away by the
gap spacing).  Nothing a compiled plan depends on lives here, so no edit
invalidates a plan.  Mutation is not thread-safe against concurrent
readers — callers serialize (the server wraps the mutable head in a
read/write lock).

The columnar kernels (:mod:`repro.engine.columns`) need *dense* pre ids —
they use them as positions into flat ``array('i')`` columns — so the
dense view (``element_table`` / ``post_column`` / ``parent_pre_column`` /
``all_pres`` / ``tag_pres`` / ``pres_of``) is derived lazily from the gap
labels and cached until the next structural edit.  Gap labels and dense
ranks are two coordinate systems: ``position()`` / ``interval()`` speak
labels, the column accessors speak ranks, and no caller may mix them.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, Optional

from ..ssd.model import Document, Element

__all__ = ["DocumentIndex", "LABEL_GAP"]

#: Label spacing at (re)build time: consecutive document-order elements
#: sit ``LABEL_GAP`` apart, leaving ``LABEL_GAP - 1`` free integers per
#: edit point before a local insert must fall back to a full relabel.
LABEL_GAP = 64


class _DenseView:
    """Dense-rank snapshot of the gap labels for the columnar kernels.

    Ranks are positions in the label-sorted order, i.e. classic dense pre
    numbers; the columns are indexable by rank exactly like the flat
    arrays the kernels were written against.
    """

    __slots__ = (
        "elements",
        "rank_of_label",
        "rank_by_id",
        "post_column",
        "parent_pre_column",
        "all_pres",
        "tag_pres",
    )

    def __init__(
        self,
        order: list[int],
        element_of: dict[int, Element],
        post_of: dict[int, int],
        parent_of: dict[int, int],
    ) -> None:
        rank = {label: position for position, label in enumerate(order)}
        self.rank_of_label = rank
        self.elements = [element_of[label] for label in order]
        self.rank_by_id = {
            id(element): position
            for position, element in enumerate(self.elements)
        }
        self.post_column = array("i", (rank[post_of[label]] for label in order))
        self.parent_pre_column = array(
            "i",
            (
                rank[parent_of[label]] if parent_of[label] >= 0 else -1
                for label in order
            ),
        )
        self.all_pres = array("i", range(len(order)))
        #: Per-tag rank columns, filled on demand.
        self.tag_pres: dict[str, list[int]] = {}


class DocumentIndex:
    """Label / attribute / interval index over one (mutable) document."""

    def __init__(self, document: Document) -> None:
        self._document = document
        self._doc_revision = 0
        self._dense: Optional[_DenseView] = None
        self._counters = {
            "labels_assigned": 0,
            "labels_removed": 0,
            "relabels": 0,
            "relabel_labels": 0,
            # The index keeps no statistics; the key stays (always 0) for
            # readers of the pre-3.0 counter set.
            "stats_nodes": 0,
            "dense_rebuilds": 0,
            "structural_ops": 0,
            "attribute_ops": 0,
            "value_ops": 0,
        }
        self._assign_labels()

    def _assign_labels(self) -> None:
        """(Re)derive every label structure from the current tree.

        Labels come out ``dense_pre * LABEL_GAP``.
        """
        elements: list[Element] = []
        parent_pre: list[int] = []
        depths: list[int] = []
        root = self._document.root
        stack: list[tuple[Element, int, int]] = (
            [(root, -1, 0)] if root is not None else []
        )
        while stack:
            element, ppre, depth = stack.pop()
            pre = len(elements)
            elements.append(element)
            parent_pre.append(ppre)
            depths.append(depth)
            stack.extend(
                (child, pre, depth + 1)
                for child in reversed(element.child_elements())
            )

        # post = pre + subtree_size - 1; accumulate sizes bottom-up.
        count = len(elements)
        sizes = [1] * count
        for pre in range(count - 1, 0, -1):
            sizes[parent_pre[pre]] += sizes[pre]

        label_of: dict[int, int] = {}
        element_of: dict[int, Element] = {}
        post_of: dict[int, int] = {}
        parent_of: dict[int, int] = {}
        depth_of: dict[int, int] = {}
        order: list[int] = []
        tag_labels: dict[str, list[int]] = {}
        tag_elements: dict[str, list[Element]] = {}
        attr_labels: dict[str, list[int]] = {}
        attr_elements: dict[str, list[Element]] = {}
        for pre, element in enumerate(elements):
            label = pre * LABEL_GAP
            label_of[id(element)] = label
            element_of[label] = element
            post_of[label] = (pre + sizes[pre] - 1) * LABEL_GAP
            ppre = parent_pre[pre]
            parent_of[label] = ppre * LABEL_GAP if ppre >= 0 else -1
            depth_of[label] = depths[pre]
            order.append(label)
            tag_labels.setdefault(element.tag, []).append(label)
            tag_elements.setdefault(element.tag, []).append(element)
            for name in element.attributes:
                attr_labels.setdefault(name, []).append(label)
                attr_elements.setdefault(name, []).append(element)

        self._label_of = label_of
        self._element_of = element_of
        self._post_of = post_of
        self._parent_of = parent_of
        self._depth_of = depth_of
        self._order = order
        self._tag_labels = tag_labels
        self._tag_elements = tag_elements
        self._attr_labels = attr_labels
        self._attr_elements = attr_elements
        self._tag_tuples: dict[str, tuple[Element, ...]] = {}
        self._attr_tuples: dict[str, tuple[Element, ...]] = {}
        self._element_count = count
        self._dense = None

    def _relabel(self) -> None:
        """Full fallback relabel (gap exhausted)."""
        self._counters["relabels"] += 1
        self._assign_labels()
        self._counters["relabel_labels"] += self._element_count

    def _dense_view(self) -> _DenseView:
        view = self._dense
        if view is None:
            view = self._dense = _DenseView(
                self._order, self._element_of, self._post_of, self._parent_of
            )
            self._counters["dense_rebuilds"] += 1
        return view

    # -- lookups ------------------------------------------------------------

    @property
    def document(self) -> Document:
        """The indexed document."""
        return self._document

    def elements_with_tag(self, tag: str) -> tuple[Element, ...]:
        """All elements with ``tag``, document order (immutable)."""
        cached = self._tag_tuples.get(tag)
        if cached is None:
            pool = self._tag_elements.get(tag)
            if pool is None:
                return ()
            cached = self._tag_tuples[tag] = tuple(pool)
        return cached

    def elements_with_attribute(self, name: str) -> tuple[Element, ...]:
        """All elements carrying attribute ``name``, document order."""
        cached = self._attr_tuples.get(name)
        if cached is None:
            pool = self._attr_elements.get(name)
            if pool is None:
                return ()
            cached = self._attr_tuples[name] = tuple(pool)
        return cached

    def all_elements(self) -> Iterator[Element]:
        """Every element, document order."""
        element_of = self._element_of
        return (element_of[label] for label in self._order)

    def position(self, element: Element) -> int:
        """Document-order ``pre`` label of ``element``.

        Labels are order-comparable but *not* dense — use the column
        accessors for anything that indexes into arrays.
        """
        return self._label_of[id(element)]

    def covers(self, element: Element) -> bool:
        """Whether ``element`` currently belongs to the indexed document."""
        return id(element) in self._label_of

    # -- interval encoding ----------------------------------------------------

    def interval(self, element: Element) -> tuple[int, int]:
        """``(pre, post)`` labels of ``element``'s subtree."""
        pre = self._label_of[id(element)]
        return pre, self._post_of[pre]

    def depth(self, element: Element) -> int:
        """Nesting depth of ``element`` (root = 0)."""
        return self._depth_of[self._label_of[id(element)]]

    def is_ancestor(self, ancestor: Element, descendant: Element) -> bool:
        """Proper ancestor test via two integer comparisons."""
        a = self._label_of[id(ancestor)]
        d = self._label_of[id(descendant)]
        return a < d <= self._post_of[a]

    def descendants(self, element: Element) -> list[Element]:
        """Proper descendants of ``element``, document order (O(result))."""
        pre = self._label_of[id(element)]
        post = self._post_of[pre]
        order = self._order
        lo = bisect_right(order, pre)
        hi = bisect_right(order, post)
        element_of = self._element_of
        return [element_of[label] for label in order[lo:hi]]

    def descendants_with_tag(self, element: Element, tag: str) -> tuple[Element, ...]:
        """Descendants of ``element`` with ``tag`` via a bisect range."""
        labels = self._tag_labels.get(tag)
        if not labels:
            return ()
        pre = self._label_of[id(element)]
        lo = bisect_right(labels, pre)
        hi = bisect_right(labels, self._post_of[pre])
        return tuple(self._tag_elements[tag][lo:hi])

    # -- columns (repro.engine.columns kernels) -------------------------------

    def element_table(self) -> list[Element]:
        """The dense ``pre rank -> element`` side table (read-only).

        This is what lets the columnar pipeline defer node materialisation
        to hash-join assembly: every intermediate stays an int column.
        """
        return self._dense_view().elements

    def post_column(self) -> array:
        """``pre rank -> post rank`` as a flat int column."""
        return self._dense_view().post_column

    def parent_pre_column(self) -> array:
        """``pre rank -> parent's pre rank`` (``-1`` at the root)."""
        return self._dense_view().parent_pre_column

    def all_pres(self) -> array:
        """Every pre rank, ascending — the wildcard pool column (shared,
        read-only by convention)."""
        return self._dense_view().all_pres

    def tag_pres(self, tag: str) -> list[int]:
        """Sorted pre ranks of elements with ``tag`` (shared, read-only)."""
        view = self._dense_view()
        cached = view.tag_pres.get(tag)
        if cached is None:
            rank = view.rank_of_label
            cached = view.tag_pres[tag] = [
                rank[label] for label in self._tag_labels.get(tag, ())
            ]
        return cached

    def pres_of(self, elements: Iterable[Element]) -> array:
        """Pre-rank column of ``elements`` (kept in the iteration order)."""
        rank_by_id = self._dense_view().rank_by_id
        return array("i", (rank_by_id[id(element)] for element in elements))

    # -- bookkeeping ----------------------------------------------------------

    @property
    def doc_revision(self) -> int:
        """Revision of the last committed mutation batch (0 = pristine)."""
        return self._doc_revision

    def maintenance_counters(self) -> dict[str, int]:
        """Incremental-maintenance work counters (copy; bench/telemetry)."""
        return dict(self._counters)

    def element_count(self) -> int:
        """Total number of elements."""
        return self._element_count

    def tag_count(self, tag: str) -> int:
        """Number of elements with ``tag``."""
        return len(self._tag_labels.get(tag, ()))

    def tag_count_within(self, element: Element, tag: Optional[str]) -> int:
        """Number of ``tag`` elements inside ``element``'s subtree.

        ``None`` counts every proper descendant.  Costs two bisects.
        """
        pre = self._label_of[id(element)]
        post = self._post_of[pre]
        if tag is None:
            order = self._order
            return bisect_right(order, post) - bisect_right(order, pre)
        labels = self._tag_labels.get(tag)
        if not labels:
            return 0
        return bisect_right(labels, post) - bisect_right(labels, pre)

    def tags(self) -> set[str]:
        """The set of tags occurring in the document."""
        return set(self._tag_labels)

    def selectivity(self, tag: Optional[str]) -> int:
        """Estimated candidate count for a pattern node.

        ``None`` (wildcard) costs the whole document.
        """
        if tag is None:
            return self._element_count
        return self.tag_count(tag)

    # -- incremental maintenance (repro.engine.mutate) ------------------------

    def note_insert(self, parent: Element, root: Element) -> int:
        """Register subtree ``root``, freshly attached under ``parent``.

        Called *after* the tree edit.  Labels the new nodes inside the gap
        between their document-order neighbours (full relabel only when
        the gap is exhausted), splices the per-tag/attribute pools and
        fixes ancestor ``post`` labels in O(depth).  Returns the subtree's
        node count.
        """
        # Subtree walk in pre-order, tracking relative structure.
        nodes: list[tuple[Element, int]] = []
        stack: list[tuple[Element, int]] = [(root, 0)]
        while stack:
            element, rel = stack.pop()
            nodes.append((element, rel))
            stack.extend(
                (child, rel + 1)
                for child in reversed(element.child_elements())
            )
        k = len(nodes)
        index_of = {id(element): i for i, (element, _) in enumerate(nodes)}
        sizes = [1] * k
        for i in range(k - 1, 0, -1):
            sizes[index_of[id(nodes[i][0].parent)]] += sizes[i]

        parent_label = self._label_of[id(parent)]
        parent_depth = self._depth_of[parent_label]
        self._counters["structural_ops"] += 1

        # Document-order boundary: the label just before the new subtree
        # (the previous sibling subtree's last node, or the parent itself)
        # and the first label after it.
        siblings = parent.child_elements()
        slot = next(i for i, sibling in enumerate(siblings) if sibling is root)
        if slot == 0:
            prev_label = parent_label
        else:
            prev_label = self._post_of[self._label_of[id(siblings[slot - 1])]]
        i0 = bisect_right(self._order, prev_label)
        next_label = self._order[i0] if i0 < len(self._order) else None
        if next_label is None:
            step = LABEL_GAP
        else:
            gap = next_label - prev_label - 1
            if gap < k:
                # Gap exhausted at this edit point: relabel everything
                # from the tree (which already contains the new subtree).
                self._relabel()
                return k
            step = (next_label - prev_label) // (k + 1) or 1
        labels = [prev_label + step * (i + 1) for i in range(k)]
        self._counters["labels_assigned"] += k

        new_tags: dict[str, tuple[list[int], list[Element]]] = {}
        new_attrs: dict[str, tuple[list[int], list[Element]]] = {}
        for i, (element, rel) in enumerate(nodes):
            label = labels[i]
            self._label_of[id(element)] = label
            self._element_of[label] = element
            self._depth_of[label] = parent_depth + 1 + rel
            self._post_of[label] = labels[i + sizes[i] - 1]
            self._parent_of[label] = (
                parent_label
                if element is root
                else labels[index_of[id(element.parent)]]
            )
            slot_lists = new_tags.setdefault(element.tag, ([], []))
            slot_lists[0].append(label)
            slot_lists[1].append(element)
            for name in element.attributes:
                slot_lists = new_attrs.setdefault(name, ([], []))
                slot_lists[0].append(label)
                slot_lists[1].append(element)
        self._order[i0:i0] = labels
        # All new labels fall inside one previously label-free interval,
        # so each pool splice is a single contiguous insertion.
        for tag, (tag_ls, tag_es) in new_tags.items():
            pool_labels = self._tag_labels.setdefault(tag, [])
            pool_elements = self._tag_elements.setdefault(tag, [])
            at = bisect_right(pool_labels, prev_label)
            pool_labels[at:at] = tag_ls
            pool_elements[at:at] = tag_es
            self._tag_tuples.pop(tag, None)
        for name, (attr_ls, attr_es) in new_attrs.items():
            pool_labels = self._attr_labels.setdefault(name, [])
            pool_elements = self._attr_elements.setdefault(name, [])
            at = bisect_right(pool_labels, prev_label)
            pool_labels[at:at] = attr_ls
            pool_elements[at:at] = attr_es
            self._attr_tuples.pop(name, None)

        # Ancestors whose subtree used to end at the boundary now end at
        # the new subtree's last node.
        last = labels[-1]
        walk: Optional[Element] = parent
        while isinstance(walk, Element):
            walk_label = self._label_of[id(walk)]
            if self._post_of[walk_label] != prev_label:
                break
            self._post_of[walk_label] = last
            walk = walk.parent  # type: ignore[assignment]
        self._element_count += k
        self._dense = None
        return k

    def note_delete(self, root: Element) -> int:
        """Register the pending detach of subtree ``root``.

        Called *before* the tree edit (label maps and the parent chain
        must still be intact).  Returns the subtree's node count.
        """
        parent = root.parent
        assert isinstance(parent, Element), "root element deletion unsupported"
        lo = self._label_of[id(root)]
        hi = self._post_of[lo]
        order = self._order
        i = bisect_left(order, lo)
        j = bisect_right(order, hi)
        removed = order[i:j]
        k = len(removed)
        self._counters["structural_ops"] += 1

        # Ancestors whose subtree ended inside the removed range now end
        # just before it (at worst at the parent's own label).
        prev_remaining = order[i - 1]
        walk: Optional[Element] = parent
        while isinstance(walk, Element):
            walk_label = self._label_of[id(walk)]
            if self._post_of[walk_label] != hi:
                break
            self._post_of[walk_label] = prev_remaining
            walk = walk.parent  # type: ignore[assignment]

        touched_tags: set[str] = set()
        touched_attrs: set[str] = set()
        for label in removed:
            element = self._element_of.pop(label)
            del self._label_of[id(element)]
            del self._post_of[label]
            del self._parent_of[label]
            del self._depth_of[label]
            touched_tags.add(element.tag)
            touched_attrs.update(element.attributes)
        del order[i:j]
        # The removed labels were one contiguous range, so each pool loses
        # a single contiguous slice.
        for tag in touched_tags:
            pool_labels = self._tag_labels[tag]
            a = bisect_left(pool_labels, lo)
            b = bisect_right(pool_labels, hi)
            del pool_labels[a:b]
            del self._tag_elements[tag][a:b]
            if not pool_labels:
                del self._tag_labels[tag]
                del self._tag_elements[tag]
            self._tag_tuples.pop(tag, None)
        for name in touched_attrs:
            pool_labels = self._attr_labels.get(name)
            if pool_labels is None:
                continue
            a = bisect_left(pool_labels, lo)
            b = bisect_right(pool_labels, hi)
            del pool_labels[a:b]
            del self._attr_elements[name][a:b]
            if not pool_labels:
                del self._attr_labels[name]
                del self._attr_elements[name]
            self._attr_tuples.pop(name, None)
        self._element_count -= k
        self._counters["labels_removed"] += k
        self._dense = None
        return k

    def note_set_attribute(
        self, element: Element, name: str, old: Optional[str], new: Optional[str]
    ) -> None:
        """Register one attribute edit (already applied to ``element``)."""
        self._counters["attribute_ops"] += 1
        if (old is None) == (new is None):
            return  # value-only change: pools unaffected
        label = self._label_of[id(element)]
        if new is not None:
            pool_labels = self._attr_labels.setdefault(name, [])
            pool_elements = self._attr_elements.setdefault(name, [])
            at = bisect_left(pool_labels, label)
            pool_labels.insert(at, label)
            pool_elements.insert(at, element)
        else:
            pool_labels = self._attr_labels[name]
            at = bisect_left(pool_labels, label)
            del pool_labels[at]
            del self._attr_elements[name][at]
            if not pool_labels:
                del self._attr_labels[name]
                del self._attr_elements[name]
        self._attr_tuples.pop(name, None)

    def note_value_update(self, element: Element) -> None:
        """Register a text rewrite under ``element`` (labels untouched)."""
        self._counters["value_ops"] += 1

    def commit_revision(self, revision: int) -> None:
        """Seal one committed mutation batch into this index."""
        self._doc_revision = revision
