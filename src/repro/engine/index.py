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
gap spacing) or when appends at the document's end would push labels past
:data:`LABEL_MAX`.  Nothing a compiled plan depends on lives here, so no
edit invalidates a plan.  Mutation is not thread-safe against concurrent
readers — callers serialize (the server wraps the mutable head in a
read/write lock).

The gap labels are the index's only coordinate system.  The columnar
kernels (:mod:`repro.engine.columns`) need nothing but sorted int
candidates and label-keyed structure maps, so pools and relations are
label columns: :meth:`~DocumentIndex.label_column` hands out the index's
own sorted ``array('i')`` of a tag's labels with no copy,
:meth:`~DocumentIndex.labels_of` labels any other pool, and
:meth:`~DocumentIndex.post_map` / :meth:`~DocumentIndex.parent_map` /
:meth:`~DocumentIndex.element_map` serve the kernels and late
materialisation.  All of them are shared and read-only, and a structural
commit splices them in place, so a read never pays for a commit beyond
the splice itself.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, Optional

from ..ssd.model import Document, Element

__all__ = ["DocumentIndex", "LABEL_GAP", "LABEL_MAX"]

#: Label spacing at (re)build time: consecutive document-order elements
#: sit ``LABEL_GAP`` apart, leaving ``LABEL_GAP - 1`` free integers per
#: edit point before a local insert must fall back to a full relabel.
LABEL_GAP = 64

#: Largest label an ``array('i')`` column holds.  An end append whose
#: labels would pass it compacts the document's labels first.
LABEL_MAX = 2**31 - 1


class DocumentIndex:
    """Label / attribute / interval index over one (mutable) document."""

    def __init__(self, document: Document) -> None:
        self._document = document
        self._doc_revision = 0
        self._counters = {
            "labels_assigned": 0,
            "labels_removed": 0,
            "relabels": 0,
            "relabel_labels": 0,
            # The index keeps no statistics and no second coordinate
            # system; these keys stay (always 0) for readers of the older
            # counter set.
            "stats_nodes": 0,
            "dense_rebuilds": 0,
            "structural_ops": 0,
            "attribute_ops": 0,
            "value_ops": 0,
        }
        self._assign_labels()

    def _assign_labels(self) -> None:
        """(Re)derive every label structure from the current tree.

        The element at document-order position ``pre`` gets label
        ``pre * LABEL_GAP``.
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
        order = array("i", range(0, count * LABEL_GAP, LABEL_GAP))
        tag_labels: dict[str, array] = {}
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
            tag_labels.setdefault(element.tag, array("i")).append(label)
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

    def _relabel(self) -> None:
        """Full fallback relabel (gap exhausted or label bound reached)."""
        self._counters["relabels"] += 1
        self._assign_labels()
        self._counters["relabel_labels"] += self._element_count

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

        Labels are order-comparable but *not* dense: neighbours sit up to
        :data:`LABEL_GAP` apart, with holes where edits happened.
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

    # -- label columns (repro.engine.columns kernels) -----------------------

    def label_column(self, tag: Optional[str]) -> array:
        """Sorted labels of the elements with ``tag`` (``None``: every
        element) — the index's own column, shared and read-only."""
        if tag is None:
            return self._order
        return self._tag_labels.get(tag) or array("i")

    def labels_of(self, elements: Iterable[Element]) -> array:
        """Label column of ``elements`` (kept in the iteration order)."""
        label_of = self._label_of
        return array("i", [label_of[id(element)] for element in elements])

    def post_map(self) -> dict[int, int]:
        """``label -> post label`` (shared, read-only)."""
        return self._post_of

    def parent_map(self) -> dict[int, int]:
        """``label -> parent's label``, ``-1`` at the root (shared,
        read-only)."""
        return self._parent_of

    def element_map(self) -> dict[int, Element]:
        """``label -> element``: what lets the pipeline defer node
        materialisation to assembly (shared, read-only)."""
        return self._element_of

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
        the gap is exhausted or an end append would pass
        :data:`LABEL_MAX`), splices the per-tag/attribute pools and
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
        if i0 == len(self._order):
            # End append: a full gap per node, up to the column bound.
            step = LABEL_GAP
            room = prev_label + step * k <= LABEL_MAX
        else:
            step = (self._order[i0] - prev_label) // (k + 1)
            room = step > 0
        if not room:
            # Gap exhausted at this edit point, or the labels would pass
            # the column bound: relabel everything from the tree (which
            # already contains the new subtree).
            self._relabel()
            return k
        labels = array(
            "i", range(prev_label + step, prev_label + step * (k + 1), step)
        )
        self._counters["labels_assigned"] += k

        new_tags: dict[str, tuple[array, list[Element]]] = {}
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
            slot_lists = new_tags.setdefault(element.tag, (array("i"), []))
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
            pool_labels = self._tag_labels.setdefault(tag, array("i"))
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
