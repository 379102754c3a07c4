"""Typed document mutations with incremental index maintenance.

Documents used to be frozen snapshots: any change meant "rebuild the index,
recompile plans".  This module is the write path that
makes them *live*:

* four typed operations — :meth:`MutationBatch.insert_subtree`,
  :meth:`~MutationBatch.delete_subtree`, :meth:`~MutationBatch.update_value`,
  :meth:`~MutationBatch.update_attribute` — batched in a
  :class:`MutationBatch`,
* :func:`apply_batch` validates the whole batch against the document
  *before* any op applies (client errors → :class:`~repro.errors.MutationError`
  with the tree untouched), then applies the ops and incrementally
  maintains every affected :class:`~repro.engine.index.DocumentIndex`
  (gap-label splices and pool updates — see :mod:`repro.engine.index`),
* every committed batch advances the document's monotonically increasing
  ``doc_revision`` (tracked per document object, index or not) and reports
  a :class:`TouchedRegion` — the label intervals, tags, attribute names and
  value-sensitivity of the edit — which is what the subscription layer
  (:mod:`repro.engine.subscribe`) intersects with each registered query's
  footprint to decide whether a re-evaluation can be skipped outright.

Compiled plans depend only on the query graph, so no mutation touches the
plan cache.  Mutation is not thread-safe against concurrent readers of the same
document — callers serialize (the server holds a per-document write lock).

:func:`ops_from_spec` converts the JSON wire form used by the server and
``repro watch`` (paths are element-child index lists from the root) into a
batch.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from ..errors import MutationError
from ..ssd.model import Document, Element, Text
from .index import DocumentIndex

__all__ = [
    "InsertSubtree",
    "DeleteSubtree",
    "UpdateValue",
    "UpdateAttribute",
    "MutationBatch",
    "TouchedRegion",
    "MutationResult",
    "apply_batch",
    "current_revision",
    "ops_from_spec",
]


# -- revision registry --------------------------------------------------------

#: Per-document revision counters.  Kept outside the document (the node
#: model stays pure data) and weakly keyed so dead documents drop out.
_REVISIONS: "weakref.WeakKeyDictionary[Document, int]" = weakref.WeakKeyDictionary()
_REVISIONS_LOCK = threading.Lock()


def current_revision(document: Document) -> int:
    """The document's last committed batch revision (0 = never mutated)."""
    return _REVISIONS.get(document, 0)


def _next_revision(document: Document) -> int:
    with _REVISIONS_LOCK:
        revision = _REVISIONS.get(document, 0) + 1
        _REVISIONS[document] = revision
        return revision


# -- operations ---------------------------------------------------------------


@dataclass(frozen=True)
class InsertSubtree:
    """Attach detached ``subtree`` under ``parent``.

    ``index`` positions it in ``parent.children`` (the raw node list, so
    text nodes count); ``None`` appends.  Out-of-range indexes clamp, as
    ``list.insert`` does.
    """

    parent: Element
    subtree: Element
    index: Optional[int] = None


@dataclass(frozen=True)
class DeleteSubtree:
    """Detach ``target`` (and its whole subtree) from its parent."""

    target: Element


@dataclass(frozen=True)
class UpdateValue:
    """Replace ``target``'s direct text children with one text node."""

    target: Element
    text: str


@dataclass(frozen=True)
class UpdateAttribute:
    """Set (or with ``value=None`` remove) one attribute on ``target``."""

    target: Element
    name: str
    value: Optional[str] = None


Operation = "InsertSubtree | DeleteSubtree | UpdateValue | UpdateAttribute"


@dataclass
class MutationBatch:
    """An ordered group of operations applied atomically by :func:`apply_batch`.

    The builder methods chain::

        batch = (
            MutationBatch()
            .insert_subtree(shelf, new_book)
            .update_attribute(new_book, "year", "2001")
        )
    """

    ops: list = field(default_factory=list)

    def insert_subtree(
        self, parent: Element, subtree: Element, index: Optional[int] = None
    ) -> "MutationBatch":
        self.ops.append(InsertSubtree(parent, subtree, index))
        return self

    def delete_subtree(self, target: Element) -> "MutationBatch":
        self.ops.append(DeleteSubtree(target))
        return self

    def update_value(self, target: Element, text: str) -> "MutationBatch":
        self.ops.append(UpdateValue(target, text))
        return self

    def update_attribute(
        self, target: Element, name: str, value: Optional[str] = None
    ) -> "MutationBatch":
        self.ops.append(UpdateAttribute(target, name, value))
        return self

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator:
        return iter(self.ops)


# -- commit summary -----------------------------------------------------------


@dataclass(frozen=True)
class TouchedRegion:
    """What one committed batch touched, for subscription filtering.

    ``intervals`` are gap-label ``(pre, post)`` ranges of the edited
    subtrees (empty when no index was maintained); ``tags`` and
    ``attributes`` cover every inserted/deleted node and edited attribute;
    ``ancestor_tags`` the tags on the parent chains above the edit points
    (conditions read *recursive* text content, so a value edit can change
    what an ancestor-tag box observes); ``values_changed`` is set by value
    rewrites *and* structural edits (an inserted/deleted subtree changes
    every ancestor's text content).
    """

    intervals: tuple = ()
    tags: frozenset = frozenset()
    attributes: frozenset = frozenset()
    ancestor_tags: frozenset = frozenset()
    values_changed: bool = False
    structural: bool = False


@dataclass(frozen=True)
class MutationResult:
    """Outcome of one committed :class:`MutationBatch`."""

    #: The document's revision after this batch (monotonic, starts at 1).
    doc_revision: int
    #: Number of operations applied.
    applied: int
    #: Whether any op changed tree structure (insert/delete).
    structural: bool
    touched: TouchedRegion
    nodes_added: int = 0
    nodes_removed: int = 0


# -- validation ---------------------------------------------------------------


def _is_live(
    element: Element,
    document: Document,
    inserted_roots: set[int],
    deleted_roots: set[int],
) -> bool:
    """Whether ``element`` will be reachable when its op applies.

    Simulates the batch prefix: an element is live if its self-or-ancestor
    chain hits neither a scheduled deletion nor a dangling top — a
    detached top is fine exactly when it's a subtree scheduled for
    insertion earlier in the batch.
    """
    node = element
    while True:
        if id(node) in deleted_roots:
            return False
        parent = node.parent
        if parent is None:
            return id(node) in inserted_roots
        if isinstance(parent, Document):
            return parent is document and id(node) not in deleted_roots
        node = parent


def _validate(document: Document, batch: MutationBatch) -> None:
    root = document.root
    if root is None:
        raise MutationError("cannot mutate a document with no root element")
    inserted_roots: set[int] = set()
    deleted_roots: set[int] = set()
    for position, op in enumerate(batch):
        where = f"op {position} ({type(op).__name__})"
        if isinstance(op, InsertSubtree):
            if not isinstance(op.subtree, Element):
                raise MutationError(f"{where}: subtree must be an Element")
            if op.subtree.parent is not None:
                raise MutationError(
                    f"{where}: subtree already has a parent; copy() it first"
                )
            if id(op.subtree) in inserted_roots:
                raise MutationError(
                    f"{where}: subtree already scheduled for insertion"
                )
            if op.index is not None and not isinstance(op.index, int):
                raise MutationError(f"{where}: index must be an int or None")
            if not isinstance(op.parent, Element) or not _is_live(
                op.parent, document, inserted_roots, deleted_roots
            ):
                raise MutationError(
                    f"{where}: parent is not part of the document"
                )
            inserted_roots.add(id(op.subtree))
        elif isinstance(op, DeleteSubtree):
            if not isinstance(op.target, Element) or not _is_live(
                op.target, document, inserted_roots, deleted_roots
            ):
                raise MutationError(
                    f"{where}: target is not part of the document"
                )
            if op.target is root:
                raise MutationError(
                    f"{where}: deleting the root element is not supported"
                )
            deleted_roots.add(id(op.target))
        elif isinstance(op, (UpdateValue, UpdateAttribute)):
            if not isinstance(op.target, Element) or not _is_live(
                op.target, document, inserted_roots, deleted_roots
            ):
                raise MutationError(
                    f"{where}: target is not part of the document"
                )
            if isinstance(op, UpdateValue) and not isinstance(op.text, str):
                raise MutationError(f"{where}: text must be a string")
            if isinstance(op, UpdateAttribute):
                if not op.name or not isinstance(op.name, str):
                    raise MutationError(
                        f"{where}: attribute name must be a non-empty string"
                    )
                if op.value is not None and not isinstance(op.value, str):
                    raise MutationError(
                        f"{where}: attribute value must be a string or None"
                    )
        else:
            raise MutationError(f"{where}: unknown operation type")


# -- apply --------------------------------------------------------------------


def _subtree_tags_and_attrs(
    root: Element, tags: set[str], attributes: set[str]
) -> None:
    stack = [root]
    while stack:
        element = stack.pop()
        tags.add(element.tag)
        attributes.update(element.attributes)
        stack.extend(element.child_elements())


def apply_batch(
    document: Document,
    batch: MutationBatch,
    *,
    indexes: Optional[Sequence[DocumentIndex]] = None,
) -> MutationResult:
    """Validate and apply ``batch``, maintaining indexes incrementally.

    ``indexes`` defaults to the shared cache's entry for ``document`` (if
    one exists — never builds one: a document without an index needs no
    maintenance, the next build sees the mutated tree).  Every maintained
    index stays fully consistent: labels, pools, revision.

    Raises :class:`~repro.errors.MutationError` before touching anything
    if any op is invalid against the batch-prefix-simulated document.
    """
    _validate(document, batch)
    if indexes is None:
        from .cache import shared_cache

        cached = shared_cache.peek(document)
        maintained: list[DocumentIndex] = [cached] if cached is not None else []
    else:
        maintained = [index for index in indexes if index is not None]

    intervals: list[tuple[int, int]] = []
    tags: set[str] = set()
    attributes: set[str] = set()
    ancestor_tags: set[str] = set()
    values_changed = False
    structural = False
    nodes_added = 0
    nodes_removed = 0
    lead = maintained[0] if maintained else None

    for op in batch:
        anchor = op.parent if isinstance(op, InsertSubtree) else op.target
        ancestor_tags.update(anc.tag for anc in anchor.ancestors())
        if isinstance(op, InsertSubtree):
            ancestor_tags.add(op.parent.tag)
            structural = True
            values_changed = True
            _subtree_tags_and_attrs(op.subtree, tags, attributes)
            if op.index is None:
                op.parent.append(op.subtree)
            else:
                op.parent.insert(op.index, op.subtree)
            for index in maintained:
                nodes = index.note_insert(op.parent, op.subtree)
            nodes_added += op.subtree.size() if not maintained else nodes
            if lead is not None:
                intervals.append(lead.interval(op.subtree))
        elif isinstance(op, DeleteSubtree):
            structural = True
            values_changed = True
            _subtree_tags_and_attrs(op.target, tags, attributes)
            if lead is not None:
                intervals.append(lead.interval(op.target))
            removed = 0
            for index in maintained:
                removed = index.note_delete(op.target)
            parent = op.target.parent
            assert isinstance(parent, Element)
            parent.remove(op.target)
            nodes_removed += removed if maintained else op.target.size()
        elif isinstance(op, UpdateValue):
            values_changed = True
            tags.add(op.target.tag)
            if lead is not None:
                intervals.append(lead.interval(op.target))
            kept = [
                child
                for child in op.target.children
                if not isinstance(child, Text)
            ]
            for child in op.target.children:
                if isinstance(child, Text):
                    child.parent = None
            op.target.children = kept
            if op.text:
                op.target.append(Text(op.text))
            for index in maintained:
                index.note_value_update(op.target)
        else:  # UpdateAttribute
            attributes.add(op.name)
            tags.add(op.target.tag)
            if lead is not None:
                intervals.append(lead.interval(op.target))
            old = op.target.attributes.get(op.name)
            if op.value is None:
                op.target.attributes.pop(op.name, None)
            else:
                op.target.attributes[op.name] = op.value
            for index in maintained:
                index.note_set_attribute(op.target, op.name, old, op.value)

    revision = _next_revision(document)
    for index in maintained:
        index.commit_revision(revision)
    # Element.size() counts text nodes too; node counts from maintained
    # indexes count elements only.  Either way they are work indicators,
    # not invariants.
    return MutationResult(
        doc_revision=revision,
        applied=len(batch),
        structural=structural,
        touched=TouchedRegion(
            intervals=tuple(intervals),
            tags=frozenset(tags),
            attributes=frozenset(attributes),
            ancestor_tags=frozenset(ancestor_tags),
            values_changed=values_changed,
            structural=structural,
        ),
        nodes_added=nodes_added,
        nodes_removed=nodes_removed,
    )


# -- wire form ----------------------------------------------------------------


def _resolve_path(document: Document, path: Sequence[int], where: str) -> Element:
    """Walk element-child indexes from the root ([] = root itself)."""
    node = document.root
    if node is None:
        raise MutationError(f"{where}: document has no root element")
    if not isinstance(path, (list, tuple)):
        raise MutationError(f"{where}: path must be a list of child indexes")
    for step in path:
        if not isinstance(step, int):
            raise MutationError(f"{where}: path steps must be integers")
        children = node.child_elements()
        if not 0 <= step < len(children):
            raise MutationError(
                f"{where}: path step {step} out of range "
                f"(element has {len(children)} element children)"
            )
        node = children[step]
    return node


def _node_index_for_position(parent: Element, position: Optional[int]) -> Optional[int]:
    """Map an element-child position to a raw ``children`` index."""
    if position is None:
        return None
    elements = parent.child_elements()
    if position >= len(elements):
        return None  # append
    return parent.children.index(elements[position])


def ops_from_spec(document: Document, spec: Sequence[dict]) -> MutationBatch:
    """Build a batch from the JSON wire form (server / ``repro watch``).

    Each entry is a dict with an ``op`` key:

    * ``{"op": "insert", "parent": [..], "xml": "<x/>", "index": 0}`` —
      parse ``xml`` and insert it at element-child position ``index``
      (omitted = append) under the element at path ``parent``,
    * ``{"op": "delete", "target": [..]}``,
    * ``{"op": "update_value", "target": [..], "value": "text"}``,
    * ``{"op": "update_attribute", "target": [..], "name": "n",
      "value": "v"}`` (``"value": null`` removes).

    Paths are element-child index lists from the root (``[]`` = root).
    Every path resolves against the tree as it stands when the batch is
    built — i.e. the *pre-batch* snapshot — so a multi-op spec addresses
    distinct nodes by their original coordinates (two ``delete [0]`` ops
    name the same node and fail validation, they do not cascade).
    """
    from ..ssd import parse_document

    batch = MutationBatch()
    if not isinstance(spec, (list, tuple)):
        raise MutationError("mutation spec must be a list of op objects")
    for position, entry in enumerate(spec):
        where = f"spec[{position}]"
        if not isinstance(entry, dict):
            raise MutationError(f"{where}: each op must be an object")
        kind = entry.get("op")
        if kind == "insert":
            parent = _resolve_path(document, entry.get("parent", []), where)
            xml = entry.get("xml")
            if not isinstance(xml, str):
                raise MutationError(f"{where}: insert needs an 'xml' string")
            try:
                fragment = parse_document(xml)
            except Exception as error:
                raise MutationError(f"{where}: bad xml: {error}") from error
            root = fragment.root
            if root is None:
                raise MutationError(f"{where}: xml has no root element")
            fragment.children.remove(root)
            root.parent = None
            index = entry.get("index")
            if index is not None and (
                not isinstance(index, int) or index < 0
            ):
                raise MutationError(
                    f"{where}: index must be a non-negative integer"
                )
            batch.insert_subtree(
                parent, root, _node_index_for_position(parent, index)
            )
        elif kind == "delete":
            batch.delete_subtree(
                _resolve_path(document, entry.get("target", []), where)
            )
        elif kind == "update_value":
            value = entry.get("value")
            if not isinstance(value, str):
                raise MutationError(
                    f"{where}: update_value needs a 'value' string"
                )
            batch.update_value(
                _resolve_path(document, entry.get("target", []), where), value
            )
        elif kind == "update_attribute":
            name = entry.get("name")
            if not isinstance(name, str) or not name:
                raise MutationError(
                    f"{where}: update_attribute needs a 'name' string"
                )
            value = entry.get("value")
            if value is not None and not isinstance(value, str):
                raise MutationError(
                    f"{where}: attribute value must be a string or null"
                )
            batch.update_attribute(
                _resolve_path(document, entry.get("target", []), where),
                name,
                value,
            )
        else:
            raise MutationError(f"{where}: unknown op {kind!r}")
    return batch
