"""Construct-side AST of XML-GL and its evaluation.

The right-hand (construct) part of an XML-GL rule is again a graph of
boxes; its three aggregation primitives are (quoting the paper's visual
vocabulary):

* **plain boxes** — build one element *per matched instance* of the query
  nodes they reference (or exactly one element, when they reference none);
* **triangles** — collect *all* elements matched by the query node they
  point at, as one flat list;
* **list icons** — collect matched elements *grouped* by an explicit
  grouping condition, building one sublist per group.

This module gives those primitives a compositional semantics over
:class:`~repro.engine.bindings.BindingSet`:

Every construct node is evaluated in a *context* — the binding set that
survives to this point.  ``NewElement(for_each=[...])`` partitions the
context by the distinct values of its ``for_each`` variables and emits one
element per part (the plain box attached to a query node).  ``Collect``
emits a copy of each distinct element bound to its variable (the triangle).
``GroupBy`` partitions the context and splices its children once per group
(the list icon).  ``Aggregate`` emits the value of COUNT/SUM/MIN/MAX/AVG
over the context.  Copies are either *deep* (the starred construct arc:
take the whole subtree) or *shallow* (tag + attributes only).

Document order comes from the source documents' :class:`DocumentIndex`
gap labels, never from a tree walk: copies are sorted by ``(tree rank,
pre label)``, where the tree rank is the order in which each source
document first appears among the copied elements.  The labels are
maintained across commits, so the order stays exact under mutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from ..engine.bindings import BindingSet
from ..engine.cache import get_index
from ..engine.index import DocumentIndex
from ..errors import (
    EvaluationError,
    QueryStructureError,
    UnboundConstructVariable,
)
from ..ssd.datatypes import coerce
from ..ssd.model import Document, Element

__all__ = [
    "NewElement",
    "NewAttribute",
    "TextLiteral",
    "TextFrom",
    "Copy",
    "Collect",
    "GroupBy",
    "Aggregate",
    "ConstructNode",
    "build",
]


@dataclass
class NewAttribute:
    """An attribute on a :class:`NewElement`.

    ``value`` is a literal unless ``from_variable`` is set, in which case the
    attribute takes the text of the bound node (which must be functionally
    determined by the enclosing element's ``for_each`` context).
    """

    name: str
    value: Optional[str] = None
    from_variable: Optional[str] = None


@dataclass
class NewElement:
    """A plain construct box.

    Args:
        tag: tag of the constructed element.
        for_each: replication variables — one element is emitted per
            distinct combination of their values in the context (empty =
            exactly one element).
        attributes: constructed attributes.
        children: nested construct nodes, evaluated in the restricted
            context.
        sort_by: optional variable whose (coerced) value orders the
            replicated elements; default is first-match order.
        tag_from: take the tag from the *name* of the node bound to this
            variable instead of ``tag`` (heterogeneous construction — the
            name-carrying behaviour of XML-GL's unnamed boxes).  The
            variable must be functionally determined in the element's
            context, so it is usually combined with ``for_each``.
    """

    tag: str
    for_each: list[str] = field(default_factory=list)
    attributes: list[NewAttribute] = field(default_factory=list)
    children: list["ConstructNode"] = field(default_factory=list)
    sort_by: Optional[str] = None
    tag_from: Optional[str] = None


@dataclass
class TextLiteral:
    """A constant text child."""

    text: str


@dataclass
class TextFrom:
    """A text child taking the content of a bound node (or bound string)."""

    variable: str


@dataclass
class Copy:
    """Copy the single element bound to ``variable`` in this context.

    ``deep=True`` (the starred construct arc) copies the whole subtree;
    ``deep=False`` copies the element with attributes but no children.
    If the context binds several distinct elements, all are copied in
    document order — the degenerate case equals :class:`Collect`.
    """

    variable: str
    deep: bool = True


@dataclass
class Collect:
    """The triangle: copies of all distinct bound elements, document order."""

    variable: str
    deep: bool = True


@dataclass
class GroupBy:
    """The list icon: splice ``children`` once per distinct group.

    ``group_on`` names the grouping variables (the explicit grouping
    condition the list icon points at); children see only the group's
    bindings.
    """

    group_on: list[str]
    children: list["ConstructNode"] = field(default_factory=list)


_AGG_FUNCTIONS = {"count", "sum", "min", "max", "avg"}


@dataclass
class Aggregate:
    """An aggregation annotation: COUNT/SUM/MIN/MAX/AVG over the context.

    ``count`` counts *distinct* values of ``variable`` (element identity
    for nodes, value equality for strings).  The numeric functions operate
    on the bag of bound occurrences — element bindings are deduplicated by
    identity (join fan-out must not double-count a price element), while
    atomic bindings contribute once per row, so two books costing 9.99
    both enter the sum.
    """

    function: str
    variable: str

    def __post_init__(self) -> None:
        if self.function not in _AGG_FUNCTIONS:
            raise EvaluationError(f"unknown aggregate {self.function!r}")


ConstructNode = Union[
    NewElement, TextLiteral, TextFrom, Copy, Collect, GroupBy, Aggregate
]


def build(
    root: NewElement,
    bindings: BindingSet,
    *,
    indexes: Optional[Sequence[DocumentIndex]] = None,
) -> Element:
    """Evaluate a construct tree against a binding set.

    Returns the root element.  The root's ``for_each`` must be empty (a
    query produces one result document).

    ``indexes`` are the source documents' indexes — the evaluator passes
    the ones its match loop used — and order every copy; each bound
    element must belong to one of them.  Left out, they are looked up in
    the shared cache (:func:`repro.engine.cache.get_index`) for the
    documents that hold the bound elements.
    """
    if root.for_each:
        raise QueryStructureError("the construct root cannot be replicated")
    if indexes is None:
        indexes = _source_indexes(bindings)
    elements = _eval_new_element(root, bindings, root.tag, indexes)
    assert len(elements) == 1
    return elements[0]


def _source_indexes(bindings: BindingSet) -> list[DocumentIndex]:
    """Indexes of the trees holding the bound elements, first-seen order.

    A tree inside a :class:`Document` uses the shared cache; a bare
    element tree has no document to cache under, so it is indexed for
    this call only.
    """
    tops: dict[int, Union[Document, Element]] = {}
    seen: set[int] = set()
    for binding in bindings:
        for value in binding.values():
            if not isinstance(value, Element) or id(value) in seen:
                continue
            seen.add(id(value))
            top: Union[Document, Element] = value
            while top.parent is not None:
                top = top.parent
            tops.setdefault(id(top), top)
    indexes = []
    for top in tops.values():
        if isinstance(top, Document):
            indexes.append(get_index(top))
        else:
            # Index the bare tree through a view that leaves its root
            # parentless (Document.append would adopt it).
            view = Document()
            view.children.append(top)
            indexes.append(DocumentIndex(view))
    return indexes


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _eval_node(
    node: ConstructNode,
    context: BindingSet,
    path: str,
    indexes: Sequence[DocumentIndex],
) -> list:
    """Evaluate one construct node to a list of result children.

    ``path`` names the node's position in the construct tree (e.g.
    ``result/entry[0]``) so evaluation errors point back at the drawing.
    """
    if isinstance(node, NewElement):
        return _eval_new_element(node, context, path, indexes)
    if isinstance(node, TextLiteral):
        return [node.text]
    if isinstance(node, TextFrom):
        return [_text_of_context(node.variable, context, path)]
    if isinstance(node, (Copy, Collect)):
        return _copies(node.variable, node.deep, context, indexes)
    if isinstance(node, GroupBy):
        results: list = []
        for _, group in context.group_by(node.group_on):
            for child_index, child in enumerate(node.children):
                results.extend(
                    _eval_node(
                        child, group, f"{path}/[{child_index}]", indexes
                    )
                )
        return results
    if isinstance(node, Aggregate):
        return [_aggregate(node, context)]
    raise EvaluationError(f"unknown construct node {node!r}")


def _eval_new_element(
    node: NewElement,
    context: BindingSet,
    path: str,
    indexes: Sequence[DocumentIndex],
) -> list[Element]:
    contexts: list[BindingSet]
    if node.for_each:
        groups = context.group_by(node.for_each)
        if node.sort_by is not None:
            groups.sort(key=lambda pair: _sort_key(node.sort_by, pair[1]))
        contexts = [group for _, group in groups]
    else:
        contexts = [context]
    elements = []
    for sub_context in contexts:
        element = Element(_resolve_tag(node, sub_context))
        for attribute in node.attributes:
            if attribute.from_variable is not None:
                element.set(
                    attribute.name,
                    str(_text_of_context(
                        attribute.from_variable,
                        sub_context,
                        f"{path}/@{attribute.name}",
                    )),
                )
            else:
                element.set(attribute.name, attribute.value or "")
        for child_index, child in enumerate(node.children):
            child_path = (
                f"{path}/{child.tag}[{child_index}]"
                if isinstance(child, NewElement)
                else f"{path}/[{child_index}]"
            )
            for result in _eval_node(child, sub_context, child_path, indexes):
                element.append(result)
        elements.append(element)
    return elements


def _resolve_tag(node: NewElement, context: BindingSet) -> str:
    if node.tag_from is None:
        return node.tag
    values = _distinct_values(node.tag_from, context)
    if len(values) != 1:
        raise EvaluationError(
            f"tag_from variable {node.tag_from!r} must be functionally "
            f"determined ({len(values)} distinct values); add it to for_each"
        )
    value = values[0]
    if not isinstance(value, Element):
        raise EvaluationError(
            f"tag_from variable {node.tag_from!r} must bind an element"
        )
    return value.tag


def _distinct_values(variable: str, context: BindingSet) -> list:
    """Distinct bound values of ``variable``, first-seen order."""
    seen: set = set()
    values = []
    for binding in context:
        if variable not in binding:
            continue
        value = binding[variable]
        key = id(value) if isinstance(value, Element) else ("atom", value)
        if key in seen:
            continue
        seen.add(key)
        values.append(value)
    return values


def _in_document_order(
    elements: list[Element], indexes: Sequence[DocumentIndex]
) -> list[Element]:
    """``elements`` sorted by ``(tree rank, pre label)``.

    A tree's rank is the order in which its document first appears among
    ``elements``; within a tree the index's gap labels give document
    order, so no tree is walked.
    """
    ranks: dict[int, int] = {}
    keys: dict[int, tuple[int, int]] = {}
    for element in elements:
        for index in indexes:
            if index.covers(element):
                break
        else:
            raise EvaluationError(
                f"bound element <{element.tag}> is not in an indexed source "
                "document (edit documents through mutate(), or invalidate "
                "their index after a raw tree edit)"
            )
        rank = ranks.setdefault(id(index), len(ranks))
        keys[id(element)] = (rank, index.position(element))
    return sorted(elements, key=lambda e: keys[id(e)])


def _copies(
    variable: str,
    deep: bool,
    context: BindingSet,
    indexes: Sequence[DocumentIndex],
) -> list:
    values = _distinct_values(variable, context)
    elements = [v for v in values if isinstance(v, Element)]
    atoms = [v for v in values if not isinstance(v, Element)]
    results: list = []
    for element in _in_document_order(elements, indexes):
        if deep:
            results.append(element.copy())
        else:
            results.append(Element(element.tag, dict(element.attributes)))
    results.extend(str(a) for a in atoms)
    return results


def _text_of_context(variable: str, context: BindingSet, where: Optional[str] = None):
    values = _distinct_values(variable, context)
    if not values:
        raise UnboundConstructVariable(variable, where)
    if len(values) > 1:
        raise EvaluationError(
            f"variable {variable!r} is not functionally determined here "
            f"({len(values)} distinct values); replicate with for_each or group"
        )
    value = values[0]
    if isinstance(value, Element):
        return value.text_content()
    return str(value)


def _sort_key(variable: str, group: BindingSet):
    for binding in group:
        if variable in binding:
            value = binding[variable]
            text = value.text_content() if isinstance(value, Element) else value
            coerced = coerce(text)
            # Mixed numeric/string sort keys must not compare; namespace them.
            if isinstance(coerced, (int, float)) and not isinstance(coerced, bool):
                return (0, coerced, "")
            return (1, 0, str(coerced))
    return (2, 0, "")


def _numeric_occurrences(variable: str, context: BindingSet) -> list:
    """Bag of bound occurrences: elements by identity, atoms per row."""
    seen_elements: set[int] = set()
    values = []
    for binding in context:
        if variable not in binding:
            continue
        value = binding[variable]
        if isinstance(value, Element):
            if id(value) in seen_elements:
                continue
            seen_elements.add(id(value))
        values.append(value)
    return values


def _aggregate(node: Aggregate, context: BindingSet) -> str:
    if node.function == "count":
        return str(len(_distinct_values(node.variable, context)))
    values = _numeric_occurrences(node.variable, context)
    numbers = []
    for value in values:
        text = value.text_content() if isinstance(value, Element) else value
        number = coerce(text)
        if isinstance(number, bool) or not isinstance(number, (int, float)):
            raise EvaluationError(
                f"{node.function} over non-numeric value {text!r}"
            )
        numbers.append(number)
    if not numbers:
        return "0" if node.function == "sum" else ""
    if node.function == "sum":
        result = sum(numbers)
    elif node.function == "min":
        result = min(numbers)
    elif node.function == "max":
        result = max(numbers)
    else:  # avg
        result = sum(numbers) / len(numbers)
    if isinstance(result, float) and result.is_integer():
        result = int(result)
    return str(result)
