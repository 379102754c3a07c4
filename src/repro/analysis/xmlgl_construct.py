"""Static analysis of XML-GL construct (right-hand) parts.

The construct part references extract-part nodes by id; nothing in the
AST forces those references to resolve, and before this subsystem the
failures only surfaced at evaluation time (``UnboundConstructVariable``)
or not at all (a ``copy`` of a misspelled id silently emits nothing).
The pass walks the construct tree carrying a */path* (``result/entry[1]``)
so each finding names the construct node it anchors at:

* **XGL020** (error) — a referenced variable is not a node of any extract
  graph: ``value``/``$var`` attributes and ``tag_from`` crash at run time,
  ``copy``/``collect``/``for``/``group`` silently produce nothing;
* **XGL021** (warning) — a dead construct node: a grouping icon with no
  children splices nothing into the result;
* **XGL022** (warning) — a grouping icon whose children extract no
  binding: every group repeats identical literal content;
* **XGL023** (error) — the construct root is replicated (``for`` on the
  root box): a query produces one result document;
* **XGL024** (error/warning) — a reference to a node that exists but is
  bound only inside a negated subtree, so it is never bound.
"""

from __future__ import annotations

from typing import Iterator, Union

from ..xmlgl.construct import (
    Aggregate,
    Collect,
    ConstructNode,
    Copy,
    GroupBy,
    NewElement,
    TextFrom,
)
from ..xmlgl.rule import Rule
from .diagnostics import Diagnostic, Severity
from .passes import AnalysisContext, register

__all__ = ["construct_pass"]

#: (variable, role, raises_at_runtime)
_Reference = tuple[str, str, bool]


def _references(node: ConstructNode) -> list[_Reference]:
    """The query-variable references of one construct node (no recursion)."""
    refs: list[_Reference] = []
    if isinstance(node, NewElement):
        refs += [(v, "for", False) for v in node.for_each]
        if node.sort_by is not None:
            refs.append((node.sort_by, "sortby", False))
        if node.tag_from is not None:
            refs.append((node.tag_from, "tag_from", True))
        for attribute in node.attributes:
            if attribute.from_variable is not None:
                refs.append((attribute.from_variable, f"@{attribute.name}", True))
    elif isinstance(node, TextFrom):
        refs.append((node.variable, "value", True))
    elif isinstance(node, (Copy, Collect)):
        verb = "copy" if isinstance(node, Copy) else "collect"
        refs.append((node.variable, verb, False))
    elif isinstance(node, GroupBy):
        refs += [(v, "group", False) for v in node.group_on]
    elif isinstance(node, Aggregate):
        refs.append((node.variable, node.function, False))
    return refs


def _walk(node: ConstructNode, path: str) -> Iterator[tuple[ConstructNode, str]]:
    yield node, path
    children: list[ConstructNode] = []
    if isinstance(node, (NewElement, GroupBy)):
        children = node.children
    for position, child in enumerate(children):
        label = child.tag if isinstance(child, NewElement) else (
            "group" if isinstance(child, GroupBy) else type(child).__name__.lower()
        )
        yield from _walk(child, f"{path}/{label}[{position}]")


def _extracts_binding(node: Union[ConstructNode, None]) -> bool:
    """Does this subtree reference any query variable at all?"""
    if node is None:
        return False
    for sub, _ in _walk(node, ""):
        if _references(sub):
            return True
    return False


@register("xmlgl.construct", "xmlgl", "construct")
def construct_pass(rule: Rule, context: AnalysisContext) -> list[Diagnostic]:
    """XGL020-XGL024 over the rule's construct tree."""
    bound: set[str] = set()
    negated: set[str] = set()
    for graph in rule.queries:
        graph_negated = graph.negated_nodes()
        bound |= set(graph.nodes) - graph_negated
        negated |= graph_negated

    findings: list[Diagnostic] = []
    root = rule.construct
    if root.for_each:
        findings.append(Diagnostic(
            "XGL023",
            Severity.ERROR,
            f"the construct root <{root.tag}> is replicated over "
            f"{root.for_each}: a query produces one result document",
            hint="move the replication onto a child box",
        ))
    for node, path in _walk(root, root.tag):
        for variable, role, raises in _references(node):
            if variable in bound:
                continue
            if variable in negated:
                effect = (
                    "raises at evaluation time"
                    if raises
                    else "silently produces nothing"
                )
                findings.append(Diagnostic(
                    "XGL024",
                    Severity.ERROR if raises else Severity.WARNING,
                    f"{role} {variable!r} at {path} references a node bound "
                    f"only inside a negated subtree ({effect})",
                    node=variable,
                    hint="negated nodes are never bound",
                ))
            else:
                severity = (
                    Severity.WARNING if role == "sortby" else Severity.ERROR
                )
                effect = (
                    "raises at evaluation time"
                    if raises
                    else "silently produces nothing"
                )
                findings.append(Diagnostic(
                    "XGL020",
                    severity,
                    f"{role} {variable!r} at {path} is not a node of any "
                    f"extract graph ({effect})",
                    node=variable,
                    hint="check the node id for typos",
                ))
        if isinstance(node, GroupBy):
            if not node.children:
                findings.append(Diagnostic(
                    "XGL021",
                    Severity.WARNING,
                    f"grouping icon at {path} has no children: it splices "
                    "nothing into the result",
                ))
            elif not any(_extracts_binding(child) for child in node.children):
                findings.append(Diagnostic(
                    "XGL022",
                    Severity.WARNING,
                    f"grouping icon at {path} extracts no binding: every "
                    "group repeats the same literal content",
                    hint="reference a grouped variable in the children, "
                    "or drop the grouping icon",
                ))
    return [d.anchored(rule.name) for d in findings]
