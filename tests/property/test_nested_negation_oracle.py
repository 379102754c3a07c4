"""Brute-force oracle for XML-GL negation: crossed arcs as nested NOT EXISTS.

A crossed arc holds for its parent's element when no embedding of the
arc's subpattern exists below it.  The subpattern may hold boxes under
deep and direct arcs, wildcard boxes, attribute circles with a literal,
and crossed arcs of its own (negation two deep).  The oracle below reads
that definition literally: it enumerates every assignment of the positive
boxes, and of each subpattern's boxes, with no index, planner, pipeline
or pool filter.  Every engine must agree with it, through
:func:`repro.xmlgl.matcher.match` and through
:func:`repro.xmlgl.evaluator.rule_bindings` with the static rewrite off
and on.
"""

import random
from collections import Counter
from itertools import product

import pytest

from repro.engine.options import ExecOptions
from repro.ssd.model import Document, Element
from repro.xmlgl.ast import (
    AttributePattern,
    ContainmentEdge,
    ElementPattern,
    QueryGraph,
)
from repro.xmlgl.builder import collect, elem
from repro.xmlgl.evaluator import compile_plan, rule_bindings
from repro.xmlgl.matcher import match
from repro.xmlgl.rule import Rule

TAGS = ["a", "b"]
ENGINES = ["pipeline", "backtracking", "naive"]
CASES = 200


def random_document(rng: random.Random) -> Document:
    root = Element("r")
    elements = [root]
    for _ in range(rng.randint(5, 11)):
        child = Element(rng.choice(TAGS))
        if rng.random() < 0.5:
            child.set("k", rng.choice(["1", "2"]))
        rng.choice(elements).append(child)
        elements.append(child)
    return Document(root)


class _Drawing:
    """Random query graph under construction: fresh ids and positions."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.graph = QueryGraph()
        self.count = 0

    def box(self) -> str:
        node = f"n{self.count}"
        self.count += 1
        tag = self.rng.choice(TAGS) if self.rng.random() < 0.7 else None
        self.graph.add_node(ElementPattern(node, tag=tag))
        return node

    def arc(self, parent: str, child: str, negated: bool = False) -> None:
        self.graph.add_edge(ContainmentEdge(
            parent, child, deep=self.rng.random() < 0.5, negated=negated,
            position=self.count * 10 + len(self.graph.edges),
        ))

    def circle(self, parent: str, value, negated: bool = False) -> None:
        """An ``@k`` circle under ``parent``, with literal ``value``."""
        node = f"k{self.count}"
        self.count += 1
        self.graph.add_node(AttributePattern(node, "k", value=value))
        self.graph.add_edge(ContainmentEdge(
            parent, node, negated=negated, position=self.count * 10,
        ))

    def subpattern(self, parent: str, depth: int) -> None:
        """A crossed arc from ``parent``; ``depth`` 2 may nest another."""
        rng = self.rng
        if rng.random() < 0.15:
            self.circle(parent, rng.choice(["1", None]), negated=True)
            return
        top = self.box()
        self.arc(parent, top, negated=True)
        for _ in range(rng.randint(0, 2)):
            roll = rng.random()
            if roll < 0.3:
                below = self.box()
                self.arc(top, below)
                if depth > 1 and rng.random() < 0.3:
                    self.subpattern(below, depth - 1)
            elif roll < 0.8 and depth > 1:
                self.subpattern(top, depth - 1)
            else:
                self.circle(top, "1")


def random_query(rng: random.Random) -> QueryGraph:
    """1-3 positive boxes (one or several fragments) and 1-2 crossed arcs,
    at least one of them nesting a crossed arc when the dice allow."""
    drawing = _Drawing(rng)
    boxes = []
    for _ in range(rng.randint(1, 3)):
        box = drawing.box()
        if boxes and rng.random() < 0.7:
            drawing.arc(rng.choice(boxes), box)
        boxes.append(box)
    for _ in range(rng.randint(1, 2)):
        drawing.subpattern(rng.choice(boxes), depth=2)
    drawing.graph.validate()
    return drawing.graph


# -- the oracle --------------------------------------------------------------


def _related(parent: Element, child: Element, deep: bool) -> bool:
    if deep:
        return any(a is parent for a in child.ancestors())
    return child.parent is parent


def _circle_holds(node: AttributePattern, element: Element) -> bool:
    value = element.get(node.name)
    return value is not None and (node.value is None or value == node.value)


class Oracle:
    """Bindings of one graph on one document, read from the definition."""

    def __init__(self, graph: QueryGraph, document: Document) -> None:
        self.graph = graph
        self.elements = list(document.iter())
        self._exists: dict[tuple[int, int], bool] = {}

    def _pool(self, node_id: str) -> list[Element]:
        tag = self.graph.nodes[node_id].tag
        return [e for e in self.elements if tag in (None, e.tag)]

    def _positive_boxes(self, roots: list[str]) -> list[str]:
        """``roots`` plus every box below them over plain arcs."""
        boxes, stack = list(roots), list(roots)
        while stack:
            node = stack.pop()
            for edge in self.graph.edges:
                if edge.parent == node and not edge.negated and isinstance(
                    self.graph.nodes[edge.child], ElementPattern
                ):
                    boxes.append(edge.child)
                    stack.append(edge.child)
        return boxes

    def assignments(self, boxes: list[str]):
        """Every assignment of ``boxes`` meeting their plain arcs, circles
        and crossed arcs (arcs from outside ``boxes`` are the caller's)."""
        inside = set(boxes)
        for combo in product(*(self._pool(b) for b in boxes)):
            row = dict(zip(boxes, combo))
            if all(self._arc_holds(edge, row) for edge in self.graph.edges
                   if edge.parent in inside):
                yield row

    def _arc_holds(self, edge: ContainmentEdge, row: dict) -> bool:
        parent = row[edge.parent]
        child = self.graph.nodes[edge.child]
        if edge.negated:
            return not self.exists(edge, parent)
        if isinstance(child, AttributePattern):
            return _circle_holds(child, parent)
        return _related(parent, row[edge.child], edge.deep)

    def exists(self, edge: ContainmentEdge, parent: Element) -> bool:
        """Does the crossed arc's subpattern embed below ``parent``?"""
        key = (id(edge), id(parent))
        if key not in self._exists:
            child = self.graph.nodes[edge.child]
            if isinstance(child, AttributePattern):
                found = _circle_holds(child, parent)
            else:
                found = any(
                    _related(parent, row[edge.child], edge.deep)
                    for row in self.assignments(self._positive_boxes([edge.child]))
                )
            self._exists[key] = found
        return self._exists[key]

    def bindings(self) -> Counter:
        negated = set().union(*(
            self._positive_boxes([e.child]) for e in self.graph.edges
            if e.negated and isinstance(self.graph.nodes[e.child], ElementPattern)
        ))
        boxes = [
            n.id for n in self.graph.element_nodes() if n.id not in negated
        ]
        # Crossed subpatterns are trees private to their arc, so the boxes
        # negation leaves are exactly the positive query's boxes.
        return Counter(_key(row) for row in self.assignments(boxes))


def _key(binding, variables=None) -> tuple:
    names = sorted(binding) if variables is None else sorted(variables)
    return tuple((name, id(binding[name])) for name in names)


@pytest.mark.parametrize("seed", range(CASES))
def test_every_engine_agrees_with_the_oracle(seed):
    rng = random.Random(seed)
    document = random_document(rng)
    graph = random_query(rng)
    expected = Oracle(graph, document).bindings()
    first = graph.element_nodes()[0].id
    rule = Rule([graph], elem("out", collect(first)))
    for engine in ENGINES:
        options = ExecOptions(engine=engine)
        got = Counter(_key(b) for b in match(graph, document, options=options))
        assert got == expected, (engine, graph.describe())
        plan = compile_plan(rule, rewrite=False)
        unrewritten = rule_bindings(rule, document, options=options, plan=plan)
        assert Counter(_key(b) for b in unrewritten) == expected, (
            engine, "rewrite off", graph.describe()
        )
        # The rewrite may prune free branches; compare on what survives.
        plan = compile_plan(rule, rewrite=True)
        rewritten_graph = plan.rule.queries[0]
        kept = set(rewritten_graph.nodes) - rewritten_graph.negated_nodes()
        rewritten = rule_bindings(plan.rule, document, options=options, plan=plan)
        assert {_key(b, kept) for b in rewritten} == {
            tuple(item for item in key if item[0] in kept) for key in expected
        }, (engine, "rewrite on", graph.describe())


def test_cases_reach_negation_two_deep():
    """The generator really draws what the oracle is for."""
    nested = 0
    for seed in range(CASES):
        rng = random.Random(seed)
        random_document(rng)
        graph = random_query(rng)
        inside = graph.negated_nodes()
        nested += any(e.parent in inside for e in graph.negated_edges())
    assert nested >= CASES // 5
