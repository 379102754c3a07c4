"""Brute-force oracle for shared value circles: XML-GL's value join.

A text or attribute circle drawn under several boxes is a join.  It binds
only when every parent resolves it (literal and regex checked on each
parent's raw string) to values that are ``equal_atoms``, and it binds the
raw string of its first-drawn arc (lowest ``position``).  The oracle below
enumerates element assignments straight from that definition, with no
index, planner, pipeline or rewrite, and every engine must agree with it:
through :func:`repro.xmlgl.matcher.match`, and through
:func:`repro.xmlgl.evaluator.rule_bindings` on a compiled plan with the
static rewrite on and off.

The values pool holds strings that are ``equal_atoms`` but differ as text
(``"1"``, ``"01"``, ``"1.0"``), so a circle bound to the wrong parent's
string shows up as a mismatch even when the join itself is right.
"""

import random
import re
from collections import Counter
from itertools import product

import pytest

from repro.engine.conditions import ContentOf, DocumentAccessor, Regex
from repro.engine.options import ExecOptions
from repro.ssd.datatypes import equal_atoms
from repro.ssd.model import Document, Element
from repro.xmlgl.ast import (
    AttributePattern,
    ContainmentEdge,
    ElementPattern,
    QueryGraph,
    TextPattern,
)
from repro.xmlgl.builder import collect, elem
from repro.xmlgl.evaluator import compile_plan, rule_bindings
from repro.xmlgl.matcher import match
from repro.xmlgl.rule import Rule

TAGS = ["a", "b"]
VALUES = ["1", "01", "1.0", "2", "x"]
ENGINES = ["pipeline", "backtracking", "naive"]
CASES = 300


def random_document(rng: random.Random) -> Document:
    """A small random tree: the oracle enumerates every box assignment."""

    def decorate(element: Element) -> Element:
        if rng.random() < 0.7:
            element.set("k", rng.choice(VALUES))
        if rng.random() < 0.6:
            element.append(rng.choice(VALUES))
        return element

    root = decorate(Element("r"))
    elements = [root]
    for _ in range(rng.randint(6, 12)):
        child = decorate(Element(rng.choice(TAGS)))
        rng.choice(elements).append(child)
        elements.append(child)
    return Document(root)


def random_query(rng: random.Random) -> QueryGraph:
    """Boxes in one or several fragments plus a circle ``K`` shared by 2-3
    of them."""
    graph = QueryGraph()
    positions = rng.sample(range(1, 100), 20)
    boxes = []
    for index in range(rng.randint(2, 4)):
        box = f"n{index}"
        tag = rng.choice(TAGS) if rng.random() < 0.75 else None
        graph.add_node(ElementPattern(box, tag=tag))
        if boxes and rng.random() < 0.5:
            graph.add_edge(ContainmentEdge(
                rng.choice(boxes), box,
                deep=rng.random() < 0.5, position=positions.pop(),
            ))
        boxes.append(box)
    constraint = {}
    roll = rng.random()
    if roll < 0.15:
        constraint["value"] = rng.choice(VALUES)
    elif roll < 0.3:
        constraint["regex"] = r"0?1(\.0)?"
    if rng.random() < 0.5:
        graph.add_node(AttributePattern("K", "k", **constraint))
    else:
        graph.add_node(TextPattern("K", **constraint))
    for parent in rng.sample(boxes, rng.randint(2, min(3, len(boxes)))):
        graph.add_edge(ContainmentEdge(parent, "K", position=positions.pop()))
    if rng.random() < 0.4:
        literal = {"value": rng.choice(VALUES)} if rng.random() < 0.5 else {}
        graph.add_node(AttributePattern("V", "k", **literal))
        graph.add_edge(
            ContainmentEdge(rng.choice(boxes), "V", position=positions.pop())
        )
    if rng.random() < 0.2:
        graph.add_condition(Regex(ContentOf("K"), "1"))
    graph.validate()
    return graph


def _raw(node, element: Element):
    if isinstance(node, AttributePattern):
        value = element.get(node.name)
    else:
        value = element.immediate_text().strip() or None
    if value is None:
        return None
    if node.value is not None and value != node.value:
        return None
    if node.regex is not None and re.fullmatch(node.regex, value) is None:
        return None
    return value


def oracle(graph: QueryGraph, document: Document) -> Counter:
    """Every binding of ``graph``, enumerated from the definition."""
    boxes = [n.id for n in graph.element_nodes()]
    elements = list(document.iter())
    pools = [
        [e for e in elements if graph.nodes[b].tag in (None, e.tag)]
        for b in boxes
    ]
    box_edges = [
        e for e in graph.edges if isinstance(graph.nodes[e.child], ElementPattern)
    ]
    arcs: dict[str, list[ContainmentEdge]] = {}
    for edge in graph.edges:
        if edge not in box_edges:
            arcs.setdefault(edge.child, []).append(edge)
    found: Counter = Counter()
    for combo in product(*pools):
        assignment = dict(zip(boxes, combo))
        if not all(
            any(a is assignment[e.parent] for a in assignment[e.child].ancestors())
            if e.deep
            else assignment[e.child].parent is assignment[e.parent]
            for e in box_edges
        ):
            continue
        binding: dict[str, object] = dict(assignment)
        for circle, edges in arcs.items():
            values = [
                _raw(graph.nodes[circle], assignment[e.parent])
                for e in sorted(edges, key=lambda e: e.position)
            ]
            if None in values or not all(
                equal_atoms(values[0], v) for v in values
            ):
                break
            binding[circle] = values[0]
        else:
            if all(
                c.evaluate(binding, DocumentAccessor()) for c in graph.conditions
            ):
                found[_key(binding)] += 1
    return found


def _key(binding, variables=None) -> tuple:
    names = sorted(binding) if variables is None else sorted(variables)
    return tuple(
        (name, binding[name] if isinstance(binding[name], str)
         else id(binding[name]))
        for name in names
    )


@pytest.mark.parametrize("seed", range(CASES))
def test_every_route_agrees_with_the_oracle(seed):
    rng = random.Random(seed)
    document = random_document(rng)
    graph = random_query(rng)
    expected = oracle(graph, document)
    rule = Rule([graph], elem("out", collect("K")))
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
        kept = set(plan.rule.queries[0].nodes)
        rewritten = rule_bindings(plan.rule, document, options=options, plan=plan)
        assert {_key(b, kept) for b in rewritten} == {
            tuple(item for item in key if item[0] in kept) for key in expected
        }, (engine, "rewrite on", graph.describe())


def test_the_circle_binds_its_first_arcs_string():
    # "1" and "01" are equal_atoms; K must carry the first arc's text.
    document = Document(Element("r"))
    document.root.append(Element("a", {"k": "01"}))
    document.root.append(Element("b", {"k": "1"}))
    for first, second, bound in (("A", "B", "01"), ("B", "A", "1")):
        graph = QueryGraph()
        graph.add_node(ElementPattern("A", tag="a"))
        graph.add_node(ElementPattern("B", tag="b"))
        graph.add_node(AttributePattern("K", "k"))
        graph.add_edge(ContainmentEdge(second, "K", position=2))
        graph.add_edge(ContainmentEdge(first, "K", position=1))
        for engine in ENGINES:
            rows = match(graph, document, options=ExecOptions(engine=engine))
            assert [row["K"] for row in rows] == [bound]
            assert sorted(rows[0]) == ["A", "B", "K"]
