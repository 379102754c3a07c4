"""Randomized engine-equivalence suite for the XML-GL matcher.

Seeded generators build random documents and random (always-valid) query
graphs; every case asserts that all engine/ablation combinations — the
set-at-a-time semi-join **pipeline** default, the interval-**indexed**
backtracking core and the **naive** full-scan path, each with the planner
on and off — produce *identical* binding multisets.  The naive path is the
differential oracle: it touches neither the interval encoding nor the join
pipeline, so agreement here is the correctness argument for both.

The query generator deliberately produces the shapes that stress the
pipeline's fragment logic: ordered arcs (per-fragment fallback), negated
arcs (a filter on their parent box's pool), or-groups (branch expansion before engine dispatch), DAG
edges between existing boxes (cyclic skeletons → fallback), detached
boxes (cross products), and value equi-join conditions linking detached
fragments (hash equi-joins).
"""

import random

import pytest

from repro.engine.bindings import value_key
from repro.engine.conditions import AttributeOf, Comparison, Const
from repro.ssd.model import Document, Element
from repro.xmlgl.ast import (
    AttributePattern,
    ContainmentEdge,
    ElementPattern,
    OrGroup,
    QueryGraph,
    TextPattern,
)
from repro.engine.options import ExecOptions
from repro.xmlgl.matcher import match

TAGS = ["a", "b", "c", "d"]
ATTRS = ["k", "m"]
VALUES = ["1", "2", "3"]
TEXTS = ["x", "y", "zz"]

#: The first entry is the differential oracle every other row must match.
CONFIGS = [
    ExecOptions(engine="naive", use_planner=True),
    ExecOptions(engine="naive", use_planner=False),
    ExecOptions(engine="pipeline", use_planner=True),
    ExecOptions(engine="pipeline", use_planner=False),
    ExecOptions(engine="backtracking", use_planner=True),
    ExecOptions(engine="backtracking", use_planner=False),
]


def random_document(rng: random.Random) -> Document:
    """A random tree of ~10-50 elements with random attributes and text."""

    def grow(depth: int) -> Element:
        element = Element(rng.choice(TAGS))
        for name in ATTRS:
            if rng.random() < 0.4:
                element.set(name, rng.choice(VALUES))
        if rng.random() < 0.5:
            element.append(rng.choice(TEXTS))
        if depth < 4:
            for _ in range(rng.randint(0, 3)):
                element.append(grow(depth + 1))
        return element

    root = Element("root")
    for _ in range(rng.randint(1, 3)):
        root.append(grow(1))
    return Document(root)


def random_query(rng: random.Random) -> QueryGraph:
    """A random valid query graph: boxes, deep arcs, circles, negation,
    ordered arcs and the occasional or-group."""
    graph = QueryGraph()
    counter = 0

    def fresh(prefix: str) -> str:
        nonlocal counter
        counter += 1
        return f"{prefix}{counter}"

    def random_tag():
        return rng.choice(TAGS) if rng.random() < 0.8 else None

    positions: dict[str, int] = {}

    def next_position(parent: str) -> int:
        positions[parent] = positions.get(parent, 0) + 1
        return positions[parent]

    root_id = fresh("n")
    anchored = rng.random() < 0.3
    graph.add_node(
        ElementPattern(
            root_id,
            tag="root" if anchored else random_tag(),
            anchored=anchored,
        )
    )
    boxes = [root_id]

    for _ in range(rng.randint(1, 3)):
        parent = rng.choice(boxes)
        child = fresh("n")
        graph.add_node(ElementPattern(child, tag=random_tag()))
        graph.add_edge(
            ContainmentEdge(
                parent,
                child,
                deep=rng.random() < 0.4,
                position=next_position(parent),
            )
        )
        boxes.append(child)

    # value circles
    for parent in boxes:
        if rng.random() < 0.4:
            circle = fresh("v")
            if rng.random() < 0.5:
                constraint = {}
                roll = rng.random()
                if roll < 0.3:
                    constraint["value"] = rng.choice(TEXTS)
                elif roll < 0.5:
                    constraint["regex"] = "[xyz]+"
                graph.add_node(TextPattern(circle, **constraint))
            else:
                constraint = {}
                roll = rng.random()
                if roll < 0.3:
                    constraint["value"] = rng.choice(VALUES)
                elif roll < 0.5:
                    constraint["regex"] = "[12]"
                graph.add_node(
                    AttributePattern(circle, name=rng.choice(ATTRS), **constraint)
                )
            graph.add_edge(
                ContainmentEdge(parent, circle, position=next_position(parent))
            )

    # one negated fresh leaf, sometimes deep
    if rng.random() < 0.4:
        parent = rng.choice(boxes)
        leaf = fresh("neg")
        graph.add_node(ElementPattern(leaf, tag=rng.choice(TAGS)))
        graph.add_edge(
            ContainmentEdge(
                parent,
                leaf,
                deep=rng.random() < 0.5,
                negated=True,
                position=next_position(parent),
            )
        )

    # an ordered sibling pair under the root box
    if rng.random() < 0.3:
        first, second = fresh("o"), fresh("o")
        for node_id in (first, second):
            graph.add_node(ElementPattern(node_id, tag=random_tag()))
            graph.add_edge(
                ContainmentEdge(
                    root_id,
                    node_id,
                    ordered=True,
                    position=next_position(root_id),
                )
            )

    # an or-group of two single-edge branches to fresh boxes
    if rng.random() < 0.3:
        left, right = fresh("alt"), fresh("alt")
        branches = []
        for node_id in (left, right):
            graph.add_node(ElementPattern(node_id, tag=random_tag()))
            branches.append(
                (
                    ContainmentEdge(
                        root_id,
                        node_id,
                        deep=rng.random() < 0.3,
                        position=next_position(root_id),
                    ),
                )
            )
        graph.add_or_group(OrGroup(alternatives=tuple(branches)))

    # a DAG edge between existing boxes: diamonds and parallel edges make
    # the fragment cyclic, forcing the pipeline's backtracking fallback
    if rng.random() < 0.3 and len(boxes) >= 3:
        i, j = sorted(rng.sample(range(len(boxes)), 2))
        graph.add_edge(
            ContainmentEdge(
                boxes[i],
                boxes[j],
                deep=rng.random() < 0.5,
                position=next_position(boxes[i]),
            )
        )

    # a single-box predicate the pipeline can push into the candidate pool
    if rng.random() < 0.3:
        box = rng.choice(boxes)
        graph.add_condition(
            Comparison("=", AttributeOf(box, rng.choice(ATTRS)), Const(rng.choice(VALUES)))
        )

    # a detached box, sometimes tied back by a value equi-join condition
    # (hash join between fragments), sometimes left as a cross product
    if rng.random() < 0.35:
        detached = fresh("n")
        graph.add_node(ElementPattern(detached, tag=random_tag()))
        if rng.random() < 0.7:
            graph.add_condition(
                Comparison(
                    "=",
                    AttributeOf(root_id, rng.choice(ATTRS)),
                    AttributeOf(detached, rng.choice(ATTRS)),
                )
            )

    return graph


def binding_multiset(bindings):
    """Order-insensitive, identity-keyed view of a binding set."""
    return sorted(
        tuple(sorted((var, value_key(binding[var])) for var in binding))
        for binding in bindings
    )


@pytest.mark.parametrize("seed", range(80))
def test_all_engine_configs_agree(seed):
    rng = random.Random(seed)
    document = random_document(rng)
    graph = random_query(rng)
    results = [
        binding_multiset(match(graph, document, options=options))
        for options in CONFIGS
    ]
    for options, other in zip(CONFIGS[1:], results[1:]):
        assert other == results[0], (
            f"seed {seed}: {options} diverged from {CONFIGS[0]}"
        )


@pytest.mark.parametrize("seed", range(200, 230))
def test_fallback_fragments_agree(seed):
    """Shapes that force the pipeline's per-fragment fallback: an ordered
    pair on a parent that also crosses out an arc, alongside a coverable
    chain."""
    rng = random.Random(seed)
    document = random_document(rng)
    graph = QueryGraph()
    graph.add_node(ElementPattern("P", tag=rng.choice(TAGS)))
    graph.add_node(ElementPattern("O1", tag=random_tag_of(rng)))
    graph.add_node(ElementPattern("O2", tag=random_tag_of(rng)))
    graph.add_edge(ContainmentEdge("P", "O1", ordered=True, position=1))
    graph.add_edge(ContainmentEdge("P", "O2", ordered=True, position=2))
    graph.add_node(ElementPattern("N", tag=rng.choice(TAGS)))
    graph.add_edge(
        ContainmentEdge("P", "N", negated=True, deep=rng.random() < 0.5, position=3)
    )
    # a second, coverable fragment evaluated set-at-a-time alongside
    graph.add_node(ElementPattern("X", tag=rng.choice(TAGS)))
    graph.add_node(ElementPattern("Y", tag=random_tag_of(rng)))
    graph.add_edge(ContainmentEdge("X", "Y", deep=rng.random() < 0.5, position=1))
    results = [
        binding_multiset(match(graph, document, options=options))
        for options in CONFIGS
    ]
    for other in results[1:]:
        assert other == results[0], f"seed {seed} diverged on fallback shapes"


def random_tag_of(rng):
    return rng.choice(TAGS) if rng.random() < 0.8 else None


@pytest.mark.parametrize("seed", range(40, 60))
def test_interval_path_matches_naive_scan_path(seed):
    """Focused deep-arc cases: interval-sliced pools vs subtree scans."""
    rng = random.Random(seed)
    document = random_document(rng)
    graph = QueryGraph()
    graph.add_node(ElementPattern("R", tag="root", anchored=True))
    graph.add_node(ElementPattern("X", tag=rng.choice(TAGS)))
    graph.add_node(ElementPattern("Y", tag=rng.choice(TAGS + [None])))
    graph.add_edge(ContainmentEdge("R", "X", deep=True, position=1))
    graph.add_edge(ContainmentEdge("X", "Y", deep=rng.random() < 0.5, position=1))
    indexed = match(graph, document, options=ExecOptions())
    naive = match(graph, document, options=ExecOptions(engine="naive"))
    assert binding_multiset(indexed) == binding_multiset(naive)
