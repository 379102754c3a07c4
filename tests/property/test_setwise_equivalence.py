"""Equivalence of the set-at-a-time graph matcher with the backtracking one.

Two layers, mirroring how the pipeline is wired in:

* **Graph level** — hypothesis-driven: for random patterns, random data
  graphs and random :class:`MatchSpec` decorations (injective flag, path
  edges, negated edges), ``find_homomorphisms_setwise`` must produce the
  exact mapping multiset of ``find_homomorphisms``.  Injective specs and
  path/negated components exercise the fallback routes; plain forest
  components exercise the semi-join route.

* **WG-Log rule level** — seeded random instance graphs run hand-built
  rule shapes (forest rules, ∀-negated crossed edges, path edges, a
  diamond that defeats the forest test) through ``embeddings`` with all
  four ``ExecOptions.engine`` choices and both injectivity modes.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import EvalStats
from repro.graph import (
    LabeledGraph,
    MatchSpec,
    find_homomorphisms,
    find_homomorphisms_setwise,
)
from repro.wglog import InstanceGraph, embeddings, parse_rule
from repro.engine.options import ExecOptions

# -- graph level -----------------------------------------------------------------

LABELS = ["p", "q"]
EDGE_LABELS = ["x", "y"]


@st.composite
def graphs(draw, max_nodes: int = 6, max_edges: int = 8):
    g = LabeledGraph()
    count = draw(st.integers(1, max_nodes))
    for index in range(count):
        g.add_node(index, draw(st.sampled_from(LABELS)))
    for _ in range(draw(st.integers(0, max_edges))):
        g.add_edge(
            draw(st.integers(0, count - 1)),
            draw(st.integers(0, count - 1)),
            draw(st.sampled_from(EDGE_LABELS)),
        )
    return g


@st.composite
def patterns_with_specs(draw, max_nodes: int = 4):
    """A random pattern plus a random spec over its edges.

    Each edge is independently plain, a path edge or a negated edge, so
    cases cover pure-forest components (semi-join route), components with
    special edges (fallback route) and mixtures of both.
    """
    g = LabeledGraph()
    count = draw(st.integers(1, max_nodes))
    for index in range(count):
        g.add_node(f"v{index}", draw(st.sampled_from(LABELS + ["*"])))
    for _ in range(draw(st.integers(0, 4))):
        g.add_edge(
            f"v{draw(st.integers(0, count - 1))}",
            f"v{draw(st.integers(0, count - 1))}",
            draw(st.sampled_from(EDGE_LABELS)),
        )
    path_edges, negated_edges = set(), set()
    for edge in g.edges():
        role = draw(
            st.sampled_from(["plain", "plain", "plain", "path", "negated"])
        )
        if role == "path":
            path_edges.add(edge)
        elif role == "negated":
            negated_edges.add(edge)
    spec = MatchSpec(
        injective=draw(st.booleans()),
        path_edges=path_edges,
        negated_edges=negated_edges,
        narrow=draw(st.booleans()),
    )
    return g, spec


def mapping_multiset(mappings):
    return sorted(tuple(sorted(m.items())) for m in mappings)


class TestSetwiseAgainstBacktracking:
    @given(patterns_with_specs(), graphs())
    @settings(max_examples=120, deadline=None)
    def test_same_mapping_multiset(self, pattern_and_spec, data):
        pattern, spec = pattern_and_spec
        expected = mapping_multiset(find_homomorphisms(pattern, data, spec))
        actual = mapping_multiset(find_homomorphisms_setwise(pattern, data, spec))
        assert actual == expected

    @given(patterns_with_specs(), graphs())
    @settings(max_examples=40, deadline=None)
    def test_stats_route_taken(self, pattern_and_spec, data):
        """Injective runs are counted as fallbacks, never as fragments."""
        pattern, spec = pattern_and_spec
        stats = EvalStats()
        list(find_homomorphisms_setwise(pattern, data, spec, stats=stats))
        if spec.injective:
            assert stats.pipeline_fragments == 0
            assert stats.pipeline_fallbacks >= 1

    def test_forest_pattern_uses_semijoin_route(self):
        data = LabeledGraph()
        for index, label in enumerate(["p", "q", "q"]):
            data.add_node(index, label)
        data.add_edge(0, 1, "x")
        data.add_edge(0, 2, "x")
        pattern = LabeledGraph()
        pattern.add_node("a", "p")
        pattern.add_node("b", "q")
        pattern.add_edge("a", "b", "x")
        stats = EvalStats()
        found = list(
            find_homomorphisms_setwise(
                pattern, data, MatchSpec(injective=False), stats=stats
            )
        )
        assert mapping_multiset(found) == [
            (("a", 0), ("b", 1)),
            (("a", 0), ("b", 2)),
        ]
        assert stats.pipeline_fragments == 1
        assert stats.pipeline_fallbacks == 0

    def test_parallel_data_edges_do_not_duplicate_mappings(self):
        # successors() reports one entry per data edge; the relation
        # builder must dedup or the semi-join route over-counts
        data = LabeledGraph()
        data.add_node(0, "p")
        data.add_node(1, "q")
        data.add_edge(0, 1, "x")
        data.add_edge(0, 1, "x")
        pattern = LabeledGraph()
        pattern.add_node("a", "p")
        pattern.add_node("b", "q")
        pattern.add_edge("a", "b", "x")
        found = list(
            find_homomorphisms_setwise(pattern, data, MatchSpec(injective=False))
        )
        assert mapping_multiset(found) == [(("a", 0), ("b", 1))]


# -- WG-Log rule level -----------------------------------------------------------

RULES = [
    # plain forest: the semi-join route end to end
    "rule r { match { a: Doc  b: *  a -link-> b } }",
    # star: one parent, two children, still a forest
    "rule r { match { a: Doc  a -link-> b  a -index-> c } }",
    # diamond over shared endpoints: cyclic skeleton, per-fragment fallback
    "rule r { match { a: Doc  b: Doc  a -link-> b  a -index-> b } }",
    # ∀-negation: no Doc that indexes d may exist
    "rule r { match { d: Doc  no i -index-> d } construct { d.seen = 'y' } }",
    # path edge: reachability, matched by the traversal fallback
    "rule r { match { a: Doc  b: Doc  a -link*-> b } }",
    # any-label path plus a plain edge: mixed fragment
    "rule r { match { a: Doc  b: Doc  c: Doc  a -_*-> b  b -link-> c } }",
    # two disconnected fragments: cross product of their embeddings
    "rule r { match { a: Doc  b: Doc  a -link-> b  c -index-> d } }",
]

ENGINES = [
    ExecOptions(engine="pipeline"),
    ExecOptions(engine="backtracking"),
    ExecOptions(engine="naive"),
]


def random_instance(rng: random.Random) -> InstanceGraph:
    inst = InstanceGraph()
    nodes = []
    for index in range(rng.randint(2, 8)):
        label = rng.choice(["Doc", "Page"])
        node = inst.add_entity(label, f"n{index}")
        if rng.random() < 0.5:
            inst.add_slot(node, "size", rng.randint(0, 3))
        nodes.append(node)
    for _ in range(rng.randint(0, 12)):
        inst.relate(
            rng.choice(nodes), rng.choice(nodes), rng.choice(["link", "index"])
        )
    return inst


def binding_multiset(bindings):
    return sorted(tuple(sorted(b.items())) for b in bindings)


@pytest.mark.parametrize("seed", range(25))
@pytest.mark.parametrize("rule_text", RULES)
def test_wglog_engines_agree(rule_text, seed):
    rng = random.Random(seed)
    instance = random_instance(rng)
    rule = parse_rule(rule_text)
    for injective in (False, True):
        results = [
            binding_multiset(
                embeddings(rule, instance, injective=injective, options=options)
            )
            for options in ENGINES
        ]
        for options, other in zip(ENGINES[1:], results[1:]):
            assert other == results[0], (
                f"seed {seed}, injective={injective}: {options.engine} "
                f"diverged on {rule_text!r}"
            )
