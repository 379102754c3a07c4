"""Equivalence of the set-at-a-time graph matcher with the backtracking one.

Two layers, mirroring how the pipeline is wired in:

* **Graph level** — hypothesis-driven: for random patterns, random data
  graphs and random :class:`MatchSpec` decorations (injective flag, path
  edges), ``find_homomorphisms_setwise`` must produce the exact mapping
  multiset of ``find_homomorphisms``.  Path-edge components exercise the
  breadth-first path relation, plain forest components the semi-join
  route, and injective specs the row filter over either.

* **WG-Log rule level** — seeded random instance graphs run hand-built
  rule shapes (forest rules, ∀-negated crossed edges, path edges, a
  diamond whose second edge closes a cycle) through ``embeddings`` with all
  three ``ExecOptions.engine`` choices and both injectivity modes.

* **Anti-join and injective routes** — rules whose crossed edges run as
  anti-joins (a far node under two crossed edges, a crossed path edge, a
  wildcard far node, pairwise direct, path and self-loop edges) and an
  injective rule over self-links, on every engine, against a brute-force
  reading of G-Log's definition.
"""

import random
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import EvalStats
from repro.graph import (
    LabeledGraph,
    MatchSpec,
    find_homomorphisms,
    find_homomorphisms_setwise,
)
from repro.graph.traversal import reachable_by_labels
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

    Each edge is independently plain or a path edge, so cases cover
    pure-forest components, components with path edges (relations built
    by breadth-first search) and mixtures of both.
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
    path_edges = set()
    for edge in g.edges():
        role = draw(st.sampled_from(["plain", "plain", "plain", "path"]))
        if role == "path":
            path_edges.add(edge)
    spec = MatchSpec(
        injective=draw(st.booleans()),
        path_edges=path_edges,
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
        """Injectivity routes like a homomorphism run, then filters rows.

        An injective run takes the same per-component routes (pipeline
        fragments and fallbacks) as its homomorphic twin, never a
        wholesale fallback, and ``injective_dropped`` counts exactly the
        homomorphisms it discarded.
        """
        pattern, spec = pattern_and_spec
        stats = EvalStats()
        found = list(find_homomorphisms_setwise(pattern, data, spec, stats=stats))
        plain_stats = EvalStats()
        plain = list(
            find_homomorphisms_setwise(
                pattern, data, replace(spec, injective=False), stats=plain_stats
            )
        )
        assert "fallback_injective" not in stats.extra
        assert stats.pipeline_fragments == plain_stats.pipeline_fragments
        assert stats.pipeline_fallbacks == plain_stats.pipeline_fallbacks
        dropped = stats.extra.get("injective_dropped", 0)
        if spec.injective:
            assert dropped == len(plain) - len(found)
        else:
            assert dropped == 0

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
    # diamond over shared endpoints: the second edge filters the joined rows
    "rule r { match { a: Doc  b: Doc  a -link-> b  a -index-> b } }",
    # ∀-negation: no Doc that indexes d may exist
    "rule r { match { d: Doc  no i -index-> d } construct { d.seen = 'y' } }",
    # path edge: reachability, a relation built by breadth-first search
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


# -- anti-join and injective routes against the definition -------------------------

#: Rules whose crossed edges run as one anti-join each (∀-negated
#: fragments and pairwise edges alike), or whose injectivity is a row
#: filter over homomorphism rows.
ANTI_JOIN_RULES = [
    # one far node under two crossed edges: each is its own ∀-negation
    "rule r { match { d: Doc  no i -index-> d  no i -link-> d }"
    " construct { d.seen = 'y' } }",
    # a crossed path edge: no Page reaches p through links
    "rule r { match { p: Doc  q: Page  no q -link*-> p }"
    " construct { p.seen = 'y' } }",
    # injective matching over self-links: a may not be its own target
    "rule r { match { a: Doc  b: *  a -link-> b } }",
    # a wildcard far node: no entity of any type links to d
    "rule r { match { d: Page  i: *  no i -link-> d }"
    " construct { d.seen = 'y' } }",
    # pairwise: both ends positively bound, an anti-join with no fragment
    "rule r { match { a: Doc  b: *  a -link-> b  no b -index-> a } }",
    # a pairwise crossed path edge: b must not reach a through links
    "rule r { match { a: Doc  b: *  a -link-> b  no b -link*-> a } }",
    # a pairwise crossed self-loop: a must not index itself
    "rule r { match { a: *  b: Page  a -link-> b  no a -index-> a } }",
]


def instance_with_self_links(rng: random.Random) -> InstanceGraph:
    instance = random_instance(rng)
    for node in instance.entities():
        if rng.random() < 0.4:
            instance.relate(node, node, "link")
    return instance


def _holds(instance: InstanceGraph, edge, source, target) -> bool:
    if edge.path:
        return target in reachable_by_labels(
            instance.graph, source, edge_label=edge.label or None
        )
    return instance.has_relationship(source, target, edge.label)


def definition_embeddings(rule, instance: InstanceGraph, injective: bool):
    """Embeddings by G-Log's definition, by brute force over entities.

    Nodes that appear only behind crossed edges are ∀-quantified inside
    their edge's negation; every other red node is bound.
    """
    positive = [e for e in rule.red_edges() if not e.crossed]
    bound = sorted(
        {n for e in positive for n in (e.source, e.target)}
        | {a.node for a in rule.slot_assertions}
    )

    def candidates(node_id):
        label = rule.nodes[node_id].label
        return [
            n for n in instance.entities() if label is None or instance.label(n) == label
        ]

    found = []
    for values in product(*(candidates(n) for n in bound)):
        row = dict(zip(bound, values))
        if injective and len(set(values)) < len(values):
            continue
        if not all(_holds(instance, e, row[e.source], row[e.target]) for e in positive):
            continue
        blocked = False
        for edge in (e for e in rule.red_edges() if e.crossed):
            far = edge.source if edge.source not in row else edge.target
            if far in row:  # both ends bound: pairwise negation
                blocked = _holds(instance, edge, row[edge.source], row[edge.target])
            else:
                near = edge.target if far == edge.source else edge.source
                for value in candidates(far):
                    if injective and value == row[near]:
                        continue
                    ends = {far: value, near: row[near]}
                    if _holds(instance, edge, ends[edge.source], ends[edge.target]):
                        blocked = True
                        break
            if blocked:
                break
        if not blocked:
            found.append(row)
    return found


@pytest.mark.parametrize("seed", range(25))
@pytest.mark.parametrize("rule_text", ANTI_JOIN_RULES)
def test_anti_join_and_injective_routes_match_definition(rule_text, seed):
    instance = instance_with_self_links(random.Random(seed))
    rule = parse_rule(rule_text)
    for injective in (False, True):
        expected = binding_multiset(definition_embeddings(rule, instance, injective))
        for options in ENGINES:
            actual = binding_multiset(
                embeddings(rule, instance, injective=injective, options=options)
            )
            assert actual == expected, (
                f"seed {seed}, injective={injective}: {options.engine} "
                f"diverged on {rule_text!r}"
            )
