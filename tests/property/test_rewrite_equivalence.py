"""Hypothesis property: the static rewrite layer is invisible in results.

``rewrite_rule`` / ``rewrite_rulegraph`` may only change *how much work*
evaluation does — never what it returns.  Each draw builds a randomized
document/query pair (reusing the seeded generators of the engine
equivalence suite), **injects redundancy** the rewriter is designed to
remove — duplicate sibling branches, deep-wildcard branches subsumed by
specific ones, tautological and implied conditions — and asserts the
rewritten rule evaluates identically to the original under all three
engines.  A deterministic sweep then checks the injection actually gives
the rewriter work (the property would pass vacuously otherwise).
"""

import random

from hypothesis import given, settings, strategies as st

from repro.analysis.rewrite import rewrite_rule, rewrite_rulegraph
from repro.engine.bindings import value_key
from repro.engine.conditions import Comparison, Const, ContentOf
from repro.engine.options import ExecOptions
from repro.ssd import serialize
from repro.wglog.data import InstanceGraph
from repro.wglog.dsl import parse_wglog
from repro.wglog.semantics import query as wglog_query
from repro.xmlgl.ast import ContainmentEdge, ElementPattern
from repro.xmlgl.construct import Collect, NewElement
from repro.xmlgl.evaluator import evaluate_rule, rule_bindings
from repro.xmlgl.rule import Rule

from .test_matcher_equivalence import TAGS, random_document, random_query

ENGINES = ("pipeline", "backtracking", "adaptive")


def make_rule(graph, rng: random.Random) -> Rule:
    """Wrap a random extract graph in a rule collecting 1-2 element boxes."""
    boxes = sorted(
        node_id
        for node_id, node in graph.nodes.items()
        if isinstance(node, ElementPattern) and node_id.startswith("n")
    )
    picked = rng.sample(boxes, min(len(boxes), rng.randint(1, 2)))
    construct = NewElement(
        tag="r", children=[Collect(variable=v) for v in picked]
    )
    return Rule(queries=[graph], construct=construct, name="q")


def inject_redundancy(rule: Rule, rng: random.Random) -> Rule:
    """A semantically equal rule with extra work for the rewriter."""
    graph = rule.queries[0]
    targets = [
        edge
        for edge in graph.edges
        if not edge.negated
        and not edge.ordered
        and isinstance(graph.nodes[edge.child], ElementPattern)
    ]
    positions = max(
        (e.position for e in graph.edges if e.position is not None), default=0
    )
    for index, edge in enumerate(targets):
        roll = rng.random()
        if roll < 0.45:
            # exact duplicate branch: mutually subsumed with the original
            dup = f"dup{index}"
            graph.add_node(
                ElementPattern(dup, tag=graph.nodes[edge.child].tag)
            )
            positions += 1
            graph.add_edge(
                ContainmentEdge(
                    edge.parent, dup, deep=edge.deep, position=positions
                )
            )
        elif roll < 0.7:
            # a deep wildcard sibling: one-directionally subsumed
            dup = f"wild{index}"
            graph.add_node(ElementPattern(dup, tag=None))
            positions += 1
            graph.add_edge(
                ContainmentEdge(edge.parent, dup, deep=True, position=positions)
            )
    if rng.random() < 0.5:
        graph.add_condition(Comparison("=", Const("1"), Const("1")))
    if rng.random() < 0.3 and targets:
        # an implied pair on one box's content
        box = rng.choice(targets).parent
        graph.add_condition(Comparison("!=", ContentOf(box), Const("zzz")))
        graph.add_condition(Comparison("!=", ContentOf(box), Const("zzz")))
    return rule


def projected(bindings, variables):
    """Order-insensitive binding-set projection onto ``variables``."""
    return {
        tuple(
            (var, value_key(binding[var]))
            for var in sorted(variables)
            if var in binding
        )
        for binding in bindings
    }


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_rewritten_rule_evaluates_identically(seed):
    rng = random.Random(seed)
    document = random_document(rng)
    rule = inject_redundancy(make_rule(random_query(rng), rng), rng)
    rewritten, report = rewrite_rule(rule)
    for engine in ENGINES:
        options = ExecOptions(engine=engine)
        original = serialize(evaluate_rule(rule, document, options=options))
        after = serialize(evaluate_rule(rewritten, document, options=options))
        assert after == original, (
            f"seed {seed}, engine {engine}: rewrite changed the result "
            f"({report.describe()})"
        )


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_projected_binding_sets_preserved(seed):
    rng = random.Random(seed)
    document = random_document(rng)
    rule = inject_redundancy(make_rule(random_query(rng), rng), rng)
    rewritten, report = rewrite_rule(rule)
    shared = set(rewritten.queries[0].nodes) & set(rule.queries[0].nodes)
    before = projected(rule_bindings(rule, document), shared)
    after = projected(rule_bindings(rewritten, document), shared)
    assert after == before, (
        f"seed {seed}: projection onto surviving variables changed "
        f"({report.describe()})"
    )


def test_injection_gives_the_rewriter_work():
    # guard against a vacuous property: across a deterministic sweep the
    # injected redundancy must make the rewriter fire often
    fired = 0
    for seed in range(40):
        rng = random.Random(seed)
        random_document(rng)  # keep the rng stream aligned with the others
        rule = inject_redundancy(make_rule(random_query(rng), rng), rng)
        _, report = rewrite_rule(rule)
        if report.changed:
            fired += 1
    assert fired >= 20, f"rewriter fired on only {fired}/40 sweeps"


WG_LABELS = ["A", "B", "C"]
WG_RELS = ["r", "s"]


def random_instance(rng: random.Random) -> InstanceGraph:
    instance = InstanceGraph()
    nodes = [
        instance.add_entity(rng.choice(WG_LABELS))
        for _ in range(rng.randint(3, 8))
    ]
    for node in nodes:
        if rng.random() < 0.5:
            instance.add_slot(node, "size", rng.randint(1, 5))
    for _ in range(rng.randint(2, 10)):
        source, target = rng.choice(nodes), rng.choice(nodes)
        instance.relate(source, target, rng.choice(WG_RELS))
    return instance


def random_wglog_rule(rng: random.Random):
    """A small match-only rule with a deliberately duplicated red edge."""
    a, b = rng.choice(WG_LABELS), rng.choice(WG_LABELS)
    relation = rng.choice(WG_RELS)
    edge = f"x -{relation}-> y"
    clauses = [f"x: {a}", f"y: {b}", edge, edge]
    where = ""
    if rng.random() < 0.5:
        where = " where 1 = 1 and x.size > 2"
    source = f"rule r {{ match {{ {'  '.join(clauses)} }}{where} }}"
    _, rules = parse_wglog(source)
    return rules[0]


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_wglog_rewrite_preserves_embeddings(seed):
    rng = random.Random(seed)
    instance = random_instance(rng)
    rule = random_wglog_rule(rng)
    rewritten, report = rewrite_rulegraph(rule)
    assert report.counters.get("merged", 0) >= 1  # the duplicated edge
    variables = set(rewritten.nodes)
    for injective in (False, True):
        before = projected(
            wglog_query(rule, instance, injective=injective), variables
        )
        after = projected(
            wglog_query(rewritten, instance, injective=injective), variables
        )
        assert after == before, (
            f"seed {seed}, injective={injective}: rewrite changed the "
            f"embeddings ({report.describe()})"
        )
