"""The semi-naive fixpoint of ``apply_program`` equals the naive one.

``apply_program`` runs semi-naive rounds when every rule derives edges
from edges alone (:func:`repro.wglog.semantics.semi_naive_eligible`):
from its second application on, a rule matches only embeddings that use
an edge added since its previous application started matching.  The
oracle is naive round-robin written out with plain ``apply_rule`` calls,
every rule re-matched against the whole instance each round.

Inputs are random ``workloads.sites`` graphs with random rule sets:
chains of one to three edges over the base labels (``index``, ``link``)
and the derived ones, each deriving one edge between two of its nodes.
Mixed programs add one ineligible rule, which keeps the whole program
on naive rounds.  Final edge set, total additions and round count must
agree.
"""

from contextlib import contextmanager

from hypothesis import given, settings, strategies as st

from repro.wglog import apply_rule, semantics
from repro.wglog.dsl import parse_rule
from repro.wglog.semantics import apply_program, semi_naive_eligible
from repro.workloads.sites import site_graph

BASE_LABELS = ["link", "link", "index"]
DERIVED_LABELS = ["reach", "near"]
NODE_LABELS = ["Page", "Page", "Page", "*", "Index"]
MAX_ROUNDS = 200

#: Rules that force naive rounds: a crossed edge over a derived label, a
#: slot assertion, a condition, and a green node.
INELIGIBLE_RULES = [
    "rule odd { match { a: Page  b: Page  a -link-> b  no b -reach-> a }"
    " construct { a -near-> b } }",
    "rule mark { match { a: Page  b: Page  a -reach-> b }"
    " construct { a.hub = 'yes' } }",
    "rule big { match { a: Page  b: Page  a -link-> b }"
    " construct { a -near-> b } where a.size > 250 }",
    "rule note { match { a: Index  b: Page  a -index-> b }"
    " construct { n: Note  n -about-> b } }",
]


@st.composite
def chain_rules(draw, number: int, derived: list[str]):
    """One eligible rule: a 1-3 edge chain deriving one edge.

    The first rule of a program, and half the others, are closure-shaped:
    a forward chain of links deriving an edge between its ends.  A
    closure-shaped rule after the first is recursive: a 2-3 edge chain
    that starts with an edge an earlier rule derives (``derived``),
    continues over links or that label, and derives that same label, so
    its facts keep feeding it round after round.
    """
    closure = number == 0 or draw(st.booleans())
    recursive = closure and bool(derived)
    length = draw(st.integers(2 if recursive else 1, 3))
    nodes = [f"x{i}" for i in range(length + 1)]
    node_labels = ["*", "Page"] if closure else NODE_LABELS
    items = [f"{node}: {draw(st.sampled_from(node_labels))}" for node in nodes]
    if recursive:
        first = draw(st.sampled_from(derived))
        labels = [first] + [
            draw(st.sampled_from(["link", "link", first]))
            for _ in range(length - 1)
        ]
    elif closure:
        labels = ["link"] * length
    else:
        body_labels = BASE_LABELS + (DERIVED_LABELS if derived else [])
        labels = [draw(st.sampled_from(body_labels)) for _ in range(length)]
    for i, label in enumerate(labels):
        source, target = nodes[i], nodes[i + 1]
        if not closure and draw(st.integers(0, 3)) == 0:
            source, target = target, source
        items.append(f"{source} -{label}-> {target}")
    head_label = labels[0] if recursive else draw(st.sampled_from(DERIVED_LABELS))
    if closure:
        head_source, head_target = nodes[0], nodes[-1]
    else:
        head_source = draw(st.sampled_from(nodes))
        head_target = draw(st.sampled_from(nodes))
    return parse_rule(
        f"rule r{number} {{ match {{ {'  '.join(items)} }}"
        f" construct {{ {head_source} -{head_label}-> {head_target} }} }}"
    )


@st.composite
def programs(draw):
    """1-3 chain rules; the first reads base labels only, so something is
    derived, and the others may read what any rule derives."""
    rules: list = []
    for number in range(draw(st.sampled_from([1, 2, 3, 3]))):
        derived = sorted({rule.green_edges()[0].label for rule in rules})
        rules.append(draw(chain_rules(number, derived)))
    return rules


@contextmanager
def counted_apply_rule():
    """Count calls to the module-level ``apply_rule`` that the fixpoint
    loop makes (one per rule per round)."""
    calls = []
    original = semantics.apply_rule

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    semantics.apply_rule = counting
    try:
        yield calls
    finally:
        semantics.apply_rule = original


def naive_fixpoint(instance, rules, injective):
    total = 0
    for rounds in range(1, MAX_ROUNDS + 1):
        added = sum(apply_rule(instance, rule, injective=injective) for rule in rules)
        total += added
        if added == 0:
            return total, rounds
    raise AssertionError("naive oracle did not converge")


def edge_set(instance):
    return {(e.source, e.target, e.label) for e in instance.graph.edges()}


def assert_same_fixpoint(pages, seed, rules, injective):
    oracle = site_graph(pages, seed=seed)
    expected_total, expected_rounds = naive_fixpoint(oracle, rules, injective)
    instance = site_graph(pages, seed=seed)
    with counted_apply_rule() as calls:
        total = apply_program(
            instance, rules, injective=injective, max_rounds=MAX_ROUNDS
        )
    assert edge_set(instance) == edge_set(oracle)
    assert set(instance.graph.nodes()) == set(oracle.graph.nodes())
    assert total == expected_total
    assert len(calls) == expected_rounds * len(rules)


@given(
    pages=st.integers(6, 20),
    seed=st.integers(0, 10_000),
    rules=programs(),
    injective=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_semi_naive_equals_naive(pages, seed, rules, injective):
    assert all(semi_naive_eligible(rule) for rule in rules)
    assert_same_fixpoint(pages, seed, rules, injective)


@given(
    pages=st.integers(6, 16),
    seed=st.integers(0, 10_000),
    rules=programs(),
    extra=st.sampled_from(INELIGIBLE_RULES),
    position=st.integers(0, 3),
    injective=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_mixed_program_keeps_naive_rounds(
    pages, seed, rules, extra, position, injective
):
    extra_rule = parse_rule(extra)
    assert not semi_naive_eligible(extra_rule)
    rules = rules[:position] + [extra_rule] + rules[position:]
    assert_same_fixpoint(pages, seed, rules, injective)
