"""Hypothesis property: incremental maintenance is invisible in results.

Two oracles, checked after every committed batch of a random edit script:

* **delta soundness** — a subscription's maintained row set (initial
  evaluation plus applied deltas) equals a from-scratch re-evaluation of
  the same rule over the mutated document with a fresh index, across all
  three engines;
* **index soundness** — the incrementally maintained
  :class:`~repro.engine.index.DocumentIndex` agrees with one built from
  scratch on every pool and every ancestor relation.

The generators bias edits toward the tags the queries read, so the
footprint filter's *skip* decisions are exercised as hard as its re-runs
(a wrongly skipped batch shows up as a row-set divergence).
"""

import random

from hypothesis import given, settings, strategies as st

from repro.engine import DocumentIndex
from repro.engine.cache import DocumentIndexCache
from repro.engine.mutate import MutationBatch
from repro.session import ExecOptions, QuerySession
from repro.ssd.model import Document, Element, Text
from repro.xmlgl.evaluator import rule_bindings
from repro.xmlgl.dsl import parse_rule

from repro.engine.bindings import value_key

from .test_matcher_equivalence import binding_multiset

TAGS = ["book", "article", "title", "author", "note"]
ATTRS = ["year", "lang"]
WORDS = ["alpha", "beta", "gamma", "delta"]

QUERIES = [
    "query { book as B { title as T } } construct { r { collect T } }",
    "query { book as B { @year as Y } where Y >= 1995 } "
    "construct { r { count(B) } }",
    "query { title as T { text as V } } construct { r { collect V } }",
    "query { book as B where B = 'alpha' } construct { r { count(B) } }",
    "query { * as X { title as T } } construct { r { count(X) } }",
]


def random_element(rng, depth=0):
    element = Element(rng.choice(TAGS))
    for name in ATTRS:
        if rng.random() < 0.4:
            element.attributes[name] = str(rng.randint(1990, 2005))
    if rng.random() < 0.5:
        element.append(Text(rng.choice(WORDS)))
    if depth < 2:
        for _ in range(rng.randint(0, 3 - depth)):
            element.append(random_element(rng, depth + 1))
    return element


def random_document(rng):
    root = Element("bib")
    for _ in range(rng.randint(2, 5)):
        root.append(random_element(rng, depth=1))
    document = Document()
    document.append(root)
    return document


def random_batch(rng, document):
    """One 1-2 op batch against live elements of ``document``."""
    root = document.root
    live = [root] + [e for e in root.iter() if e is not root]
    batch = MutationBatch()
    deleted = set()
    for _ in range(rng.randint(1, 2)):
        kind = rng.randrange(4)
        target = rng.choice(live)
        if any(anc is d for d in deleted for anc in [target, *target.ancestors()]):
            continue
        if kind == 0:
            batch.insert_subtree(
                target,
                random_element(rng, depth=1),
                rng.choice([None, 0]),
            )
        elif kind == 1 and target is not root:
            batch.delete_subtree(target)
            deleted.add(target)
        elif kind == 2:
            batch.update_value(target, rng.choice(WORDS + [""]))
        else:
            name = rng.choice(ATTRS)
            batch.update_attribute(
                target, name, rng.choice([None, str(rng.randint(1990, 2005))])
            )
    return batch


def scratch_rows(rule, document, options):
    """From-scratch oracle: fresh index cache, fresh evaluation."""
    bindings = rule_bindings(
        rule,
        document,
        options=options,
        indexes=DocumentIndexCache(),
    )
    return binding_multiset(bindings)


def subscription_rows(subscription):
    return binding_multiset(subscription.rows())


def assert_index_fresh(index, document):
    fresh = DocumentIndex(document)
    assert index.element_count() == fresh.element_count()
    assert index.tags() == fresh.tags()
    for tag in fresh.tags():
        assert index.elements_with_tag(tag) == fresh.elements_with_tag(tag)
    for name in ATTRS:
        assert index.elements_with_attribute(
            name
        ) == fresh.elements_with_attribute(name)
    elements = list(fresh.all_elements())
    sample = elements if len(elements) <= 12 else elements[:12]
    for a in sample:
        for b in sample:
            assert index.is_ancestor(a, b) == fresh.is_ancestor(a, b)


@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from(["pipeline", "backtracking", "adaptive"]),
)
@settings(max_examples=40, deadline=None)
def test_subscription_rows_match_scratch_reeval(seed, engine):
    rng = random.Random(seed)
    document = random_document(rng)
    query = rng.choice(QUERIES)
    rule = parse_rule(query)
    options = ExecOptions(engine=engine)
    session = QuerySession(
        document, options=options, indexes=DocumentIndexCache()
    )
    # Build the session's maintained index up front so every batch
    # exercises incremental maintenance, not a lazy rebuild.
    maintained = session._indexes.get(document)
    subscription = session.subscribe(query)
    assert subscription_rows(subscription) == scratch_rows(
        rule, document, options
    )
    for _ in range(6):
        batch = random_batch(rng, document)
        if not len(batch):
            continue
        session.mutate(batch)
        assert subscription_rows(subscription) == scratch_rows(
            rule, document, options
        ), f"seed {seed}: subscription diverged after {batch.ops}"
    assert_index_fresh(maintained, document)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_maintained_index_matches_fresh_build(seed):
    rng = random.Random(seed)
    document = random_document(rng)
    index = DocumentIndex(document)
    from repro.engine.mutate import apply_batch

    for _ in range(8):
        batch = random_batch(rng, document)
        if not len(batch):
            continue
        apply_batch(document, batch, indexes=[index])
        assert_index_fresh(index, document)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_deltas_replay_to_current_rows(seed):
    """Applying added/removed deltas to the initial rows reproduces the
    final row set — the delta stream is a faithful changelog."""
    rng = random.Random(seed)
    document = random_document(rng)
    query = rng.choice(QUERIES)
    session = QuerySession(document, indexes=DocumentIndexCache())
    subscription = session.subscribe(query)
    replayed = {
        tuple(sorted((var, value_key(b[var])) for var in b))
        for b in subscription.rows()
    }
    for _ in range(6):
        batch = random_batch(rng, document)
        if not len(batch):
            continue
        session.mutate(batch)
    for delta in subscription.poll():
        for binding in delta.removed:
            replayed.discard(
                tuple(sorted((var, value_key(binding[var])) for var in binding))
            )
        for binding in delta.added:
            replayed.add(
                tuple(sorted((var, value_key(binding[var])) for var in binding))
            )
    assert sorted(replayed) == subscription_rows(subscription)
