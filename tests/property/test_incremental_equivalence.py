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
(a wrongly skipped batch shows up as a row-set divergence).  The query
set carries every shape of the ``write_mix`` subscription catalog — a
crossed arc, a value join through a wildcard box, an anchored deep arc,
a regex condition, a text circle under a condition — plus an or-group,
and the edit generator inserts and deletes the crossed tag under
matched parents and flips the join attributes, so the delta path's
affected sets are exercised where they are hardest to get right.
"""

import random

import pytest
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

TAGS = ["book", "article", "title", "author", "note", "publisher", "price", "last"]
ATTRS = ["year", "lang", "id", "cites"]
WORDS = ["alpha", "beta", "gamma", "delta", "50", "150"]
#: Join-attribute values: few, so ``cites`` and ``id`` meet often.
KEYS = ["k1", "k2", "k3"]

QUERIES = [
    "query { book as B { title as T } } construct { r { collect T } }",
    "query { book as B { @year as Y } where Y >= 1995 } "
    "construct { r { count(B) } }",
    "query { title as T { text as V } } construct { r { collect V } }",
    "query { book as B where B = 'alpha' } construct { r { count(B) } }",
    "query { * as X { title as T } } construct { r { count(X) } }",
    # the write_mix subscription catalog's shapes
    "query { book as B { not publisher as P } } construct { r { collect B } }",
    "query { book as B  * as C { title as T } where B.cites = C.id }"
    " construct { r { collect T } }",
    "query { root bib as R { deep last as L } } construct { r { collect L } }",
    "query { * as E { title as T } where T ~ /[a-c].*/ }"
    " construct { r { collect E } }",
    "query { book as B { price as P { text as PT } } where PT >= 100 }"
    " construct { r { collect B } }",
    "query { book as B { or { publisher as P | title as T } } }"
    " construct { r { collect B } }",
    # an ordered sibling pair: document order between unchanged nodes
    # never changes, so the delta rule holds for it
    "query { book as B { ord title as T  ord publisher as P } }"
    " construct { r { collect B } }",
]


def random_element(rng, depth=0):
    if depth <= 1 and rng.random() < 0.6:
        element = Element(rng.choice(["book", "book", "article"]))
    else:
        element = Element(rng.choice(TAGS))
    for name in ATTRS:
        if rng.random() < 0.4:
            element.attributes[name] = attribute_value(rng, name)
    if rng.random() < 0.6:
        element.append(Text(rng.choice(WORDS)))
    if depth < 2:
        for _ in range(rng.randint(0, 3 - depth)):
            element.append(random_element(rng, depth + 1))
    return element


def attribute_value(rng, name):
    if name in ("id", "cites"):
        return rng.choice(KEYS)
    return str(rng.randint(1990, 2005))


def random_entry(rng):
    """A bibliography-shaped entry: what the catalog queries match."""
    entry = Element(rng.choice(["book", "book", "article"]))
    for name in ATTRS:
        if rng.random() < 0.6:
            entry.attributes[name] = attribute_value(rng, name)
    for tag, words in (
        ("title", WORDS[:4]), ("price", WORDS[4:]), ("publisher", WORDS),
        ("last", WORDS),
    ):
        if rng.random() < 0.6:
            child = Element(tag)
            child.append(Text(rng.choice(words)))
            entry.append(child)
    return entry


def random_document(rng):
    root = Element("bib")
    for _ in range(rng.randint(2, 5)):
        if rng.random() < 0.5:
            root.append(random_entry(rng))
        else:
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
        kind = rng.randrange(7)
        target = rng.choice(live)
        if kind >= 4:
            # Biased kinds: the crossed tag under a matched parent, and
            # the value join's attributes.
            books = [e for e in live if e.tag == "book"]
            publishers = [e for e in live if e.tag == "publisher"]
            if kind == 4 and books:
                kind, target = 0, rng.choice(books)
            elif kind == 5 and publishers:
                kind, target = 1, rng.choice(publishers)
            else:
                kind = 3
        if any(anc is d for d in deleted for anc in [target, *target.ancestors()]):
            continue
        if kind == 0 and target.tag == "book" and rng.random() < 0.5:
            batch.insert_subtree(target, Element("publisher"), rng.choice([None, 0]))
        elif kind == 0:
            batch.insert_subtree(
                target,
                random_entry(rng) if target is root else random_element(rng, depth=1),
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
                target, name, rng.choice([None, attribute_value(rng, name)])
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
    st.sampled_from(["pipeline", "backtracking", "naive"]),
)
@settings(max_examples=60, deadline=None)
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


@pytest.mark.parametrize("engine", ["pipeline", "backtracking", "naive"])
@pytest.mark.parametrize("query", QUERIES)
def test_every_query_shape_tracks_scratch(query, engine):
    """Each query shape on each engine, over seeded edit scripts: the
    random choice above can leave a shape unsampled in one run."""
    rule = parse_rule(query)
    options = ExecOptions(engine=engine)
    for seed in range(16):
        rng = random.Random(seed)
        document = random_document(rng)
        session = QuerySession(
            document, options=options, indexes=DocumentIndexCache()
        )
        session._indexes.get(document)
        subscription = session.subscribe(query)
        for step in range(8):
            batch = random_batch(rng, document)
            if not len(batch):
                continue
            session.mutate(batch)
            assert subscription_rows(subscription) == scratch_rows(
                rule, document, options
            ), f"seed {seed} step {step}: diverged after {batch.ops}"


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
