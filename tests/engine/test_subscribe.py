"""Continuous queries (repro.engine.subscribe): footprints, deltas, skips."""

import threading

import pytest

from repro.engine.cache import DocumentIndexCache
from repro.engine.limits import QueryBudget
from repro.engine.mutate import MutationBatch, TouchedRegion
from repro.engine.options import ExecOptions
from repro.engine.subscribe import MAX_PENDING, QueryFootprint
from repro.errors import BudgetExceeded, ReproError
from repro.session import QuerySession
from repro.ssd import parse_document
from repro.ssd.model import Element, Text
from repro.workloads import bibliography
from repro.xmlgl.dsl import parse_rule
from repro.xmlgl.evaluator import rule_bindings

DOC = (
    '<bib>'
    '<book year="1999"><title>A</title></book>'
    '<book year="2000"><title>B</title></book>'
    '<article><title>C</title></article>'
    '</bib>'
)

BOOKS = "query { book as B { title as T } } construct { r { collect T } }"


def book(text, year):
    element = Element("book", attributes={"year": year})
    title = Element("title")
    title.append(Text(text))
    element.append(title)
    return element


class TestQueryFootprint:
    def test_tags_and_attributes(self):
        rule = parse_rule(
            "query { book as B { @year as Y  title as T } } "
            "construct { r { collect T } }"
        )
        footprint = QueryFootprint.of_rule(rule)
        assert not footprint.wildcard
        assert {"book", "title"} <= footprint.tags
        assert "year" in footprint.attributes

    def test_wildcard(self):
        rule = parse_rule("query { * as X } construct { r { count(X) } }")
        assert QueryFootprint.of_rule(rule).wildcard

    def test_text_circle_sets_immediate(self):
        rule = parse_rule(
            "query { title as T { text as V } } construct { r { collect V } }"
        )
        footprint = QueryFootprint.of_rule(rule)
        assert footprint.uses_immediate_text

    def test_condition_content_read_sets_both_text_flags(self):
        rule = parse_rule(
            "query { book as B where B = 'x' } construct { r { count(B) } }"
        )
        footprint = QueryFootprint.of_rule(rule)
        assert footprint.uses_immediate_text and footprint.uses_deep_text

    def test_condition_attribute_read_collected(self):
        rule = parse_rule(
            "query { book as B where B.year >= 1999 } "
            "construct { r { count(B) } }"
        )
        assert "year" in QueryFootprint.of_rule(rule).attributes


class TestAffectedBy:
    FOOTPRINT = QueryFootprint(
        tags=frozenset({"book", "title"}),
        attributes=frozenset({"year"}),
        uses_deep_text=True,
    )

    def test_structural_hit_on_tag(self):
        touched = TouchedRegion(
            tags=frozenset({"book"}), structural=True, values_changed=True
        )
        assert self.FOOTPRINT.affected_by(touched)

    def test_structural_miss_on_unrelated_tag(self):
        touched = TouchedRegion(
            tags=frozenset({"author"}),
            ancestor_tags=frozenset({"bib"}),
            structural=True,
            values_changed=True,
        )
        assert not self.FOOTPRINT.affected_by(touched)

    def test_attribute_intersection(self):
        touched = TouchedRegion(
            tags=frozenset({"article"}), attributes=frozenset({"year"})
        )
        assert self.FOOTPRINT.affected_by(touched)

    def test_deep_text_sees_edit_under_matched_ancestor(self):
        # A value edit on some <note> below a <book>: no footprint tag was
        # touched directly, but the book's recursive text changed.
        touched = TouchedRegion(
            tags=frozenset({"note"}),
            ancestor_tags=frozenset({"bib", "book"}),
            values_changed=True,
        )
        assert self.FOOTPRINT.affected_by(touched)

    def test_immediate_text_ignores_ancestor_chain(self):
        footprint = QueryFootprint(
            tags=frozenset({"book"}), uses_immediate_text=True
        )
        touched = TouchedRegion(
            tags=frozenset({"note"}),
            ancestor_tags=frozenset({"book"}),
            values_changed=True,
        )
        assert not footprint.affected_by(touched)

    def test_wildcard_sees_every_structural_edit(self):
        footprint = QueryFootprint(wildcard=True)
        assert footprint.affected_by(TouchedRegion(structural=True))
        assert not footprint.affected_by(TouchedRegion(values_changed=True))


class TestSubscription:
    def make(self, query=BOOKS):
        session = QuerySession(parse_document(DOC))
        return session, session.subscribe(query)

    def test_initial_rows_are_live(self):
        _, subscription = self.make()
        assert len(subscription.rows()) == 2
        assert subscription.evals == 1

    def test_relevant_insert_produces_added_delta(self):
        session, subscription = self.make()
        result = session.mutate(
            MutationBatch().insert_subtree(
                session._sources.root, book("D", "2001")
            )
        )
        deltas = subscription.poll()
        assert len(deltas) == 1
        assert deltas[0].revision == result.doc_revision
        assert len(deltas[0].added) == 1 and not deltas[0].removed
        assert len(subscription.rows()) == 3

    def test_delete_produces_removed_delta(self):
        session, subscription = self.make()
        target = session._sources.root.child_elements()[0]
        session.mutate(MutationBatch().delete_subtree(target))
        [delta] = subscription.poll()
        assert len(delta.removed) == 1 and not delta.added

    def test_irrelevant_mutation_is_skipped_without_eval(self):
        session, subscription = self.make()
        evals = subscription.evals
        session.mutate(
            MutationBatch().insert_subtree(
                session._sources.root, Element("journal")
            )
        )
        assert subscription.skips == 1
        assert subscription.evals == evals
        assert subscription.poll() == []
        # But the subscription still observed the commit.
        assert subscription.last_revision == 1

    def test_deltas_queue_in_revision_order(self):
        session, subscription = self.make()
        root = session._sources.root
        session.mutate(MutationBatch().insert_subtree(root, book("D", "2001")))
        session.mutate(MutationBatch().insert_subtree(root, book("E", "2002")))
        revisions = [delta.revision for delta in subscription.poll()]
        assert revisions == sorted(revisions) and len(revisions) == 2

    def test_wait_blocks_until_commit(self):
        session, subscription = self.make()
        root = session._sources.root

        def commit():
            session.mutate(
                MutationBatch().insert_subtree(root, book("D", "2001"))
            )

        thread = threading.Thread(target=commit)
        thread.start()
        deltas = subscription.wait(timeout=5.0)
        thread.join()
        assert len(deltas) == 1

    def test_wait_pending_does_not_drain(self):
        session, subscription = self.make()
        session.mutate(
            MutationBatch().insert_subtree(
                session._sources.root, book("D", "2001")
            )
        )
        assert subscription.wait_pending(timeout=0.1)
        assert subscription.pending == 1  # still queued
        assert len(subscription.poll()) == 1

    def test_wait_pending_times_out_false(self):
        _, subscription = self.make()
        assert not subscription.wait_pending(timeout=0.01)

    def test_close_wakes_waiters_and_stops_observing(self):
        session, subscription = self.make()
        waited = []

        def wait():
            waited.append(subscription.wait(timeout=5.0))

        thread = threading.Thread(target=wait)
        thread.start()
        subscription.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert waited == [[]]
        assert (
            subscription.notify(
                session.mutate(
                    MutationBatch().insert_subtree(
                        session._sources.root, book("D", "2001")
                    )
                )
            )
            is None
        )

    def test_unsubscribe_detaches(self):
        session, subscription = self.make()
        assert session.unsubscribe(subscription)
        assert subscription.closed
        assert not session.unsubscribe(subscription)
        assert session.subscriptions() == []

    def test_attribute_flip_moves_rows(self):
        session = QuerySession(parse_document(DOC))
        subscription = session.subscribe(
            "query { book as B { @year as Y } where Y >= 2000 } "
            "construct { r { count(B) } }"
        )
        assert len(subscription.rows()) == 1
        target = session._sources.root.child_elements()[0]  # year=1999
        session.mutate(MutationBatch().update_attribute(target, "year", "2005"))
        [delta] = subscription.poll()
        assert len(delta.added) == 1
        assert len(subscription.rows()) == 2

    def test_value_edit_reaches_deep_text_condition(self):
        session = QuerySession(parse_document(DOC))
        subscription = session.subscribe(
            "query { book as B where B = 'A' } construct { r { count(B) } }"
        )
        assert len(subscription.rows()) == 1
        title = session._sources.root.child_elements()[1].child_elements()[0]
        session.mutate(MutationBatch().update_value(title, "A"))
        [delta] = subscription.poll()
        assert len(delta.added) == 1

    def test_describe_mentions_counters(self):
        _, subscription = self.make()
        text = subscription.describe()
        assert "rows" in text and "evals" in text and "skips" in text


class TestSessionWiring:
    def test_multi_document_mutation_needs_source_name(self):
        session = QuerySession(
            {"a": parse_document(DOC), "b": parse_document(DOC)}
        )
        with pytest.raises(ReproError, match="name the mutation"):
            session.mutate(MutationBatch())
        with pytest.raises(ReproError, match="unknown source"):
            session.mutate(MutationBatch(), source="c")

    def test_named_source_mutation(self):
        docs = {"a": parse_document(DOC), "b": parse_document(DOC)}
        session = QuerySession(docs)
        subscription = session.subscribe(
            "query a { book as B } construct { r { count(B) } }"
        )
        session.mutate(
            MutationBatch().insert_subtree(docs["a"].root, book("D", "2001")),
            source="a",
        )
        [delta] = subscription.poll()
        assert len(delta.added) == 1


ALL_BOOKS = "query { book as B } construct { r { collect B } }"


class TestFailureIsolation:
    def test_failed_reevaluation_closes_only_that_subscription(self):
        session = QuerySession(parse_document(DOC))
        capped = session.subscribe(
            ALL_BOOKS,
            options=ExecOptions(budget=QueryBudget(max_bindings=2)),
        )
        plain = session.subscribe(ALL_BOOKS)
        waited = []
        waiter = threading.Thread(
            target=lambda: waited.append(capped.wait(timeout=5.0))
        )
        waiter.start()
        result = session.mutate(
            MutationBatch().insert_subtree(
                session._sources.root, book("D", "2001")
            )
        )
        waiter.join(timeout=5.0)
        assert not waiter.is_alive() and waited == [[]]
        assert result.doc_revision == 1
        # The budget trips as a full run's would, and only closes its
        # own subscription; the other still sees the commit.
        assert capped.closed and isinstance(capped.error, BudgetExceeded)
        assert capped.error.limit == "max_bindings"
        assert "BudgetExceeded" in capped.describe()
        assert plain.last_revision == 1 and len(plain.rows()) == 3
        assert not plain.closed and plain.error is None
        [delta] = plain.poll()
        assert len(delta.added) == 1
        # Later commits skip the closed subscription without raising.
        session.mutate(
            MutationBatch().insert_subtree(
                session._sources.root, book("E", "2002")
            )
        )
        assert len(plain.rows()) == 4

    def test_partial_budget_rows_equal_a_full_run(self):
        budget = QueryBudget(max_bindings=2, on_limit="partial")
        document = parse_document(DOC)
        session = QuerySession(document, indexes=DocumentIndexCache())
        subscription = session.subscribe(
            ALL_BOOKS, options=ExecOptions(budget=budget)
        )
        root = document.root
        for title in ("D", "E"):
            session.mutate(MutationBatch().insert_subtree(root, book(title, "2001")))
            expected = rule_bindings(
                subscription.rule, document, budget=budget,
                indexes=DocumentIndexCache(),
            )
            assert {b.key() for b in subscription.rows()} == {
                b.key() for b in expected
            }
        assert subscription.fallbacks == {
            "delta_fallback_budget": 1, "delta_fallback_truncated": 1,
        }
        assert not subscription.closed


class TestDeltaRoute:
    def test_relevant_commits_take_the_delta_rule(self):
        session, subscription = self.make_books()
        root = session._sources.root
        session.mutate(MutationBatch().insert_subtree(root, book("D", "2001")))
        session.mutate(MutationBatch().delete_subtree(root.child_elements()[0]))
        assert subscription.delta_evals == 2 and subscription.full_evals == 0
        assert subscription.fallbacks == {}
        assert "2 delta, 0 full" in subscription.describe()

    def make_books(self):
        session = QuerySession(parse_document(DOC))
        return session, session.subscribe(BOOKS)

    def test_ordered_arcs_take_the_delta_route(self):
        # document order between unchanged nodes never changes, so the
        # delta rule holds for ordered arcs too
        session = QuerySession(parse_document(DOC))
        subscription = session.subscribe(
            "query { book as B { ord title as T  ord author as A } }"
            " construct { r { collect B } }"
        )
        in_order, reversed_ = book("D", "2001"), book("E", "2002")
        in_order.append(Element("author"))
        reversed_.insert(0, Element("author"))
        root = session._sources.root
        session.mutate(
            MutationBatch()
            .insert_subtree(root, in_order)
            .insert_subtree(root, reversed_)
        )
        assert subscription.fallbacks == {}
        assert subscription.full_evals == 0 and subscription.delta_evals == 1
        assert "1 delta, 0 full" in subscription.describe()
        (delta,) = subscription.poll()
        assert [b["B"] for b in delta.added] == [in_order] and not delta.removed

    @pytest.mark.parametrize(
        "query",
        [
            "query { book as B { @year as Y } } construct { r { collect B } }",
            "query { root bib as R { deep last as L } }"
            " construct { r { collect L } }",
            "query { book as B { not publisher as P } }"
            " construct { r { collect B } }",
        ],
        ids=["year_attr", "deep_last", "no_publisher"],
    )
    def test_delta_work_follows_the_touched_size(self, query):
        """The same entry insert costs the same matching work whether the
        bibliography holds 150 or 1,500 entries."""
        work = []
        for entries in (150, 1500):
            document = bibliography(entries, seed=1)
            session = QuerySession(document, indexes=DocumentIndexCache())
            subscription = session.subscribe(query)
            entry = parse_document(
                "<book year='1999' id='new'><title>T</title>"
                "<author><first>A</first><last>X</last></author>"
                "<price>12.00</price></book>"
            ).root
            entry.parent = None
            session.mutate(MutationBatch().insert_subtree(document.root, entry))
            assert subscription.delta_evals == 1
            [delta] = subscription.poll()
            assert len(delta.added) == 1
            stats = subscription.last_stats
            work.append(
                stats.candidates_tried + stats.relation_pairs + stats.hashjoin_rows
            )
        small, large = work
        assert 0 < large <= 2 * small


class TestPendingBound:
    def test_overflow_collapses_into_one_resync_delta(self):
        session = QuerySession(parse_document(DOC))
        subscription = session.subscribe(ALL_BOOKS)
        root = session._sources.root
        for position in range(MAX_PENDING + 1):
            session.mutate(
                MutationBatch().insert_subtree(root, book(str(position), "2001"))
            )
        [delta] = subscription.poll()
        assert delta.resync and not delta.removed
        assert delta.revision == MAX_PENDING + 1
        assert [b.key() for b in delta.added] == [
            b.key() for b in subscription.rows()
        ]
        assert len(delta.added) == 2 + MAX_PENDING + 1
        # Deltas after a resync queue behind it as usual.
        session.mutate(MutationBatch().insert_subtree(root, book("x", "2001")))
        [after] = subscription.poll()
        assert not after.resync and len(after.added) == 1
