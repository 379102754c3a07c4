"""Unit tests for the construct side (plain box / triangle / list icon)."""

import pytest

from repro.engine import Binding, BindingSet, DocumentIndex
from repro.engine.cache import DocumentIndexCache
from repro.engine.mutate import MutationBatch
from repro.engine.stats import EvalStats
from repro.errors import EvaluationError, QueryStructureError
from repro.session import QuerySession
from repro.ssd import E, navigation, parse_document, serialize
from repro.ssd.model import Element, Text
from repro.workloads import bibliography
from repro.xmlgl import (
    Aggregate,
    aggregate,
    attribute_const,
    attribute_from,
    build,
    collect,
    copy_of,
    elem,
    evaluate_program,
    evaluate_rule,
    group,
    rule_bindings,
    text,
    value_of,
)
from repro.xmlgl.dsl import parse_program, parse_rule


def bindings_for_books():
    b1 = E("book", {"year": "1994"}, E("title", "T1"))
    b2 = E("book", {"year": "2000"}, E("title", "T2"))
    root = E("bib")  # attach so document order is defined
    root.append(b1)
    root.append(b2)
    return BindingSet(
        [
            Binding({"B": b1, "T": b1.find("title"), "Y": "1994"}),
            Binding({"B": b2, "T": b2.find("title"), "Y": "2000"}),
        ]
    )


class TestPlainBox:
    def test_single_element(self):
        result = build(elem("result"), BindingSet())
        assert serialize(result) == "<result/>"

    def test_constant_attributes_and_text(self):
        result = build(
            elem("r", text("hi"), attrs=[attribute_const("k", "v")]),
            BindingSet(),
        )
        assert serialize(result) == '<r k="v">hi</r>'

    def test_for_each_replication(self):
        result = build(
            elem("r", elem("entry", for_each=["B"])),
            bindings_for_books(),
        )
        assert serialize(result) == "<r><entry/><entry/></r>"

    def test_for_each_with_content(self):
        result = build(
            elem("r", elem("entry", value_of("Y"), for_each=["B"])),
            bindings_for_books(),
        )
        assert serialize(result) == "<r><entry>1994</entry><entry>2000</entry></r>"

    def test_attribute_from_variable(self):
        result = build(
            elem("r", elem("e", attrs=[attribute_from("y", "Y")], for_each=["B"])),
            bindings_for_books(),
        )
        assert serialize(result) == '<r><e y="1994"/><e y="2000"/></r>'

    def test_sort_by(self):
        result = build(
            elem(
                "r",
                elem("e", value_of("Y"), for_each=["B"], sort_by="Y"),
            ),
            BindingSet(list(reversed(list(bindings_for_books())))),
        )
        assert serialize(result) == "<r><e>1994</e><e>2000</e></r>"

    def test_root_replication_rejected(self):
        with pytest.raises(QueryStructureError):
            build(elem("r", for_each=["B"]), bindings_for_books())


class TestCopies:
    def test_deep_copy(self):
        result = build(elem("r", copy_of("T")), BindingSet([bindings_for_books()[0]]))
        assert serialize(result) == "<r><title>T1</title></r>"

    def test_shallow_copy(self):
        result = build(
            elem("r", copy_of("B", deep=False)),
            BindingSet([bindings_for_books()[0]]),
        )
        assert serialize(result) == '<r><book year="1994"/></r>'

    def test_copy_does_not_steal_source(self):
        bindings = bindings_for_books()
        book = bindings[0]["B"]
        build(elem("r", copy_of("B")), BindingSet([bindings[0]]))
        assert book.parent is not None  # original still attached

    def test_collect_document_order(self):
        result = build(elem("r", collect("B", deep=False)), bindings_for_books())
        assert serialize(result) == '<r><book year="1994"/><book year="2000"/></r>'

    def test_collect_distinct(self):
        base = bindings_for_books()
        doubled = base.union(base)  # same element identities twice
        result = build(elem("r", collect("B", deep=False)), doubled)
        assert len(result.child_elements()) == 2

    def test_copy_of_string_binding_is_text(self):
        result = build(elem("r", copy_of("Y")), bindings_for_books())
        assert result.text_content() == "19942000"


class TestValueOf:
    def test_single_value(self):
        result = build(
            elem("r", value_of("T")),
            BindingSet([bindings_for_books()[0]]),
        )
        assert result.text_content() == "T1"

    def test_unbound_raises(self):
        with pytest.raises(EvaluationError, match="unbound"):
            build(elem("r", value_of("Z")), bindings_for_books())

    def test_ambiguous_raises(self):
        with pytest.raises(EvaluationError, match="functionally determined"):
            build(elem("r", value_of("Y")), bindings_for_books())


class TestGroupBy:
    def make_bindings(self):
        rows = []
        for year, title in (("1999", "A"), ("1999", "B"), ("2000", "C")):
            rows.append(Binding({"Y": year, "T": E("title", title)}))
        return BindingSet(rows)

    def test_groups_splice_children(self):
        result = build(
            elem(
                "r",
                group(["Y"], elem("year-group", value_of("Y"))),
            ),
            self.make_bindings(),
        )
        assert serialize(result) == (
            "<r><year-group>1999</year-group><year-group>2000</year-group></r>"
        )

    def test_group_members_visible(self):
        result = build(
            elem("r", group(["Y"], elem("g", aggregate("count", "T")))),
            self.make_bindings(),
        )
        assert serialize(result) == "<r><g>2</g><g>1</g></r>"


class TestAggregates:
    def prices(self):
        return BindingSet(
            [Binding({"P": "10"}), Binding({"P": "20"}), Binding({"P": "30"})]
        )

    def test_count(self):
        result = build(elem("r", aggregate("count", "P")), self.prices())
        assert result.text_content() == "3"

    def test_count_distinct(self):
        doubled = self.prices().union(self.prices())
        result = build(elem("r", aggregate("count", "P")), doubled)
        assert result.text_content() == "3"

    def test_sum_min_max_avg(self):
        for function, expected in (
            ("sum", "60"), ("min", "10"), ("max", "30"), ("avg", "20")
        ):
            result = build(elem("r", aggregate(function, "P")), self.prices())
            assert result.text_content() == expected, function

    def test_avg_non_integer(self):
        bindings = BindingSet([Binding({"P": "1"}), Binding({"P": "2"})])
        result = build(elem("r", aggregate("avg", "P")), bindings)
        assert result.text_content() == "1.5"

    def test_duplicate_atoms_counted_per_row(self):
        # two books with the same price: SUM sees both, COUNT DISTINCT one
        bindings = BindingSet(
            [Binding({"P": "9.99"}), Binding({"P": "9.99"})]
        )
        total = build(elem("r", aggregate("sum", "P")), bindings)
        assert total.text_content() == "19.98"
        count = build(elem("r", aggregate("count", "P")), bindings)
        assert count.text_content() == "1"

    def test_duplicate_elements_deduped_by_identity(self):
        price = E("price", "5")
        bindings = BindingSet([Binding({"P": price}), Binding({"P": price})])
        total = build(elem("r", aggregate("sum", "P")), bindings)
        assert total.text_content() == "5"

    def test_sum_over_elements_uses_content(self):
        bindings = BindingSet(
            [Binding({"P": E("price", "5")}), Binding({"P": E("price", "7")})]
        )
        result = build(elem("r", aggregate("sum", "P")), bindings)
        assert result.text_content() == "12"

    def test_empty_context(self):
        empty = BindingSet()
        assert build(elem("r", aggregate("count", "P")), empty).text_content() == "0"
        assert build(elem("r", aggregate("sum", "P")), empty).text_content() == "0"
        assert build(elem("r", aggregate("min", "P")), empty).text_content() == ""

    def test_non_numeric_raises(self):
        bindings = BindingSet([Binding({"P": "abc"})])
        with pytest.raises(EvaluationError):
            build(elem("r", aggregate("sum", "P")), bindings)

    def test_unknown_function_rejected(self):
        with pytest.raises(EvaluationError):
            Aggregate("median", "P")


# -- document order comes from the index's labels ----------------------------

CITES_BIB = (
    "<bib>"
    '<book id="b1" year="1994"><title>TCP/IP</title></book>'
    '<book id="b2" year="2000" cites="b3"><title>Data on the Web</title></book>'
    '<article id="a1" year="1999" cites="b2"><title>Graphical Queries</title></article>'
    '<book id="b3" year="1999" cites="b1"><title>Economics</title></book>'
    "</bib>"
)

#: The cited titles, collected after a value join.  The join's rows follow
#: the citing book, so only construct's sort puts the titles in document
#: order.
CITED_TITLES = (
    "query { book as B  * as C { title as T } where B.cites = C.id }"
    " construct { r { collect T } }"
)
ALL_TITLES = "query { title as T } construct { r { collect T } }"


def entry(identifier, cites):
    element = Element("book", attributes={"id": identifier, "cites": cites})
    title = Element("title")
    title.append(Text(identifier.upper()))
    element.append(title)
    return element


def session_with_index(document):
    """A session over ``document`` whose index is built, so commits maintain it."""
    indexes = DocumentIndexCache()
    session = QuerySession(document, indexes=indexes)
    session.run(ALL_TITLES)
    return session, indexes.get(document)


def assert_same_as_fresh(session, document):
    """Collect output over the maintained index equals a fresh parse's,
    and lists the titles in the order a walk of the document meets them."""
    fresh = QuerySession(
        parse_document(serialize(document)), indexes=DocumentIndexCache()
    )
    walked = [title.text_content() for title in document.iter("title")]
    for query in (CITED_TITLES, ALL_TITLES):
        result = session.run(query)
        assert serialize(result) == serialize(fresh.run(query))
        collected = [title.text_content() for title in result.root.child_elements()]
        assert collected == [text for text in walked if text in collected]


class TestOrderAfterMutation:
    def test_order_survives_relabels(self):
        document = parse_document(CITES_BIB)
        session, index = session_with_index(document)
        for i in range(12):
            # Always at the front, so the gap after the root's label shrinks
            # until it is exhausted; the cites form a permutation, so the
            # join's rows reach the new titles out of document order.
            session.mutate(
                MutationBatch().insert_subtree(
                    document.root, entry(f"n{i}", f"n{i * 5 % 12}"), 0
                )
            )
            assert_same_as_fresh(session, document)
        assert index.maintenance_counters()["relabels"] >= 1

    def test_order_with_inserts_between_labels(self):
        document = parse_document(CITES_BIB)
        session, index = session_with_index(document)
        for position, identifier, cites in (
            (1, "m1", "m3"), (3, "m2", "b1"), (5, "m3", "m2"),
        ):
            session.mutate(
                MutationBatch().insert_subtree(
                    document.root, entry(identifier, cites), position
                )
            )
            assert_same_as_fresh(session, document)
        # a second title inside the article, after its first one
        article = document.root.find("article")
        extra = Element("title")
        extra.append(Text("Addendum"))
        session.mutate(MutationBatch().insert_subtree(article, extra))
        assert_same_as_fresh(session, document)
        assert index.maintenance_counters()["relabels"] == 0


REVIEWS = (
    "<reviews>"
    '<review of="b3"><title>On Economics</title></review>'
    '<review of="b1"><title>On TCP/IP</title></review>'
    '<review of="b3"><title>Economics again</title></review>'
    "</reviews>"
)


class TestMultiDocumentOrder:
    """Tree rank by first appearance, then pre: the pinned outputs."""

    def test_two_source_join(self):
        session = QuerySession(
            {"bib": parse_document(CITES_BIB), "reviews": parse_document(REVIEWS)},
            indexes=DocumentIndexCache(),
        )
        result = session.run(
            "query reviews { review as R { @of as O  title as RT } }"
            " query bib { book as B { @id as I  title as T } }"
            " where O = I"
            " construct { r { collect T  collect RT"
            "  entry for B sortby I { copy T  collect RT } } }"
        )
        assert serialize(result) == (
            "<r><title>TCP/IP</title><title>Economics</title>"
            "<title>On Economics</title><title>On TCP/IP</title>"
            "<title>Economics again</title>"
            "<entry><title>TCP/IP</title><title>On TCP/IP</title></entry>"
            "<entry><title>Economics</title><title>On Economics</title>"
            "<title>Economics again</title></entry></r>"
        )

    def test_chained_rule_collects_from_earlier_result(self):
        program = parse_program(
            """
            chained
            rule cited {
              query input { book as B  * as C { title as T } where B.cites = C.id }
              construct { cited { collect T } }
            }
            rule out {
              query cited { title as X }
              query input { article as A { title as AT } }
              construct { both { collect AT  collect X } }
            }
            """
        )
        result = evaluate_program(program, parse_document(CITES_BIB))
        assert serialize(result) == (
            "<result><cited><title>TCP/IP</title><title>Economics</title></cited>"
            "<both><title>Graphical Queries</title><title>TCP/IP</title>"
            "<title>Economics</title></both></result>"
        )


class TestIndexHandoff:
    def test_construct_reuses_the_matched_index_uncounted(self):
        document = parse_document(CITES_BIB)
        cache = DocumentIndexCache()
        rule = parse_rule(CITED_TITLES)
        rule_bindings(rule, document, indexes=cache)  # builds the index
        stats = EvalStats()
        result = evaluate_rule(rule, document, indexes=cache, stats=stats)
        assert len(result.child_elements()) == 2
        # the match loop's lookup is the only one the evaluation counts
        assert (stats.cache_hits, stats.cache_misses) == (1, 0)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_element_outside_the_given_indexes_is_an_error(self):
        index = DocumentIndex(parse_document(CITES_BIB))
        stray = BindingSet([Binding({"T": E("title", "stray")})])
        with pytest.raises(EvaluationError, match="not in an indexed source"):
            build(elem("r", collect("T")), stray, indexes=[index])


class TestNoTreeWalk:
    @pytest.mark.parametrize(
        "query",
        [
            "query { book as B { title as T } }"
            " construct { titles { collect T } }",
            "query { book as B { not publisher as P } }"
            " construct { r { collect B } }",
            "query { book as B { @year as Y  title as T } } construct {"
            " by-year { year for Y sortby Y { value Y  books { collect T } } } }",
        ],
        ids=["q1_selection", "q5_negation", "q7_nest"],
    )
    def test_construct_never_walks_a_source_tree(self, monkeypatch, query):
        def walk(*args, **kwargs):
            raise AssertionError("construct walked a source tree")

        monkeypatch.setattr(navigation, "document_order", walk)
        session = QuerySession(
            bibliography(40, seed=1), indexes=DocumentIndexCache()
        )
        row = session.execute(query)
        assert row.ok, row.error
        assert row.result.root.child_elements()
