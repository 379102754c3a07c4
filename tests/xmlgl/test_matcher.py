"""Unit tests for the XML-GL matcher."""

import pytest

from repro.engine import EvalStats
from repro.errors import QueryStructureError
from repro.xmlgl import (
    ExecOptions,
    QueryBuilder,
    attr,
    cmp,
    content,
    match,
    name_of,
    or_,
    regex,
)


def titles(bindings, var="T"):
    return sorted(b[var].text_content() for b in bindings)


class TestSelection:
    def test_match_all_books(self, bib):
        q = QueryBuilder()
        q.box("book", id="B")
        assert len(match(q.graph(), bib)) == 3

    def test_anchored_root(self, bib):
        q = QueryBuilder()
        q.box("bib", id="R", anchored=True)
        bindings = match(q.graph(), bib)
        assert len(bindings) == 1
        assert bindings[0]["R"] is bib.root

    def test_anchored_wrong_tag_no_match(self, bib):
        q = QueryBuilder()
        q.box("book", id="B", anchored=True)
        assert len(match(q.graph(), bib)) == 0

    def test_wildcard_box(self, bib):
        q = QueryBuilder()
        q.box(None, id="X")
        assert len(match(q.graph(), bib)) == sum(1 for _ in bib.iter())

    def test_containment(self, bib):
        q = QueryBuilder()
        book = q.box("book", id="B")
        q.box("title", id="T", parent=book)
        bindings = match(q.graph(), bib)
        assert len(bindings) == 3
        assert "TCP/IP Illustrated" in titles(bindings)

    def test_direct_containment_not_deep(self, bib):
        q = QueryBuilder()
        bibx = q.box("bib", id="R", anchored=True)
        q.box("last", id="L", parent=bibx)  # last is 2 levels down
        assert len(match(q.graph(), bib)) == 0

    def test_deep_containment(self, bib):
        q = QueryBuilder()
        bibx = q.box("bib", id="R", anchored=True)
        q.box("last", id="L", parent=bibx, deep=True)
        assert len(match(q.graph(), bib)) == 6

    def test_multiple_children(self, bib):
        q = QueryBuilder()
        book = q.box("book", id="B")
        q.box("title", id="T", parent=book)
        q.box("publisher", id="P", parent=book)
        bindings = match(q.graph(), bib)
        assert titles(bindings) == ["TCP/IP Illustrated", "The Economics of Technology"]


class TestValuePatterns:
    def test_text_binding(self, bib):
        q = QueryBuilder()
        title = q.box("title", id="T")
        q.text(title, id="TT")
        bindings = match(q.graph(), bib)
        assert "Data on the Web" in [b["TT"] for b in bindings]

    def test_text_constant_constraint(self, bib):
        q = QueryBuilder()
        title = q.box("title", id="T")
        q.text(title, id="TT", value="Data on the Web")
        assert len(match(q.graph(), bib)) == 1

    def test_text_regex_constraint(self, bib):
        q = QueryBuilder()
        title = q.box("title", id="T")
        q.text(title, id="TT", regex=".*Web.*")
        assert len(match(q.graph(), bib)) == 1

    def test_text_requires_nonempty(self, bib):
        q = QueryBuilder()
        book = q.box("book", id="B")
        q.text(book, id="BT")  # books have no immediate text
        assert len(match(q.graph(), bib)) == 0

    def test_attribute_binding(self, bib):
        q = QueryBuilder()
        book = q.box("book", id="B")
        q.attribute(book, "year", id="Y")
        years = sorted(b["Y"] for b in match(q.graph(), bib))
        assert years == ["1994", "1999", "2000"]

    def test_attribute_value_constraint(self, bib):
        q = QueryBuilder()
        book = q.box("book", id="B")
        q.attribute(book, "year", id="Y", value="1999")
        assert len(match(q.graph(), bib)) == 1

    def test_attribute_regex(self, bib):
        q = QueryBuilder()
        book = q.box("book", id="B")
        q.attribute(book, "id", id="I", regex="b[12]")
        assert len(match(q.graph(), bib)) == 2

    def test_missing_attribute_no_match(self, bib):
        q = QueryBuilder()
        article = q.box("article", id="A")
        q.attribute(article, "id", id="I")
        assert len(match(q.graph(), bib)) == 0


class TestConditions:
    def test_attribute_comparison(self, bib):
        q = QueryBuilder()
        book = q.box("book", id="B")
        q.where(cmp(">=", attr("B", "year"), 1999))
        assert len(match(q.graph(), bib)) == 2

    def test_content_comparison(self, bib):
        q = QueryBuilder()
        price = q.box("price", id="P")
        q.where(cmp("<", content("P"), 50))
        assert len(match(q.graph(), bib)) == 1

    def test_regex_condition(self, bib):
        q = QueryBuilder()
        q.box("title", id="T")
        q.where(regex(content("T"), ".*Tech.*"))
        assert len(match(q.graph(), bib)) == 1

    def test_name_of_condition(self, bib):
        q = QueryBuilder()
        q.box(None, id="X")
        q.where(cmp("=", name_of("X"), "editor"))
        assert len(match(q.graph(), bib)) == 1

    def test_join_via_condition(self, bib):
        # books and articles published the same year
        q = QueryBuilder()
        book = q.box("book", id="B")
        article = q.box("article", id="A")
        q.where(cmp("=", attr("B", "year"), attr("A", "year")))
        bindings = match(q.graph(), bib)
        assert len(bindings) == 1
        assert bindings[0]["B"].get("id") == "b2"

    def test_condition_on_negated_node_rejected(self, bib):
        q = QueryBuilder()
        book = q.box("book", id="B")
        q.negate(book, q.box("cdrom", id="C"))
        q.where(cmp("=", attr("C", "x"), 1))
        with pytest.raises(QueryStructureError, match="negated"):
            match(q.graph(), bib)


class TestJoins:
    def test_shared_node_join(self, bib):
        # a title box shared by a book box and a wildcard box: same element
        q = QueryBuilder()
        book = q.box("book", id="B")
        anything = q.box(None, id="X")
        title = q.box("title", id="T")
        q.contains(book, title)
        q.contains(anything, title)
        bindings = match(q.graph(), bib)
        # X must equal B for each book (homomorphism allows it)
        assert all(b["X"] is b["B"] for b in bindings)
        assert len(bindings) == 3


class TestNegation:
    def test_negated_child(self, bib):
        q = QueryBuilder()
        book = q.box("book", id="B")
        q.negate(book, q.box("publisher", id="P"))
        bindings = match(q.graph(), bib)
        assert len(bindings) == 1
        assert bindings[0]["B"].get("id") == "b2"

    def test_negated_deep(self, bib):
        # books with no <last> anywhere below an <author> (deep negation)
        q = QueryBuilder()
        bibx = q.box("bib", id="R", anchored=True)
        book = q.box("book", id="B", parent=bibx)
        author = q.box("author", id="A")
        q.negate(book, author, deep=True)
        bindings = match(q.graph(), bib)
        assert [b["B"].get("id") for b in bindings] == ["b3"]

    def test_negated_subtree_with_structure(self, bib):
        # books without an author whose last name is Suciu
        # (the negated text is constrained through the pattern, not a condition)
        q2 = QueryBuilder()
        book2 = q2.box("book", id="B")
        author2 = q2.box("author", id="A")
        q2.negate(book2, author2)
        last2 = q2.box("last", id="L")
        q2.contains(author2, last2)
        q2.text(last2, id="LT", value="Suciu")
        bindings = match(q2.graph(), bib)
        assert sorted(b["B"].get("id") for b in bindings) == ["b1", "b3"]

    def test_negated_attribute(self, bib):
        from repro.xmlgl import AttributePattern, ContainmentEdge

        q = QueryBuilder()
        q.box("book", id="B")
        g = q.graph()
        g.add_node(AttributePattern("I", "id", value="b2"))
        g.add_edge(ContainmentEdge("B", "I", negated=True, position=99))
        bindings = match(g, bib)
        assert sorted(b["B"].get("id") for b in bindings) == ["b1", "b3"]

    def test_negated_element_child(self, bib):
        q = QueryBuilder()
        q.box("title", id="T")
        q.negate("T", q.box("anything", id="Z"))
        assert len(match(q.graph(), bib)) == 4  # titles have no children at all

    def test_negated_text(self, bib):
        from repro.xmlgl import ContainmentEdge, TextPattern

        q = QueryBuilder()
        price = q.box("price", id="P")
        g = q.graph()
        g.add_node(TextPattern("PT", value="39.95"))
        g.add_edge(ContainmentEdge("P", "PT", negated=True, position=99))
        bindings = match(g, bib)
        assert len(bindings) == 2  # prices other than 39.95


class TestOrderedArcs:
    def test_ordered_pair_respected(self, bib):
        q = QueryBuilder()
        author = q.box("author", id="A")
        q.box("last", id="L", parent=author, ordered=True)
        q.box("first", id="F", parent=author, ordered=True)
        assert len(match(q.graph(), bib)) == 5  # last precedes first everywhere

    def test_ordered_pair_violated(self, bib):
        q = QueryBuilder()
        author = q.box("author", id="A")
        q.box("first", id="F", parent=author, ordered=True)
        q.box("last", id="L", parent=author, ordered=True)
        assert len(match(q.graph(), bib)) == 0

    def test_unordered_matches_both_ways(self, bib):
        q = QueryBuilder()
        author = q.box("author", id="A")
        q.box("first", id="F", parent=author)
        q.box("last", id="L", parent=author)
        assert len(match(q.graph(), bib)) == 5


class TestOrGroups:
    def test_or_union(self, bib):
        q = QueryBuilder()
        book = q.box("book", id="B")
        pub = q.box("publisher", id="P")
        ed = q.box("editor", id="E")
        q.either(
            [q.detached_edge(book, pub)],
            [q.detached_edge(book, ed)],
        )
        bindings = match(q.graph(), bib)
        # b3 has both a publisher and an editor, so it matches both branches
        # with different bindings: union semantics yields three bindings.
        assert len(bindings) == 3
        assert sorted({b["B"].get("id") for b in bindings}) == ["b1", "b3"]

    def test_or_branch_binds_its_own_nodes(self, bib):
        q = QueryBuilder()
        book = q.box("book", id="B")
        pub = q.box("publisher", id="P")
        ed = q.box("editor", id="E")
        q.either(
            [q.detached_edge(book, pub)],
            [q.detached_edge(book, ed)],
        )
        bindings = match(q.graph(), bib)
        for binding in bindings:
            assert ("P" in binding) != ("E" in binding) or (
                "P" in binding and "E" in binding
            )

    def test_or_no_duplicates(self, bib):
        # both branches match the same book: binding reported once per shape
        q = QueryBuilder()
        book = q.box("book", id="B")
        t1 = q.box("title", id="T")
        q.either(
            [q.detached_edge(book, t1)],
            [q.detached_edge(book, t1, deep=True)],
        )
        bindings = match(q.graph(), bib)
        assert len(bindings) == 3


class TestStatsAndOptions:
    def test_stats_populated(self, bib):
        q = QueryBuilder()
        book = q.box("book", id="B")
        q.box("title", id="T", parent=book)
        stats = EvalStats()
        match(q.graph(), bib, options=ExecOptions(engine="pipeline"), stats=stats)
        assert stats.bindings_produced == 3
        # forced pipeline: work shows up as join rows, not per-candidate
        # trials
        assert stats.pipeline_fragments == 1
        assert stats.hashjoin_rows > 0
        assert stats.edge_checks > 0

    def test_stats_populated_pipeline_default(self, bib):
        # the default engine is the pipeline: the fragment runs
        # set-at-a-time, and "adaptive" is no longer an engine
        assert ExecOptions().engine == "pipeline"
        with pytest.raises(ValueError, match="unknown engine 'adaptive'"):
            ExecOptions(engine="adaptive")
        q = QueryBuilder()
        book = q.box("book", id="B")
        q.box("title", id="T", parent=book)
        stats = EvalStats()
        match(q.graph(), bib, stats=stats)
        assert stats.bindings_produced == 3
        assert stats.pipeline_fragments == 1
        assert stats.pipeline_fallbacks == 0
        assert stats.hashjoin_rows > 0

    def test_edge_free_fragment_runs_on_the_pipeline(self, bib):
        # a box with no containment arc has no relation: its pool is its
        # rows, so it runs on the pipeline like every other fragment
        q = QueryBuilder()
        book = q.box("book", id="B")
        q.attribute(book, "year", id="Y")
        stats = EvalStats()
        result = match(
            q.graph(), bib, options=ExecOptions(trace=True), stats=stats
        )

        def rows(bindings):
            return sorted((id(b["B"]), b["Y"]) for b in bindings)

        assert rows(result) == rows(
            match(q.graph(), bib, options=ExecOptions(engine="naive"))
        )
        (fragment,) = stats.trace.find("match.fragment")
        assert fragment.attributes["decision"] == "pipeline"
        assert fragment.attributes["reason"] is None
        assert not any(key.startswith("fallback_") for key in stats.extra)
        assert stats.pipeline_fragments == 1
        assert stats.pipeline_fallbacks == 0

    def test_stats_populated_backtracking(self, bib):
        q = QueryBuilder()
        book = q.box("book", id="B")
        q.box("title", id="T", parent=book)
        stats = EvalStats()
        match(q.graph(), bib, options=ExecOptions(engine="backtracking"), stats=stats)
        assert stats.bindings_produced == 3
        assert stats.candidates_tried + stats.interval_candidates > 0
        assert stats.edge_checks > 0
        assert stats.pipeline_fragments == 0

    def test_planner_and_index_toggles_same_result(self, bib):
        q = QueryBuilder()
        book = q.box("book", id="B")
        q.box("title", id="T", parent=book)
        q.attribute(book, "year", id="Y")
        baseline = match(q.graph(), bib)
        for planner in (True, False):
            for engine in ("pipeline", "naive"):
                options = ExecOptions(engine=engine, use_planner=planner)
                result = match(q.graph(), bib, options=options)
                assert len(result) == len(baseline)

    def test_index_disabled_counts_full_scans(self, bib):
        q = QueryBuilder()
        q.box("book", id="B")
        stats = EvalStats()
        match(q.graph(), bib, options=ExecOptions(engine="naive"), stats=stats)
        assert stats.full_scans == 1
        assert stats.index_lookups == 0
