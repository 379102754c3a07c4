"""Unit tests for DocumentIndex, planner and stats."""

from repro.engine import DocumentIndex, EvalStats, plan_order
from repro.ssd import parse_document


def doc():
    return parse_document(
        '<bib>'
        '<book year="1999"><title>A</title></book>'
        '<book year="2000"><title>B</title></book>'
        '<article><title>C</title></article>'
        '</bib>'
    )


class TestDocumentIndex:
    def test_elements_with_tag(self):
        idx = DocumentIndex(doc())
        assert len(idx.elements_with_tag("book")) == 2
        assert len(idx.elements_with_tag("title")) == 3
        assert idx.elements_with_tag("nope") == ()

    def test_pools_are_immutable(self):
        # callers must not be able to corrupt the index through a lookup
        idx = DocumentIndex(doc())
        assert isinstance(idx.elements_with_tag("book"), tuple)
        assert isinstance(idx.elements_with_attribute("year"), tuple)

    def test_elements_with_attribute(self):
        idx = DocumentIndex(doc())
        assert len(idx.elements_with_attribute("year")) == 2
        assert idx.elements_with_attribute("nope") == ()

    def test_counts(self):
        idx = DocumentIndex(doc())
        assert idx.element_count() == 7
        assert idx.tag_count("article") == 1
        assert idx.tags() == {"bib", "book", "article", "title"}

    def test_positions_are_document_order(self):
        idx = DocumentIndex(doc())
        positions = [idx.position(e) for e in idx.all_elements()]
        assert positions == sorted(positions)

    def test_selectivity(self):
        idx = DocumentIndex(doc())
        assert idx.selectivity("book") == 2
        assert idx.selectivity(None) == 7


class TestIntervalEncoding:
    def test_intervals_nest_like_subtrees(self):
        # Labels are gap-spaced, not dense: assert the containment
        # invariants (root covers everything, subtrees nest or are
        # disjoint), not exact values.
        idx = DocumentIndex(doc())
        root = idx.document.root
        pre, post = idx.interval(root)
        elements = list(idx.all_elements())
        for element in elements:
            lo, hi = idx.interval(element)
            assert pre <= lo <= hi <= post
        for a in elements:
            for b in elements:
                a_lo, a_hi = idx.interval(a)
                b_lo, b_hi = idx.interval(b)
                nested = (a_lo <= b_lo and b_hi <= a_hi) or (
                    b_lo <= a_lo and a_hi <= b_hi
                )
                disjoint = a_hi < b_lo or b_hi < a_lo
                assert nested or disjoint, (a, b)

    def test_is_ancestor_matches_ancestors_walk(self):
        idx = DocumentIndex(doc())
        elements = list(idx.all_elements())
        for a in elements:
            for b in elements:
                expected = any(anc is a for anc in b.ancestors())
                assert idx.is_ancestor(a, b) == expected, (a, b)

    def test_descendants_with_tag_matches_subtree_walk(self):
        idx = DocumentIndex(doc())
        for element in idx.all_elements():
            for tag in idx.tags() | {"nope"}:
                expected = [
                    e for e in element.iter(tag) if e is not element
                ]
                got = list(idx.descendants_with_tag(element, tag))
                assert got == expected, (element, tag)

    def test_descendants_document_order(self):
        idx = DocumentIndex(doc())
        root = idx.document.root
        walked = [e for e in root.iter() if e is not root]
        assert idx.descendants(root) == walked

    def test_tag_count_within(self):
        idx = DocumentIndex(doc())
        root = idx.document.root
        assert idx.tag_count_within(root, "title") == 3
        assert idx.tag_count_within(root, None) == idx.element_count() - 1
        book = idx.elements_with_tag("book")[0]
        assert idx.tag_count_within(book, "title") == 1
        assert idx.tag_count_within(book, "book") == 0

    def test_depth_and_covers(self):
        idx = DocumentIndex(doc())
        root = idx.document.root
        assert idx.depth(root) == 0
        title = idx.elements_with_tag("title")[0]
        assert idx.depth(title) == 2
        assert idx.covers(title)
        from repro.ssd.model import Element

        assert not idx.covers(Element("stranger"))


class TestPlanner:
    def test_most_selective_first(self):
        order = plan_order(
            ["a", "b", "c"],
            estimate=lambda n: {"a": 100, "b": 1, "c": 10}[n],
            adjacency={},
        )
        assert order[0] == "b"

    def test_connected_expansion(self):
        # star pattern: centre 'c' adjacent to all; selective leaf 'l1'
        order = plan_order(
            ["c", "l1", "l2"],
            estimate=lambda n: {"c": 50, "l1": 1, "l2": 40}[n],
            adjacency={"c": ["l1", "l2"], "l1": ["c"], "l2": ["c"]},
        )
        assert order == ["l1", "c", "l2"]

    def test_disabled_preserves_input(self):
        nodes = ["z", "a", "m"]
        assert plan_order(nodes, lambda n: 1, {}, enabled=False) == nodes

    def test_planner_ablation_keeps_the_drawing_order(self):
        # selective-first ordering starts at T (3) before B (1000);
        # disabled, the drawing order starts at the huge pool
        nodes = ["B", "T"]
        sizes = {"B": 1000, "T": 3}
        adjacency = {"B": ["T"], "T": ["B"]}
        assert plan_order(nodes, sizes.__getitem__, adjacency) == ["T", "B"]
        assert plan_order(
            nodes, sizes.__getitem__, adjacency, enabled=False
        ) == ["B", "T"]

    def test_every_node_exactly_once(self):
        nodes = list("abcdef")
        order = plan_order(nodes, lambda n: ord(n), {"a": ["f"]})
        assert sorted(order) == sorted(nodes)


class TestEvalStats:
    def test_bump_and_dict(self):
        stats = EvalStats()
        stats.candidates_tried += 3
        stats.bump("custom")
        stats.bump("custom", 2)
        flat = stats.as_dict()
        assert flat["candidates_tried"] == 3
        assert flat["custom"] == 3

    def test_addition(self):
        a = EvalStats(candidates_tried=1)
        a.bump("x")
        b = EvalStats(candidates_tried=2, bindings_produced=5)
        b.bump("x", 4)
        total = a + b
        assert total.candidates_tried == 3
        assert total.bindings_produced == 5
        assert total.extra["x"] == 5
