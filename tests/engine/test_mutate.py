"""Typed mutations (repro.engine.mutate) and incremental index upkeep."""

import pytest

from repro.engine import DocumentIndex, columns
from repro.engine import index as index_module
from repro.engine.bindings import value_key
from repro.engine.index import LABEL_GAP
from repro.engine.mutate import (
    MutationBatch,
    apply_batch,
    current_revision,
    ops_from_spec,
)
from repro.engine.options import ExecOptions
from repro.engine.stats import EvalStats
from repro.errors import MutationError
from repro.ssd import parse_document, serialize
from repro.ssd.model import Element, Text
from repro.xmlgl.dsl import parse_rule
from repro.xmlgl.matcher import match

BACKENDS = ["python"] + (["numpy"] if columns.HAVE_NUMPY else [])

#: Containment-arc queries the pipeline answers with the column kernels:
#: direct arcs, a deep arc, and a deep wildcard under a direct arc.
CONTAINMENT_QUERIES = [
    "query { root bib as R { book as B { title as T } } }"
    " construct { r { collect T } }",
    "query { root bib as R { deep title as T } } construct { r { collect T } }",
    "query { bib as R { book as B { deep * as X } } }"
    " construct { r { collect X } }",
]


def doc():
    return parse_document(
        '<bib>'
        '<book year="1999"><title>A</title></book>'
        '<book year="2000"><title>B</title></book>'
        '<article><title>C</title></article>'
        '</bib>'
    )


def book(text, year):
    element = Element("book", attributes={"year": year})
    title = Element("title")
    title.append(Text(text))
    element.append(title)
    return element


def assert_index_matches_fresh(index, document):
    """The maintained index must agree with one built from scratch."""
    fresh = DocumentIndex(document)
    assert index.element_count() == fresh.element_count()
    assert index.tags() == fresh.tags()
    for tag in fresh.tags():
        assert index.elements_with_tag(tag) == fresh.elements_with_tag(tag), tag
    elements = list(fresh.all_elements())
    for a in elements:
        for b in elements:
            assert index.is_ancestor(a, b) == fresh.is_ancestor(a, b), (a, b)


def assert_containment_matches_naive(index, document):
    """The pipeline, reading the maintained labels, must bind exactly what
    the naive engine binds from the tree alone."""

    def keyed(bindings):
        return sorted(
            tuple(sorted((var, value_key(b[var])) for var in b))
            for b in bindings
        )

    for text in CONTAINMENT_QUERIES:
        graph = parse_rule(text).queries[0]
        stats = EvalStats()
        pipeline = match(
            graph, document, options=ExecOptions(), index=index, stats=stats
        )
        assert stats.relation_pairs > 0, text  # the kernels ran
        naive = match(graph, document, options=ExecOptions(engine="naive"))
        assert keyed(pipeline) == keyed(naive), text


class TestOperations:
    def test_insert_subtree(self):
        document = doc()
        result = apply_batch(
            document,
            MutationBatch().insert_subtree(document.root, book("D", "2001")),
            indexes=[],
        )
        assert result.applied == 1 and result.structural
        assert result.nodes_added == 3  # book + title + text
        assert [e.tag for e in document.root.child_elements()] == [
            "book", "book", "article", "book",
        ]

    def test_insert_at_index(self):
        document = doc()
        apply_batch(
            document,
            MutationBatch().insert_subtree(document.root, book("Z", "1990"), 0),
            indexes=[],
        )
        first = document.root.child_elements()[0]
        assert first.attributes["year"] == "1990"

    def test_delete_subtree(self):
        document = doc()
        target = document.root.child_elements()[0]
        result = apply_batch(
            document, MutationBatch().delete_subtree(target), indexes=[]
        )
        assert result.structural and result.nodes_removed == 3
        assert target.parent is None
        assert len(document.root.child_elements()) == 2

    def test_update_value(self):
        document = doc()
        title = document.root.child_elements()[0].child_elements()[0]
        result = apply_batch(
            document, MutationBatch().update_value(title, "New"), indexes=[]
        )
        assert not result.structural
        assert result.touched.values_changed
        assert title.text_content() == "New"

    def test_update_attribute_set_and_remove(self):
        document = doc()
        target = document.root.child_elements()[0]
        apply_batch(
            document,
            MutationBatch().update_attribute(target, "lang", "en"),
            indexes=[],
        )
        assert target.attributes["lang"] == "en"
        apply_batch(
            document,
            MutationBatch().update_attribute(target, "lang", None),
            indexes=[],
        )
        assert "lang" not in target.attributes

    def test_revision_is_monotone_per_document(self):
        document = doc()
        assert current_revision(document) == 0
        target = document.root.child_elements()[0]
        r1 = apply_batch(
            document, MutationBatch().update_value(target, "x"), indexes=[]
        )
        r2 = apply_batch(
            document, MutationBatch().update_value(target, "y"), indexes=[]
        )
        assert (r1.doc_revision, r2.doc_revision) == (1, 2)
        assert current_revision(document) == 2
        assert current_revision(doc()) == 0  # fresh object, fresh counter


class TestValidationIsAtomic:
    def test_invalid_batch_leaves_document_untouched(self):
        document = doc()
        before = serialize(document.root)
        stranger = Element("stranger")
        batch = (
            MutationBatch()
            .insert_subtree(document.root, book("D", "2001"))
            .delete_subtree(stranger)  # not in the document
        )
        with pytest.raises(MutationError, match="not part of the document"):
            apply_batch(document, batch, indexes=[])
        assert serialize(document.root) == before

    def test_cannot_delete_root(self):
        document = doc()
        with pytest.raises(MutationError, match="root"):
            apply_batch(
                document,
                MutationBatch().delete_subtree(document.root),
                indexes=[],
            )

    def test_cannot_insert_attached_subtree(self):
        document = doc()
        attached = document.root.child_elements()[0]
        with pytest.raises(MutationError, match="already has a parent"):
            apply_batch(
                document,
                MutationBatch().insert_subtree(document.root, attached),
                indexes=[],
            )

    def test_ops_under_scheduled_delete_are_rejected(self):
        document = doc()
        target = document.root.child_elements()[0]
        title = target.child_elements()[0]
        batch = (
            MutationBatch()
            .delete_subtree(target)
            .update_value(title, "gone")  # inside the deleted subtree
        )
        with pytest.raises(MutationError, match="not part of the document"):
            apply_batch(document, batch, indexes=[])

    def test_op_on_earlier_inserted_subtree_is_live(self):
        document = doc()
        fresh = book("D", "2001")
        batch = (
            MutationBatch()
            .insert_subtree(document.root, fresh)
            .update_attribute(fresh, "year", "2002")
        )
        result = apply_batch(document, batch, indexes=[])
        assert result.applied == 2
        assert fresh.attributes["year"] == "2002"


class TestIndexMaintenance:
    def test_insert_keeps_index_consistent(self):
        document = doc()
        index = DocumentIndex(document)
        apply_batch(
            document,
            MutationBatch().insert_subtree(document.root, book("D", "2001"), 1),
            indexes=[index],
        )
        assert_index_matches_fresh(index, document)
        assert index.tag_count("book") == 3

    def test_delete_keeps_index_consistent(self):
        document = doc()
        index = DocumentIndex(document)
        apply_batch(
            document,
            MutationBatch().delete_subtree(document.root.child_elements()[1]),
            indexes=[index],
        )
        assert_index_matches_fresh(index, document)
        assert index.tag_count("book") == 1

    def test_attribute_update_maintains_pools(self):
        document = doc()
        index = DocumentIndex(document)
        target = document.root.child_elements()[2]  # article, no year
        apply_batch(
            document,
            MutationBatch().update_attribute(target, "year", "2003"),
            indexes=[index],
        )
        assert len(index.elements_with_attribute("year")) == 3
        apply_batch(
            document,
            MutationBatch().update_attribute(target, "year", None),
            indexes=[index],
        )
        assert len(index.elements_with_attribute("year")) == 2

    def test_many_edits_stay_consistent(self):
        document = doc()
        index = DocumentIndex(document)
        for i in range(30):
            apply_batch(
                document,
                MutationBatch().insert_subtree(
                    document.root, book(f"T{i}", str(2000 + i)), 0
                ),
                indexes=[index],
            )
        for _ in range(10):
            apply_batch(
                document,
                MutationBatch().delete_subtree(
                    document.root.child_elements()[0]
                ),
                indexes=[index],
            )
        assert_index_matches_fresh(index, document)
        assert index.doc_revision == 40

    def test_maintenance_counters_track_work(self):
        document = doc()
        index = DocumentIndex(document)
        before = index.maintenance_counters()
        apply_batch(
            document,
            MutationBatch().insert_subtree(document.root, book("D", "2001")),
            indexes=[index],
        )
        after = index.maintenance_counters()
        assert after["structural_ops"] == before["structural_ops"] + 1
        assert after["labels_assigned"] > before["labels_assigned"]
        assert after["stats_nodes"] == 0  # the index keeps no statistics

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_containment_reads_on_sparse_labels_match_naive(
        self, monkeypatch, backend
    ):
        # the kernels read the gap labels directly: after inserts inside
        # label gaps and after deletes the label columns have holes
        monkeypatch.setattr(columns, "_FORCED", backend)
        document = doc()
        index = DocumentIndex(document)
        for i in range(2):
            apply_batch(
                document,
                MutationBatch().insert_subtree(
                    document.root, book(f"N{i}", "2001"), 1
                ),
                indexes=[index],
            )
        apply_batch(
            document,
            MutationBatch().insert_subtree(
                document.root.child_elements()[-2], book("Nested", "2002"), 0
            ),
            indexes=[index],
        )
        assert index.maintenance_counters()["relabels"] == 0
        labels = list(index.label_column(None))
        assert labels != list(range(0, len(labels) * LABEL_GAP, LABEL_GAP))
        assert_containment_matches_naive(index, document)
        for position in (0, 2):
            apply_batch(
                document,
                MutationBatch().delete_subtree(
                    document.root.child_elements()[position]
                ),
                indexes=[index],
            )
        assert index.maintenance_counters()["relabels"] == 0
        assert_index_matches_fresh(index, document)
        assert_containment_matches_naive(index, document)

    def test_end_appends_compact_labels_at_the_column_bound(self, monkeypatch):
        # append at the end, delete at the front: deletes never reclaim
        # labels, so without compaction the labels would grow past what an
        # int column holds
        bound = 40 * LABEL_GAP
        monkeypatch.setattr(index_module, "LABEL_MAX", bound)
        document = doc()
        index = DocumentIndex(document)
        for i in range(30):
            apply_batch(
                document,
                MutationBatch().insert_subtree(
                    document.root, book(f"Q{i}", "2001")
                ),
                indexes=[index],
            )
            apply_batch(
                document,
                MutationBatch().delete_subtree(
                    document.root.child_elements()[0]
                ),
                indexes=[index],
            )
            assert index.label_column(None)[-1] <= bound
        assert index.maintenance_counters()["relabels"] >= 1
        assert_index_matches_fresh(index, document)
        assert_containment_matches_naive(index, document)


class TestTouchedRegion:
    def test_insert_reports_subtree_tags_and_ancestors(self):
        document = doc()
        parent = document.root.child_elements()[0]
        result = apply_batch(
            document,
            MutationBatch().insert_subtree(parent, Element("note")),
            indexes=[],
        )
        assert "note" in result.touched.tags
        assert {"bib", "book"} <= result.touched.ancestor_tags
        assert result.touched.structural and result.touched.values_changed

    def test_attribute_edit_is_not_value_sensitive(self):
        document = doc()
        target = document.root.child_elements()[0]
        result = apply_batch(
            document,
            MutationBatch().update_attribute(target, "year", "1998"),
            indexes=[],
        )
        assert not result.touched.values_changed
        assert result.touched.attributes == {"year"}
        assert result.touched.tags == {"book"}

    def test_edited_elements_reported(self):
        document = doc()
        first, second = document.root.child_elements()[:2]
        note = Element("note")
        result = apply_batch(
            document,
            MutationBatch()
            .update_value(first, "t")
            .insert_subtree(first, note)
            .delete_subtree(second),
            indexes=[DocumentIndex(document)],
        )
        touched = result.touched
        assert touched.inserted == (note,) and touched.deleted == (second,)
        assert touched.changed == (first,)
        assert touched.edit_points == (first, first, document.root)


class TestWireForm:
    def test_round_trip(self):
        document = doc()
        batch = ops_from_spec(
            document,
            [
                {"op": "insert", "parent": [], "xml": "<book/>", "index": 0},
                {"op": "update_value", "target": [0, 0], "value": "t"},
                {"op": "update_attribute", "target": [1], "name": "x",
                 "value": "1"},
                {"op": "delete", "target": [2]},
            ],
        )
        assert len(batch) == 4
        result = apply_batch(document, batch, indexes=[])
        assert result.applied == 4

    def test_paths_resolve_against_pre_batch_snapshot(self):
        document = doc()
        # Both deletes name pre-batch coordinates: [0] and [1] are the two
        # books, even though applying the first delete shifts positions.
        batch = ops_from_spec(
            document,
            [{"op": "delete", "target": [0]}, {"op": "delete", "target": [1]}],
        )
        apply_batch(document, batch, indexes=[])
        assert [e.tag for e in document.root.child_elements()] == ["article"]

    def test_duplicate_delete_fails_validation(self):
        document = doc()
        batch = ops_from_spec(
            document,
            [{"op": "delete", "target": [0]}, {"op": "delete", "target": [0]}],
        )
        with pytest.raises(MutationError):
            apply_batch(document, batch, indexes=[])

    @pytest.mark.parametrize(
        "spec, match",
        [
            ([{"op": "nope"}], "unknown op"),
            ([{"op": "insert", "parent": [9], "xml": "<x/>"}], "out of range"),
            ([{"op": "insert", "parent": []}], "'xml' string"),
            ([{"op": "insert", "parent": [], "xml": "<a><b</a>"}], "bad xml"),
            ([{"op": "update_value", "target": []}], "'value' string"),
            ([{"op": "update_attribute", "target": []}], "'name' string"),
            (["not-a-dict"], "must be an object"),
            ("not-a-list", "list of op objects"),
        ],
    )
    def test_bad_specs(self, spec, match):
        with pytest.raises(MutationError, match=match):
            ops_from_spec(doc(), spec)
