"""Tests for the EXPLAIN facility (repro.explain)."""

import json

import pytest

from repro.engine.options import ExecOptions
from repro.explain import explain
from repro.ssd import parse_document
from repro.xmlgl.dsl import parse_rule

PIPELINE = ExecOptions(engine="pipeline")

DOC = parse_document(
    '<bib>'
    '<book year="1999" cites="e2"><title>A</title></book>'
    '<book year="1990" cites="e1"><title>B</title></book>'
    '<entry id="e1"><title>X</title></entry>'
    '<entry id="e2"><title>Y</title></entry>'
    "</bib>"
)

CHAIN = (
    "query { book as B { title as T } } construct { r { collect T } }"
)
FIG_Q3 = (
    "query { book as B  * as C { title as T } where B.cites = C.id }"
    " construct { r { collect T } }"
)
ORDERED = (
    "query { book as B { ord title as T } }"
    " construct { r { collect T } }"
)
UNSAT = (
    'query { book as B { @year as Y } where Y > 5 and Y < 3 }'
    " construct { r { collect B } }"
)


class TestExplainDigest:
    def test_pipeline_fragment_with_forest_and_semijoins(self):
        report = explain(CHAIN, DOC, options=PIPELINE)
        assert report.engine == "pipeline"
        assert not report.preflight_skipped
        assert len(report.graphs) == 1
        [fragment] = report.graphs[0].fragments
        assert fragment.decision == "pipeline"
        assert sorted(fragment.variables) == ["B", "T"]
        assert fragment.order  # cost-chosen join order
        assert fragment.forest == [{"var": "T", "parent": "B"}]
        assert fragment.pool_sizes["B"] == 2
        directions = {sj.direction for sj in fragment.semijoins}
        assert directions == {"bottom-up", "top-down"}
        for sj in fragment.semijoins:
            assert sj.before >= sj.after >= 0
        assert fragment.assembled_rows == 2

    def test_join_query_has_two_fragments(self):
        report = explain(FIG_Q3, DOC)
        [graph] = report.graphs
        assert len(graph.fragments) == 2
        variables = sorted(tuple(sorted(f.variables)) for f in graph.fragments)
        assert variables == [("B",), ("C", "T")]

    def test_ordered_arcs_run_on_the_pipeline(self):
        # ordered arcs filter the assembled rows: no route of their own
        report = explain(ORDERED, DOC)
        [fragment] = report.graphs[0].fragments
        assert fragment.decision == "pipeline"
        assert fragment.reason is None
        assert not any(key.startswith("fallback_") for key in report.stats.extra)
        oracle = explain(ORDERED, DOC, options=ExecOptions(engine="naive"))
        assert fragment.rows == report.construct["bindings"] == 2
        assert oracle.construct["bindings"] == 2

    def test_preflight_skip_short_circuits(self):
        report = explain(UNSAT, DOC)
        assert report.preflight_skipped
        assert report.graphs == []
        assert "unsatisfiable" in report.render_text()

    def test_rule_objects_accepted(self):
        report = explain(parse_rule(CHAIN), DOC)
        assert "book" in report.query  # unparsed back to DSL text
        assert report.graphs[0].fragments

    def test_index_lookup_recorded(self):
        report = explain(CHAIN, DOC)
        assert report.index_lookups
        assert report.index_lookups[0]["outcome"] in {"built", "hit"}

    def test_construct_block(self):
        report = explain(CHAIN, DOC)
        assert report.construct["bindings"] == 2
        assert report.construct["nodes"] >= 1


class TestSyntheticDefault:
    def test_no_sources_uses_bibliography_and_says_so(self):
        report = explain(CHAIN)
        assert report.synthetic_source
        assert "built-in bibliography" in report.render_text()

    def test_explicit_sources_not_flagged(self):
        report = explain(CHAIN, DOC)
        assert not report.synthetic_source


class TestDecisions:
    def test_edge_free_fragment_runs_on_the_pipeline(self):
        # a box with no containment arc has no relation: its pool is its
        # rows, and the report shows a pipeline fragment
        query = "query { book as B { @year as Y } } construct { r { collect B } }"
        report = explain(query, DOC)
        assert report.engine == "pipeline"
        [fragment] = report.graphs[0].fragments
        assert fragment.decision == "pipeline"
        assert fragment.reason is None
        assert fragment.rows == 2
        assert not any(key.startswith("fallback_") for key in report.stats.extra)
        assert "fragment [B]: pipeline -> 2 row(s)" in report.render_text()
        assert "fallback" not in report.render_text()
        oracle = explain(query, DOC, options=ExecOptions(engine="naive"))
        assert oracle.construct == report.construct

    def test_plan_source_cached_on_repeat(self):
        from repro.engine.cache import DocumentIndexCache
        from repro.engine.plan_cache import PlanCache

        indexes, plans = DocumentIndexCache(), PlanCache()
        first = explain(CHAIN, DOC, indexes=indexes, plans=plans)
        assert first.plan_source == "compiled"
        assert "plan: compiled" in first.render_text()
        second = explain(CHAIN, DOC, indexes=indexes, plans=plans)
        assert second.plan_source == "cached"
        assert "plan: cached" in second.render_text()
        assert second.stats.plan_cache_hits == 1


class TestRendering:
    def test_text_mentions_plan_ingredients(self):
        text = explain(CHAIN, DOC, options=PIPELINE).render_text()
        assert "join forest" in text
        assert "join order" in text
        assert "semi-join" in text
        assert "pools" in text
        assert "pipeline" in text

    def test_json_round_trips(self):
        payload = json.loads(explain(CHAIN, DOC, options=PIPELINE).render_json())
        assert payload["engine"] == "pipeline"
        [fragment] = payload["graphs"][0]["fragments"]
        assert fragment["decision"] == "pipeline"
        assert fragment["semijoins"]
        assert payload["trace"]["spans"]  # raw span tree ships too

    def test_render_dispatch(self):
        report = explain(CHAIN, DOC)
        assert report.render("text") == report.render_text()
        assert report.render("json") == report.render_json()
        with pytest.raises(ValueError):
            report.render("yaml")
