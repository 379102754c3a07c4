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

    def test_fallback_reason_surfaces(self):
        report = explain(ORDERED, DOC)
        [fragment] = report.graphs[0].fragments
        assert fragment.decision == "fallback"
        assert fragment.reason == "ordered"

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


class TestAdaptiveExplain:
    def test_cost_chosen_backtracking_surfaces(self):
        # one book among many titled entries: the walk from the single
        # book touches one title, cheaper than materialising the whole
        # title pool, and the report says so
        doc = parse_document(
            "<bib><book><title>A</title></book>"
            + "<entry><title>X</title></entry>" * 40
            + "</bib>"
        )
        report = explain(CHAIN, doc, options=ExecOptions(engine="adaptive"))
        assert report.engine == "adaptive"
        [fragment] = report.graphs[0].fragments
        assert fragment.decision == "backtracking"
        assert fragment.reason == "cost"
        assert fragment.est_pipeline >= fragment.est_backtracking > 0
        assert "cost-chosen backtracking" in report.render_text()

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
