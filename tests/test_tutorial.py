"""The tutorial's snippets, executed — docs/TUTORIAL.md cannot rot."""

import pytest

from repro.ssd import parse_document
from repro.wglog import (
    apply_program,
    apply_rule,
    document_to_instance,
    parse_wglog,
)
from repro.wglog import parse_rule as wg_rule
from repro.wglog.semantics import query
from repro.xmlgl import evaluate_rule
from repro.xmlgl.dsl import parse_rule


@pytest.fixture
def doc():
    return parse_document(
        """
<bib>
  <book year="2000" id="b1">
    <title>Data on the Web</title>
    <author><last>Abiteboul</last><first>Serge</first></author>
    <price>39.95</price>
  </book>
  <book year="1994" id="b2" cites="b1">
    <title>TCP/IP Illustrated</title>
    <author><last>Stevens</last><first>W.</first></author>
    <price>65.95</price>
  </book>
</bib>"""
    )


class TestXmlglSteps:
    def test_step1_box_and_triangle(self, doc):
        rule = parse_rule(
            "query { book as B } construct { result { collect B } }"
        )
        assert len(evaluate_rule(rule, doc).find_all("book")) == 2

    def test_step2_arcs_and_circles(self, doc):
        rule = parse_rule(
            """
            query { book as B { @year as Y  title as T } }
            construct { result { collect T } }
            """
        )
        assert len(evaluate_rule(rule, doc).find_all("title")) == 2

    def test_step3_predicates(self, doc):
        rule = parse_rule(
            "query { book as B { @year as Y  title as T } where Y >= 1995 }"
            " construct { result { collect T } }"
        )
        result = evaluate_rule(rule, doc)
        assert [t.text_content() for t in result.find_all("title")] == [
            "Data on the Web"
        ]

    def test_step4_restructuring(self, doc):
        rule = parse_rule(
            """
            query { book as B { @year as Y  title as T  price as P { text as PT } } }
            construct {
              report {
                n { count(B) }
                cheapest { min(PT) }
                by-year { year for Y sortby Y { value Y  books { collect T } } }
              }
            }
            """
        )
        report = evaluate_rule(rule, doc)
        assert report.find("n").text_content() == "2"
        assert report.find("cheapest").text_content() == "39.95"
        years = [
            y.immediate_text() for y in report.find("by-year").find_all("year")
        ]
        assert years == ["1994", "2000"]

    def test_step5_negation_and_depth(self, doc):
        rule = parse_rule(
            """
            query { root bib { book as B { not publisher as PU  deep last as L } } }
            construct { result { collect L } }
            """
        )
        lasts = evaluate_rule(rule, doc).find_all("last")
        assert sorted(l.text_content() for l in lasts) == ["Abiteboul", "Stevens"]


class TestWglogSteps:
    def test_step1_red_query(self, doc):
        instance, _ = document_to_instance(doc)
        titles = query(
            wg_rule("rule q { match { b: book  t: title  b -child-> t } }"),
            instance,
        )
        assert len(titles) == 2

    def test_step2_conditions(self, doc):
        instance, _ = document_to_instance(doc)
        recent = query(
            wg_rule("rule q { match { b: book } where b.year >= 1995 }"),
            instance,
        )
        assert len(recent) == 1

    def test_step3_derivation(self, doc):
        instance, _ = document_to_instance(doc)
        apply_rule(
            instance,
            wg_rule(
                """
                rule backcite {
                  match { a: book  b: book  a -cites-> b }
                  construct { b -cited_by-> a }
                }
                """
            ),
        )
        edges = [e for e in instance.relationship_edges() if e.label == "cited_by"]
        assert len(edges) == 1

    def test_step4_recursion(self, doc):
        instance, _ = document_to_instance(doc)
        _, closure = parse_wglog(
            """
            rule base { match { a: book  b: book  a -cites-> b }
                        construct { a -reaches-> b } }
            rule step { match { a: book  b: book  c: book
                                a -reaches-> b  b -cites-> c }
                        construct { a -reaches-> c } }
            """
        )
        apply_program(instance, closure)
        reaches = [e for e in instance.relationship_edges() if e.label == "reaches"]
        assert len(reaches) == 1  # b2 -> b1 only (no longer chains here)

    def test_step5_forall_negation(self, doc):
        instance, _ = document_to_instance(doc)
        apply_rule(
            instance,
            wg_rule(
                """
                rule roots {
                  match { b: book  o: book  no o -cites-> b }
                  construct { b.uncited = 'yes' }
                }
                """
            ),
        )
        uncited = [
            b
            for b in instance.entities("book")
            if instance.slot_value(b, "uncited") == "yes"
        ]
        assert len(uncited) == 1  # b2 is cited by nobody... b1 is cited


class TestExecOptionsStep:
    """§6: one frozen bundle, derived per call — and never a warning."""

    def test_step6_exec_options_bundle(self, doc):
        import warnings
        from dataclasses import replace

        from repro import ExecOptions, QuerySession

        query = "query { book as B } construct { result { collect B } }"
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            session = QuerySession(doc, options=ExecOptions(engine="pipeline"))
            session.run(query)
            assert session.current().trace is None
            session.run(query, options=replace(session.defaults, trace=True))
            assert session.current().trace is not None
        assert session.defaults.engine == "pipeline"


class TestObservabilitySteps:
    def test_step7_plan_cache_snippet(self, doc):
        from repro.engine.cache import DocumentIndexCache
        from repro.engine.plan_cache import PlanCache
        from repro.session import QuerySession

        query = "query { book as B } construct { result { collect B } }"
        session = QuerySession(
            doc, indexes=DocumentIndexCache(), plans=PlanCache()
        )
        session.run(query)
        session.run(query)
        assert session.current().stats.plan_cache_hits == 1
        assert session.explain(query).plan_source == "cached"
        assert session.metrics().snapshot()["plan_cache_hit_rate"] > 0


class TestRewriteSteps:
    """§9: the redundant drawing really shrinks and stays equivalent."""

    SOURCE = (
        "query { root report as R { deep para as P  deep para as P2  "
        "deep * as W } where 1 = 1 } construct { result { collect P } }"
    )

    def test_step9_redundant_example_shrinks(self):
        from repro import RewriteReport, rewrite_rule

        rewritten, report = rewrite_rule(parse_rule(self.SOURCE))
        assert isinstance(report, RewriteReport)
        assert report.describe() == "merged=1 pruned=1 dropped=1"
        assert set(rewritten.queries[0].nodes) == {"R", "P"}

    def test_step9_no_rewrite_escape_hatch(self):
        from repro import ExecOptions
        from repro.explain import explain

        report = parse_document("<report><para>x</para></report>")
        rule = parse_rule(self.SOURCE)
        on = explain(rule, report)
        off = explain(rule, report, options=ExecOptions(rewrite=False))
        assert on.rewrites == "merged=1 pruned=1 dropped=1"
        assert off.rewrites == "off"
        assert "rewrites:" in on.render_text()

    def test_step9_contains_oracle(self):
        from repro import contains

        deep = parse_rule(
            "query { report as R { deep para as P } } "
            "construct { r { copy P } }"
        ).queries[0]
        direct = parse_rule(
            "query { report as R { para as P } } "
            "construct { r { copy P } }"
        ).queries[0]
        assert contains(deep, direct) and not contains(direct, deep)


class TestShardingSteps:
    """§10: pipeline counters in EXPLAIN, process-executor batch contract."""

    def test_step10_explain_shows_columnar_fragments(self, doc):
        from repro.explain import explain

        join = parse_rule(
            "query { book as B  * as C { title as T } where B.cites = C.id }"
            " construct { r { collect T } }"
        )
        report = explain(join, doc)
        assert report.stats.pipeline_fragments >= 1
        assert "work:" in report.render_text()

    def test_step10_process_batch_contract(self, doc):
        from dataclasses import replace

        from repro.engine.limits import QueryBudget
        from repro.session import QuerySession

        session = QuerySession(doc)
        rows = session.run_batch(
            [
                "query { book as B } construct { all { collect B } }",
                "query { book as B { @year as Y } where Y >= 1995 }"
                " construct { recent { collect B } }",
            ],
            executor="process",
            max_workers=2,
            options=replace(
                session.defaults, budget=QueryBudget(deadline_ms=60_000)
            ),
        )
        assert [r.index for r in rows] == [0, 1]
        assert all(r.error is None for r in rows)
        assert rows[0].stats.bindings_produced >= rows[1].stats.bindings_produced


class TestQueryServiceSteps:
    """§11 — the query service snippets, executed against a live server."""

    XML = (
        "<bib>"
        "<book year='2000' id='b1'><title>Data on the Web</title></book>"
        "<book year='1994' id='b2'><title>TCP/IP Illustrated</title></book>"
        "</bib>"
    )

    @pytest.fixture
    def served(self):
        from repro.server import BackgroundServer, DocumentStore, ServerConfig
        from repro.server import ServiceClient, TenantConfig

        store = DocumentStore()
        store.add_xml("bib", self.XML)
        config = ServerConfig(
            port=0,
            tenants=(
                TenantConfig(name="analytics", max_concurrency=2, max_queue=8),
            ),
        )
        with BackgroundServer(config, store=store) as server:
            client = ServiceClient(port=server.port)
            try:
                yield client
            finally:
                client.close()

    def test_step11_query_matches_direct_run(self, served):
        from repro.session import QuerySession
        from repro.ssd import parse_document, serialize

        text = (
            "query { book as B { @year as Y } where Y >= 1999 }"
            " construct { recent { B } }"
        )
        assert served.healthz()["status"] == "ok"
        payload = served.query(text, document="bib", tenant="analytics")
        direct = QuerySession(parse_document(self.XML)).run(text)
        assert payload["ok"]
        assert payload["result"] == serialize(direct.root)

    def test_step11_prepared_query_with_params(self, served):
        prepared = served.prepare(
            "query { book as B { @year as Y } where Y >= ${year} }"
            " construct { hits { B } }"
        )
        assert prepared["params"] == ["year"]
        payload = served.query(
            prepared=prepared["digest"], params={"year": 1999}
        )
        assert payload["stats"]["bindings_produced"] == 1

    def test_step11_partial_budget_overlay(self, served):
        payload = served.query(
            "query { book as B } construct { all { collect B } }",
            budget={"max_bindings": 1, "on_limit": "partial"},
        )
        assert payload["ok"] and payload["stats"]["truncated"]

    def test_step11_metrics_count_errors_exactly(self, served):
        from repro.server.client import ServiceError

        served.query("query { book as B } construct { r { count(B) } }")
        with pytest.raises(ServiceError) as excinfo:
            served.query(
                "query { book as B } construct { r { count(B) } }",
                budget={"max_work": 1},
            )
        assert excinfo.value.status == 408
        engine = served.metrics()["engine"]
        assert engine["queries"] == 2 and engine["errors"] == 1


class TestMutationSteps:
    """§12 — mutation batches and continuous queries, as printed."""

    def make(self):
        from repro import QuerySession

        doc = parse_document(
            "<bib><book year='2000'><title>Data on the Web</title></book></bib>"
        )
        session = QuerySession(doc)
        subscription = session.subscribe(
            "query { book as B { @year as Y } } construct { hits { B } }"
        )
        return doc, session, subscription

    def test_step12_batch_commit_and_delta(self):
        from repro import MutationBatch
        from repro.ssd.model import Element, Text

        doc, session, subscription = self.make()
        assert len(subscription.rows()) == 1

        book = Element("book", attributes={"year": "1994"})
        title = Element("title")
        title.append(Text("TCP/IP Illustrated"))
        book.append(title)

        result = session.mutate(
            MutationBatch()
            .insert_subtree(doc.root, book)
            .update_attribute(doc.root.child_elements()[0], "year", "2001")
        )
        assert (result.doc_revision, result.applied) == (1, 2)

        [delta] = subscription.poll()
        assert delta.revision == 1
        assert (len(delta.added), len(delta.removed)) == (2, 1)
        assert len(subscription.rows()) == 2

    def test_step12_atomic_validation(self):
        from repro import MutationBatch
        from repro.engine.mutate import MutationError
        from repro.ssd.model import Element

        doc, session, subscription = self.make()
        with pytest.raises(MutationError):
            session.mutate(
                MutationBatch()
                .insert_subtree(doc.root, Element("book"))
                .delete_subtree(doc.root)
            )
        assert len(doc.root.child_elements()) == 1  # nothing leaked
        assert subscription.poll() == []

    def test_step12_footprint_skips_unobservable_edits(self):
        from repro import MutationBatch
        from repro.ssd.model import Element, Text

        doc, session, subscription = self.make()
        evals = subscription.evals
        note = Element("note")
        note.append(Text("margin scribble"))
        session.mutate(
            MutationBatch().insert_subtree(doc.root.child_elements()[0], note)
        )
        assert subscription.poll() == []
        assert subscription.evals == evals and subscription.skips == 1
