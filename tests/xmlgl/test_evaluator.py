"""Integration tests: rules and programs over one or more documents."""

import pytest

from repro.errors import EvaluationError, QueryStructureError
from repro.ssd import parse_document, serialize
from repro.xmlgl import (
    Program,
    QueryBuilder,
    Rule,
    attr,
    cmp,
    collect,
    content,
    elem,
    evaluate_program,
    evaluate_rule,
    rule_bindings,
    value_of,
)


def vendors_doc():
    return parse_document(
        "<vendors>"
        '<vendor name="DeRuiter" country="holland"/>'
        '<vendor name="Lafayette" country="france"/>'
        "</vendors>"
    )


def products_doc():
    return parse_document(
        "<products>"
        '<product vendor="DeRuiter"><name>cabbage</name></product>'
        '<product vendor="Lafayette"><name>cherry</name></product>'
        '<product vendor="DeRuiter"><name>leek</name></product>'
        "</products>"
    )


class TestSingleDocument:
    def test_basic_rule(self, bib):
        q = QueryBuilder()
        q.box("title", id="T")
        rule = Rule([q.graph()], elem("titles", collect("T")))
        result = evaluate_rule(rule, bib)
        assert len(result.find_all("title")) == 4

    def test_rule_requires_query(self):
        with pytest.raises(QueryStructureError):
            Rule([], elem("r"))

    def test_shared_ids_across_graphs_rejected(self, bib):
        q1 = QueryBuilder()
        q1.box("book", id="B")
        q2 = QueryBuilder()
        q2.box("book", id="B")
        with pytest.raises(QueryStructureError, match="shared"):
            Rule([q1.graph(), q2.graph()], elem("r"))

    def test_named_source_against_plain_document_rejected(self, bib):
        q = QueryBuilder(source="other")
        q.box("book", id="B")
        rule = Rule([q.graph()], elem("r"))
        with pytest.raises(EvaluationError):
            evaluate_rule(rule, bib)


class TestMultiDocumentJoin:
    def make_rule(self) -> Rule:
        qv = QueryBuilder(source="vendors")
        vendor = qv.box("vendor", id="V")
        qv.attribute(vendor, "name", id="VN")
        qv.attribute(vendor, "country", id="VC", value="holland")
        qp = QueryBuilder(source="products")
        product = qp.box("product", id="P")
        qp.attribute(product, "vendor", id="PV")
        name = qp.box("name", id="N", parent=product)
        return Rule(
            [qv.graph(), qp.graph()],
            elem("dutch-products", elem("item", value_of("N"), for_each=["P"])),
            conditions=[cmp("=", content("VN"), content("PV"))],
        )

    def test_equi_join(self):
        sources = {"vendors": vendors_doc(), "products": products_doc()}
        result = evaluate_rule(self.make_rule(), sources)
        names = [e.text_content() for e in result.find_all("item")]
        assert names == ["cabbage", "leek"]

    def test_join_bindings(self):
        sources = {"vendors": vendors_doc(), "products": products_doc()}
        bindings = rule_bindings(self.make_rule(), sources)
        assert len(bindings) == 2
        assert bindings.variables() >= {"V", "P", "VN", "PV"}

    def test_unknown_source_rejected(self):
        with pytest.raises(EvaluationError, match="unknown source"):
            evaluate_rule(self.make_rule(), {"vendors": vendors_doc()})

    def test_single_doc_map_resolves_unnamed(self, bib):
        q = QueryBuilder()  # no source name
        q.box("book", id="B")
        rule = Rule([q.graph()], elem("r", collect("B", deep=False)))
        result = evaluate_rule(rule, {"anything": bib})
        assert len(result.find_all("book")) == 3

    def test_unnamed_graph_ambiguous_sources_rejected(self, bib):
        q = QueryBuilder()
        q.box("book", id="B")
        rule = Rule([q.graph()], elem("r"))
        with pytest.raises(EvaluationError):
            evaluate_rule(rule, {"a": bib, "b": vendors_doc()})


class TestPrograms:
    def test_single_rule_unwrapped(self, bib):
        q = QueryBuilder()
        q.box("book", id="B")
        program = Program([Rule([q.graph()], elem("books", collect("B", deep=False)))])
        doc = evaluate_program(program, bib)
        assert doc.root.tag == "books"

    def test_multi_rule_wrapped(self, bib):
        q1 = QueryBuilder()
        q1.box("book", id="B")
        q2 = QueryBuilder()
        q2.box("article", id="A")
        program = Program(
            [
                Rule([q1.graph()], elem("books", collect("B", deep=False))),
                Rule([q2.graph()], elem("articles", collect("A", deep=False))),
            ],
            result_tag="library",
        )
        doc = evaluate_program(program, bib)
        assert doc.root.tag == "library"
        assert [c.tag for c in doc.root.child_elements()] == ["books", "articles"]

    def test_empty_program_rejected(self):
        with pytest.raises(QueryStructureError):
            Program([])

    def test_restructuring_round_trip(self, bib):
        # nest: group books under their year
        q = QueryBuilder()
        book = q.box("book", id="B")
        q.attribute(book, "year", id="Y")
        rule = Rule(
            [q.graph()],
            elem(
                "by-year",
                elem(
                    "year",
                    value_of("Y"),
                    elem("books", collect("B", deep=False)),
                    for_each=["Y"],
                    sort_by="Y",
                ),
            ),
        )
        result = evaluate_rule(rule, bib)
        years = [y.immediate_text() for y in result.find_all("year")]
        assert years == ["1994", "1999", "2000"]
        assert serialize(result).count("<book ") == 3



class TestRunOverlays:
    def test_trace_false_overrides_traced_options(self, bib):
        from repro.engine.options import ExecOptions
        from repro.engine.stats import EvalStats

        q = QueryBuilder()
        q.box("book", id="B")
        stats = EvalStats()
        rule_bindings(
            Rule([q.graph()], elem("r", collect("B"))), bib,
            options=ExecOptions(trace=True), trace=False, stats=stats,
        )
        assert stats.trace is None
