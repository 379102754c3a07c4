"""A value circle drawn under several boxes is a value join.

The brute-force oracle lives in ``tests/property/test_shared_circle_oracle``;
these are the hand-sized cases: the row-cap degradation of the combine
stage, a shared arc inside an or-group, the editor's join gesture, DAG
rules through a :class:`~repro.session.QuerySession`, and the canonical
text that keys the plan cache.
"""

import pytest

from repro.analysis.rewrite import canonical_rule_text
from repro.engine import EvalStats
from repro.engine.limits import QueryBudget
from repro.session import QuerySession
from repro.ssd import parse_document, serialize
from repro.visual import XmlglEditor
from repro.xmlgl import ExecOptions, QueryBuilder, evaluate_rule, match
from repro.xmlgl.builder import collect, elem
from repro.xmlgl.evaluator import rule_bindings
from repro.xmlgl.rule import Rule

ENGINES = ["pipeline", "backtracking", "naive"]
DOC = parse_document('<r><a k="1"/><a k="2"/><b k="1"/><b k="3"/></r>')


def shared_k(first="A", second="B"):
    """Boxes ``a`` and ``b`` with one ``@k`` circle drawn under both."""
    q = QueryBuilder()
    q.box("a", id="A")
    q.box("b", id="B")
    q.attribute(first, "k", id="K")
    q.contains(second, "K")
    return q.graph()


def test_shared_circle_is_a_join_on_every_engine():
    for engine in ENGINES:
        rows = match(shared_k(), DOC, options=ExecOptions(engine=engine))
        assert [(b["A"].get("k"), b["B"].get("k"), b["K"]) for b in rows] == [
            ("1", "1", "1")
        ]
        assert sorted(rows[0]) == ["A", "B", "K"]  # no private copy leaks


def test_pipeline_runs_the_join_without_a_whole_query_fallback():
    q = QueryBuilder()
    root = q.box("r", id="R")
    q.box("a", id="A", parent=root)
    q.box("b", id="B", parent=root)
    q.attribute("A", "k", id="K")
    q.contains("B", "K")
    stats = EvalStats()
    rows = match(q.graph(), DOC, options=ExecOptions(engine="pipeline"), stats=stats)
    assert [b["K"] for b in rows] == ["1"]
    assert stats.pipeline_fragments == 1
    assert stats.pipeline_fallbacks == 0


def test_combine_stage_degradation_still_applies_the_join():
    doc = parse_document(
        '<r><a k="1"/><a k="1"/><a k="2"/><b k="1"/><b k="01"/><b k="3"/></r>'
    )
    baseline = match(shared_k(), doc)
    assert len(baseline) == 4
    stats = EvalStats()
    degraded = match(
        shared_k(), doc,
        options=ExecOptions(budget=QueryBudget(max_hashjoin_rows=2)),
        stats=stats,
    )
    assert stats.extra.get("degraded_fragments", 0) >= 1
    assert [b.key() for b in degraded] == [b.key() for b in baseline]
    assert {b["K"] for b in degraded} == {"1"}


def test_second_arc_inside_an_or_group():
    q = QueryBuilder()
    q.box("a", id="A")
    q.box("b", id="B")
    q.attribute("A", "k", id="K")
    q.box("c", id="C")
    q.either([q.detached_edge("B", "K")], [q.detached_edge("B", "C")])
    doc = parse_document(
        '<r><a k="1"/><b k="1"/><b k="2"><c/></b></r>'
    )
    for engine in ENGINES:
        rows = match(q.graph(), doc, options=ExecOptions(engine=engine))
        got = sorted(
            (b["B"].get("k"), "C" in b) for b in rows
        )
        # The join branch keeps only b k=1; the other branch needs a c child.
        assert got == [("1", False), ("2", True)], engine


def test_editor_join_gesture_end_to_end():
    editor = XmlglEditor()
    a = editor.add_element_box("a", node_id="A")
    b = editor.add_element_box("b", node_id="B")
    k = editor.add_attribute_circle(a, "k", node_id="K")
    editor.draw_arc(b, k)
    editor.add_triangle(editor.add_construct_box("r"), "K")
    assert serialize(evaluate_rule(editor.compile(), DOC)) == "<r>1</r>"


def test_session_runs_and_explains_dag_rules():
    rule = Rule([shared_k()], elem("r", collect("K")))
    session = QuerySession(DOC)
    assert serialize(session.run(rule).root) == "<r>1</r>"
    report = session.explain(rule)
    assert "&n" in report.query  # canonical text: the DSL has no DAG form
    assert report.graphs[0].bindings == 1


@pytest.mark.parametrize("rewrite", [True, False])
def test_plan_cache_keeps_the_first_arc_apart(rewrite):
    # Same drawing, first arc on A or on B: "01" vs "1" must not share a plan.
    doc = parse_document('<r><a k="01"/><b k="1"/></r>')
    session = QuerySession(doc, options=ExecOptions(rewrite=rewrite))
    on_a = Rule([shared_k("A", "B")], elem("r", collect("K")))
    on_b = Rule([shared_k("B", "A")], elem("r", collect("K")))
    assert canonical_rule_text(on_a) != canonical_rule_text(on_b)
    assert serialize(session.run(on_a).root) == "<r>01</r>"
    assert serialize(session.run(on_b).root) == "<r>1</r>"
    assert [b["K"] for b in rule_bindings(on_b, doc)] == ["1"]
