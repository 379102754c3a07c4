"""Table-driven coverage of the XML-GL analysis passes.

One good/bad fixture per diagnostic code: the bad query raises exactly
the code under test (possibly among others), and a minimal well-formed
variant stays clean of it.
"""

import pytest

from repro.analysis import Severity, analyze_rule
from repro.engine.conditions import Comparison, Const, ContentOf
from repro.xmlgl.ast import (
    AttributePattern,
    ContainmentEdge,
    ElementPattern,
    QueryGraph,
    TextPattern,
)
from repro.xmlgl.construct import NewElement
from repro.xmlgl.dsl import parse_rule
from repro.xmlgl.rule import Rule


def codes(rule):
    return {d.code for d in analyze_rule(rule)}


def diagnostics_for(rule, code):
    return [d for d in analyze_rule(rule) if d.code == code]


GOOD = """
query { book as B { @year as Y  title as T } where Y >= 1995 }
construct { result { entry for B { value Y  copy T } } }
"""


def test_clean_query_has_no_findings():
    assert analyze_rule(parse_rule(GOOD)) == []


# --- structure (XGL001-XGL008, XGL013) -------------------------------------

BAD_SOURCES = [
    # (code, severity, DSL source)
    ("XGL006", Severity.ERROR,
     "query { book as B } where ZZZ = 3 "
     "construct { result { copy B } }"),
    ("XGL007", Severity.ERROR,
     "query { book as B { text as T } } where name(T) = 'x' "
     "construct { result { copy B } }"),
    ("XGL008", Severity.ERROR,
     "query { book as B { text as T } } where T.lang = 'en' "
     "construct { result { copy B } }"),
    ("XGL013", Severity.ERROR,
     "query { book as B { not publisher as P } } where P = 'x' "
     "construct { result { copy B } }"),
    ("XGL010", Severity.ERROR,
     "query { book as B { @year as Y } } where Y = 1990 and Y = 1995 "
     "construct { result { copy B } }"),
    ("XGL011", Severity.ERROR,
     "query { book as B } where 1 = 2 "
     "construct { result { copy B } }"),
    ("XGL020", Severity.ERROR,
     "query { book as B } construct { result { value NOPE } }"),
    ("XGL022", Severity.WARNING,
     "query { book as B } construct { result { group B { text 'hi' } } }"),
    ("XGL023", Severity.ERROR,
     "query { book as B } construct { result for B { copy B } }"),
    ("XGL024", Severity.ERROR,
     "query { book as B { not publisher as P } } "
     "construct { result { value P } }"),
]


@pytest.mark.parametrize(
    "code,severity,source", BAD_SOURCES, ids=[row[0] for row in BAD_SOURCES]
)
def test_bad_query_reports_code(code, severity, source):
    found = diagnostics_for(parse_rule(source), code)
    assert found, f"{code} not reported"
    assert all(d.severity is severity for d in found)


def test_xgl001_no_element_box():
    graph = QueryGraph()
    graph.add_node(TextPattern("T"))
    rule = Rule(queries=[graph], construct=NewElement("r"))
    assert "XGL001" in codes(rule)


def test_xgl002_dangling_circle():
    graph = QueryGraph()
    graph.add_node(ElementPattern("B", "book"))
    graph.add_node(AttributePattern("A", "year"))
    rule = Rule(queries=[graph], construct=NewElement("r"))
    assert "XGL002" in codes(rule)


def test_xgl003_containment_cycle():
    graph = QueryGraph()
    graph.add_node(ElementPattern("A", "a"))
    graph.add_node(ElementPattern("B", "b"))
    graph.edges.append(ContainmentEdge("A", "B"))
    graph.edges.append(ContainmentEdge("B", "A"))
    rule = Rule(queries=[graph], construct=NewElement("r"))
    assert "XGL003" in codes(rule)


def test_xgl004_negated_subtree_shared():
    graph = QueryGraph()
    graph.add_node(ElementPattern("A", "a"))
    graph.add_node(ElementPattern("B", "b"))
    graph.add_node(ElementPattern("N", "n"))
    graph.edges.append(ContainmentEdge("A", "N", negated=True))
    graph.edges.append(ContainmentEdge("B", "N"))
    rule = Rule(queries=[graph], construct=NewElement("r"))
    assert "XGL004" in codes(rule)


def test_xgl005_arc_duplicated_into_or_group():
    graph = QueryGraph()
    graph.add_node(ElementPattern("A", "a"))
    graph.add_node(ElementPattern("B", "b"))
    graph.add_edge(ContainmentEdge("A", "B"))
    from repro.xmlgl.ast import OrGroup

    graph.add_or_group(OrGroup(alternatives=[[ContainmentEdge("A", "B")]]))
    rule = Rule(queries=[graph], construct=NewElement("r"))
    assert "XGL005" in codes(rule)


# --- satisfiability (XGL009-XGL012) ----------------------------------------

def test_xgl009_two_anchored_roots_with_different_tags():
    graph = QueryGraph()
    graph.add_node(ElementPattern("A", "bib", anchored=True))
    graph.add_node(ElementPattern("B", "library", anchored=True))
    rule = Rule(queries=[graph], construct=NewElement("r"))
    found = diagnostics_for(rule, "XGL009")
    assert found and all(d.unsatisfiable for d in found)


def test_xgl009_anchored_box_below_another():
    rule = parse_rule(
        "query { bib { root book as B } } construct { result { copy B } }"
    )
    found = diagnostics_for(rule, "XGL009")
    assert found and all(d.unsatisfiable for d in found)


def test_xgl010_literal_vs_predicate():
    rule = parse_rule(
        "query { book as B { title as T { text = 'Web' as X } } } "
        "where X = 'Logic' "
        "construct { result { copy B } }"
    )
    found = diagnostics_for(rule, "XGL010")
    assert found and all(d.unsatisfiable for d in found)


def test_xgl010_empty_numeric_range():
    rule = parse_rule(
        "query { book as B { @year as Y } } where Y > 2000 and Y < 1990 "
        "construct { result { copy B } }"
    )
    assert diagnostics_for(rule, "XGL010")


def test_xgl010_aliasing_attribute_circle_and_dotted_access():
    # @year as Y pins the value through the circle; B.year constrains the
    # same attribute through the dotted view — the two must meet.
    rule = parse_rule(
        "query { book as B { @year = '1990' as Y } } where B.year = 1995 "
        "construct { result { copy B } }"
    )
    assert diagnostics_for(rule, "XGL010")


def test_shared_circle_aliases_only_its_first_parent():
    # K is drawn under A first, then B; it binds A's "1".  B's own circle
    # pins B.k to "01", which is equal_atoms to "1" but fails K ~ /1/ only
    # as a string: aliasing K onto B (or merging both views) would report
    # a contradiction for a rule that matches.
    from repro.ssd import parse_document
    from repro.xmlgl.builder import collect, elem, regex
    from repro.xmlgl.evaluator import evaluate_rule, rule_bindings

    graph = QueryGraph()
    graph.add_node(ElementPattern("A", tag="a"))
    graph.add_node(ElementPattern("B", tag="b"))
    graph.add_node(AttributePattern("K", "k"))
    graph.add_node(AttributePattern("K2", "k", value="01"))
    graph.add_edge(ContainmentEdge("A", "K", position=1))
    graph.add_edge(ContainmentEdge("B", "K", position=2))
    graph.add_edge(ContainmentEdge("B", "K2", position=3))
    rule = Rule(
        [graph], elem("r", collect("K")),
        conditions=[regex(ContentOf("K"), "1")],
    )
    doc = parse_document('<r><a k="1"/><b k="01"/></r>')
    assert diagnostics_for(rule, "XGL010") == []
    assert len(rule_bindings(rule, doc, preflight=False)) == 1
    assert evaluate_rule(rule, doc).text_content() == "1"


def test_xgl010_literal_failing_its_own_regex():
    rule = parse_rule(
        "query { book as B { title as T { text = 'Logic' as X } } } "
        "where X ~ /Web.*/ "
        "construct { result { copy B } }"
    )
    assert diagnostics_for(rule, "XGL010")


def test_xgl011_constant_false_condition():
    found = diagnostics_for(
        parse_rule(
            "query { book as B } where 1 = 2 construct { result { copy B } }"
        ),
        "XGL011",
    )
    assert found and all(d.unsatisfiable for d in found)


def test_satisfiable_range_is_not_flagged():
    rule = parse_rule(
        "query { book as B { @year as Y } } where Y >= 1990 and Y <= 2000 "
        "construct { result { copy B } }"
    )
    assert codes(rule) == set()


def test_or_conditions_are_not_interpreted():
    # = 'a' or = 'b' is satisfiable; the conservative pass must stay silent.
    rule = parse_rule(
        "query { book as B { @year as Y } } "
        "where Y = 1990 or Y = 1995 "
        "construct { result { copy B } }"
    )
    assert diagnostics_for(rule, "XGL010") == []


# --- construct (XGL020-XGL024) ---------------------------------------------

def test_xgl020_sortby_is_warning_only():
    rule = parse_rule(
        "query { book as B } "
        "construct { result { entry for B sortby NOPE { copy B } } }"
    )
    found = diagnostics_for(rule, "XGL020")
    assert found and all(d.severity is Severity.WARNING for d in found)


def test_xgl021_empty_group():
    rule = Rule(
        queries=[_single_box()],
        construct=NewElement("r", children=[_group([])]),
    )
    found = diagnostics_for(rule, "XGL021")
    assert found and all(d.severity is Severity.WARNING for d in found)


def test_xgl024_collect_of_negated_node_is_warning():
    rule = parse_rule(
        "query { book as B { not publisher as P } } "
        "construct { result { collect P } }"
    )
    found = diagnostics_for(rule, "XGL024")
    assert found and all(d.severity is Severity.WARNING for d in found)


def _single_box():
    graph = QueryGraph()
    graph.add_node(ElementPattern("B", "book"))
    return graph


def _group(children):
    from repro.xmlgl.construct import GroupBy

    return GroupBy(group_on=["B"], children=children)


# --- ordering and anchors ---------------------------------------------------

def test_findings_sorted_most_severe_first():
    rule = parse_rule(
        "query { book as B } where 1 = 2 "
        "construct { result { entry for B sortby NOPE { copy B } } }"
    )
    findings = analyze_rule(rule)
    ranks = [d.severity.rank for d in findings]
    assert ranks == sorted(ranks, reverse=True)


def test_rule_name_is_attached():
    graph = QueryGraph()
    graph.add_node(ElementPattern("B", "book"))
    graph.add_condition(Comparison("=", ContentOf("ZZ"), Const(1)))
    rule = Rule(queries=[graph], construct=NewElement("r"), name="my-rule")
    assert all(d.rule == "my-rule" for d in analyze_rule(rule))
