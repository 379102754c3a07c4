"""EXT-A1 — ablations of the XML-GL matcher's design choices.

Toggles the two optimisations DESIGN.md calls out — the index-backed
engines (the ``adaptive`` default against the index-free ``naive`` engine)
and the selectivity planner — on a multi-box query and checks both the
result invariance (all four configurations agree) and the work ordering
(the index avoids full scans; the planner reduces candidates tried on
skewed patterns).
"""

import pytest

from repro.engine import EvalStats
from repro.engine.options import ExecOptions
from repro.xmlgl import match
from repro.xmlgl.dsl import parse_rule as parse_xg

RULE = parse_xg(
    """
    query {
      book as B { publisher as P  title as T  @year as Y }
      where Y >= 1995
    }
    construct { r { collect T } }
    """
)
GRAPH = RULE.queries[0]

CONFIGS = {
    "adaptive+planned": ExecOptions(engine="adaptive", use_planner=True),
    "adaptive": ExecOptions(engine="adaptive", use_planner=False),
    "naive+planned": ExecOptions(engine="naive", use_planner=True),
    "naive": ExecOptions(engine="naive", use_planner=False),
}


@pytest.mark.parametrize("config", list(CONFIGS), ids=list(CONFIGS))
def test_ablation_timing(benchmark, bib_doc, bib_index, config):
    doc = bib_doc(400)
    index = bib_index(400)
    options = CONFIGS[config]
    bindings = benchmark(lambda: match(GRAPH, doc, options=options, index=index))
    assert len(bindings) > 0


def test_all_configs_agree(bib_doc, bib_index):
    doc = bib_doc(400)
    index = bib_index(400)
    results = {
        name: len(match(GRAPH, doc, options=options, index=index))
        for name, options in CONFIGS.items()
    }
    assert len(set(results.values())) == 1, results


def test_index_eliminates_full_scans(bib_doc, bib_index):
    doc = bib_doc(400)
    index = bib_index(400)
    indexed_stats = EvalStats()
    match(GRAPH, doc, options=CONFIGS["adaptive+planned"], index=index,
          stats=indexed_stats)
    scan_stats = EvalStats()
    match(GRAPH, doc, options=CONFIGS["naive+planned"], index=index,
          stats=scan_stats)
    assert indexed_stats.full_scans == 0
    assert scan_stats.full_scans > 0
    assert indexed_stats.index_lookups > 0


def test_planner_reduces_candidates_on_skew(bib_doc, bib_index):
    """With a rare box (publisher) present, starting there prunes work."""
    doc = bib_doc(400)
    index = bib_index(400)
    planned, unplanned = EvalStats(), EvalStats()
    match(GRAPH, doc, options=CONFIGS["adaptive+planned"], index=index,
          stats=planned)
    match(GRAPH, doc, options=CONFIGS["adaptive"], index=index, stats=unplanned)
    assert planned.candidates_tried <= unplanned.candidates_tried


# ---------------------------------------------------------------------------
# EXT-A2: neighbour narrowing in the generic (WG-Log) matcher
# ---------------------------------------------------------------------------

from repro.graph.matching import MatchSpec, find_homomorphisms
from repro.graph.labeled_graph import LabeledGraph


def _wg_join_pattern() -> LabeledGraph:
    pattern = LabeledGraph()
    pattern.add_node("b", "book")
    pattern.add_node("c", "*")
    pattern.add_node("t", "title")
    pattern.add_edge("b", "c", "cites")
    pattern.add_edge("c", "t", "child")
    return pattern


@pytest.mark.parametrize("narrow", [True, False], ids=["narrowed", "unnarrowed"])
def test_narrowing_ablation_timing(benchmark, bib_instance, narrow):
    instance = bib_instance(100)
    pattern = _wg_join_pattern()
    spec = MatchSpec(injective=False, narrow=narrow)
    matches = benchmark(
        lambda: list(find_homomorphisms(pattern, instance.graph, spec))
    )
    assert matches


def test_narrowing_preserves_results(bib_instance):
    instance = bib_instance(100)
    pattern = _wg_join_pattern()
    key = lambda m: tuple(sorted(m.items()))
    narrowed = sorted(
        map(key, find_homomorphisms(pattern, instance.graph,
                                    MatchSpec(injective=False, narrow=True)))
    )
    unnarrowed = sorted(
        map(key, find_homomorphisms(pattern, instance.graph,
                                    MatchSpec(injective=False, narrow=False)))
    )
    assert narrowed == unnarrowed
