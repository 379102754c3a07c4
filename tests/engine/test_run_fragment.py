"""run_fragment: the pipeline, and row-cap degradation."""

import time

import pytest

from repro.engine.limits import QueryBudget, arm_budget
from repro.engine.pipeline import run_fragment
from repro.engine.stats import EvalStats
from repro.engine.trace import Tracer
from repro.errors import BudgetExceeded, DeadlineExceeded

SETWISE_ROWS = [{"a": 1, "b": 2}, {"a": 3, "b": 4}]
FALLBACK_ROWS = [{"a": 5, "b": 6}]


def traced_stats(budget=None):
    stats = EvalStats()
    stats.trace = Tracer()
    arm_budget(stats, budget)
    return stats


def fragment_spans(stats):
    return [
        span
        for root in stats.trace.roots
        for span in root.find("match.fragment")
    ]


def must_not_run():
    raise AssertionError("this route must not run")


class TestRouting:
    def test_covered_fragment_runs_setwise(self):
        stats = traced_stats()
        rows = run_fragment(
            stats, ["a", "b"], lambda: list(SETWISE_ROWS), must_not_run
        )
        assert rows == SETWISE_ROWS
        assert stats.pipeline_fragments == 1
        assert stats.pipeline_fallbacks == 0
        (span,) = fragment_spans(stats)
        assert span["variables"] == ["a", "b"]
        assert span["decision"] == "pipeline"
        assert span["reason"] is None
        assert span["rows"] == 2


class TestRowCapDegradation:
    def test_row_cap_trip_refunds_and_runs_fallback(self):
        stats = traced_stats(QueryBudget(max_hashjoin_rows=10))
        stats.budget.add_rows(4)  # an earlier fragment's kept rows

        def setwise():
            stats.budget.add_rows(20)
            return list(SETWISE_ROWS)

        rows = run_fragment(
            stats, ["a", "b"], setwise, lambda: list(FALLBACK_ROWS)
        )
        assert rows == FALLBACK_ROWS
        assert stats.budget.rows == 4
        assert stats.pipeline_fragments == 1
        assert stats.pipeline_fallbacks == 1
        assert stats.extra["fallback_budget"] == 1
        assert stats.extra["degraded_fragments"] == 1
        (span,) = fragment_spans(stats)
        assert span["decision"] == "fallback"
        assert span["reason"] == "budget"
        assert span["rows"] == 1
        (event,) = span.find("degraded")
        assert event["reason"] == "budget"
        assert event["variables"] == ["a", "b"]

    def test_work_cap_trip_propagates(self):
        stats = traced_stats(QueryBudget(max_work=5))

        def setwise():
            stats.budget.charge(50)
            return list(SETWISE_ROWS)

        with pytest.raises(BudgetExceeded) as caught:
            run_fragment(stats, ["a"], setwise, must_not_run)
        assert caught.value.limit == "max_work"
        assert "degraded_fragments" not in stats.extra
        assert stats.pipeline_fallbacks == 0

    def test_deadline_trip_propagates(self):
        stats = traced_stats(QueryBudget(deadline_ms=0))

        def setwise():
            time.sleep(0.002)
            stats.budget.poll()
            return list(SETWISE_ROWS)

        with pytest.raises(DeadlineExceeded):
            run_fragment(stats, ["a"], setwise, must_not_run)
        assert "degraded_fragments" not in stats.extra
        assert stats.pipeline_fallbacks == 0

    def test_graph_matcher_work_cap_is_not_degraded(self):
        from repro.graph import LabeledGraph, MatchSpec, find_homomorphisms_setwise

        data = LabeledGraph()
        for i in range(30):
            data.add_node(f"p{i}", "p")
            data.add_node(f"q{i}", "q")
            data.add_edge(f"p{i}", f"q{i}", "x")
        pattern = LabeledGraph()
        pattern.add_node("a", "p")
        pattern.add_node("b", "q")
        pattern.add_edge("a", "b", "x")
        stats = EvalStats()
        arm_budget(stats, QueryBudget(max_work=40, max_hashjoin_rows=1000))
        with pytest.raises(BudgetExceeded) as caught:
            list(
                find_homomorphisms_setwise(
                    pattern, data, MatchSpec(injective=False), stats=stats
                )
            )
        assert caught.value.limit == "max_work"
        assert stats.pipeline_fragments == 1
        assert "degraded_fragments" not in stats.extra
