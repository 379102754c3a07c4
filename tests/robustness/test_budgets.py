"""Budget enforcement: deadlines, work caps, truncation, degradation.

The contract under test (DESIGN.md § Resource governance):

* limits trip as typed errors carrying the partial ``EvalStats``;
* ``on_limit="partial"`` returns well-formed truncated results, flagged;
* ``max_hashjoin_rows`` degrades fragments instead of failing them, with
  identical results to the unbudgeted run;
* an unbudgeted run does byte-identical work (pay-for-use).
"""

import time

import pytest

from repro.engine.cache import DocumentIndexCache
from repro.engine.limits import QueryBudget, arm_budget, truncate_element
from repro.engine.stats import EvalStats
from repro.errors import BudgetExceeded, DeadlineExceeded
from repro.ssd.model import Element
from repro.xmlgl.dsl import parse_rule
from repro.xmlgl.evaluator import evaluate_rule, rule_bindings

from .conftest import CHAIN_RULE, JOIN_RULE


class TestBudgetValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="on_limit"):
            QueryBudget(on_limit="explode")

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError, match="max_work"):
            QueryBudget(max_work=-1)

    def test_empty_budget_is_legal(self, doc, indexes):
        rule = parse_rule(CHAIN_RULE)
        result = evaluate_rule(rule, doc, budget=QueryBudget(), indexes=indexes)
        assert result.size() > 1


class TestDeadline:
    def test_deadline_trips_promptly_with_partial_stats(self, big_doc, indexes):
        rule = parse_rule(JOIN_RULE)
        # A quarter of what the same evaluation takes unbudgeted, on a
        # fresh cache like the run below: far from a coin flip on any host.
        # The fastest of three references: one that a full garbage
        # collection lands in can outlast the budgeted run itself.
        reference_ms = []
        for _ in range(3):
            started = time.perf_counter()
            evaluate_rule(rule, big_doc, indexes=DocumentIndexCache())
            reference_ms.append((time.perf_counter() - started) * 1000.0)
        deadline = max(1, int(min(reference_ms) / 4))
        stats = EvalStats()
        started = time.perf_counter()
        with pytest.raises(DeadlineExceeded) as info:
            evaluate_rule(
                rule, big_doc, budget=QueryBudget(deadline_ms=deadline),
                stats=stats, indexes=indexes,
            )
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        exc = info.value
        assert exc.limit == "deadline_ms"
        assert exc.allowed == deadline
        assert exc.spent >= deadline
        # The partial stats ride on the error: work was done, then stopped.
        assert exc.stats is stats
        assert stats.extra.get("budget_exceeded") == 1
        # Cooperative checks are strided, not per-instruction: generous
        # bound, but far below an unbudgeted run-away.
        assert elapsed_ms < 2000

    def test_deadline_covers_construct(self, doc, indexes, monkeypatch):
        from repro.xmlgl import evaluator

        rule = parse_rule(CHAIN_RULE)
        expected = evaluate_rule(rule, doc, indexes=indexes)
        real_build = evaluator.build

        def slow_build(*args, **kwargs):
            time.sleep(0.05)
            return real_build(*args, **kwargs)

        monkeypatch.setattr(evaluator, "build", slow_build)
        with pytest.raises(DeadlineExceeded):
            evaluate_rule(
                rule, doc, budget=QueryBudget(deadline_ms=10), indexes=indexes
            )
        # Partial mode keeps what construct built, unflagged: no limit cut
        # the result short.
        stats = EvalStats()
        result = evaluate_rule(
            rule, doc, budget=QueryBudget(deadline_ms=10, on_limit="partial"),
            stats=stats, indexes=indexes,
        )
        assert result.equals(expected)
        assert not stats.extra.get("truncated")

    def test_deadline_is_a_budget_error(self):
        assert issubclass(DeadlineExceeded, BudgetExceeded)


class TestWorkCap:
    def test_max_work_trips_exactly_once_over(self, doc, indexes):
        rule = parse_rule(JOIN_RULE)
        with pytest.raises(BudgetExceeded) as info:
            evaluate_rule(
                rule, doc, budget=QueryBudget(max_work=100), indexes=indexes
            )
        exc = info.value
        assert exc.limit == "max_work"
        assert exc.allowed == 100
        assert exc.spent > 100


class TestBindingsCap:
    def test_raise_mode(self, doc, indexes):
        rule = parse_rule(CHAIN_RULE)
        with pytest.raises(BudgetExceeded) as info:
            rule_bindings(
                rule, doc, budget=QueryBudget(max_bindings=10), indexes=indexes
            )
        assert info.value.limit == "max_bindings"

    def test_partial_mode_holds_exactly_the_cap(self, doc, indexes):
        rule = parse_rule(CHAIN_RULE)
        baseline = rule_bindings(rule, doc, indexes=indexes)
        assert len(baseline) > 10
        stats = EvalStats()
        partial = rule_bindings(
            rule, doc,
            budget=QueryBudget(max_bindings=10, on_limit="partial"),
            stats=stats, indexes=indexes,
        )
        assert len(partial) == 10
        assert stats.extra["truncated"] == 1
        assert stats.extra["truncated_by_max_bindings"] == 1
        assert stats.extra["truncated_results"] == 1


class TestResultNodesCap:
    def test_raise_mode(self, doc, indexes):
        rule = parse_rule(CHAIN_RULE)
        with pytest.raises(BudgetExceeded) as info:
            evaluate_rule(
                rule, doc, budget=QueryBudget(max_result_nodes=5),
                indexes=indexes,
            )
        assert info.value.limit == "max_result_nodes"

    def test_partial_mode_prunes_to_the_cap(self, doc, indexes):
        rule = parse_rule(CHAIN_RULE)
        full = evaluate_rule(rule, doc, indexes=indexes)
        assert full.size() > 20
        stats = EvalStats()
        result = evaluate_rule(
            rule, doc,
            budget=QueryBudget(max_result_nodes=20, on_limit="partial"),
            stats=stats, indexes=indexes,
        )
        assert result.size() <= 20
        assert result.tag == full.tag  # root survives: well-formed prefix
        assert stats.extra["truncated"] == 1
        assert stats.extra["truncated_by_max_result_nodes"] == 1


class TestDegradation:
    def test_row_cap_degrades_with_identical_results(self, doc, indexes):
        rule = parse_rule(JOIN_RULE)
        baseline = rule_bindings(rule, doc, indexes=indexes)
        stats = EvalStats()
        degraded = rule_bindings(
            rule, doc, budget=QueryBudget(max_hashjoin_rows=20),
            stats=stats, indexes=indexes,
        )
        assert stats.extra.get("degraded_fragments", 0) >= 1
        assert stats.extra.get("fallback_budget", 0) >= 1
        assert stats.pipeline_fallbacks >= 1
        # Degradation is a plan change, never a result change.
        assert len(degraded) == len(baseline)

    def test_degraded_fragment_still_applies_pushed_conditions(
        self, doc, indexes
    ):
        # The pipeline pushes the single-box ``Y >= 1995`` filter into B's
        # candidate pool (consuming it from the final filter); a degraded
        # fragment runs on the backtracking core, which never sees pool
        # filters — the fallback must re-apply them.
        rule = parse_rule(
            "query { book as B { title as T  @year as Y } where Y >= 1995 }"
            " construct { r { collect T } }"
        )
        baseline = rule_bindings(rule, doc, indexes=indexes)
        stats = EvalStats()
        degraded = rule_bindings(
            rule, doc, budget=QueryBudget(max_hashjoin_rows=10),
            stats=stats, indexes=indexes,
        )
        assert stats.extra.get("degraded_fragments", 0) >= 1
        assert len(degraded) == len(baseline)

    def test_degradation_visible_in_explain(self, doc):
        from repro.engine.options import ExecOptions
        from repro.explain import explain

        report = explain(
            parse_rule(JOIN_RULE), doc,
            options=ExecOptions(engine="pipeline"),
            indexes=DocumentIndexCache(),
        )
        # Unbudgeted: the join fragment runs on the pipeline...
        decisions = {
            f.decision for g in report.graphs for f in g.fragments
        }
        assert "pipeline" in decisions
        # ...and under a row cap the same fragment reports the budget
        # fallback reason.
        capped = explain(
            parse_rule(JOIN_RULE), doc,
            options=ExecOptions(
                engine="pipeline", budget=QueryBudget(max_hashjoin_rows=20)
            ),
            indexes=DocumentIndexCache(),
        )
        reasons = {
            (f.decision, f.reason)
            for g in capped.graphs
            for f in g.fragments
        }
        assert ("fallback", "budget") in reasons


class TestGraphDegradation:
    """The row cap on WG-Log's graph pipeline: degrade, refund, agree."""

    CAP = 10

    def data(self):
        from repro.graph import LabeledGraph

        graph = LabeledGraph()
        for i in range(20):
            graph.add_node(f"p{i}", "p")
        for i in range(4):
            graph.add_node(f"q{i}", "q")
        for i in range(3):
            graph.add_node(f"r{i}", "r")
        for i in range(20):  # 40 x-pairs: four times the cap
            graph.add_edge(f"p{i}", f"q{i % 4}", "x")
            graph.add_edge(f"p{i}", f"q{(i + 1) % 4}", "x")
        return graph

    def pattern(self, with_join=True):
        from repro.graph import LabeledGraph

        pattern = LabeledGraph()
        if with_join:
            pattern.add_node("a", "p")
            pattern.add_node("b", "q")
            pattern.add_edge("a", "b", "x")
        pattern.add_node("c", "r")
        return pattern

    def setwise(self, pattern, data):
        from repro.graph import MatchSpec, find_homomorphisms_setwise

        stats = EvalStats()
        arm_budget(stats, QueryBudget(max_hashjoin_rows=self.CAP))
        mappings = list(
            find_homomorphisms_setwise(
                pattern, data, MatchSpec(injective=False), stats=stats
            )
        )
        return mappings, stats

    def test_row_cap_degrades_component_with_identical_mappings(self):
        from repro.graph import MatchSpec, find_homomorphisms

        data, pattern = self.data(), self.pattern()
        mappings, stats = self.setwise(pattern, data)
        expected = find_homomorphisms(pattern, data, MatchSpec(injective=False))

        def key(found):
            return sorted(tuple(sorted(m.items())) for m in found)

        assert key(mappings) == key(expected)
        assert len(mappings) == 40 * 3
        assert stats.extra.get("degraded_fragments", 0) >= 1
        assert stats.extra.get("fallback_budget", 0) >= 1
        # the other component still ran set-at-a-time
        assert stats.pipeline_fragments == 2

    def test_discarded_rows_are_refunded(self):
        data = self.data()
        _, stats = self.setwise(self.pattern(), data)
        _, alone = self.setwise(self.pattern(with_join=False), data)
        # Only the surviving component's rows stay charged: the degraded
        # component's materialised pairs were discarded, so refunded.
        assert stats.budget.rows == alone.budget.rows
        assert stats.budget.rows <= self.CAP


class TestPathRelationGovernance:
    """Limits tripped while a path edge's relation is being searched
    propagate: only the row cap degrades."""

    def setwise(self, budget):
        from repro.graph import LabeledGraph, MatchSpec, find_homomorphisms_setwise
        from repro.graph.labeled_graph import Edge

        data = LabeledGraph()
        data.add_node("s", "start")
        for i in range(600):  # one start, one end, a long chain between
            data.add_node(i, "mid")
        data.add_node("e", "end")
        data.add_edge("s", 0, "x")
        for i in range(599):
            data.add_edge(i, i + 1, "x")
        data.add_edge(599, "e", "x")
        pattern = LabeledGraph()
        pattern.add_node("a", "start")
        pattern.add_node("b", "end")
        pattern.add_edge("a", "b", "x")
        spec = MatchSpec(injective=False, path_edges={Edge("a", "b", "x")})
        stats = EvalStats()
        arm_budget(stats, budget)
        with pytest.raises(BudgetExceeded) as caught:
            list(find_homomorphisms_setwise(pattern, data, spec, stats=stats))
        # the two one-node pools are charged; the trip is in the search
        assert stats.budget.work > 2
        assert stats.relation_pairs == 0
        assert "degraded_fragments" not in stats.extra
        assert stats.pipeline_fallbacks == 0
        return caught.value

    def test_work_cap_propagates(self):
        exc = self.setwise(QueryBudget(max_work=100, max_hashjoin_rows=1000))
        assert exc.limit == "max_work"

    def test_deadline_propagates(self):
        exc = self.setwise(QueryBudget(deadline_ms=0, max_hashjoin_rows=1000))
        assert isinstance(exc, DeadlineExceeded)


class TestZeroOverhead:
    def test_unbudgeted_and_generous_budget_do_identical_work(self, doc):
        rule = parse_rule(JOIN_RULE)
        plain = EvalStats()
        evaluate_rule(rule, doc, stats=plain, indexes=DocumentIndexCache())
        generous = EvalStats()
        evaluate_rule(
            rule, doc,
            budget=QueryBudget(
                deadline_ms=3_600_000, max_work=10**12,
                max_bindings=10**9, max_result_nodes=10**9,
                max_hashjoin_rows=10**12,
            ),
            stats=generous, indexes=DocumentIndexCache(),
        )
        a, b = plain.as_dict(), generous.as_dict()
        a.pop("seconds"), b.pop("seconds")
        assert a == b

    def test_no_budget_means_no_state(self, doc, indexes):
        stats = EvalStats()
        evaluate_rule(
            parse_rule(CHAIN_RULE), doc, stats=stats, indexes=indexes
        )
        assert stats.budget is None


class TestArming:
    def test_outermost_arm_wins(self):
        stats = EvalStats()
        first = arm_budget(stats, QueryBudget(max_work=10))
        second = arm_budget(stats, QueryBudget(max_work=99999))
        assert second is first
        assert stats.budget.budget.max_work == 10

    def test_arming_nothing_is_none(self):
        stats = EvalStats()
        assert arm_budget(stats, None) is None
        assert stats.budget is None


class TestTruncateElement:
    def _tree(self):
        root = Element("r")
        for i in range(5):
            child = Element("c")
            child.append(f"text-{i}")
            root.append(child)
        return root

    def test_prunes_to_cap_keeping_prefix(self):
        root = self._tree()
        before = root.size()
        dropped = truncate_element(root, 5)
        assert root.size() <= 5
        assert dropped == before - root.size()
        # Document-order prefix: the first child survives intact.
        assert root.children[0].text_content() == "text-0"

    def test_root_always_survives(self):
        root = self._tree()
        truncate_element(root, 0)
        assert root.tag == "r"
        assert root.size() == 1
