"""Tests for the interactive query session (BBQ-style cycles)."""

from dataclasses import replace

import pytest

from repro.errors import ReproError
from repro.session import ExecOptions, QuerySession
from repro.ssd import parse_document
from repro.xmlgl import QueryBuilder, Rule, collect, elem

DOC = parse_document(
    '<bib><book year="1999"><title>A</title></book>'
    '<book year="1990"><title>B</title></book></bib>'
)

ALL = "query { book as B } construct { all { collect B } }"
RECENT = (
    "query { book as B { @year as Y } where Y >= 1995 }"
    " construct { recent { collect B } }"
)
COUNT = "query { book as B } construct { n { count(B) } }"


class TestCycles:
    def test_run_returns_result(self):
        session = QuerySession(DOC)
        result = session.run(ALL)
        assert len(result.root.find_all("book")) == 2

    def test_refinement_sequence(self):
        session = QuerySession(DOC)
        session.run(ALL)
        result = session.run(RECENT)
        assert len(result.root.find_all("book")) == 1
        assert len(session) == 2
        assert session.current().index == 1

    def test_rule_objects_accepted(self):
        q = QueryBuilder()
        q.box("book", id="B")
        rule = Rule([q.graph()], elem("r", collect("B")))
        session = QuerySession(DOC)
        session.run(rule)
        assert session.current().source_text is None

    def test_stats_recorded(self):
        session = QuerySession(DOC)
        session.run(ALL)
        assert session.current().stats.bindings_produced == 2
        assert session.current().seconds >= 0

    def test_empty_session_has_no_current(self):
        with pytest.raises(ReproError):
            QuerySession(DOC).current()


class TestNavigation:
    def make(self):
        session = QuerySession(DOC)
        session.run(ALL)
        session.run(RECENT)
        session.run(COUNT)
        return session

    def test_back_and_forward(self):
        session = self.make()
        assert session.back().index == 1
        assert session.back().index == 0
        assert session.back() is None
        assert session.forward().index == 1
        assert session.forward().index == 2
        assert session.forward() is None

    def test_run_truncates_forward_tail(self):
        session = self.make()
        session.back()
        session.back()  # at cycle 0
        session.run(RECENT)
        assert len(session) == 2
        assert session.current().index == 1
        assert session.forward() is None

    def test_history_keeps_forward_tail_until_truncated(self):
        session = self.make()
        session.back()
        assert len(session.history()) == 3

    def test_summary_marks_current(self):
        session = self.make()
        session.back()
        summary = session.summary()
        assert summary.count("->") == 1
        assert "cycle 1" in summary

    def test_index_cache_shared_across_cycles(self):
        from repro.engine.cache import DocumentIndexCache

        cache = DocumentIndexCache()
        session = QuerySession(DOC, indexes=cache)
        session.run(ALL)
        index = cache.peek(DOC)
        assert index is not None
        session.run(RECENT)
        assert cache.peek(DOC) is index  # reused, not rebuilt
        assert cache.misses == 1 and cache.hits >= 1


class TestMultiSourceSession:
    def test_named_sources(self):
        other = parse_document("<bib><article><title>X</title></article></bib>")
        session = QuerySession({"books": DOC, "arts": other})
        result = session.run(
            "query books { book as B } construct { r { count(B) } }"
        )
        assert result.root.text_content() == "2"


class TestRunBatch:
    QUERIES = [ALL, RECENT, COUNT]

    def test_batch_matches_serial_runs(self):
        session = QuerySession(DOC)
        serial = [session.run(q) for q in self.QUERIES]
        batch = QuerySession(DOC).run_batch(self.QUERIES)
        assert [r.index for r in batch] == [0, 1, 2]
        for expected, result in zip(serial, batch):
            assert result.ok
            from repro.ssd import serialize

            assert serialize(result.result) == serialize(expected)

    def test_batch_does_not_enter_history(self):
        session = QuerySession(DOC)
        session.run_batch(self.QUERIES)
        assert len(session) == 0
        with pytest.raises(ReproError):
            session.current()

    def test_per_query_stats_and_timing(self):
        results = QuerySession(DOC).run_batch([ALL, COUNT])
        assert results[0].stats is not results[1].stats
        assert results[0].stats.bindings_produced == 2
        assert all(r.seconds >= 0 for r in results)
        assert results[0].source_text == ALL

    def test_parse_errors_raise_before_any_evaluation(self):
        session = QuerySession(DOC)
        with pytest.raises(ReproError):
            session.run_batch([ALL, "query { oops"])

    def test_evaluation_errors_captured_per_query(self):
        # an undeclared source name fails at evaluation time, not parse time
        bad = "query nosuch { book as B } construct { r { count(B) } }"
        results = QuerySession({"books": DOC}).run_batch(
            ["query books { book as B } construct { r { count(B) } }", bad]
        )
        assert results[0].ok
        assert not results[1].ok
        assert isinstance(results[1].error, ReproError)
        assert results[1].result is None

    def test_empty_batch(self):
        assert QuerySession(DOC).run_batch([]) == []

    def test_indexes_prewarmed_once_and_shared(self):
        from repro.engine.cache import DocumentIndexCache

        cache = DocumentIndexCache()
        session = QuerySession(DOC, indexes=cache)
        results = session.run_batch(self.QUERIES, max_workers=3)
        assert all(r.ok for r in results)
        assert cache.misses == 1  # built once on the calling thread
        assert cache.hits >= len(self.QUERIES)

    def test_rule_objects_in_batch(self):
        q = QueryBuilder()
        q.box("book", id="B")
        rule = Rule([q.graph()], elem("r", collect("B")))
        results = QuerySession(DOC).run_batch([rule])
        assert results[0].ok and results[0].source_text is None


class TestObservability:
    def test_run_untraced_by_default(self):
        session = QuerySession(DOC)
        session.run(ALL)
        assert session.current().trace is None
        assert session.current().stats.trace is None

    def test_run_trace_records_span_tree(self):
        from repro.engine.plan_cache import PlanCache

        session = QuerySession(DOC, plans=PlanCache())
        session.run(ALL, options=ExecOptions(trace=True))
        trace = session.current().trace
        assert trace is not None
        # cold run: string queries record parsing and plan compilation
        for required in (
            "parse",
            "plan.cache.compile",
            "preflight",
            "index.lookup",
            "match",
            "construct",
        ):
            assert trace.find(required), required

    def test_options_trace_flag_is_the_default(self):
        session = QuerySession(DOC, options=ExecOptions(trace=True))
        session.run(ALL)
        assert session.current().trace is not None
        # per-run override wins
        session.run(ALL, options=replace(session.defaults, trace=False))
        assert session.current().trace is None

    def test_rule_objects_skip_parse_span(self):
        q = QueryBuilder()
        q.box("book", id="B")
        rule = Rule([q.graph()], elem("r", collect("B")))
        session = QuerySession(DOC)
        session.run(rule, options=ExecOptions(trace=True))
        assert not session.current().trace.find("parse")

    def test_batch_rows_get_private_traces(self):
        results = QuerySession(DOC).run_batch(
            [ALL, COUNT], options=ExecOptions(trace=True)
        )
        assert all(r.trace is not None for r in results)
        assert results[0].trace is not results[1].trace
        assert results[0].trace.find("match")

    def test_batch_untraced_by_default(self):
        results = QuerySession(DOC).run_batch([ALL])
        assert results[0].trace is None

    def test_explain_current_cycle(self):
        session = QuerySession(DOC)
        session.run(RECENT)
        report = session.explain()
        assert report.graphs[0].fragments
        assert not report.synthetic_source  # session sources, not synthetic
        assert len(session) == 1  # explain does not enter history

    def test_explain_explicit_query(self):
        report = QuerySession(DOC).explain(ALL)
        assert report.engine in {"pipeline", "backtracking", "naive"}
        assert report.construct is not None


class TestSessionMetrics:
    def test_private_registry_by_default(self):
        a, b = QuerySession(DOC), QuerySession(DOC)
        a.run(ALL)
        assert a.metrics().queries == 1
        assert b.metrics().queries == 0
        assert a.metrics() is not b.metrics()

    def test_injected_registry_is_used(self):
        from repro.engine.metrics import MetricsRegistry

        registry = MetricsRegistry()
        session = QuerySession(DOC, metrics=registry)
        session.run(ALL)
        assert session.metrics() is registry
        assert registry.queries == 1

    def test_run_folds_stats_and_latency(self):
        session = QuerySession(DOC)
        session.run(ALL)
        session.run(RECENT)
        snap = session.metrics().snapshot()
        assert snap["queries"] == 2
        expected = sum(c.stats.bindings_produced for c in session.history())
        assert snap["totals"]["bindings_produced"] == expected
        assert snap["latency"]["samples"] == 2

    def test_batch_errors_counted(self):
        bad = "query nosuch { book as B } construct { r { count(B) } }"
        session = QuerySession({"books": DOC})
        session.run_batch(
            ["query books { book as B } construct { r { count(B) } }", bad]
        )
        snap = session.metrics().snapshot()
        assert snap["queries"] == 2 and snap["errors"] == 1

    def test_concurrent_batch_totals_equal_per_query_sum(self):
        # the registry is recorded into from worker threads; its totals
        # must equal the sum of every row's private EvalStats exactly
        from repro.engine.stats import EvalStats

        queries = [ALL, RECENT, COUNT] * 8
        session = QuerySession(DOC)
        results = session.run_batch(queries, max_workers=6)
        assert all(r.ok for r in results)
        summed = EvalStats()
        for row in results:
            summed = summed + row.stats
        totals = session.metrics().totals()
        for name, value in summed.as_dict().items():
            if name == "seconds":
                continue  # registry latency uses caller-measured wall time
            assert totals.get(name, 0) == value, name
        assert session.metrics().queries == len(queries)


class TestErrorPathMetrics:
    """Failed runs must fold into the registry exactly like batch rows."""

    def make_budget(self):
        from repro.engine.limits import QueryBudget

        return ExecOptions(budget=QueryBudget(max_work=1))

    def test_budget_tripped_run_matches_batch_row_totals(self):
        from repro.errors import BudgetExceeded

        direct = QuerySession(DOC)
        with pytest.raises(BudgetExceeded):
            direct.run(ALL, options=self.make_budget())
        batch = QuerySession(DOC)
        rows = batch.run_batch([ALL], options=self.make_budget())
        assert rows[0].error is not None
        a, b = direct.metrics().snapshot(), batch.metrics().snapshot()
        assert a["queries"] == b["queries"] == 1
        assert a["errors"] == b["errors"] == 1
        assert (
            a["governance"]["budget_exceeded"]
            == b["governance"]["budget_exceeded"]
            == 1
        )

    def test_evaluation_error_recorded_with_error_flag(self):
        bad = "query nosuch { book as B } construct { r { count(B) } }"
        session = QuerySession({"books": DOC})
        with pytest.raises(ReproError):
            session.run(bad)
        snap = session.metrics().snapshot()
        assert snap["queries"] == 1 and snap["errors"] == 1

    def test_parse_error_recorded_with_error_flag(self):
        session = QuerySession(DOC)
        with pytest.raises(ReproError):
            session.run("query { oops")
        snap = session.metrics().snapshot()
        assert snap["queries"] == 1 and snap["errors"] == 1

    def test_successful_run_stays_error_free(self):
        session = QuerySession(DOC)
        session.run(ALL)
        snap = session.metrics().snapshot()
        assert snap["queries"] == 1 and snap["errors"] == 0

    def test_execute_captures_error_and_records(self):
        session = QuerySession(DOC)
        row = session.execute(ALL, options=self.make_budget())
        assert row.error is not None and row.result is None
        assert len(session) == 0  # never enters the cycle history
        snap = session.metrics().snapshot()
        assert snap["queries"] == 1 and snap["errors"] == 1


class TestExplicitNoneOverrides:
    """A bundle derived with ``budget=None`` / ``trace=False`` disables a
    session default; omitting ``options`` defers to it."""

    def budgeted_options(self):
        from repro.engine.limits import QueryBudget

        return ExecOptions(budget=QueryBudget(max_work=1))

    def test_omitted_budget_uses_session_default(self):
        from repro.errors import BudgetExceeded

        session = QuerySession(DOC, options=self.budgeted_options())
        with pytest.raises(BudgetExceeded):
            session.run(ALL)

    def test_explicit_none_budget_disables_session_default(self):
        session = QuerySession(DOC, options=self.budgeted_options())
        unbudgeted = replace(session.defaults, budget=None)
        result = session.run(ALL, options=unbudgeted)
        assert len(result.root.find_all("book")) == 2

    def test_explicit_budget_overrides_session_default(self):
        from repro.engine.limits import QueryBudget
        from repro.errors import BudgetExceeded

        session = QuerySession(DOC)  # no session budget at all
        with pytest.raises(BudgetExceeded):
            session.run(
                ALL, options=ExecOptions(budget=QueryBudget(max_work=1))
            )

    def test_explicit_none_trace_disables_session_default(self):
        session = QuerySession(DOC, options=ExecOptions(trace=True))
        session.run(ALL, options=replace(session.defaults, trace=False))
        assert session.current().trace is None
        assert session.current().stats.trace is None

    def test_batch_explicit_none_budget_disables_session_default(self):
        session = QuerySession(DOC, options=self.budgeted_options())
        tripped = session.run_batch([ALL])
        assert tripped[0].error is not None
        unbudgeted = session.run_batch(
            [ALL], options=replace(session.defaults, budget=None)
        )
        assert unbudgeted[0].ok

    def test_batch_explicit_none_trace_disables_session_default(self):
        session = QuerySession(DOC, options=ExecOptions(trace=True))
        assert session.run_batch([ALL])[0].trace is not None
        untraced = replace(session.defaults, trace=False)
        assert session.run_batch([ALL], options=untraced)[0].trace is None


class TestProcessOutcomeAlignment:
    def test_shuffled_outcomes_realign_by_position(self, monkeypatch):
        import repro.engine.shard as shard_mod

        real = shard_mod.ShardedExecutor.run_batch

        def shuffled(self, *args, **kwargs):
            return list(reversed(real(self, *args, **kwargs)))

        monkeypatch.setattr(shard_mod.ShardedExecutor, "run_batch", shuffled)
        bad = "query nosuch { book as B } construct { r { count(B) } }"
        rows = QuerySession(DOC).run_batch(
            [ALL, RECENT, bad], executor="process", max_workers=2
        )
        assert [row.index for row in rows] == [0, 1, 2]
        assert rows[0].source_text == ALL
        assert len(rows[0].result.root.find_all("book")) == 2
        assert rows[1].source_text == RECENT
        assert len(rows[1].result.root.find_all("book")) == 1
        # the error lands on the row that actually failed
        assert rows[0].ok and rows[1].ok and not rows[2].ok
        assert rows[2].source_text == bad

    def test_misaligned_positions_are_rejected(self, monkeypatch):
        import repro.engine.shard as shard_mod

        real = shard_mod.ShardedExecutor.run_batch

        def dropping(self, *args, **kwargs):
            return real(self, *args, **kwargs)[1:]

        monkeypatch.setattr(shard_mod.ShardedExecutor, "run_batch", dropping)
        with pytest.raises(ReproError, match="misaligned"):
            QuerySession(DOC).run_batch([ALL, RECENT], executor="process")


class TestExecOptions:
    """The one ExecOptions contract; the 1.x shims are gone."""

    def test_defaults_always_concrete(self):
        session = QuerySession(DOC)
        assert session.defaults == ExecOptions()
        custom = ExecOptions(engine="pipeline", use_planner=False)
        assert QuerySession(DOC, options=custom).defaults is custom

    def test_unknown_engine_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown engine"):
            ExecOptions(engine="quantum")

    def test_per_call_bundle_replaces_defaults_wholesale(self):
        session = QuerySession(DOC, options=ExecOptions(trace=True))
        session.run(ALL, options=ExecOptions())  # trace not inherited
        assert session.current().trace is None

    def test_derive_one_field_with_replace(self):
        session = QuerySession(DOC, options=None)
        session.run(ALL, options=replace(session.defaults, trace=True))
        assert session.current().trace is not None

    def test_bundle_budget_governs_the_run(self):
        from repro.engine.limits import QueryBudget
        from repro.errors import BudgetExceeded

        session = QuerySession(DOC)
        with pytest.raises(BudgetExceeded):
            session.run(
                ALL, options=ExecOptions(budget=QueryBudget(max_work=1))
            )

    def test_exec_options_has_five_fields(self):
        from dataclasses import fields

        assert [f.name for f in fields(ExecOptions)] == [
            "engine", "rewrite", "use_planner", "trace", "budget",
        ]

    def test_bundle_is_frozen(self):
        with pytest.raises(Exception):
            ExecOptions().trace = True

    def test_match_options_is_gone(self):
        import repro
        import repro.engine.options as options_module

        assert not hasattr(options_module, "MatchOptions")
        with pytest.raises(AttributeError):
            repro.MatchOptions

    def test_trace_keyword_rejected(self):
        with pytest.raises(TypeError, match="trace"):
            QuerySession(DOC).run(ALL, trace=True)

    def test_budget_keyword_rejected(self):
        from repro.engine.limits import QueryBudget

        with pytest.raises(TypeError, match="budget"):
            QuerySession(DOC).run(ALL, budget=QueryBudget(max_work=1))

    def test_execute_and_run_batch_take_the_bundle(self):
        session = QuerySession(DOC)
        bundle = ExecOptions(trace=True)
        assert session.execute(ALL, options=bundle).trace is not None
        rows = session.run_batch([ALL, COUNT], options=bundle)
        assert all(row.trace is not None for row in rows)

    def test_subscribe_takes_the_bundle(self):
        session = QuerySession(parse_document('<bib><book/></bib>'))
        subscription = session.subscribe(
            COUNT, options=ExecOptions(engine="naive")
        )
        assert len(subscription.rows()) == 1
