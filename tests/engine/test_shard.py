"""Tests for process-pool sharded execution (repro.engine.shard).

Covers the pickle boundary (error specs, counter dicts, serialized
sources), merge correctness (stats summation, order stability, document
reassembly), per-shard budget isolation, cancellation fan-out, and the
fork-safety regression for the process-wide singleton caches.
"""

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.engine import shard as shard_module
from repro.engine.cache import shared_cache
from repro.engine.limits import CancelToken, QueryBudget
from repro.engine.metrics import global_registry
from repro.engine.options import ExecOptions
from repro.engine.plan_cache import shared_plans
from repro.engine.shard import (
    CorpusRun,
    ShardOutcome,
    ShardedExecutor,
    ShardTask,
    _cache_sizes,
    _describe_error,
    _evaluate_shard_task,
    _reject_tracing,
    _revive_error,
    balanced_partition,
    merge_shard_results,
    merge_stats,
    serialize_sources,
    shard_document,
)
from repro.engine.stats import EvalStats
from repro.errors import (
    BudgetExceeded,
    DeadlineExceeded,
    EvaluationError,
    QueryCancelled,
    ReproError,
)
from repro.session import QuerySession
from repro.ssd import parse_document, serialize

BIB = parse_document(
    "<bib>"
    '<book year="1999"><title>A</title></book>'
    '<book year="1990"><title>B</title></book>'
    '<book year="2001"><title>C</title></book>'
    "</bib>"
)

ALL_BOOKS = "query { book as B } construct { all { collect B } }"
RECENT = (
    "query { book as B { @year as Y } where Y >= 1995 }"
    " construct { recent { collect B } }"
)
ALL_TITLES = "query { title as T } construct { titles { collect T } }"


def small_corpus(count: int = 5) -> dict:
    corpus = {}
    for index in range(count):
        books = "".join(
            f'<book year="{1990 + j}"><title>t{index}-{j}</title></book>'
            for j in range(index + 1)
        )
        corpus[f"doc{index}"] = parse_document(f"<bib>{books}</bib>")
    return corpus


# -- pure merge/partition logic (no pools) ------------------------------------


class TestBalancedPartition:
    def test_exact_cover_without_duplicates(self):
        weights = [5, 1, 9, 3, 3, 7, 2]
        groups = balanced_partition(weights, 3)
        flat = sorted(position for group in groups for position in group)
        assert flat == list(range(len(weights)))
        assert len(groups) <= 3

    def test_loads_are_balanced(self):
        weights = [10, 10, 10, 1, 1, 1]
        groups = balanced_partition(weights, 3)
        loads = [sum(weights[position] for position in group) for group in groups]
        assert max(loads) <= 11

    def test_more_groups_than_items_drops_empties(self):
        groups = balanced_partition([4, 2], 5)
        assert len(groups) == 2
        assert all(group for group in groups)


class TestStatsMerge:
    def test_from_counters_round_trip(self):
        stats = EvalStats()
        stats.bindings_produced = 7
        stats.candidates_tried = 12
        stats.seconds = 0.25
        stats.extra["truncated"] = 1
        revived = EvalStats.from_counters(stats.as_dict())
        assert revived.as_dict() == stats.as_dict()

    def test_merge_stats_sums_counters(self):
        first, second = EvalStats(), EvalStats()
        first.bindings_produced, second.bindings_produced = 3, 4
        first.seconds, second.seconds = 0.5, 0.25
        outcomes = [
            ShardOutcome(position=i, result=None, counters=s.as_dict(), seconds=0.0)
            for i, s in enumerate((first, second))
        ]
        merged = merge_stats(outcomes)
        assert merged.bindings_produced == 7
        assert merged.seconds == pytest.approx(0.75)


class TestErrorRevival:
    def test_budget_error_revives_typed_with_details(self):
        spec = _describe_error(BudgetExceeded("max_bindings", 10, 11))
        revived = _revive_error(spec, EvalStats())
        assert type(revived) is BudgetExceeded
        assert (revived.limit, revived.allowed, revived.spent) == (
            "max_bindings", 10, 11,
        )

    def test_deadline_revives_as_subclass(self):
        spec = _describe_error(DeadlineExceeded("deadline_ms", 5, 9))
        revived = _revive_error(spec, EvalStats())
        assert type(revived) is DeadlineExceeded
        assert isinstance(revived, BudgetExceeded)

    def test_cancellation_revives_typed(self):
        spec = _describe_error(QueryCancelled(EvalStats()))
        assert type(_revive_error(spec, EvalStats())) is QueryCancelled

    def test_other_errors_degrade_to_evaluation_error(self):
        spec = _describe_error(EvaluationError("unknown variable Q"))
        revived = _revive_error(spec, EvalStats())
        assert type(revived) is EvaluationError
        assert "unknown variable Q" in str(revived)


class TestShardDocument:
    def test_contiguous_split_and_merge_round_trip(self):
        pieces = shard_document(BIB, 2)
        assert len(pieces) == 2
        merged = merge_shard_results(pieces)
        assert merged.root.equals(BIB.root)

    def test_split_preserves_document_order(self):
        titles = []
        for piece in shard_document(BIB, 3):
            titles.extend(
                t.text_content() for t in piece.root.iter("title")
            )
        assert titles == ["A", "B", "C"]

    def test_fewer_subtrees_than_shards(self):
        document = parse_document("<r><only/></r>")
        pieces = shard_document(document, 4)
        assert len(pieces) == 1
        assert pieces[0].root.equals(document.root)

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            shard_document(BIB, 0)

    def test_merge_requires_results(self):
        with pytest.raises(ValueError):
            merge_shard_results([])

    def test_merge_keeps_first_root_identity(self):
        left = parse_document('<out k="1"><a/></out>')
        right = parse_document("<out><b/></out>")
        merged = merge_shard_results([left, right])
        assert merged.root.tag == "out"
        assert merged.root.get("k") == "1"
        assert [c.tag for c in merged.root.child_elements()] == ["a", "b"]


class TestTaskSpecs:
    def test_serialize_sources_single_document(self):
        spec = serialize_sources(BIB)
        assert len(spec) == 1 and spec[0][0] == ""
        assert parse_document(spec[0][1]).root.equals(BIB.root)

    def test_serialize_sources_named_mapping(self):
        spec = serialize_sources({"bib": BIB})
        assert [name for name, _ in spec] == ["bib"]

    def test_tracing_rejected_before_any_fork(self):
        with pytest.raises(ValueError, match="pickle boundary"):
            _reject_tracing(ExecOptions(trace=True))
        with pytest.raises(ValueError):
            ShardedExecutor(max_workers=1).run_batch(
                [ALL_BOOKS], BIB, options=ExecOptions(trace=True)
            )

    def test_session_rejects_tracing_for_process_executor(self):
        session = QuerySession(BIB)
        with pytest.raises(ReproError, match="pickle boundary"):
            session.run_batch(
                [ALL_BOOKS], executor="process", options=ExecOptions(trace=True)
            )

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            QuerySession(BIB).run_batch([ALL_BOOKS], executor="rocket")

    def test_worker_entry_evaluates_in_process(self):
        # The worker entry point runs fine in-process too (no pool): this
        # pins the task → outcome contract without fork overhead.
        task = ShardTask(
            position=3, query=ALL_BOOKS, sources=serialize_sources(BIB)
        )
        outcome = _evaluate_shard_task(task)
        assert outcome.position == 3 and outcome.error is None
        result = parse_document(outcome.result)
        assert len(result.root.find_all("book")) == 3
        assert EvalStats.from_counters(outcome.counters).bindings_produced == 3

    def test_worker_entry_reports_budget_spec(self):
        task = ShardTask(
            position=0,
            query=ALL_BOOKS,
            sources=serialize_sources(BIB),
            options=ExecOptions(budget=QueryBudget(max_bindings=1)),
        )
        outcome = _evaluate_shard_task(task)
        assert outcome.result is None
        assert outcome.error[0] == "BudgetExceeded"


# -- process-pool integration -------------------------------------------------


class TestProcessExecution:
    def test_run_batch_matches_thread_executor(self):
        session = QuerySession(BIB)
        queries = [ALL_BOOKS, RECENT, ALL_TITLES]
        threaded = session.run_batch(queries)
        sharded = session.run_batch(queries, executor="process", max_workers=2)
        assert [row.index for row in sharded] == [0, 1, 2]
        for one, other in zip(threaded, sharded):
            assert serialize(other.result) == serialize(one.result)
            assert other.error is None
            assert (
                other.stats.bindings_produced == one.stats.bindings_produced
            )

    def test_budget_errors_isolate_to_their_rows(self):
        # 3 a-matches stay under the cap; 50 b-matches trip it.  Only the
        # b row may fail, and it must fail with the typed budget error.
        body = "<a/>" * 3 + "<b/>" * 50
        session = QuerySession(parse_document(f"<r>{body}</r>"))
        rows = session.run_batch(
            [
                "query { a as X } construct { out { collect X } }",
                "query { b as X } construct { out { collect X } }",
            ],
            executor="process",
            options=ExecOptions(budget=QueryBudget(max_bindings=10)),
        )
        assert rows[0].error is None
        assert len(rows[0].result.root.find_all("a")) == 3
        assert isinstance(rows[1].error, BudgetExceeded)
        assert rows[1].error.limit == "max_bindings"
        assert rows[1].result is None

    def test_options_budget_holds_with_a_cancel_token(self):
        # The token must ride on the caller's budget, not replace it.
        outcomes = ShardedExecutor(max_workers=1).run_batch(
            [ALL_BOOKS], BIB,
            options=ExecOptions(budget=QueryBudget(max_bindings=1)),
            cancel=CancelToken(),
        )
        assert outcomes[0].error is not None
        assert outcomes[0].error[0] == "BudgetExceeded"

    def test_cancellation_fans_out_to_every_row(self):
        cancel = CancelToken()
        cancel.cancel()
        rows = QuerySession(BIB).run_batch(
            [ALL_BOOKS, RECENT], executor="process", cancel=cancel
        )
        assert all(isinstance(row.error, QueryCancelled) for row in rows)

    def test_map_corpus_merges_in_corpus_order(self):
        corpus = small_corpus(5)
        run = ShardedExecutor(max_workers=2).map_corpus(
            ALL_BOOKS, corpus, shards=3
        )
        assert isinstance(run, CorpusRun) and run.ok
        # per-document results line up with single-process evaluation
        for position, name in enumerate(corpus):
            expected = QuerySession(corpus[name]).run(ALL_BOOKS)
            assert serialize(run.results[position]) == serialize(expected)
        # merged stats are the exact sum of the per-document rows
        merged = EvalStats()
        for row in run.stats_per_document:
            merged = merged + row
        assert run.stats.as_dict() == merged.as_dict()
        assert run.stats.bindings_produced == 1 + 2 + 3 + 4 + 5
        # shard bookkeeping covers the corpus exactly once
        assigned = sorted(name for group in run.shards for name in group)
        assert assigned == sorted(corpus)
        assert len(run.shard_seconds) == len(run.shards)
        assert run.merge_seconds >= 0

    def test_map_corpus_empty(self):
        run = ShardedExecutor(max_workers=1).map_corpus(ALL_BOOKS, {})
        assert run.ok and run.results == [] and run.shards == []

    def test_shard_document_pipeline_equals_single_process(self):
        single = QuerySession(BIB).run(ALL_TITLES)
        pieces = shard_document(BIB, 2)
        run = ShardedExecutor(max_workers=2).map_corpus(
            ALL_TITLES,
            {f"shard{i}": piece for i, piece in enumerate(pieces)},
            shards=len(pieces),
        )
        assert run.ok
        merged = merge_shard_results([r for r in run.results if r is not None])
        assert merged.root.equals(single.root)

    def test_map_corpus_budget_isolates_to_document(self):
        corpus = {
            "small": parse_document("<bib><book/></bib>"),
            "big": parse_document("<bib>" + "<book/>" * 40 + "</bib>"),
        }
        run = ShardedExecutor(max_workers=2).map_corpus(
            ALL_BOOKS, corpus, shards=2,
            options=ExecOptions(budget=QueryBudget(max_bindings=5)),
        )
        assert run.errors[0] is None
        assert isinstance(run.errors[1], BudgetExceeded)
        assert run.results[1] is None
        assert not run.ok


@pytest.mark.skipif(
    not hasattr(os, "register_at_fork"),
    reason="os.register_at_fork unavailable",
)
class TestForkSafety:
    def test_forked_worker_starts_with_empty_singletons(self):
        # Populate the parent's process-wide caches/metrics, then fork a
        # worker WITHOUT the pool initialiser: the register_at_fork hooks
        # alone must hand the child fresh locks and empty state.
        session = QuerySession(BIB, indexes=shared_cache, plans=shared_plans)
        stats = EvalStats()
        stats.bindings_produced = 1
        global_registry.record(stats)
        session.run(ALL_BOOKS)
        assert len(shared_cache) > 0 or len(shared_plans) > 0
        with ProcessPoolExecutor(
            max_workers=1, mp_context=multiprocessing.get_context("fork")
        ) as pool:
            child_sizes = pool.submit(_cache_sizes).result(timeout=60)
        assert child_sizes == (0, 0, 0)

    def test_reset_worker_state_clears_revival_memo(self):
        shard_module._revived_sources[(("", "<r/>"),)] = parse_document("<r/>")
        shard_module.reset_worker_state()
        assert shard_module._revived_sources == {}
