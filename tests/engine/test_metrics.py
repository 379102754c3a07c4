"""Unit tests for the cross-query metrics registry."""

import json
import logging
import threading

import pytest

from repro.engine.limits import QueryBudget
from repro.engine.metrics import MetricsRegistry
from repro.engine.stats import EvalStats
from repro.workloads import bibliography
from repro.xmlgl.dsl import parse_rule
from repro.xmlgl.evaluator import rule_bindings


def stats_with(**counters) -> EvalStats:
    stats = EvalStats()
    for name, value in counters.items():
        setattr(stats, name, value)
    return stats


class TestRecording:
    def test_totals_sum_counters(self):
        registry = MetricsRegistry()
        registry.record(stats_with(bindings_produced=3, cache_hits=1))
        registry.record(stats_with(bindings_produced=4, cache_misses=2))
        totals = registry.totals()
        assert totals["bindings_produced"] == 7
        assert totals["cache_hits"] == 1 and totals["cache_misses"] == 2
        assert registry.queries == 2

    def test_extra_counters_fold_in(self):
        registry = MetricsRegistry()
        stats = EvalStats()
        stats.bump("fallback_budget")
        registry.record(stats)
        registry.record(stats)
        assert registry.totals()["fallback_budget"] == 2

    def test_seconds_defaults_to_stats_seconds(self):
        registry = MetricsRegistry()
        registry.record(stats_with(seconds=0.25))
        assert registry.snapshot()["latency"]["max"] == 0.25

    def test_explicit_seconds_wins(self):
        registry = MetricsRegistry()
        registry.record(stats_with(seconds=0.25), seconds=1.0)
        assert registry.snapshot()["latency"]["max"] == 1.0

    def test_errors_counted(self):
        registry = MetricsRegistry()
        registry.record(EvalStats(), error=True)
        registry.record(EvalStats())
        snap = registry.snapshot()
        assert snap["errors"] == 1 and snap["queries"] == 2

    def test_reset_drops_aggregates(self):
        registry = MetricsRegistry()
        registry.record(stats_with(bindings_produced=1))
        registry.reset()
        assert registry.queries == 0
        assert registry.totals() == {}
        assert registry.snapshot()["latency"]["samples"] == 0


class TestSnapshot:
    def test_rates_none_until_counters_tick(self):
        snap = MetricsRegistry().snapshot()
        assert snap["cache_hit_rate"] is None
        assert snap["pipeline_fallback_rate"] is None

    def test_cache_hit_rate(self):
        registry = MetricsRegistry()
        registry.record(stats_with(cache_hits=3, cache_misses=1))
        assert registry.snapshot()["cache_hit_rate"] == 0.75

    def test_fallback_rate(self):
        registry = MetricsRegistry()
        registry.record(stats_with(pipeline_fragments=3, pipeline_fallbacks=1))
        assert registry.snapshot()["pipeline_fallback_rate"] == pytest.approx(1 / 3)

    def test_fallback_rate_of_a_degraded_one_fragment_query(self):
        # A degraded fragment is one of the pipeline's fragments, so a
        # query whose only fragment tripped the row cap reads 1.0.
        stats = EvalStats()
        rule_bindings(
            parse_rule("query { book as B } construct { r { collect B } }"),
            bibliography(200, seed=0),
            budget=QueryBudget(max_hashjoin_rows=10),
            stats=stats,
        )
        assert (stats.pipeline_fragments, stats.pipeline_fallbacks) == (1, 1)
        registry = MetricsRegistry()
        registry.record(stats)
        assert registry.snapshot()["pipeline_fallback_rate"] == 1.0

    def test_percentiles_nearest_rank(self):
        registry = MetricsRegistry()
        for value in range(1, 101):  # 0.01 .. 1.00
            registry.record(stats_with(seconds=value / 100))
        latency = registry.snapshot()["latency"]
        assert latency["samples"] == 100
        assert latency["p50"] == pytest.approx(0.50, abs=0.02)
        assert latency["p95"] == pytest.approx(0.95, abs=0.02)
        assert latency["max"] == 1.0

    def test_sample_bound(self):
        registry = MetricsRegistry(max_samples=4)
        for value in (9.0, 9.0, 1.0, 1.0, 1.0, 1.0):
            registry.record(stats_with(seconds=value))
        # only the most recent 4 samples survive
        assert registry.snapshot()["latency"]["max"] == 1.0
        assert registry.queries == 6

    def test_max_samples_validated(self):
        with pytest.raises(ValueError):
            MetricsRegistry(max_samples=0)

    def test_to_json_round_trips(self):
        registry = MetricsRegistry()
        registry.record(stats_with(bindings_produced=2, seconds=0.1))
        payload = json.loads(registry.to_json())
        assert payload["queries"] == 1
        assert payload["totals"]["bindings_produced"] == 2


class TestSlowQueryHook:
    def test_callback_fires_over_threshold(self):
        registry = MetricsRegistry()
        seen = []
        registry.set_slow_query_log(0.5, seen.append)
        registry.record(stats_with(seconds=0.1), query="fast")
        registry.record(stats_with(seconds=0.9), query="slow")
        assert len(seen) == 1
        entry = seen[0]
        assert entry["query"] == "slow"
        assert entry["seconds"] == 0.9
        assert entry["counters"]["seconds"] == 0.9

    def test_default_hook_logs_warning(self, caplog):
        registry = MetricsRegistry()
        registry.set_slow_query_log(0.5)
        with caplog.at_level(logging.WARNING, logger="repro.metrics"):
            registry.record(stats_with(seconds=0.9), query="q")
        assert any("slow query" in record.message for record in caplog.records)

    def test_none_threshold_disarms(self):
        registry = MetricsRegistry()
        seen = []
        registry.set_slow_query_log(0.0, seen.append)
        registry.set_slow_query_log(None)
        registry.record(stats_with(seconds=9.0))
        assert seen == []

    def test_callback_may_reenter_registry(self):
        registry = MetricsRegistry()

        def hook(entry):
            # fired outside the lock, so reading back must not deadlock
            registry.snapshot()

        registry.set_slow_query_log(0.0, hook)
        registry.record(stats_with(seconds=1.0))
        assert registry.queries == 1


class TestThreadSafety:
    def test_concurrent_records_never_lose_counts(self):
        registry = MetricsRegistry()

        def worker():
            for _ in range(200):
                registry.record(stats_with(bindings_produced=1, seconds=0.001))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.queries == 1600
        assert registry.totals()["bindings_produced"] == 1600
