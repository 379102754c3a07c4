"""Tests for the compiled-plan cache (repro.engine.plan_cache) and its
wiring through QuerySession, tracing and stats-epoch invalidation."""

import pytest

from repro.engine.cache import DocumentIndexCache
from repro.engine.plan_cache import CompiledPlan, PlanCache
from repro.session import ExecOptions, QuerySession
from repro.ssd import parse_document
from repro.ssd.model import Element

QUERY = "query { book as B { title as T } } construct { r { collect T } }"
OTHER = "query { book as B { @year as Y } } construct { r { collect Y } }"

XML = (
    "<bib>"
    '<book year="1999"><title>A</title></book>'
    '<book year="1990"><title>B</title></book>'
    "</bib>"
)


def plan(tag: str) -> CompiledPlan:
    return CompiledPlan(rule=tag, preflight_skip=False, graph_plans=())


class TestLruMechanics:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="max_entries"):
            PlanCache(max_entries=0)

    def test_eviction_drops_least_recently_used(self):
        cache = PlanCache(max_entries=2)
        cache.put("a", plan("a"))
        cache.put("b", plan("b"))
        cache.put("c", plan("c"))  # evicts "a"
        assert len(cache) == 2
        assert cache.get("a") is None
        assert cache.get("c").rule == "c"
        assert cache.stats()["evictions"] == 1

    def test_hit_refreshes_recency(self):
        cache = PlanCache(max_entries=2)
        cache.put("a", plan("a"))
        cache.put("b", plan("b"))
        assert cache.get("a").rule == "a"  # "b" is now the oldest
        cache.put("c", plan("c"))
        assert cache.get("b") is None
        assert cache.get("a").rule == "a"

    def test_counters_and_clear(self):
        cache = PlanCache()
        assert cache.get("missing") is None
        cache.put("k", plan("k"))
        assert cache.get("k") is not None
        cache.invalidate("k")
        assert len(cache) == 0
        assert cache.get("k") is None
        cache.put("k", plan("k"))
        cache.clear()
        assert len(cache) == 0
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 2  # counters survive clear()


@pytest.fixture
def caches():
    return DocumentIndexCache(), PlanCache()


@pytest.fixture
def session(caches):
    indexes, plans = caches
    return QuerySession(parse_document(XML), indexes=indexes, plans=plans)


class TestSessionWiring:
    def test_repeat_run_hits_and_skips_parse(self, session):
        session.run(QUERY, options=ExecOptions(trace=True))
        cold = session.current()
        assert cold.stats.plan_cache_misses == 1
        assert cold.stats.plan_cache_hits == 0
        assert cold.trace.find("parse")
        assert cold.trace.find("plan.cache.compile")
        assert cold.trace.find("plan.cache.miss")

        session.run(QUERY, options=ExecOptions(trace=True))
        warm = session.current()
        assert warm.stats.plan_cache_hits == 1
        assert warm.stats.plan_cache_misses == 0
        # a hit skips parse + analysis entirely; the event says so
        assert not warm.trace.find("parse")
        assert not warm.trace.find("plan.cache.compile")
        assert warm.trace.find("plan.cache.hit")
        assert warm.result.text_content() == cold.result.text_content()

    def test_distinct_queries_get_distinct_entries(self, session, caches):
        _, plans = caches
        session.run(QUERY)
        session.run(OTHER)
        assert len(plans) == 2
        assert session.current().stats.plan_cache_misses == 1

    def test_stats_epoch_change_invalidates(self, caches):
        indexes, plans = caches
        document = parse_document(XML)
        session = QuerySession(document, indexes=indexes, plans=plans)
        session.run(QUERY)
        first = session.current()
        assert first.stats.plan_cache_misses == 1

        # mutate the document and invalidate its index: the rebuilt index
        # carries a fresh stats epoch, so the old plan key never matches
        book = Element("book")
        book.set("year", "2001")
        title = Element("title")
        title.append("C")
        book.append(title)
        document.root.append(book)
        assert indexes.invalidate(document)

        session.run(QUERY)
        second = session.current()
        assert second.stats.plan_cache_misses == 1
        assert second.stats.plan_cache_hits == 0
        # the recompiled plan sees the mutated document
        assert "C" in second.result.text_content()
        # the stale entry ages out of the LRU rather than being evented
        assert len(plans) == 2

    def test_semantically_equal_queries_share_one_entry(self, session, caches):
        _, plans = caches
        # textually different: branch order and variable names differ, but
        # canonicalization maps both to the same plan-cache key
        shuffled = (
            "query { book as BK { @year as YR  title as TI } } "
            "construct { r { collect TI } }"
        )
        original = (
            "query { book as B { title as T  @year as Y } } "
            "construct { r { collect T } }"
        )
        session.run(original)
        cold = session.current()
        assert cold.stats.plan_cache_misses == 1

        session.run(shuffled)
        warm = session.current()
        assert warm.stats.plan_cache_hits == 1
        assert warm.stats.plan_cache_misses == 0
        assert len(plans) == 1
        assert warm.result.text_content() == cold.result.text_content()

    def test_rewrite_off_keys_do_not_alias(self, session, caches):
        from repro import ExecOptions

        _, plans = caches
        raw = ExecOptions(rewrite=False)
        session.run(QUERY, options=raw)
        assert session.current().stats.plan_cache_misses == 1
        session.run(QUERY, options=raw)
        warm = session.current()
        assert warm.stats.plan_cache_hits == 1
        assert warm.stats.plan_cache_misses == 0
        assert len(plans) == 1

    def test_warm_hit_skips_preflight_and_lint(self, session):
        # satellite: analysis results ride with the compiled plan, so a
        # warm hit must not re-run the lint/pre-flight passes
        session.run(QUERY)
        cold = session.current()
        assert cold.stats.preflight_runs >= 1

        session.run(QUERY)
        warm = session.current()
        assert warm.stats.plan_cache_hits == 1
        assert warm.stats.preflight_runs == 0

    def test_run_batch_rows_take_deterministic_hits(self, caches):
        indexes, plans = caches
        session = QuerySession(
            parse_document(XML), indexes=indexes, plans=plans
        )
        results = session.run_batch([QUERY] * 6, max_workers=4)
        assert all(row.ok for row in results)
        # the calling thread prewarms the plan once; every worker row then
        # takes exactly one hit and never compiles
        for row in results:
            assert row.stats.plan_cache_hits == 1
            assert row.stats.plan_cache_misses == 0
        assert plans.stats()["misses"] == 1
        assert len(plans) == 1
