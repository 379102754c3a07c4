"""Unit tests for the shared DocumentIndex cache."""

from repro.engine.cache import DocumentIndexCache, get_index, invalidate
from repro.ssd import parse_document


def doc():
    return parse_document("<bib><book><title>A</title></book></bib>")


class TestDocumentIndexCache:
    def test_get_builds_once_and_reuses(self):
        cache = DocumentIndexCache()
        d = doc()
        first = cache.get(d)
        second = cache.get(d)
        assert first is second
        assert cache.misses == 1
        assert cache.hits == 1
        assert len(cache) == 1

    def test_distinct_documents_get_distinct_indexes(self):
        cache = DocumentIndexCache()
        a, b = doc(), doc()
        assert cache.get(a) is not cache.get(b)
        assert len(cache) == 2

    def test_peek_never_builds(self):
        cache = DocumentIndexCache()
        d = doc()
        assert cache.peek(d) is None
        assert cache.misses == 0
        cache.get(d)
        assert cache.peek(d) is not None

    def test_invalidate_drops_entry(self):
        cache = DocumentIndexCache()
        d = doc()
        first = cache.get(d)
        assert d in cache
        assert cache.invalidate(d)
        assert d not in cache
        assert not cache.invalidate(d)  # already gone
        assert cache.get(d) is not first  # rebuilt fresh

    def test_invalidate_after_mutation_sees_new_structure(self):
        cache = DocumentIndexCache()
        d = doc()
        assert cache.get(d).tag_count("book") == 1
        book = d.root.find("book")
        from repro.ssd.model import Element

        d.root.append(Element("book", children=[Element("title", children=["B"])]))
        assert book is not None
        cache.invalidate(d)
        assert cache.get(d).tag_count("book") == 2

    def test_clear(self):
        cache = DocumentIndexCache()
        cache.get(doc())
        cache.clear()
        assert len(cache) == 0

    def test_identity_checked_not_just_id(self):
        # a recycled id() must never alias a dead document's index
        cache = DocumentIndexCache()
        d = doc()
        index = cache.get(d)
        entry_ref, entry_index = cache._entries[id(d)]
        assert entry_ref() is d and entry_index is index


class TestSharedCacheHelpers:
    def test_get_index_and_invalidate(self):
        d = doc()
        index = get_index(d)
        assert get_index(d) is index
        assert invalidate(d)
        assert get_index(d) is not index
        invalidate(d)  # leave the shared cache clean


class TestLruBound:
    def test_eviction_at_bound(self):
        cache = DocumentIndexCache(max_documents=2)
        a, b, c = doc(), doc(), doc()
        cache.get(a)
        cache.get(b)
        assert len(cache) == 2 and cache.evictions == 0
        cache.get(c)  # evicts a, the least recently used
        assert len(cache) == 2
        assert cache.evictions == 1
        assert a not in cache and b in cache and c in cache

    def test_hit_refreshes_recency(self):
        cache = DocumentIndexCache(max_documents=2)
        a, b, c = doc(), doc(), doc()
        cache.get(a)
        cache.get(b)
        cache.get(a)  # a is now the most recently used
        cache.get(c)  # so b is the one evicted
        assert b not in cache and a in cache and c in cache

    def test_evicted_entry_rebuilds_as_miss(self):
        cache = DocumentIndexCache(max_documents=1)
        a, b = doc(), doc()
        first = cache.get(a)
        cache.get(b)
        assert cache.get(a) is not first
        assert cache.misses == 3 and cache.hits == 0

    def test_unbounded_never_evicts(self):
        cache = DocumentIndexCache(max_documents=None)
        documents = [doc() for _ in range(100)]
        for d in documents:
            cache.get(d)
        assert len(cache) == 100 and cache.evictions == 0

    def test_bound_validated(self):
        import pytest

        with pytest.raises(ValueError):
            DocumentIndexCache(max_documents=0)


class TestStatsMirroring:
    def test_get_mirrors_hit_and_miss_into_stats(self):
        from repro.engine.stats import EvalStats

        cache = DocumentIndexCache()
        d = doc()
        stats = EvalStats()
        cache.get(d, stats=stats)
        assert stats.cache_misses == 1 and stats.cache_hits == 0
        cache.get(d, stats=stats)
        assert stats.cache_misses == 1 and stats.cache_hits == 1


class TestReleasedByRefcount:
    def test_dropped_cache_frees_its_indexes_without_a_collection(self):
        import weakref

        document = doc()
        cache = DocumentIndexCache()
        index = weakref.ref(cache.get(document))
        released = weakref.ref(cache)
        del cache
        # No reference cycle holds the cache: it and its index go at once,
        # not at the next full garbage collection.
        assert released() is None and index() is None


class TestDropCallbackIdentity:
    """Regressions for the weakref-callback eviction race.

    ``id()`` values are recycled: after an entry is replaced (eviction,
    invalidate + rebuild, or a new document landing on a reused id), the
    *old* document's death callback must not remove the new entry."""

    def test_stale_callback_never_drops_recycled_key(self):
        import gc
        import weakref

        from repro.engine.index import DocumentIndex

        cache = DocumentIndexCache()
        a = doc()
        cache.get(a)
        key = id(a)
        stale_ref = cache._entries[key][0]  # keeps a's ref (and callback) alive
        # simulate id() recycling: a new live document now owns the key
        b = doc()
        cache._entries[key] = (weakref.ref(b), DocumentIndex(b))
        del a
        gc.collect()  # fires a's death callback with the stale ref
        assert key in cache._entries
        assert cache._entries[key][0]() is b
        assert stale_ref() is None

    def test_callback_defers_when_lock_busy(self):
        # A GC run can fire the callback on a thread that already holds the
        # (non-reentrant) cache lock; it must defer, not deadlock.
        cache = DocumentIndexCache()
        a = doc()
        cache.get(a)
        key = id(a)
        ref = cache._entries[key][0]
        callback = cache._make_drop_callback(key)
        with cache._lock:
            callback(ref)  # simulated re-entrant firing
            assert cache._pending_drops == [(key, ref)]
            assert key in cache._entries  # removal deferred, not performed
        cache.get(doc())  # any later cache operation drains the deferral
        assert key not in cache._entries
        assert cache._pending_drops == []

    def test_deferred_drop_ignores_recycled_key(self):
        import weakref

        from repro.engine.index import DocumentIndex

        cache = DocumentIndexCache()
        a = doc()
        cache.get(a)
        key = id(a)
        stale_ref = cache._entries[key][0]
        callback = cache._make_drop_callback(key)
        with cache._lock:
            callback(stale_ref)  # deferred while the lock is busy
        b = doc()
        cache._entries[key] = (weakref.ref(b), DocumentIndex(b))
        cache.get(doc())  # drains the deferral; identity check protects b
        assert cache._entries[key][0]() is b

    def test_clear_discards_pending_drops(self):
        cache = DocumentIndexCache()
        a = doc()
        cache.get(a)
        key = id(a)
        with cache._lock:
            cache._make_drop_callback(key)(cache._entries[key][0])
        cache.clear()
        assert cache._pending_drops == []
        assert len(cache) == 0


class TestRacedBuildRecency:
    """Regression: the "another thread built it first" return path must
    refresh LRU recency and mirror the hit into the caller's stats."""

    def _race(self, cache, winner_doc, monkeypatch):
        """Make the next ``cache.get(winner_doc)`` lose the build race."""
        import weakref

        import repro.engine.cache as cache_mod
        from repro.engine.index import DocumentIndex

        real_cls = DocumentIndex
        raced_index = real_cls(winner_doc)

        def fake_index(document):
            # while "we" are building, another thread finishes first and
            # inserts its entry at the LRU (oldest) position
            cache._entries[id(winner_doc)] = (
                weakref.ref(winner_doc),
                raced_index,
            )
            for key in [k for k in cache._entries if k != id(winner_doc)]:
                cache._entries[key] = cache._entries.pop(key)
            return real_cls(document)

        monkeypatch.setattr(cache_mod, "DocumentIndex", fake_index)
        return raced_index

    def test_raced_return_counts_hit_and_mirrors_stats(self, monkeypatch):
        from repro.engine.stats import EvalStats

        cache = DocumentIndexCache()
        c = doc()
        raced_index = self._race(cache, c, monkeypatch)
        stats = EvalStats()
        assert cache.get(c, stats=stats) is raced_index
        assert cache.hits == 1
        assert stats.cache_hits == 1
        # the losing build still counted its miss before racing
        assert stats.cache_misses == 1

    def test_raced_return_refreshes_recency(self, monkeypatch):
        cache = DocumentIndexCache(max_documents=2)
        a, b = doc(), doc()
        cache.get(a)
        cache.get(b)
        c = doc()
        self._race(cache, c, monkeypatch)
        cache.get(c)  # raced: c entered at LRU position, hit must refresh
        assert list(cache._entries)[-1] == id(c)

    def test_raced_return_records_raced_span_outcome(self, monkeypatch):
        from repro.engine.stats import EvalStats
        from repro.engine.trace import Tracer

        cache = DocumentIndexCache()
        c = doc()
        self._race(cache, c, monkeypatch)
        stats = EvalStats()
        stats.trace = Tracer()
        cache.get(c, stats=stats)
        lookups = stats.trace.find("index.lookup")
        assert [span["outcome"] for span in lookups] == ["raced"]


class TestLookupTraceSpans:
    def test_outcomes_built_then_hit(self):
        from repro.engine.stats import EvalStats
        from repro.engine.trace import Tracer

        cache = DocumentIndexCache()
        d = doc()
        stats = EvalStats()
        stats.trace = Tracer()
        cache.get(d, stats=stats)
        cache.get(d, stats=stats)
        lookups = stats.trace.find("index.lookup")
        assert [span["outcome"] for span in lookups] == ["built", "hit"]
        assert all(span["elements"] > 0 for span in lookups)


class TestThreadSafety:
    def test_concurrent_hits_share_one_index(self):
        import threading

        cache = DocumentIndexCache(max_documents=4)
        d = doc()
        results = []

        def worker():
            for _ in range(200):
                results.append(cache.get(d))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(map(id, results))) == 1
        assert cache.misses >= 1  # concurrent first builds may race benignly
        assert len(cache) == 1
