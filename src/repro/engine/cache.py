"""Shared per-document :class:`DocumentIndex` cache.

The engines treat documents as frozen during evaluation, so an index built
for one query answers every later query over the same document.  Before
this cache each entry point (session, CLI, evaluator, benchmarks) kept its
own ``dict`` keyed by ``id(document)`` — or rebuilt the index per query.
They now share one process-wide cache:

    from repro.engine.cache import get_index, invalidate
    index = get_index(document)     # built once, then reused
    document.root.append(...)       # raw tree mutation invalidates...
    invalidate(document)            # ...which the caller signals explicitly

**Invalidation contract.**  Entries are keyed by a weak reference to the
document and checked by identity, so a recycled ``id()`` can never alias a
dead document.  An index holds the element tree (and through parent links
the document) alive, so entries persist until :func:`invalidate` /
:meth:`DocumentIndexCache.clear` — callers that mutate a document *by
hand* **must** invalidate it.  The typed mutation API
(:mod:`repro.engine.mutate`) is the exception and the point: it maintains
the cached index **in place** (gap-label maintenance and pool splices),
so under churn the cache keeps serving the same entry instead of
rebuilding — use it over raw tree edits wherever possible.

**Bound.**  The cache is LRU-bounded over *document count*
(``max_documents``): inserting beyond the bound evicts the least recently
used snapshot (counted in :attr:`DocumentIndexCache.evictions`), so
many-document workloads — batch serving, large collection sweeps — no
longer grow the cache without limit.  ``max_documents=None`` restores the
unbounded behaviour for callers that manage lifetimes themselves.  Hits
and misses are tallied on the cache and, when an
:class:`~repro.engine.stats.EvalStats` is passed to :meth:`get`, surfaced
per-evaluation through ``stats.cache_hits`` / ``stats.cache_misses``.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Optional

from .index import DocumentIndex
from .stats import EvalStats
from ..ssd.model import Document

__all__ = [
    "DEFAULT_MAX_DOCUMENTS",
    "DocumentIndexCache",
    "get_index",
    "invalidate",
    "shared_cache",
]

#: Bound of the process-wide shared cache.  Generous for interactive and
#: benchmark use while keeping many-document batch workloads from pinning
#: every document they ever touched.
DEFAULT_MAX_DOCUMENTS = 64


class DocumentIndexCache:
    """Weakref-keyed, LRU-bounded, explicitly invalidated index cache."""

    def __init__(self, max_documents: Optional[int] = DEFAULT_MAX_DOCUMENTS) -> None:
        if max_documents is not None and max_documents < 1:
            raise ValueError("max_documents must be at least 1 (or None)")
        # Insertion order doubles as recency order: hits reinsert their
        # entry, so the first key is always the least recently used.
        self._entries: dict[int, tuple[weakref.ref, DocumentIndex]] = {}
        # Indexes are shared read-only, but the LRU bookkeeping reorders
        # the dict on every hit — guard it so concurrent batch evaluation
        # (QuerySession.run_batch) can share one cache.
        self._lock = threading.Lock()
        # Dead-document removals the weakref callback could not perform
        # because the lock was busy; drained under the lock on the next
        # cache operation.  A plain list: append/pop are atomic under the
        # GIL, so the callback never needs the lock to defer.
        self._pending_drops: list[tuple[int, weakref.ref]] = []
        self.max_documents = max_documents
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(
        self, document: Document, stats: Optional[EvalStats] = None
    ) -> DocumentIndex:
        """The cached index for ``document``, building it on first use.

        Passing ``stats`` mirrors the hit/miss into that evaluation's
        ``cache_hits`` / ``cache_misses`` counters — and, when the stats
        carry a tracer, records an ``index.lookup`` span whose ``outcome``
        attribute is ``hit``, ``built`` or ``raced`` (another thread built
        the index first).
        """
        tracer = stats.trace if stats is not None else None
        if tracer is None:
            return self._lookup(document, stats)[0]
        with tracer.span("index.lookup") as span:
            index, outcome = self._lookup(document, stats)
            span["outcome"] = outcome
            span["elements"] = index.element_count()
        return index

    def _lookup(
        self, document: Document, stats: Optional[EvalStats]
    ) -> tuple[DocumentIndex, str]:
        key = id(document)
        with self._lock:
            self._flush_pending_drops()
            entry = self._entries.get(key)
            if entry is not None and entry[0]() is document:
                self._record_hit(key, stats)
                return entry[1], "hit"
            self.misses += 1
            if stats is not None:
                stats.cache_misses += 1
        # build outside the lock: indexing a large document must not stall
        # every other thread's cache hits
        index = DocumentIndex(document)
        ref = weakref.ref(document, self._make_drop_callback(key))
        with self._lock:
            self._flush_pending_drops()
            entry = self._entries.get(key)
            if entry is not None and entry[0]() is document:
                # Another thread built it first.  Count the hit and refresh
                # recency: without the refresh a concurrently-hot document
                # keeps its stale LRU position and becomes the next
                # eviction victim despite being the busiest entry.
                self._record_hit(key, stats)
                return entry[1], "raced"
            self._entries[key] = (ref, index)
            if self.max_documents is not None:
                while len(self._entries) > self.max_documents:
                    oldest = next(iter(self._entries))
                    del self._entries[oldest]
                    self.evictions += 1
        return index, "built"

    def _record_hit(self, key: int, stats: Optional[EvalStats]) -> None:
        """Tally a hit and move ``key`` to most-recently-used (lock held)."""
        self.hits += 1
        if stats is not None:
            stats.cache_hits += 1
        self._entries[key] = self._entries.pop(key)

    def _make_drop_callback(self, key: int):
        """The weakref callback dropping ``key`` once its document dies.

        ``id()`` values are recycled: after an eviction, a *new* live
        document can occupy the same key, so removal must check that the
        entry still belongs to the dying reference (``entry[0] is ref`` —
        the ref object's identity, never the recycled id).  The callback
        can fire on any thread — including re-entrantly on a thread that
        already holds ``_lock`` (a GC run inside a locked section) — so it
        only tries the lock without blocking and defers to
        ``_pending_drops`` when the lock is busy.  It holds the cache
        weakly: a strong reference would make every cache with an entry a
        reference cycle, so a dropped cache and its indexes would wait
        for a full garbage collection instead of going at once.
        """
        cache_ref = weakref.ref(self)

        def _dropped(ref: weakref.ref) -> None:
            self = cache_ref()
            if self is None:
                return
            if self._lock.acquire(blocking=False):
                try:
                    self._drop_if_current(key, ref)
                finally:
                    self._lock.release()
            else:
                self._pending_drops.append((key, ref))

        return _dropped

    def _drop_if_current(self, key: int, ref: weakref.ref) -> None:
        """Remove ``key`` if it still holds ``ref``'s entry (lock held)."""
        entry = self._entries.get(key)
        if entry is not None and entry[0] is ref:
            del self._entries[key]

    def _flush_pending_drops(self) -> None:
        """Apply removals a busy lock made the callback defer (lock held)."""
        while self._pending_drops:
            key, ref = self._pending_drops.pop()
            self._drop_if_current(key, ref)

    def peek(self, document: Document) -> DocumentIndex | None:
        """The cached index, or ``None`` — never builds, never reorders."""
        entry = self._entries.get(id(document))
        if entry is not None and entry[0]() is document:
            return entry[1]
        return None

    def invalidate(self, document: Document) -> bool:
        """Drop ``document``'s entry (after mutation); True if one existed."""
        with self._lock:
            self._flush_pending_drops()
            return self._entries.pop(id(document), None) is not None

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            del self._pending_drops[:]
            self._entries.clear()

    def _reset_after_fork(self) -> None:
        """Reinitialise in a forked child: fresh lock, no inherited entries.

        A fork can happen while another thread holds ``_lock`` — the child
        inherits a lock that will never be released — and the inherited
        entries point at parent-built indexes the child never asked for.
        The child starts from a pristine cache (counters included), which
        is also what the sharded executor's workers assert
        (:mod:`repro.engine.shard`).
        """
        self._lock = threading.Lock()
        self._entries = {}
        self._pending_drops = []
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, document: object) -> bool:
        return isinstance(document, Document) and self.peek(document) is not None


#: Process-wide cache shared by the session, CLI, evaluator and benchmarks.
shared_cache = DocumentIndexCache()

# Fork-safety: a pool worker forked mid-benchmark must not serve (or
# deadlock on) the parent's cache state.  Spawned workers import this
# module fresh and need no hook.
if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX in CI
    os.register_at_fork(after_in_child=shared_cache._reset_after_fork)


def get_index(document: Document, stats: Optional[EvalStats] = None) -> DocumentIndex:
    """Shared-cache lookup (see the module docstring for the contract)."""
    return shared_cache.get(document, stats)


def invalidate(document: Document) -> bool:
    """Drop ``document`` from the shared cache after mutating it."""
    return shared_cache.invalidate(document)
