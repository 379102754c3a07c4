"""Compiled-plan cache.

Parsing, validation and plan compilation (or-expansion, edge
classification, fragment discovery, condition pushdown — see
:func:`repro.xmlgl.matcher.compile_graph`) are document-independent, so a
query evaluated twice over unchanged documents repeats that analysis for
nothing.  :class:`PlanCache` memoises the fully analysed plan, keyed by
the SHA-256 digest of the query's **canonical rewritten form**
(:func:`repro.analysis.rewrite.canonical_rule_text`).  A compiled plan
depends only on the query graph — never on a document or its index — so
the key carries nothing else and document mutations never invalidate an
entry.  Entries age out of the LRU.

Because computing the canonical key itself requires a parse and a rewrite
pass, a second, much cheaper **alias map** sits in front of the entries:
it maps the digest of the raw query *text* to the canonical
key it resolved to last time.  A warm repeat of the identical text
resolves through the alias without parsing; a *different* text with the
same meaning parses once, lands on the same canonical key, and then
shares the compiled plan.  Aliases are bookkeeping, not entries: they are
excluded from ``len()``/``stats()``/hit/miss counters and bounded
separately (a stale alias merely falls through to a normal miss).

The cache is a lock-guarded LRU (``dict`` insertion order, move-to-end on
hit) safe for :meth:`repro.session.QuerySession.run_batch`'s worker
threads; entries are immutable compiled plans shared freely across
threads.  ``shared_plans`` is the process-wide default, mirroring the
``shared_cache`` convention of :mod:`repro.engine.cache`.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Any, Hashable, Optional

__all__ = ["CompiledPlan", "PlanCache", "shared_plans"]


@dataclass(frozen=True)
class CompiledPlan:
    """One cached analysis: parsed rule plus per-graph compiled plans.

    ``graph_plans`` holds one :class:`repro.xmlgl.matcher.CompiledGraphPlan`
    per extract graph of the rule (typed ``Any`` to keep this module free
    of language imports).  ``preflight_skip`` records a static
    contradiction verdict: the rule can never bind, so evaluation
    short-circuits without matching (and ``graph_plans`` is empty).

    ``rewrite`` is the :class:`repro.analysis.rewrite.RewriteReport` of the
    rewrite pass that produced ``rule`` (``None`` when the plan was
    compiled with rewriting disabled); caching it alongside the plan means
    warm hits replay the rewrite/analysis outcome without re-running any
    static pass.
    """

    rule: Any
    preflight_skip: bool
    graph_plans: tuple[Any, ...]
    rewrite: Optional[Any] = None


class PlanCache:
    """Thread-safe LRU over compiled plans."""

    def __init__(self, max_entries: int = 128) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self._max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: dict[Hashable, CompiledPlan] = {}
        # raw-text-key -> canonical entry key; bounded separately, never
        # counted as entries (see the module docstring)
        self._aliases: dict[Hashable, Hashable] = {}
        self._max_aliases = 4 * max_entries
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: Hashable) -> Optional[CompiledPlan]:
        """The cached plan for ``key``, refreshed to most-recent, or ``None``."""
        with self._lock:
            plan = self._entries.pop(key, None)
            if plan is None:
                self._misses += 1
                return None
            self._entries[key] = plan  # re-insert = move to LRU tail
            self._hits += 1
            return plan

    def put(self, key: Hashable, plan: CompiledPlan) -> None:
        """Insert ``plan``, evicting least-recently-used entries over capacity."""
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = plan
            while len(self._entries) > self._max_entries:
                oldest = next(iter(self._entries))
                del self._entries[oldest]
                self._evictions += 1

    def resolve_alias(self, key: Hashable) -> Optional[Hashable]:
        """The canonical entry key a raw-text key resolved to, if recorded.

        Purely advisory: the returned key may have aged out of the LRU, in
        which case :meth:`get` reports a normal miss.  Alias lookups do not
        touch the hit/miss counters — only entry lookups are accounted.
        """
        with self._lock:
            target = self._aliases.pop(key, None)
            if target is not None:
                self._aliases[key] = target  # refresh recency
            return target

    def put_alias(self, key: Hashable, target: Hashable) -> None:
        """Record that raw-text ``key`` resolves to entry key ``target``."""
        if key == target:
            return
        with self._lock:
            self._aliases.pop(key, None)
            self._aliases[key] = target
            while len(self._aliases) > self._max_aliases:
                del self._aliases[next(iter(self._aliases))]

    def invalidate(self, key: Hashable) -> None:
        """Drop one entry if present."""
        with self._lock:
            self._entries.pop(key, None)

    def clear(self) -> None:
        """Drop every entry and alias; counters keep accumulating."""
        with self._lock:
            self._entries.clear()
            self._aliases.clear()

    def _reset_after_fork(self) -> None:
        """Reinitialise in a forked child (fresh lock, empty, zero counters).

        An inherited lock held by a parent thread at fork time would
        deadlock the child, and a child starts from its own empty cache
        and counters.
        """
        self._lock = threading.Lock()
        self._entries = {}
        self._aliases = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        """Lifetime counters plus current size (one consistent snapshot)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self._max_entries,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            }


#: Process-wide default cache (mirrors ``repro.engine.cache.shared_cache``).
shared_plans = PlanCache()

# Fork-safety: mirrors the shared index cache (see repro.engine.cache).
if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX in CI
    os.register_at_fork(after_in_child=shared_plans._reset_after_fork)
