"""Process-wide evaluation metrics.

:class:`EvalStats` counts one evaluation; a :class:`MetricsRegistry`
aggregates *across* evaluations — the serving-side view the ROADMAP's
heavy-traffic north star needs: how often the shared index cache hits, how
often the pipeline falls back to backtracking, and where the latency
percentiles sit.  A registry is thread-safe (``QuerySession.run_batch``
records from worker threads) and cheap to record into: one lock, one dict
merge, one deque append.

Usage::

    registry = MetricsRegistry()
    registry.record(stats, seconds=elapsed, query=text)
    registry.snapshot()["latency"]["p95"]
    print(registry.to_json())

**Slow-query hook.**  ``set_slow_query_log(threshold)`` arms a callback
invoked (outside the registry lock) for every recorded evaluation whose
wall time exceeds the threshold.  The callback receives one dict with keys
``seconds``, ``query`` (source text or ``None``) and ``counters`` (the
evaluation's :meth:`EvalStats.as_dict`).  Without an explicit callback the
record goes to ``logging.getLogger("repro.metrics")`` at WARNING level —
the stdlib wiring means production deployments aim it at their usual log
pipeline with zero extra code.

:data:`global_registry` is the process-wide instance the CLI records into;
sessions default to a private registry so their totals stay attributable
(pass ``metrics=global_registry`` to pool them).
"""

from __future__ import annotations

import json
import logging
import os
import threading
from collections import deque
from typing import Any, Callable, Optional

from .stats import EvalStats

__all__ = ["MetricsRegistry", "global_registry"]

logger = logging.getLogger("repro.metrics")

SlowQueryHook = Callable[[dict[str, Any]], None]

#: Latency samples kept for percentile estimation (most recent wins).
DEFAULT_MAX_SAMPLES = 4096


def _percentile(ordered: list[float], fraction: float) -> float:
    """Nearest-rank percentile over an already-sorted sample list."""
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


class MetricsRegistry:
    """Aggregates :class:`EvalStats` counters and latencies across queries."""

    def __init__(self, max_samples: int = DEFAULT_MAX_SAMPLES) -> None:
        if max_samples < 1:
            raise ValueError("max_samples must be at least 1")
        self._lock = threading.Lock()
        self._totals: dict[str, float] = {}
        self._queries = 0
        self._errors = 0
        self._samples: deque[float] = deque(maxlen=max_samples)
        self._slow_threshold: Optional[float] = None
        self._slow_hook: Optional[SlowQueryHook] = None

    # -- recording -----------------------------------------------------------

    def record(
        self,
        stats: EvalStats,
        seconds: Optional[float] = None,
        query: Optional[str] = None,
        error: bool = False,
    ) -> None:
        """Fold one evaluation into the aggregate.

        ``seconds`` defaults to ``stats.seconds`` (the matcher-measured
        wall time); pass the caller-measured end-to-end figure when you
        have one.  ``error=True`` counts the evaluation in ``errors``
        (``run_batch`` rows whose query raised).
        """
        elapsed = stats.seconds if seconds is None else seconds
        counters = stats.as_dict()
        with self._lock:
            self._queries += 1
            if error:
                self._errors += 1
            for name, amount in counters.items():
                self._totals[name] = self._totals.get(name, 0) + amount
            self._samples.append(elapsed)
            threshold, hook = self._slow_threshold, self._slow_hook
        if threshold is not None and elapsed > threshold:
            entry = {"seconds": elapsed, "query": query, "counters": counters}
            if hook is not None:
                hook(entry)
            else:
                logger.warning(
                    "slow query (%.3fs > %.3fs threshold): %s",
                    elapsed,
                    threshold,
                    query if query is not None else "<rule object>",
                )

    def set_slow_query_log(
        self,
        threshold_seconds: Optional[float],
        callback: Optional[SlowQueryHook] = None,
    ) -> None:
        """Arm (or, with ``None``, disarm) the slow-query hook."""
        with self._lock:
            self._slow_threshold = threshold_seconds
            self._slow_hook = callback

    def reset(self) -> None:
        """Drop every aggregate (the hook configuration survives)."""
        with self._lock:
            self._totals.clear()
            self._queries = 0
            self._errors = 0
            self._samples.clear()

    def _reset_after_fork(self) -> None:
        """Reinitialise in a forked child: fresh lock, zero aggregates.

        A pool worker must not report the parent's query history as its
        own, and must not inherit a lock a parent thread held at fork
        time.  The slow-query hook is dropped too — it may close over
        parent-only state (an open log handle, a queue).
        """
        self._lock = threading.Lock()
        self._totals = {}
        self._queries = 0
        self._errors = 0
        self._samples = deque(maxlen=self._samples.maxlen)
        self._slow_threshold = None
        self._slow_hook = None

    # -- reading -------------------------------------------------------------

    @property
    def queries(self) -> int:
        return self._queries

    def totals(self) -> dict[str, float]:
        """Summed :meth:`EvalStats.as_dict` counters over every record."""
        with self._lock:
            return dict(self._totals)

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready aggregate: totals, derived rates, latency histogram.

        Rates divide counter pairs recorded by the engines: the cache hit
        rate is ``cache_hits / (cache_hits + cache_misses)``, the fallback
        rate ``pipeline_fallbacks / pipeline_fragments`` (the share of
        pipeline fragments the row cap degraded) — both ``None`` until a
        relevant counter ticked.  Percentiles cover the most recent ``max_samples``
        evaluations (nearest-rank).

        The ``governance`` block surfaces the resource-governance
        counters (``budget_exceeded``, ``truncated_results``,
        ``degraded_fragments``) explicitly — always present, zero when
        no budgeted query has tripped — so dashboards need not know the
        counters exist before they tick.
        """
        with self._lock:
            totals = dict(self._totals)
            queries = self._queries
            errors = self._errors
            ordered = sorted(self._samples)
        hits = totals.get("cache_hits", 0)
        misses = totals.get("cache_misses", 0)
        plan_hits = totals.get("plan_cache_hits", 0)
        plan_misses = totals.get("plan_cache_misses", 0)
        fragments = totals.get("pipeline_fragments", 0)
        fallbacks = totals.get("pipeline_fallbacks", 0)
        return {
            "governance": {
                "budget_exceeded": int(totals.get("budget_exceeded", 0)),
                "truncated_results": int(totals.get("truncated_results", 0)),
                "degraded_fragments": int(totals.get("degraded_fragments", 0)),
            },
            "queries": queries,
            "errors": errors,
            "totals": totals,
            "cache_hit_rate": (
                hits / (hits + misses) if hits + misses else None
            ),
            "plan_cache_hit_rate": (
                plan_hits / (plan_hits + plan_misses)
                if plan_hits + plan_misses
                else None
            ),
            "pipeline_fallback_rate": (
                fallbacks / fragments if fragments else None
            ),
            "latency": {
                "samples": len(ordered),
                "mean": sum(ordered) / len(ordered) if ordered else 0.0,
                "p50": _percentile(ordered, 0.50),
                "p95": _percentile(ordered, 0.95),
                "max": ordered[-1] if ordered else 0.0,
            },
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The snapshot as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


#: Process-wide registry (the CLI records every evaluation here).
global_registry = MetricsRegistry()

# Fork-safety: mirrors the shared caches (see repro.engine.cache).
if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX in CI
    os.register_at_fork(after_in_child=global_registry._reset_after_fork)
