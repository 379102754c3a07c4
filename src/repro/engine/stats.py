"""Evaluation statistics.

Both engines thread an :class:`EvalStats` object through matching so
benchmarks and the ablation study can report *work done* (candidates tried,
bindings produced) rather than wall-clock time alone.  ``seconds``
accumulates evaluation wall time, and the ``interval_*`` counters report
how often the interval-encoded structural index answered a question the
naive path would have answered by scanning:

* ``interval_lookups`` — descendant pools served by a bisect range instead
  of a subtree walk;
* ``interval_candidates`` — candidates enumerated from interval-verified
  pools, where every incident structural constraint already holds by
  construction (no trial-and-error, hence not ``candidates_tried``);
* ``edge_checks`` — structural checks performed: per candidate on the scan
  path, once per derived pool on the indexed path;
* ``preflight_skips`` — evaluations short-circuited by the static
  pre-flight (:mod:`repro.analysis.preflight`): the query was proved
  unsatisfiable before any matching work;
* ``preflight_runs`` — times the static pre-flight analysis actually
  *executed* during this evaluation.  Cached compiled plans carry their
  preflight verdict, so a warm plan-cache hit evaluates with
  ``preflight_runs == 0`` — the counter is the regression guard for
  "warm hits don't re-run analysis".

The set-at-a-time pipeline (:mod:`repro.engine.pipeline`) adds its own
family, mirroring the interval convention that wholesale set operations are
counted separately from per-candidate trial-and-error:

* ``semijoins`` — semi-join reduction passes over pool/relation pairs;
* ``semijoin_dropped`` — candidates eliminated by those passes (work the
  backtracking core would have discovered by failing, one trial at a time);
* ``hashjoin_rows`` — rows produced by hash joins (tree assembly plus
  cross-fragment equi-joins);
* ``relation_pairs`` — pairs materialised in binary edge relations;
* ``pipeline_fragments`` — query fragments handed to the pipeline,
  degraded ones included;
* ``pipeline_fallbacks`` — those of them degraded by the row cap: handed
  back to the backtracking core after tripping ``max_hashjoin_rows``
  (reason ``budget``).  ``extra["fallback_budget"]`` and
  ``extra["degraded_fragments"]`` also count XML-GL's combine-stage
  degradation, which re-runs the whole graph rather than one fragment;
* ``cache_hits`` / ``cache_misses`` — shared
  :class:`~repro.engine.cache.DocumentIndexCache` lookups served from /
  missing the cache during this evaluation;
* ``plan_cache_hits`` / ``plan_cache_misses`` — compiled-plan lookups
  (:mod:`repro.engine.plan_cache`) served from / missing the plan cache
  (a hit skips parse, validation, preflight and graph analysis).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:
    from .limits import BudgetState
    from .trace import Tracer

__all__ = ["EvalStats"]

_COUNTERS = (
    "candidates_tried",
    "edge_checks",
    "condition_checks",
    "bindings_produced",
    "index_lookups",
    "full_scans",
    "interval_lookups",
    "interval_candidates",
    "preflight_skips",
    "preflight_runs",
    "semijoins",
    "semijoin_dropped",
    "hashjoin_rows",
    "relation_pairs",
    "pipeline_fragments",
    "pipeline_fallbacks",
    "cache_hits",
    "cache_misses",
    "plan_cache_hits",
    "plan_cache_misses",
    "seconds",
)


@dataclass
class EvalStats:
    """Counters accumulated during one query evaluation."""

    candidates_tried: int = 0
    edge_checks: int = 0
    condition_checks: int = 0
    bindings_produced: int = 0
    index_lookups: int = 0
    full_scans: int = 0
    interval_lookups: int = 0
    interval_candidates: int = 0
    preflight_skips: int = 0
    preflight_runs: int = 0
    semijoins: int = 0
    semijoin_dropped: int = 0
    hashjoin_rows: int = 0
    relation_pairs: int = 0
    pipeline_fragments: int = 0
    pipeline_fallbacks: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    seconds: float = 0.0
    extra: dict[str, int] = field(default_factory=dict)
    #: Optional span recorder (:class:`repro.engine.trace.Tracer`).  Not a
    #: counter: excluded from :meth:`as_dict`, and merging keeps the first
    #: non-``None`` tracer.  Instrumentation sites guard on ``is None``, so
    #: the default costs nothing on the hot path.
    trace: Optional["Tracer"] = field(default=None, repr=False, compare=False)
    #: Optional armed budget (:class:`repro.engine.limits.BudgetState`).
    #: Rides along exactly like ``trace``: not a counter, excluded from
    #: :meth:`as_dict`, merging keeps the first non-``None`` state, and
    #: check sites guard on ``is None`` so an unbudgeted run does
    #: byte-identical work (``tests/test_bench_smoke.py`` asserts it).
    budget: Optional["BudgetState"] = field(default=None, repr=False, compare=False)

    def bump(self, counter: str, amount: int = 1) -> None:
        """Increment a named ad-hoc counter."""
        self.extra[counter] = self.extra.get(counter, 0) + amount

    @contextmanager
    def timed(self) -> Iterator["EvalStats"]:
        """Accumulate the wall time of the ``with`` body into ``seconds``."""
        started = time.perf_counter()
        try:
            yield self
        finally:
            self.seconds += time.perf_counter() - started

    def as_dict(self) -> dict[str, float]:
        """Flat dict of every counter (for reports)."""
        base: dict[str, float] = {name: getattr(self, name) for name in _COUNTERS}
        base.update(self.extra)
        return base

    @classmethod
    def from_counters(cls, counters: "dict[str, float]") -> "EvalStats":
        """Rebuild an :class:`EvalStats` from an :meth:`as_dict` snapshot.

        The pickle boundary of sharded execution
        (:mod:`repro.engine.shard`) ships counters as plain dicts — a
        worker's stats carry a tracer slot and an armed budget that must
        not cross processes.  Unknown names land in ``extra``, so ad-hoc
        ``bump`` counters round-trip too.
        """
        stats = cls()
        for name, amount in counters.items():
            if name in _COUNTERS:
                setattr(stats, name, amount if name == "seconds" else int(amount))
            else:
                stats.extra[name] = int(amount)
        return stats

    def __add__(self, other: "EvalStats") -> "EvalStats":
        merged = EvalStats(
            **{name: getattr(self, name) + getattr(other, name) for name in _COUNTERS}
        )
        for key in set(self.extra) | set(other.extra):
            merged.extra[key] = self.extra.get(key, 0) + other.extra.get(key, 0)
        merged.trace = self.trace if self.trace is not None else other.trace
        merged.budget = self.budget if self.budget is not None else other.budget
        return merged
