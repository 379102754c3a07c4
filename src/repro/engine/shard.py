"""Process-pool sharded corpus execution.

The set-at-a-time pipeline (int columns, :mod:`repro.engine.columns`)
saturates one core; corpus-scale workloads — the same query over hundreds
of documents, or a batch of queries over one collection — need the other
cores, and Python threads cannot provide them for CPU-bound matching.
:class:`ShardedExecutor` fans evaluations out over a
:class:`~concurrent.futures.ProcessPoolExecutor`:

* **Pickle boundary.**  Workers never receive live documents, indexes or
  compiled plans.  A :class:`ShardTask` carries the query's *DSL text* and
  the source documents' *serialized XML* — compact, versionless, and
  trivially picklable.  Each worker parses once and then leans on its own
  process-local shared caches, so a worker evaluating many tasks over one
  corpus pays the parse/index cost once (the task-spec tuple keys a small
  per-worker revival memo).
* **Fork safety.**  The process-wide singletons (``shared_cache``,
  ``shared_plans``, ``global_registry``) register ``os.register_at_fork``
  hooks that reinitialise them — fresh locks, empty state — in forked
  children, and the pool initialiser calls :func:`reset_worker_state`
  explicitly so spawn/forkserver workers get the same guarantee.
* **Budgets per shard.**  The task's ``options.budget`` is armed inside
  the worker, so deadlines are measured from the shard's own start and a
  tripped limit is reported as a typed error spec on that shard's
  :class:`ShardOutcome` — sibling shards are untouched.
* **Cooperative cancellation fan-out.**  The driver's
  :class:`~repro.engine.limits.CancelToken` is bridged onto one
  ``multiprocessing.Event`` shared with every worker; worker-side
  evaluations poll it at their ordinary budget check sites and abort with
  :class:`~repro.errors.QueryCancelled`.
* **Merge semantics.**  Per-shard ``EvalStats`` cross the boundary as
  counter dicts and merge by summation (:func:`merge_stats`); result
  documents cross as serialized XML and are re-parsed on the driver.
  Shard outcomes are keyed by their task position, so merged rows are
  order-stable regardless of completion order.

Two granularities are offered: :meth:`ShardedExecutor.run_batch` (one
task per query — the engine behind
``QuerySession.run_batch(executor="process")``) and
:meth:`ShardedExecutor.map_corpus` (one query over many documents,
grouped into element-count-balanced shards via
:func:`balanced_partition`).  For one giant document,
:func:`shard_document` splits it by top-level subtree and
:func:`merge_shard_results` reassembles the per-shard result documents —
sound for queries whose matches stay inside a single top-level subtree
and whose construct part is collect-style (no cross-shard aggregation).
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

from ..errors import (
    BudgetExceeded,
    DeadlineExceeded,
    EvaluationError,
    QueryCancelled,
    ReproError,
)
from ..ssd.model import Document, Element
from .limits import CancelToken, QueryBudget, arm_budget
from .options import ExecOptions
from .stats import EvalStats

__all__ = [
    "CorpusRun",
    "ShardOutcome",
    "ShardTask",
    "ShardedExecutor",
    "merge_shard_results",
    "merge_stats",
    "reset_worker_state",
    "serialize_sources",
    "shard_document",
]

Sources = Union[Document, Mapping[str, Document]]

#: Revived source sets kept per worker (task specs repeat across a batch).
_REVIVAL_MEMO_BOUND = 8

#: How often (seconds) the driver-side watcher polls the caller's
#: CancelToken to fan cancellation out to the worker processes.
_CANCEL_POLL_INTERVAL = 0.05


def balanced_partition(weights: Sequence[int], groups: int) -> list[list[int]]:
    """Split item indices into ``groups`` near-equal-weight groups.

    Greedy longest-processing-time: items are placed heaviest-first onto
    the currently lightest group, a 4/3-approximation of the optimal
    makespan — good enough to keep shard wall times balanced.  Weights are
    whatever cost proxy the caller has (:meth:`ShardedExecutor.map_corpus`
    uses element counts).

    Returns at most ``groups`` lists of indices into ``weights``; empty
    groups are dropped, and within a group the original order is kept so
    shard-major iteration stays deterministic.
    """
    if groups < 1:
        raise ValueError("groups must be at least 1")
    count = min(groups, len(weights))
    if count == 0:
        return []
    # (load, group position) heap; ties broken by position for determinism.
    heap: list[tuple[int, int]] = [(0, position) for position in range(count)]
    assignment: list[list[int]] = [[] for _ in range(count)]
    order = sorted(range(len(weights)), key=lambda i: (-weights[i], i))
    for item in order:
        load, position = heapq.heappop(heap)
        assignment[position].append(item)
        heapq.heappush(heap, (load + weights[item], position))
    for bucket in assignment:
        bucket.sort()
    return [bucket for bucket in assignment if bucket]


# -- task specs (the pickle boundary) ----------------------------------------


@dataclass(frozen=True)
class ShardTask:
    """One picklable unit of work: query text + serialized sources.

    ``sources`` is a tuple of ``(name, xml_text)`` pairs; the single
    reserved name ``""`` means an unnamed single-document source (revived
    as a bare :class:`~repro.ssd.model.Document`, not a mapping).
    ``options`` must not request tracing — span trees cannot cross the
    pickle boundary.
    """

    position: int
    query: str
    sources: tuple[tuple[str, str], ...]
    options: Optional[ExecOptions] = None


@dataclass(frozen=True)
class ShardOutcome:
    """One task's picklable result: serialized document + counter dict.

    ``error`` is a ``(class name, message, details)`` spec rather than the
    exception object — budget errors carry constructor arguments plain
    pickling would lose (:func:`_revive_error` rebuilds the typed error on
    the driver).
    """

    position: int
    result: Optional[str]
    counters: dict[str, float]
    seconds: float
    error: Optional[tuple[str, str, tuple]] = None


def serialize_sources(sources: Sources) -> tuple[tuple[str, str], ...]:
    """Flatten a source document (or named mapping) to the task-spec form."""
    from ..ssd import serialize

    if isinstance(sources, Document):
        return (("", serialize(sources)),)
    return tuple((name, serialize(document)) for name, document in sources.items())


# -- worker side -------------------------------------------------------------

_worker_cancel_event = None
_revived_sources: dict[tuple[tuple[str, str], ...], Sources] = {}


class _ShardCancelToken(CancelToken):
    """A worker-side token that also observes the pool-wide event."""

    __slots__ = ("_shared",)

    def __init__(self, shared) -> None:
        super().__init__()
        self._shared = shared

    def cancelled(self) -> bool:
        if super().cancelled():
            return True
        return self._shared is not None and self._shared.is_set()


def reset_worker_state() -> None:
    """Reinitialise every process-wide singleton in this process.

    Called by the pool initialiser in every worker (idempotent after the
    ``os.register_at_fork`` hooks have already run in a forked child), so
    no worker ever serves parent-process cache entries, plans or metrics.
    """
    from .cache import shared_cache
    from .metrics import global_registry
    from .plan_cache import shared_plans

    shared_cache._reset_after_fork()
    shared_plans._reset_after_fork()
    global_registry._reset_after_fork()
    _revived_sources.clear()


def _cache_sizes() -> tuple[int, int, int]:
    """Probe the process-wide singletons (fork-safety regression tests)."""
    from .cache import shared_cache
    from .metrics import global_registry
    from .plan_cache import shared_plans

    return (len(shared_cache), len(shared_plans), global_registry.queries)


def _initialize_worker(cancel_event) -> None:
    global _worker_cancel_event
    _worker_cancel_event = cancel_event
    reset_worker_state()


def _revive_sources(spec: tuple[tuple[str, str], ...]) -> Sources:
    """Parse a task's serialized sources, memoised per worker process."""
    from ..ssd import parse_document

    sources = _revived_sources.get(spec)
    if sources is None:
        if len(spec) == 1 and spec[0][0] == "":
            sources = parse_document(spec[0][1])
        else:
            sources = {name: parse_document(text) for name, text in spec}
        if len(_revived_sources) >= _REVIVAL_MEMO_BOUND:
            _revived_sources.pop(next(iter(_revived_sources)))
        _revived_sources[spec] = sources
    return sources


def _describe_error(error: ReproError) -> tuple[str, str, tuple]:
    if isinstance(error, BudgetExceeded):
        return (type(error).__name__, str(error), (error.limit, error.allowed, error.spent))
    return (type(error).__name__, str(error), ())


def _revive_error(
    spec: tuple[str, str, tuple], stats: EvalStats
) -> ReproError:
    """Rebuild a typed error from a worker's error spec.

    Budget/deadline/cancellation errors come back as their own classes
    (their attributes matter to callers); every other
    :class:`~repro.errors.ReproError` subtype is revived as a generic
    :class:`~repro.errors.EvaluationError` keeping the original message.
    """
    name, message, details = spec
    if name == "DeadlineExceeded":
        return DeadlineExceeded(*details, stats=stats)
    if name == "BudgetExceeded":
        return BudgetExceeded(*details, stats=stats)
    if name == "QueryCancelled":
        return QueryCancelled(stats)
    return EvaluationError(message)


def _evaluate_shard_task(task: ShardTask) -> ShardOutcome:
    """Worker entry: evaluate one task against process-local caches."""
    from ..ssd import serialize
    from ..xmlgl.evaluator import evaluate_rule, lookup_or_compile
    from .cache import shared_cache
    from .plan_cache import shared_plans

    sources = _revive_sources(task.sources)
    cancel = (
        _ShardCancelToken(_worker_cancel_event)
        if _worker_cancel_event is not None
        else None
    )
    stats = EvalStats()
    # Armed here, not on the driver: the deadline clock starts when the
    # shard starts, and each shard owns its whole budget.  Cancellation is
    # polled at budget check sites, so a cancellable unbudgeted task arms
    # an empty (all-None) budget purely to carry the token.
    budget = task.options.budget if task.options is not None else None
    if budget is None and cancel is not None:
        budget = QueryBudget()
    arm_budget(stats, budget, cancel)
    result_text: Optional[str] = None
    error_spec: Optional[tuple[str, str, tuple]] = None
    rewrite = task.options.rewrite if task.options is not None else True
    started = time.perf_counter()
    try:
        rule, _, plan = lookup_or_compile(
            task.query,
            sources,
            indexes=shared_cache,
            stats=stats,
            plans=shared_plans,
            rewrite=rewrite,
        )
        result = evaluate_rule(
            rule,
            sources,
            options=task.options,
            stats=stats,
            indexes=shared_cache,
            plan=plan,
        )
        result_text = serialize(result)
    except ReproError as error:
        error_spec = _describe_error(error)
    elapsed = time.perf_counter() - started
    return ShardOutcome(
        position=task.position,
        result=result_text,
        counters=stats.as_dict(),
        seconds=elapsed,
        error=error_spec,
    )


def _evaluate_shard_group(
    tasks: tuple[ShardTask, ...],
) -> tuple[list[ShardOutcome], float]:
    """Worker entry for :meth:`ShardedExecutor.map_corpus`: one shard.

    Evaluates the shard's tasks sequentially and reports the shard's own
    wall time, so the driver can attribute scaling numbers per shard.
    """
    started = time.perf_counter()
    outcomes = [_evaluate_shard_task(task) for task in tasks]
    return outcomes, time.perf_counter() - started


# -- merging -----------------------------------------------------------------


def merge_stats(outcomes: Sequence[ShardOutcome]) -> EvalStats:
    """Sum per-shard counters into one :class:`EvalStats`."""
    merged = EvalStats()
    for outcome in outcomes:
        merged = merged + EvalStats.from_counters(outcome.counters)
    return merged


def merge_shard_results(results: Sequence[Document]) -> Document:
    """Concatenate per-shard result documents under one root.

    The shards of one query produce result documents sharing the construct
    part's root tag; the merged document keeps the first root's tag and
    attributes and appends every shard's root children in shard order.
    Sound for collect-style constructs (each match contributes independent
    children); global aggregations (``count`` over the whole corpus) are
    *not* shard-mergeable and must run single-process.
    """
    if not results:
        raise ValueError("no shard results to merge")
    roots = [document.root for document in results]
    first = next((root for root in roots if root is not None), None)
    if first is None:
        return Document()
    merged_root = Element(first.tag, dict(first.attributes))
    for root in roots:
        if root is None:
            continue
        for child in root.children:
            merged_root.append(child.copy())
    return Document(merged_root)


def shard_document(document: Document, shards: int) -> list[Document]:
    """Split one giant document into ``shards`` by top-level subtree.

    Top-level element subtrees are cut into *contiguous* runs of
    near-equal node count and copied into shard documents whose root
    repeats the original root's tag and attributes — contiguity (unlike
    the corpus-level LPT packing) keeps :func:`merge_shard_results` in
    original document order.  Non-element prolog/epilog content is
    dropped.  Returns at most ``shards`` documents (fewer when there are
    fewer subtrees); a document with no root or no top-level elements
    comes back unsplit.
    """
    if shards < 1:
        raise ValueError("shards must be at least 1")
    root = document.root
    if root is None:
        return [document]
    tops = root.child_elements()
    if not tops:
        return [document]
    total = sum(top.size() for top in tops)
    groups: list[list[Element]] = [[] for _ in range(min(shards, len(tops)))]
    consumed = 0
    for top in tops:
        # Cut at cumulative-weight thresholds: subtree k goes to the shard
        # its weight prefix falls in, so runs stay contiguous and balanced.
        position = min(
            len(groups) - 1, consumed * len(groups) // max(1, total)
        )
        groups[position].append(top)
        consumed += top.size()
    pieces: list[Document] = []
    for group in groups:
        if not group:
            continue
        shard_root = Element(root.tag, dict(root.attributes))
        for top in group:
            shard_root.append(top.copy())
        pieces.append(Document(shard_root))
    return pieces


@dataclass
class CorpusRun:
    """Outcome of :meth:`ShardedExecutor.map_corpus`.

    ``results``/``errors``/``stats_per_document`` are in corpus order (one
    slot per input document); ``shards`` names the documents each shard
    evaluated, aligned with ``shard_seconds``.  ``merge_seconds`` is the
    driver-side cost of re-parsing result documents and summing stats —
    the overhead the scaling benchmark attributes separately.
    """

    results: list[Optional[Document]]
    errors: list[Optional[ReproError]]
    stats_per_document: list[EvalStats]
    stats: EvalStats
    shards: list[list[str]]
    shard_seconds: list[float]
    merge_seconds: float

    @property
    def ok(self) -> bool:
        return all(error is None for error in self.errors)


def _reject_tracing(options: Optional[ExecOptions]) -> None:
    if options is not None and options.trace:
        raise ValueError(
            "tracing is not supported under process-sharded execution: "
            "span trees cannot cross the pickle boundary; run with the "
            "thread executor or trace a single run() instead"
        )


# -- the executor ------------------------------------------------------------


class ShardedExecutor:
    """Fans picklable shard tasks out over a process pool.

    ``max_workers`` defaults to the CPU count; ``mp_context`` accepts a
    start-method name (``"fork"``, ``"spawn"``, ``"forkserver"``) or a
    ready :mod:`multiprocessing` context, defaulting to the platform
    default.  Fork safety of the process-wide caches is guaranteed either
    way: forked children run the ``register_at_fork`` hooks, and the pool
    initialiser calls :func:`reset_worker_state` in every worker.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        mp_context: Union[str, object, None] = None,
    ) -> None:
        self.max_workers = max_workers if max_workers is not None else (
            os.cpu_count() or 1
        )
        if self.max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if isinstance(mp_context, str):
            self._mp = multiprocessing.get_context(mp_context)
        elif mp_context is not None:
            self._mp = mp_context
        else:
            self._mp = multiprocessing.get_context()

    # -- plumbing ----------------------------------------------------------

    def _fan_out(self, payloads: Sequence, worker, cancel: Optional[CancelToken]):
        """Submit ``payloads`` to a fresh pool, bridging cancellation.

        The caller's :class:`CancelToken` cannot cross the pickle
        boundary; a driver-side watcher thread mirrors it onto one
        ``multiprocessing.Event`` the pool initialiser hands every
        worker, where :class:`_ShardCancelToken` folds it into the
        ordinary cooperative checks.
        """
        event = self._mp.Event() if cancel is not None else None
        if cancel is not None and cancel.cancelled():
            event.set()
        stop_watching = threading.Event()

        def watch() -> None:
            while not stop_watching.wait(_CANCEL_POLL_INTERVAL):
                if cancel.cancelled():
                    event.set()
                    return

        watcher = None
        if cancel is not None:
            watcher = threading.Thread(target=watch, daemon=True)
            watcher.start()
        try:
            with ProcessPoolExecutor(
                max_workers=min(self.max_workers, max(1, len(payloads))),
                mp_context=self._mp,
                initializer=_initialize_worker,
                initargs=(event,),
            ) as pool:
                futures = [pool.submit(worker, payload) for payload in payloads]
                return [future.result() for future in futures]
        finally:
            stop_watching.set()
            if watcher is not None:
                watcher.join()

    # -- batch granularity -------------------------------------------------

    def run_batch(
        self,
        queries: Sequence[str],
        sources: Sources,
        *,
        options: Optional[ExecOptions] = None,
        cancel: Optional[CancelToken] = None,
    ) -> list[ShardOutcome]:
        """One task per query over the same sources, in input order.

        This is the engine behind
        ``QuerySession.run_batch(executor="process")``; outcomes come back
        ordered by input position with per-task stats, timings and typed
        error specs.
        """
        _reject_tracing(options)
        spec = serialize_sources(sources)
        tasks = [
            ShardTask(
                position=position,
                query=query,
                sources=spec,
                options=options,
            )
            for position, query in enumerate(queries)
        ]
        if not tasks:
            return []
        outcomes = self._fan_out(tasks, _evaluate_shard_task, cancel)
        return sorted(outcomes, key=lambda outcome: outcome.position)

    # -- corpus granularity ------------------------------------------------

    def map_corpus(
        self,
        query: str,
        corpus: Mapping[str, Document],
        *,
        shards: Optional[int] = None,
        options: Optional[ExecOptions] = None,
        cancel: Optional[CancelToken] = None,
    ) -> CorpusRun:
        """Evaluate ``query`` against every corpus document, sharded.

        Documents are grouped into ``shards`` (default ``max_workers``)
        element-count-balanced shards; each worker evaluates its shard's
        documents sequentially against its process-local caches.  Results,
        errors and per-document stats come back in corpus order; the
        merged :attr:`CorpusRun.stats` is the exact sum of the per-shard
        counters.
        """
        _reject_tracing(options)
        from ..ssd import parse_document, serialize

        names = list(corpus)
        if not names:
            return CorpusRun(
                results=[], errors=[], stats_per_document=[],
                stats=EvalStats(), shards=[], shard_seconds=[],
                merge_seconds=0.0,
            )
        weights = [
            corpus[name].root.size() if corpus[name].root is not None else 1
            for name in names
        ]
        groups = balanced_partition(
            weights, shards if shards is not None else self.max_workers
        )
        serialized = {name: serialize(corpus[name]) for name in names}
        payloads = []
        for group in groups:
            payloads.append(
                tuple(
                    ShardTask(
                        position=position,
                        query=query,
                        sources=(("", serialized[names[position]]),),
                        options=options,
                    )
                    for position in group
                )
            )
        shard_returns = self._fan_out(payloads, _evaluate_shard_group, cancel)
        merge_started = time.perf_counter()
        results: list[Optional[Document]] = [None] * len(names)
        errors: list[Optional[ReproError]] = [None] * len(names)
        stats_rows: list[EvalStats] = [EvalStats() for _ in names]
        flat: list[ShardOutcome] = []
        for outcomes, _ in shard_returns:
            for outcome in outcomes:
                flat.append(outcome)
                row_stats = EvalStats.from_counters(outcome.counters)
                stats_rows[outcome.position] = row_stats
                if outcome.error is not None:
                    errors[outcome.position] = _revive_error(
                        outcome.error, row_stats
                    )
                elif outcome.result is not None:
                    results[outcome.position] = parse_document(outcome.result)
        merged = merge_stats(flat)
        merge_seconds = time.perf_counter() - merge_started
        return CorpusRun(
            results=results,
            errors=errors,
            stats_per_document=stats_rows,
            stats=merged,
            shards=[[names[position] for position in group] for group in groups],
            shard_seconds=[seconds for _, seconds in shard_returns],
            merge_seconds=merge_seconds,
        )
