"""Interactive query sessions: refine, run, step back, run again.

The systems around the paper (BBQ in particular) frame querying as a
*cycle*: specify, execute, inspect, refine, with browser-style back and
forward between cycles.  :class:`QuerySession` provides that loop over the
XML-GL engine for scripts, notebooks and the CLI:

    session = QuerySession(doc)
    session.run("query { book as B } construct { r { count(B) } }")
    session.run("query { book as B { @year as Y } where Y >= 1995 } ...")
    session.back()          # the previous cycle's result is current again
    session.run(...)        # refining from here truncates the forward tail

Each cycle stores the query text (or Rule), the result document and the
evaluation statistics, so a session transcript doubles as a small
experiment log (:meth:`QuerySession.summary`).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

from .engine.cache import DocumentIndexCache, shared_cache
from .engine.limits import CancelToken, arm_budget
from .engine.metrics import MetricsRegistry
from .engine.mutate import MutationBatch, MutationResult, apply_batch
from .engine.options import ExecOptions
from .engine.plan_cache import PlanCache, shared_plans
from .engine.stats import EvalStats
from .engine.subscribe import Subscription
from .engine.trace import Tracer
from .errors import ReproError
from .ssd.model import Document
from .xmlgl.dsl import parse_rule
from .xmlgl.evaluator import evaluate_rule, lookup_or_compile
from .xmlgl.rule import Rule

__all__ = ["BatchResult", "ExecOptions", "QueryCycle", "QuerySession"]

Sources = Union[Document, Mapping[str, Document]]


@dataclass
class QueryCycle:
    """One specify/execute cycle."""

    index: int
    source_text: Optional[str]
    rule: Rule
    result: Document
    stats: EvalStats
    seconds: float
    #: Recorded span tree when the cycle ran with tracing enabled.
    trace: Optional[Tracer] = None

    def describe(self) -> str:
        root = self.result.root
        size = root.size() if root is not None else 0
        return (
            f"cycle {self.index}: {self.stats.bindings_produced} bindings, "
            f"result <{root.tag if root is not None else '-'}> "
            f"({size} nodes, {self.seconds * 1000:.1f} ms)"
        )


@dataclass
class BatchResult:
    """Outcome of one query in a :meth:`QuerySession.run_batch` run.

    Also returned by :meth:`QuerySession.execute`, where ``rule`` may be
    ``None`` when the query text failed to parse (``run_batch`` parses up
    front, so its rows always carry the rule).
    """

    index: int
    source_text: Optional[str]
    rule: Optional[Rule]
    result: Optional[Document]
    stats: EvalStats
    seconds: float
    error: Optional[ReproError] = None
    #: Recorded span tree when the batch ran with tracing enabled.
    trace: Optional[Tracer] = None

    @property
    def ok(self) -> bool:
        return self.error is None


class QuerySession:
    """A browsing/refinement session over one document collection."""

    def __init__(
        self,
        sources: Sources,
        options: Optional[ExecOptions] = None,
        indexes: Optional[DocumentIndexCache] = None,
        metrics: Optional[MetricsRegistry] = None,
        plans: Optional[PlanCache] = None,
    ) -> None:
        self._sources = sources
        self._options = options
        # Indexes come from the process-wide cache by default, so several
        # sessions over one document share a single snapshot; pass a
        # private DocumentIndexCache to isolate (e.g. mutation-heavy use).
        self._indexes = indexes if indexes is not None else shared_cache
        # Metrics default to a private registry so a session's totals stay
        # attributable; pass repro.engine.metrics.global_registry to pool
        # several sessions into the process-wide aggregate.
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        # Compiled plans likewise default to the process-wide cache: the
        # key is the query text alone, so sharing across sessions is
        # safe; pass a private PlanCache to isolate.
        self._plans = plans if plans is not None else shared_plans
        self._cycles: list[QueryCycle] = []
        self._position = -1  # index of the current cycle
        self._subscriptions: list[Subscription] = []
        # Serialises mutation commits and the subscription notifications
        # they trigger, so deltas are delivered in revision order.
        self._mutation_lock = threading.Lock()

    @property
    def defaults(self) -> ExecOptions:
        """The session's effective default :class:`ExecOptions`.

        Always a concrete bundle (never ``None``), so per-call overrides
        are one ``dataclasses.replace`` away.
        """
        return self._options if self._options is not None else ExecOptions()

    # -- running ---------------------------------------------------------------

    def _effective(self, options: Optional[ExecOptions]) -> ExecOptions:
        """The per-call bundle, or the session default when omitted."""
        return options if options is not None else self.defaults

    def _execute_one(
        self,
        query: Union[str, Rule],
        *,
        parsed: Optional[Rule] = None,
        position: int = 0,
        opts: ExecOptions,
        cancel: Optional[CancelToken] = None,
    ) -> BatchResult:
        """Evaluate one query end to end; the shared core of every run path.

        Used by :meth:`run` (which raises the row's error and appends a
        cycle), :meth:`execute` (the thread-safe serving path) and each
        :meth:`run_batch` thread-pool row.  Metrics are recorded in a
        ``finally`` so *failed* runs — budget trips, evaluation errors,
        even parse errors — fold into the registry with ``error=True``
        exactly like successful ones: error rates must never undercount.
        :class:`~repro.errors.ReproError` is captured on the returned
        row; anything else (a genuine bug) is recorded, then re-raised.
        """
        stats = EvalStats()
        if opts.trace:
            stats.trace = Tracer()
        arm_budget(stats, opts.budget, cancel)
        source_text = query if isinstance(query, str) else None
        rule: Optional[Rule] = parsed if parsed is not None else (
            query if isinstance(query, Rule) else None
        )
        result: Optional[Document] = None
        error: Optional[Exception] = None
        # The clock starts before plan lookup so timings show the
        # plan-cache win (a hit skips parse + analysis entirely).
        started = time.perf_counter()
        try:
            rule, source_text, plan = lookup_or_compile(
                query,
                self._sources,
                parsed=parsed,
                indexes=self._indexes,
                stats=stats,
                plans=self._plans,
                rewrite=opts.rewrite,
            )
            result = Document(
                evaluate_rule(
                    rule, self._sources, options=opts, stats=stats,
                    indexes=self._indexes, plan=plan,
                )
            )
        except Exception as exc:
            error = exc
        finally:
            elapsed = time.perf_counter() - started
            self._metrics.record(
                stats,
                seconds=elapsed,
                query=source_text,
                error=error is not None,
            )
        if error is not None and not isinstance(error, ReproError):
            raise error
        return BatchResult(
            index=position,
            source_text=source_text,
            rule=rule,
            result=result,
            stats=stats,
            seconds=elapsed,
            error=error,
            trace=stats.trace,
        )

    def run(
        self,
        query: Union[str, Rule],
        *,
        options: Optional[ExecOptions] = None,
        cancel: Optional[CancelToken] = None,
    ) -> Document:
        """Execute a query; it becomes the current cycle.

        Running while positioned back in history truncates the forward
        cycles (browser semantics).  Returns the result document.

        The keyword-only ``options=`` takes one :class:`ExecOptions`
        bundle — engine, rewrite and planner switches, tracing, budget —
        that replaces the session defaults for this cycle (derive from
        :attr:`defaults` to override a single field:
        ``replace(session.defaults, budget=None)`` runs this cycle
        unbudgeted).  The budget
        governs the run (its deadline starts here); under
        ``on_limit="raise"`` a tripped limit propagates as
        :class:`~repro.errors.BudgetExceeded` / ``DeadlineExceeded``, under
        ``"partial"`` the truncated result still becomes a cycle, flagged
        ``stats.extra["truncated"]``.  ``cancel`` is a
        :class:`~repro.engine.limits.CancelToken` another thread may
        trigger.  The recorded span tree lands on ``QueryCycle.trace``.
        Every run — *including* one that raises — is folded into the
        session's :meth:`metrics` registry (failures with ``error=True``,
        consistent with ``run_batch`` rows).
        """
        row = self._execute_one(
            query, opts=self._effective(options), cancel=cancel
        )
        if row.error is not None:
            raise row.error
        assert row.result is not None and row.rule is not None
        del self._cycles[self._position + 1 :]
        cycle = QueryCycle(
            index=len(self._cycles),
            source_text=row.source_text,
            rule=row.rule,
            result=row.result,
            stats=row.stats,
            seconds=row.seconds,
            trace=row.trace,
        )
        self._cycles.append(cycle)
        self._position = len(self._cycles) - 1
        return row.result

    def execute(
        self,
        query: Union[str, Rule],
        *,
        options: Optional[ExecOptions] = None,
        cancel: Optional[CancelToken] = None,
    ) -> BatchResult:
        """Evaluate one query outside the cycle history; the serving path.

        Takes the same keyword-only :class:`ExecOptions` contract as
        :meth:`run`.
        Same contract as a single :meth:`run_batch` row: every
        :class:`~repro.errors.ReproError` — parse, evaluation, budget —
        is captured on :attr:`BatchResult.error` instead of raising, the
        row is folded into :meth:`metrics` (failures with ``error=True``)
        and the cycle history is untouched.  Thread-safe: the history is
        never read or written, so ``repro.server`` calls this from
        executor worker threads against one shared session per document.
        """
        return self._execute_one(
            query, opts=self._effective(options), cancel=cancel
        )

    def run_batch(
        self,
        queries: Sequence[Union[str, Rule]],
        *,
        max_workers: Optional[int] = None,
        options: Optional[ExecOptions] = None,
        cancel: Optional[CancelToken] = None,
        executor: str = "thread",
    ) -> list[BatchResult]:
        """Evaluate many queries against the session's sources concurrently.

        With the default ``executor="thread"``, queries run on a thread
        pool over the *same* documents and the same (locked,
        read-only-shared) index cache: the indexes are pre-warmed once on
        the calling thread, so workers only take cache hits.  Each query
        gets its own :class:`~repro.engine.stats.EvalStats` and wall
        clock, returned in input order as :class:`BatchResult` rows.

        ``executor="process"`` hands the batch to a
        :class:`~repro.engine.shard.ShardedExecutor`: one picklable task
        per query (serialized query text + serialized sources — never live
        indexes), evaluated on a process pool so CPU-bound matching
        escapes the GIL.  The contract is the same — rows in input order,
        per-row stats/budget/errors, ``cancel`` fans out cooperatively —
        with two restrictions: tracing is unsupported (span trees cannot
        cross the pickle boundary; requesting it raises
        :class:`~repro.errors.ReproError`), and rules travel as DSL text,
        so a :class:`~repro.xmlgl.rule.Rule` with a shared (DAG) node
        raises :class:`~repro.errors.QueryStructureError`: the DSL cannot
        express it; run such rules on threads.  Worker processes use their
        own process-local caches (reset at startup — see the fork-safety
        notes in :mod:`repro.engine.shard`), so per-row cache counters
        reflect worker-side, not session-side, cache state.

        The keyword-only ``options=`` takes the same :class:`ExecOptions`
        bundle as :meth:`run`.  Its budget governs **each row
        separately**: every row arms its own
        :class:`~repro.engine.limits.BudgetState` when its evaluation
        starts, so one slow row exhausts only its own deadline.  Under
        ``on_limit="raise"`` a tripped row is captured in
        :attr:`BatchResult.error` (typed ``BudgetExceeded`` /
        ``DeadlineExceeded``) exactly like any other evaluation error —
        sibling rows and the shared index cache are untouched.  ``cancel``
        is shared across rows: one :class:`CancelToken` aborts the whole
        batch cooperatively (cancelled rows report ``QueryCancelled``).

        Evaluation errors (:class:`~repro.errors.ReproError`) are captured
        per query in :attr:`BatchResult.error` rather than aborting the
        batch; parse errors raise immediately, before any evaluation
        starts.  A batch does not enter the cycle history — it is a bulk
        measurement, not a refinement step.

        With tracing on (``ExecOptions(trace=True)``),
        every row gets its own :class:`~repro.engine.trace.Tracer` on
        ``BatchResult.trace`` — per-query span trees even under
        concurrency, because the tracer rides on the row's private
        ``EvalStats``.  Every row is folded into :meth:`metrics`.
        """
        if executor not in ("thread", "process"):
            raise ValueError(
                f"unknown executor {executor!r}; expected 'thread' or 'process'"
            )
        opts = self._effective(options)
        prepared: list[tuple[Rule, Optional[str]]] = []
        for query in queries:
            if isinstance(query, str):
                prepared.append((parse_rule(query), query))
            else:
                prepared.append((query, None))
        if executor == "process":
            if opts.trace:
                raise ReproError(
                    "tracing is not supported with executor='process': span "
                    "trees cannot cross the pickle boundary — use "
                    "executor='thread' or trace a single run()"
                )
            return self._run_batch_process(prepared, max_workers, opts, cancel)
        for document in self._documents():
            self._indexes.get(document)
        # Prewarm the plan cache on the calling thread (throwaway stats):
        # duplicate queries across rows compile once instead of racing, and
        # every row then takes a deterministic plan-cache hit.
        for rule, source_text in prepared:
            lookup_or_compile(
                source_text if source_text is not None else rule,
                self._sources,
                parsed=rule,
                indexes=self._indexes,
                stats=EvalStats(),
                plans=self._plans,
                rewrite=opts.rewrite,
            )

        def evaluate_one(item: tuple[int, tuple[Rule, Optional[str]]]) -> BatchResult:
            position, (rule, source_text) = item
            # Each row arms a fresh budget state inside the core: deadlines
            # are per row, measured from the row's own start, never from
            # batch submission.  Metrics (including error rows) fold into
            # the registry from the worker thread.
            return self._execute_one(
                source_text if source_text is not None else rule,
                parsed=rule,
                position=position,
                opts=opts,
                cancel=cancel,
            )

        if not prepared:
            return []
        workers = max_workers if max_workers is not None else min(8, len(prepared))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(evaluate_one, enumerate(prepared)))

    def _run_batch_process(
        self,
        prepared: list[tuple[Rule, Optional[str]]],
        max_workers: Optional[int],
        opts: ExecOptions,
        cancel: Optional[CancelToken],
    ) -> list[BatchResult]:
        """The ``executor="process"`` arm of :meth:`run_batch`.

        Rule objects are unparsed back to DSL text for the pickle
        boundary; budgets are armed *inside* each worker so deadlines are
        per row, measured from the row's own start.  Worker outcomes are
        folded into the session metrics on the driver, exactly like
        thread-pool rows.
        """
        from .engine.shard import ShardedExecutor, _revive_error
        from .ssd import parse_document
        from .xmlgl.unparse import unparse_rule

        if not prepared:
            return []
        texts = [
            source_text if source_text is not None else unparse_rule(rule)
            for rule, source_text in prepared
        ]
        sharded = ShardedExecutor(max_workers=max_workers)
        outcomes = sharded.run_batch(
            texts, self._sources, options=opts, cancel=cancel
        )
        # Realign by task position before pairing with ``prepared``: the
        # zip below would otherwise attach stats/errors to the wrong row
        # if an executor returned outcomes out of submission order.
        outcomes = sorted(outcomes, key=lambda outcome: outcome.position)
        if [outcome.position for outcome in outcomes] != list(range(len(prepared))):
            raise ReproError(
                "sharded executor returned misaligned outcomes: positions "
                f"{[outcome.position for outcome in outcomes]} for "
                f"{len(prepared)} queries"
            )
        results: list[BatchResult] = []
        for outcome, (rule, source_text) in zip(outcomes, prepared):
            stats = EvalStats.from_counters(outcome.counters)
            error = (
                _revive_error(outcome.error, stats)
                if outcome.error is not None
                else None
            )
            result = (
                parse_document(outcome.result)
                if outcome.result is not None
                else None
            )
            self._metrics.record(
                stats,
                seconds=outcome.seconds,
                query=source_text,
                error=error is not None,
            )
            results.append(
                BatchResult(
                    index=outcome.position,
                    source_text=source_text,
                    rule=rule,
                    result=result,
                    stats=stats,
                    seconds=outcome.seconds,
                    error=error,
                )
            )
        return results

    def _documents(self) -> list[Document]:
        if isinstance(self._sources, Document):
            return [self._sources]
        return list(self._sources.values())

    # -- mutation & continuous queries ------------------------------------------

    def _resolve_document(self, source: Optional[str]) -> Document:
        if isinstance(self._sources, Document):
            if source is not None:
                raise ReproError(
                    "this session holds a single unnamed document; "
                    "do not name a mutation source"
                )
            return self._sources
        if source is None:
            if len(self._sources) == 1:
                return next(iter(self._sources.values()))
            raise ReproError(
                "this session holds several documents; name the mutation "
                f"source (one of {sorted(self._sources)})"
            )
        try:
            return self._sources[source]
        except KeyError:
            raise ReproError(f"unknown source document {source!r}") from None

    def mutate(
        self, batch: MutationBatch, *, source: Optional[str] = None
    ) -> MutationResult:
        """Apply a :class:`~repro.engine.mutate.MutationBatch` atomically.

        The batch is validated in full first (an invalid batch raises
        :class:`~repro.errors.MutationError` with the document untouched),
        applied to the tree while the session's cached
        :class:`~repro.engine.index.DocumentIndex` is maintained *in
        place* (no invalidation, no rebuild), and committed under a new
        ``doc_revision``.  Every active subscription is then notified —
        those whose footprint intersects the batch re-evaluate the rows
        the batch can change (the delta rule; ordered arcs and
        multi-graph rules re-run in full, counted as
        ``delta_fallback_<reason>``) and queue a
        :class:`~repro.engine.subscribe.ResultDelta` (past
        :data:`~repro.engine.subscribe.MAX_PENDING` queued, one
        ``resync`` delta); the rest skip.  A subscription whose
        re-evaluation raises is closed with the exception on its
        ``error``; the others are still notified and the result is
        returned.

        ``source`` names the document in a multi-document session;
        omit it for single-document sessions.
        """
        document = self._resolve_document(source)
        with self._mutation_lock:
            index = self._indexes.peek(document)
            result = apply_batch(
                document, batch, indexes=[index] if index is not None else []
            )
            for subscription in list(self._subscriptions):
                if not subscription.closed:
                    subscription.notify(result)
        return result

    def subscribe(
        self,
        query: Union[str, Rule],
        *,
        options: Optional[ExecOptions] = None,
    ) -> Subscription:
        """Register ``query`` as a continuous query over this session.

        The subscription evaluates eagerly (its
        :meth:`~repro.engine.subscribe.Subscription.rows` are live
        immediately) and is re-evaluated by :meth:`mutate` commits whose
        touched region intersects the query's static footprint — by the
        delta rule, over only the rows the commit can change, or in full
        for ordered arcs and multi-graph rules; drain changes with
        :meth:`~repro.engine.subscribe.Subscription.poll` or block on
        :meth:`~repro.engine.subscribe.Subscription.wait`.  ``options``
        takes the same :class:`ExecOptions` bundle as :meth:`run` and
        defaults to the session options.
        """
        subscription = Subscription(
            query,
            self._sources,
            options=options if options is not None else self._options,
            indexes=self._indexes,
            plans=self._plans,
        )
        with self._mutation_lock:
            self._subscriptions.append(subscription)
        return subscription

    def unsubscribe(self, subscription: Subscription) -> bool:
        """Close and detach ``subscription``; True if it was attached."""
        with self._mutation_lock:
            try:
                self._subscriptions.remove(subscription)
            except ValueError:
                return False
        subscription.close()
        return True

    def subscriptions(self) -> list[Subscription]:
        """The attached subscriptions (a snapshot copy)."""
        with self._mutation_lock:
            return list(self._subscriptions)

    # -- analysis ---------------------------------------------------------------

    def analyze(self, query: Union[str, Rule, None] = None) -> list:
        """Static diagnostics for a query without running it.

        With no argument, analyses the current cycle's rule — "why did my
        last refinement return nothing?" is the session-loop question this
        answers (a lurking contradiction shows up here as an
        ``unsatisfiable`` error).  Returns the
        :class:`~repro.analysis.Diagnostic` list, most severe first.
        """
        from .analysis import analyze_rule

        if query is None:
            rule = self.current().rule
        elif isinstance(query, str):
            rule = parse_rule(query)
        else:
            rule = query
        return analyze_rule(rule)

    def explain(self, query: Union[str, Rule, None] = None):
        """EXPLAIN a query against the session's own sources and indexes.

        With no argument, explains the current cycle's rule — "what did my
        last refinement actually do?".  Runs the query with tracing forced
        on (this is EXPLAIN ANALYZE; the run does not enter the cycle
        history) and returns an :class:`~repro.explain.Explanation`.
        """
        from .explain import explain as explain_rule

        if query is None:
            rule: Union[str, Rule] = self.current().rule
        else:
            rule = query
        return explain_rule(
            rule, self._sources,
            options=self._options,
            indexes=self._indexes, plans=self._plans,
        )

    def metrics(self) -> MetricsRegistry:
        """The session's metrics registry (every run/run_batch is folded in)."""
        return self._metrics

    # -- navigation -------------------------------------------------------------

    def current(self) -> QueryCycle:
        """The cycle the session is positioned on."""
        if self._position < 0:
            raise ReproError("the session has no cycles yet")
        return self._cycles[self._position]

    def back(self) -> Optional[QueryCycle]:
        """Step to the previous cycle; ``None`` at the beginning."""
        if self._position <= 0:
            return None
        self._position -= 1
        return self.current()

    def forward(self) -> Optional[QueryCycle]:
        """Step to the next cycle; ``None`` at the end."""
        if self._position >= len(self._cycles) - 1:
            return None
        self._position += 1
        return self.current()

    # -- inspection ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._cycles)

    def history(self) -> list[QueryCycle]:
        """All cycles, oldest first (the forward tail included)."""
        return list(self._cycles)

    def summary(self) -> str:
        """The session transcript, one line per cycle."""
        lines = []
        for cycle in self._cycles:
            marker = "->" if cycle.index == self._position else "  "
            lines.append(f"{marker} {cycle.describe()}")
        return "\n".join(lines)
