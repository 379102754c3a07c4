"""Rule and program evaluation for XML-GL.

Ties the pieces together: match every extract graph against its source
document, join the binding sets (shared predicates realise multi-document
joins), filter by rule-level conditions, and run the construct tree.

Repeated queries skip the front half entirely: :func:`lookup_or_compile`
keys a :class:`~repro.engine.plan_cache.CompiledPlan` — the parsed rule,
its static-preflight verdict and one compiled
:class:`~repro.xmlgl.matcher.CompiledGraphPlan` per extract graph — by the
query text (plans never depend on a document), and
:func:`rule_bindings` / :func:`evaluate_rule` accept the cached plan via
``plan=`` so parse, validation, preflight and graph analysis all amortise
to one execution.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Optional, Union

from ..engine.bindings import BindingSet
from ..engine.cache import DocumentIndexCache, shared_cache
from ..engine.conditions import DocumentAccessor
from ..engine.index import DocumentIndex
from ..engine.limits import QueryBudget, arm_budget, mark_truncated, truncate_element
from ..engine.options import ExecOptions
from ..engine.plan_cache import CompiledPlan, PlanCache, shared_plans
from ..engine.stats import EvalStats
from ..engine.trace import Tracer, span as trace_span
from ..errors import BudgetExceeded, EvaluationError
from ..ssd.model import Document, Element
from .ast import QueryGraph
from .construct import build
from .matcher import compile_graph, match
from .rule import Program, Rule

__all__ = [
    "compile_plan",
    "evaluate_rule",
    "evaluate_program",
    "lookup_or_compile",
    "rule_bindings",
]

_ACCESSOR = DocumentAccessor()

Sources = Union[Document, Mapping[str, Document]]


def _resolve_source(graph: QueryGraph, sources: Sources) -> Document:
    if isinstance(sources, Document):
        if graph.source is not None:
            raise EvaluationError(
                f"extract graph names source {graph.source!r} but only a "
                "single unnamed document was supplied"
            )
        return sources
    if graph.source is None:
        if len(sources) == 1:
            return next(iter(sources.values()))
        raise EvaluationError(
            "extract graph has no source name; supply a single document or "
            "name the graph's source"
        )
    try:
        return sources[graph.source]
    except KeyError:
        raise EvaluationError(f"unknown source document {graph.source!r}")


def _trace_label(text: str) -> str:
    """The short digest naming a plan-cache key in trace events.

    Only traced runs compute it: the keys themselves are the texts, so an
    untraced process never loads a hashing library for them.
    """
    import hashlib

    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _note_rewrite(stats: EvalStats, report: object) -> None:
    """Mirror a rewrite report's counters into ``stats.extra``.

    Called both when a rewrite runs and when a cached plan carrying one is
    served, so every evaluation's stats describe the plan it actually ran
    (``rewrite_merged=2`` etc. — the names mirror
    :data:`repro.analysis.rewrite.COUNTERS`).
    """
    counters = getattr(report, "counters", None)
    if not counters:
        return
    for name, value in counters.items():
        stats.bump(f"rewrite_{name}", value)


def _run_rewrite(rule: Rule, stats: EvalStats) -> tuple[Rule, object]:
    """The ``rewrite`` span: run the static rewrite layer over ``rule``."""
    from ..analysis.rewrite import rewrite_rule

    with trace_span(stats.trace, "rewrite") as rewrite_span:
        rewritten, report = rewrite_rule(rule)
        if rewrite_span is not None:
            rewrite_span["summary"] = report.describe()
            rewrite_span["changed"] = report.changed
    _note_rewrite(stats, report)
    return rewritten, report


def _finish_plan(
    rule: Rule, report: object, stats: EvalStats
) -> CompiledPlan:
    """Preflight + per-graph compilation of an (already rewritten) rule."""
    from ..analysis.preflight import xmlgl_preflight

    skip = bool(getattr(report, "static_false", False))
    if not skip:
        stats.preflight_runs += 1
        skip = xmlgl_preflight(rule) is not None
    return CompiledPlan(
        rule=rule,
        preflight_skip=skip,
        graph_plans=()
        if skip
        else tuple(compile_graph(graph) for graph in rule.queries),
        rewrite=report,
    )


def compile_plan(
    rule: Rule,
    *,
    rewrite: bool = True,
    stats: Optional[EvalStats] = None,
) -> CompiledPlan:
    """Analyse ``rule`` once: rewrite, preflight verdict, per-graph plans.

    With ``rewrite`` on (the default) the static rewrite layer runs first
    and the plan carries the *rewritten* rule plus its
    :class:`~repro.analysis.rewrite.RewriteReport`; a rewrite that proves
    the query empty, like a contradictory preflight verdict, is recorded
    as ``preflight_skip`` with no graph plans — evaluation of the cached
    plan short-circuits exactly like the live preflight would.
    """
    stats = stats if stats is not None else EvalStats()
    report: object = None
    if rewrite:
        rule, report = _run_rewrite(rule, stats)
    return _finish_plan(rule, report, stats)


def lookup_or_compile(
    query: Union[str, Rule],
    sources: Sources,
    *,
    parsed: Optional[Rule] = None,
    indexes: Optional[DocumentIndexCache] = None,
    stats: Optional[EvalStats] = None,
    plans: Optional[PlanCache] = None,
    rewrite: bool = True,
) -> tuple[Rule, Optional[str], CompiledPlan]:
    """The plan-cache front door: ``(rule, source_text, compiled plan)``.

    Plans are stored under the query's **canonical rewritten form**
    (:func:`repro.analysis.rewrite.canonical_rule_text`) alone — a
    compiled plan depends only on the query graph, never on a document —
    so two textually different but semantically equal queries share one
    compiled plan, and a plan stays valid across document mutations.  A
    cheap alias map keyed by the raw text fronts the canonical
    entries: a warm repeat of the *identical* text resolves without
    parsing at all.  Trace events name a key by a short digest of it.
    Indexes are resolved through ``indexes`` (the shared cache by
    default), which doubles as the index prewarm for the evaluation.

    On a hit the parse, validation, rewrite, preflight and graph analysis
    are all skipped (``stats.plan_cache_hits``, trace event
    ``plan.cache.hit``) and the cached plan's rewrite counters are
    replayed into ``stats.extra``; on a miss the query is parsed — unless
    the caller supplies ``parsed`` — rewritten under a ``rewrite`` span,
    and compiled under a ``plan.cache.compile`` span, then cached.  With
    ``rewrite=False`` the raw text keys the entry directly and no
    rewrite runs.  A :class:`Rule` object's raw text is its canonical
    text, which, unlike DSL text, can render shared (DAG) nodes.
    """
    stats = stats if stats is not None else EvalStats()
    tracer = stats.trace
    if isinstance(query, str):
        source_text = key_text = query
    else:
        from ..analysis.rewrite import canonical_rule_text

        parsed, source_text = query, None
        key_text = canonical_rule_text(parsed)
    label = _trace_label(key_text) if tracer is not None else None
    cache = indexes if indexes is not None else shared_cache
    for document in (
        [sources] if isinstance(sources, Document) else sources.values()
    ):
        cache.get(document, stats=stats)
    plan_cache = plans if plans is not None else shared_plans

    def _hit(
        plan: CompiledPlan, *, canonical: bool, replay: bool = True
    ) -> CompiledPlan:
        stats.plan_cache_hits += 1
        if tracer is not None:
            tracer.event("plan.cache.hit", key=label, canonical=canonical)
        if replay:
            # warm hit: no rewrite ran this call, so surface the cached
            # plan's rewrite outcome in this evaluation's stats
            _note_rewrite(stats, plan.rewrite)
        return plan

    if not rewrite:
        # raw-keyed, no canonical sharing: the verbatim-evaluation path
        raw_key = ("raw", key_text)
        plan = plan_cache.get(raw_key)
        if plan is not None:
            return _hit(plan, canonical=False).rule, source_text, plan
        stats.plan_cache_misses += 1
        if tracer is not None:
            tracer.event("plan.cache.miss", key=label)
        if parsed is None:
            from .dsl import parse_rule

            with trace_span(tracer, "parse", query=len(source_text or "")):
                parsed = parse_rule(source_text)
        with trace_span(tracer, "plan.cache.compile", key=label):
            plan = compile_plan(parsed, rewrite=False, stats=stats)
        plan_cache.put(raw_key, plan)
        return parsed, source_text, plan

    alias_key = key_text
    target = plan_cache.resolve_alias(alias_key)
    if target is not None:
        plan = plan_cache.get(target)
        if plan is not None:
            return _hit(plan, canonical=False).rule, source_text, plan
        # stale alias: the entry aged out — fall through to a normal miss
    if parsed is None:
        from .dsl import parse_rule

        with trace_span(tracer, "parse", query=len(source_text or "")):
            parsed = parse_rule(source_text)
    rewritten, report = _run_rewrite(parsed, stats)
    from ..analysis.rewrite import canonical_rule_text

    canonical_text = canonical_rule_text(rewritten)
    canonical_key = ("canon", canonical_text)
    plan = plan_cache.get(canonical_key)
    if plan is not None:
        # a semantically equal query compiled this plan under another text;
        # this call's own rewrite already recorded its counters
        plan_cache.put_alias(alias_key, canonical_key)
        return _hit(plan, canonical=True, replay=False).rule, source_text, plan
    stats.plan_cache_misses += 1
    if tracer is not None:
        tracer.event("plan.cache.miss", key=label)
    with trace_span(
        tracer,
        "plan.cache.compile",
        key=_trace_label(canonical_text) if tracer is not None else None,
    ):
        plan = _finish_plan(rewritten, report, stats)
    plan_cache.put(canonical_key, plan)
    plan_cache.put_alias(alias_key, canonical_key)
    return rewritten, source_text, plan


def rule_bindings(
    rule: Rule,
    sources: Sources,
    *,
    options: Optional[ExecOptions] = None,
    trace: Optional[bool] = None,
    budget: Optional[QueryBudget] = None,
    stats: Optional[EvalStats] = None,
    indexes: Optional[DocumentIndexCache] = None,
    preflight: bool = True,
    plan: Optional[CompiledPlan] = None,
) -> BindingSet:
    """Matched and joined bindings of a rule (before construction).

    The keyword-only ``options=`` :class:`~repro.engine.options.ExecOptions`
    bundle is the run contract shared with :func:`evaluate_rule`,
    :meth:`repro.session.QuerySession.run` and WG-Log's
    :func:`~repro.wglog.semantics.query`.  ``trace`` overrides
    ``options.trace`` for this call and ``budget`` overrides
    ``options.budget``; both default to deferring to the options.  They
    are resolved once here and the matcher receives the resolved bundle,
    so ``trace=False`` switches tracing off even when the options ask
    for it.

    ``indexes`` is the :class:`~repro.engine.cache.DocumentIndexCache` to
    reuse :class:`DocumentIndex` snapshots from; it defaults to the shared
    process-wide cache, so repeated queries over one document build its
    index once.  Callers that mutate a document between evaluations must
    invalidate it (see :mod:`repro.engine.cache`).

    ``preflight`` (default on) runs the static satisfiability pre-flight
    first: a rule proved to match nothing — contradictory predicates, an
    impossible anchoring — returns an empty binding set without touching
    any document, counted in ``stats.preflight_skips``.

    ``plan`` is a :func:`compile_plan` result *for this rule* (usually via
    :func:`lookup_or_compile`): the live preflight and each graph's
    compilation are skipped in favour of the cached analysis.
    """
    stats = stats if stats is not None else EvalStats()
    options = options or ExecOptions()
    tracing = bool(trace) if trace is not None else options.trace
    effective_budget = budget if budget is not None else options.budget
    if tracing != options.trace or effective_budget is not options.budget:
        options = replace(options, trace=tracing, budget=effective_budget)
    if tracing and stats.trace is None:
        stats.trace = Tracer()
    # Arm here (not in match) so one deadline spans preflight-to-construct.
    arm_budget(stats, effective_budget)
    if plan is not None:
        with trace_span(stats.trace, "preflight") as preflight_span:
            if preflight_span is not None:
                preflight_span["cached"] = True
                preflight_span["skipped"] = plan.preflight_skip
        if plan.preflight_skip:
            stats.preflight_skips += 1
            return BindingSet()
    elif preflight:
        from ..analysis.preflight import xmlgl_preflight

        with trace_span(stats.trace, "preflight") as preflight_span:
            stats.preflight_runs += 1
            verdict = xmlgl_preflight(rule)
            if preflight_span is not None:
                preflight_span["skipped"] = verdict is not None
        if verdict is not None:
            stats.preflight_skips += 1
            return BindingSet()
    cache = indexes if indexes is not None else shared_cache
    combined: Optional[BindingSet] = None
    for position, graph in enumerate(rule.queries):
        document = _resolve_source(graph, sources)
        index = cache.get(document, stats=stats)
        with trace_span(
            stats.trace,
            "match",
            graph=position,
            source=graph.source or "-",
            engine=options.engine,
            language="xmlgl",
        ) as match_span:
            bindings = match(
                graph,
                document,
                options=options,
                index=index,
                stats=stats,
                plan=plan.graph_plans[position] if plan is not None else None,
            )
            if match_span is not None:
                match_span["bindings"] = len(bindings)
        combined = bindings if combined is None else combined.join(bindings)
        if not combined:
            return BindingSet()
    assert combined is not None
    for condition in rule.conditions:
        combined = combined.select(
            lambda b, c=condition: c.evaluate(b, _ACCESSOR)
        )
    return combined


def _matched_indexes(
    rule: Rule,
    sources: Sources,
    indexes: Optional[DocumentIndexCache],
    stats: EvalStats,
) -> list[DocumentIndex]:
    """The indexes :func:`rule_bindings` matched ``rule``'s graphs against.

    ``peek`` leaves the cache's counters and LRU order alone, so each
    index lookup is counted once per evaluation; only an entry that a
    concurrent evaluation evicted or was reordering is fetched again.
    """
    cache = indexes if indexes is not None else shared_cache
    used = []
    for graph in rule.queries:
        document = _resolve_source(graph, sources)
        index = cache.peek(document)
        used.append(index if index is not None else cache.get(document, stats))
    return used


def evaluate_rule(
    rule: Rule,
    sources: Sources,
    *,
    options: Optional[ExecOptions] = None,
    trace: Optional[bool] = None,
    budget: Optional[QueryBudget] = None,
    stats: Optional[EvalStats] = None,
    indexes: Optional[DocumentIndexCache] = None,
    plan: Optional[CompiledPlan] = None,
) -> Element:
    """Evaluate one rule to its constructed result element.

    Accepts the unified keyword-only ``options=`` / ``trace=`` / ``budget=``
    contract (see :func:`rule_bindings`, including ``plan=`` for cached
    compiled plans).  When a budget caps
    ``max_result_nodes``, the constructed tree is checked after building:
    under ``on_limit="raise"`` an oversized result raises
    :class:`~repro.errors.BudgetExceeded`; under ``"partial"`` it is pruned
    in document order to the cap (well-formed, every kept node retains its
    ancestors) and flagged ``stats.extra["truncated"]``.  Under
    ``on_limit="raise"`` the deadline and cancel token are polled once more
    after building; partial mode keeps the built result.
    """
    stats = stats if stats is not None else EvalStats()
    bindings = rule_bindings(
        rule,
        sources,
        options=options,
        trace=trace,
        budget=budget,
        stats=stats,
        indexes=indexes,
        plan=plan,
    )
    state = stats.budget
    with trace_span(stats.trace, "construct") as construct_span:
        if state is not None:
            try:
                state.poll()
            except BudgetExceeded as exc:
                # Partial mode: a deadline expiring *between* matching and
                # construction must not discard the gathered bindings —
                # build the (possibly already truncated) result anyway.
                # Cancellation is not a BudgetExceeded and still aborts.
                if not state.budget.partial:
                    raise
                if not stats.extra.get("truncated"):
                    mark_truncated(stats, exc.limit)
        # No bindings, nothing to order: a preflight skip never looked up
        # an index, and a peek that misses would build one.
        used = _matched_indexes(rule, sources, indexes, stats) if bindings else []
        result = build(rule.construct, bindings, indexes=used)
        if state is not None:
            if not state.budget.partial:
                state.poll()  # the deadline covers construct too
            try:
                state.check_result_nodes(result.size())
            except BudgetExceeded as exc:
                if not state.budget.partial:
                    raise
                max_nodes = state.budget.max_result_nodes
                assert max_nodes is not None
                truncate_element(result, max_nodes)
                mark_truncated(stats, exc.limit)
        if construct_span is not None:
            construct_span["bindings"] = len(bindings)
            construct_span["nodes"] = result.size()
    return result


def evaluate_program(
    program: Program,
    sources: Sources,
    *,
    options: Optional[ExecOptions] = None,
    trace: Optional[bool] = None,
    budget: Optional[QueryBudget] = None,
    stats: Optional[EvalStats] = None,
) -> Document:
    """Evaluate a program: union of rule results under a common root.

    Single-rule programs with ``unwrap=True`` return the rule's own result
    element as document root.  Chained programs feed each named rule's
    result to the rules after it as a source document of that name.

    Each rule is compiled through :func:`compile_plan` first, so the
    static rewrite layer applies (disable with ``ExecOptions(rewrite=False)`` /
    ``repro run --no-rewrite``) and evaluation runs the rewritten rule.
    """
    indexes = shared_cache
    rewrite = options.rewrite if options is not None else True
    plan_stats = stats if stats is not None else EvalStats()

    def run_one(rule: Rule, pool: Sources) -> Element:
        plan = compile_plan(rule, rewrite=rewrite, stats=plan_stats)
        return evaluate_rule(
            plan.rule, pool, options=options, trace=trace, budget=budget,
            stats=stats, indexes=indexes, plan=plan,
        )

    if program.chained:
        pool: dict[str, Document] = (
            {"input": sources} if isinstance(sources, Document) else dict(sources)
        )
        results = []
        for rule in program.rules:
            result = run_one(rule, pool)
            results.append(result)
            if rule.name:
                pool[rule.name] = Document(result.copy())
    else:
        results = [run_one(rule, sources) for rule in program.rules]
    if program.unwrap and len(results) == 1:
        return Document(results[0])
    wrapper = Element(program.result_tag)
    for result in results:
        wrapper.append(result)
    return Document(wrapper)
