"""EXPLAIN for XML-GL rules: what the engine decided and why.

The comparative literature around the paper judges query languages by the
*observable behaviour* of their evaluators, and visual-query surveys insist
users must be able to inspect what a drawn query actually did.  This module
is that surface: :func:`explain` evaluates a rule with tracing enabled and
digests the recorded span tree (:mod:`repro.engine.trace`) into an
:class:`Explanation` that renders — as text or JSON — the cost-chosen join
forest, every fragment's engine decision (pipeline vs. backtracking
fallback, with the reason: ``edge-free`` / ``ordered`` / ``negated`` /
``cyclic`` / ``multi-parent-circle``), and the candidate-pool sizes before and after
each semi-join pass.

This is ``EXPLAIN ANALYZE``, not a dry run: the plan the pipeline chooses
depends on actual pool sizes, so the honest report requires executing the
query.  Use it from code (:func:`explain`, ``QuerySession.explain``) or
the shell (``repro explain rule.xgl data.xml``, ``repro run --explain``)::

    >>> report = explain("query { book as B { title as T } } "
    ...                  "construct { r { collect T } }", document)
    >>> print(report.render_text())
    >>> json.loads(report.render_json())  # round-trips

When no document is supplied, the rule is explained against the built-in
synthetic bibliography workload (100 entries) so plan shapes can be
inspected without any data at hand; the report says so.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Optional, Union

from .engine.options import ExecOptions
from .engine.plan_cache import PlanCache
from .engine.stats import EvalStats
from .engine.trace import Span, Tracer
from .ssd.model import Document
from .xmlgl.evaluator import evaluate_rule, lookup_or_compile
from .xmlgl.rule import Rule
from .xmlgl.unparse import unparse_rule

__all__ = ["explain", "Explanation", "FragmentPlan", "SemiJoinPass"]

Sources = Union[Document, Mapping[str, Document]]

#: Size of the synthetic bibliography used when no document is supplied.
DEFAULT_WORKLOAD_ENTRIES = 100


@dataclass
class SemiJoinPass:
    """One semi-join reduction pass over a candidate pool."""

    var: str
    via: str
    direction: str  # bottom-up | top-down
    before: int
    after: int

    def as_dict(self) -> dict[str, Any]:
        return {
            "var": self.var,
            "via": self.via,
            "direction": self.direction,
            "before": self.before,
            "after": self.after,
        }


@dataclass
class FragmentPlan:
    """One connected query fragment's evaluation decision and plan."""

    variables: list[str]
    decision: str  # pipeline | fallback
    reason: Optional[str]
    rows: Optional[int]
    order: list[str] = field(default_factory=list)
    forest: list[dict[str, str]] = field(default_factory=list)
    pool_sizes: dict[str, int] = field(default_factory=dict)
    semijoins: list[SemiJoinPass] = field(default_factory=list)
    assembled_rows: Optional[int] = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "variables": self.variables,
            "decision": self.decision,
            "reason": self.reason,
            "rows": self.rows,
            "order": self.order,
            "forest": self.forest,
            "pool_sizes": self.pool_sizes,
            "semijoins": [p.as_dict() for p in self.semijoins],
            "assembled_rows": self.assembled_rows,
        }


@dataclass
class GraphPlan:
    """The digested plan of one extract graph of the rule."""

    source: str
    engine: str
    bindings: Optional[int]
    fragments: list[FragmentPlan]

    def as_dict(self) -> dict[str, Any]:
        return {
            "source": self.source,
            "engine": self.engine,
            "bindings": self.bindings,
            "fragments": [f.as_dict() for f in self.fragments],
        }


@dataclass
class Explanation:
    """The digested evaluation report of one rule."""

    query: str
    engine: str
    preflight_skipped: bool
    index_lookups: list[dict[str, Any]]
    graphs: list[GraphPlan]
    construct: Optional[dict[str, Any]]
    stats: EvalStats
    trace: Tracer
    synthetic_source: bool = False
    #: ``cached`` when the compiled plan came from the plan cache,
    #: ``compiled`` when this run compiled it.
    plan_source: str = "compiled"
    #: Per-counter summary of the static rewrite layer ("merged=2
    #: pruned=1"), "none" when nothing fired, "off" when rewriting was
    #: disabled (``ExecOptions(rewrite=False)``).
    rewrites: str = "off"

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready view (``render_json`` round-trips through this)."""
        return {
            "query": self.query,
            "engine": self.engine,
            "plan_source": self.plan_source,
            "rewrites": self.rewrites,
            "preflight_skipped": self.preflight_skipped,
            "synthetic_source": self.synthetic_source,
            "index_lookups": self.index_lookups,
            "graphs": [g.as_dict() for g in self.graphs],
            "construct": self.construct,
            "stats": self.stats.as_dict(),
            "trace": self.trace.as_dict(),
        }

    def render_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render_text(self) -> str:
        lines = [f"EXPLAIN {self.query.strip()}"]
        lines.append(f"engine: {self.engine}")
        lines.append(f"plan: {self.plan_source}")
        lines.append(f"rewrites: {self.rewrites}")
        if self.synthetic_source:
            lines.append(
                "source: (none given) built-in bibliography workload, "
                f"{DEFAULT_WORKLOAD_ENTRIES} entries"
            )
        if self.preflight_skipped:
            lines.append(
                "preflight: proved unsatisfiable — no evaluation performed"
            )
            return "\n".join(lines)
        lines.append("preflight: passed")
        for lookup in self.index_lookups:
            lines.append(
                f"index: {lookup.get('outcome', '?')} "
                f"({lookup.get('elements', '?')} elements)"
            )
        for position, graph in enumerate(self.graphs):
            lines.append(
                f"graph {position} (source {graph.source}): "
                f"{graph.bindings} binding(s)"
            )
            for fragment in graph.fragments:
                lines.extend(_render_fragment(fragment))
        if self.construct is not None:
            lines.append(
                f"construct: {self.construct.get('bindings', '?')} binding(s) "
                f"-> {self.construct.get('nodes', '?')} result node(s)"
            )
        lines.append(
            "work: "
            + ", ".join(
                f"{name}={int(value)}"
                for name, value in self.stats.as_dict().items()
                if name != "seconds" and not isinstance(value, dict) and value
            )
        )
        return "\n".join(lines)

    def render(self, fmt: str = "text") -> str:
        if fmt == "json":
            return self.render_json()
        if fmt == "text":
            return self.render_text()
        raise ValueError(f"unknown explain format {fmt!r}")


def _render_fragment(fragment: FragmentPlan) -> list[str]:
    variables = ", ".join(fragment.variables)
    if fragment.decision != "pipeline":
        return [
            f"  fragment [{variables}]: fallback to backtracking "
            f"(reason: {fragment.reason}) -> {fragment.rows} row(s)"
        ]
    lines = [f"  fragment [{variables}]: pipeline -> {fragment.rows} row(s)"]
    if fragment.order:
        lines.append("    join order: " + " -> ".join(fragment.order))
    lines.extend(
        "    " + line for line in _render_forest(fragment.order, fragment.forest)
    )
    if fragment.pool_sizes:
        lines.append(
            "    pools: "
            + ", ".join(
                f"{var}={size}" for var, size in fragment.pool_sizes.items()
            )
        )
    for sj in fragment.semijoins:
        lines.append(
            f"    semi-join {sj.var} ({sj.direction} via {sj.via}): "
            f"{sj.before} -> {sj.after}"
        )
    if fragment.assembled_rows is not None:
        lines.append(f"    assembled rows: {fragment.assembled_rows}")
    return lines


def _render_forest(
    order: list[str], forest: list[dict[str, str]]
) -> list[str]:
    """ASCII join-forest rendering from the plan span's parent relation."""
    if not forest:
        return []
    children: dict[str, list[str]] = {}
    child_vars = set()
    for entry in forest:
        children.setdefault(entry["parent"], []).append(entry["var"])
        child_vars.add(entry["var"])
    roots = [var for var in order if var not in child_vars]
    lines = ["join forest:"]

    def visit(var: str, depth: int) -> None:
        prefix = "  " * depth + ("└─ " if depth else "")
        lines.append(prefix + var)
        for child in children.get(var, ()):
            visit(child, depth + 1)

    for root in roots:
        visit(root, 0)
    return lines


# ---------------------------------------------------------------------------
# Trace digestion
# ---------------------------------------------------------------------------

def _fragment_from_span(span: Span) -> FragmentPlan:
    fragment = FragmentPlan(
        variables=[str(v) for v in span.attributes.get("variables", [])],
        decision=span.attributes.get("decision", "?"),
        reason=span.attributes.get("reason"),
        rows=span.attributes.get("rows"),
    )
    plans = span.find("plan")
    if plans:
        plan = plans[0]
        fragment.order = list(plan.attributes.get("order", []))
        fragment.forest = list(plan.attributes.get("forest", []))
    pools = span.find("fragment.pools")
    if pools:
        fragment.pool_sizes = dict(pools[0].attributes.get("sizes", {}))
    for event in span.find("semijoin"):
        fragment.semijoins.append(
            SemiJoinPass(
                var=event.attributes.get("var", "?"),
                via=event.attributes.get("via", "?"),
                direction=event.attributes.get("direction", "?"),
                before=event.attributes.get("before", 0),
                after=event.attributes.get("after", 0),
            )
        )
    assembles = span.find("assemble")
    if assembles:
        fragment.assembled_rows = assembles[-1].attributes.get("rows")
    return fragment


def _digest(
    query_text: str,
    engine: str,
    stats: EvalStats,
    tracer: Tracer,
    synthetic_source: bool,
    rewrites: str = "off",
) -> Explanation:
    preflight_skipped = any(
        span.attributes.get("skipped") for span in tracer.find("preflight")
    )
    index_lookups = [
        dict(span.attributes) for span in tracer.find("index.lookup")
    ]
    graphs: list[GraphPlan] = []
    for match_span in tracer.find("match"):
        graphs.append(
            GraphPlan(
                source=str(match_span.attributes.get("source", "-")),
                engine=str(match_span.attributes.get("engine", engine)),
                bindings=match_span.attributes.get("bindings"),
                fragments=[
                    _fragment_from_span(span)
                    for span in match_span.find("match.fragment")
                ],
            )
        )
    constructs = tracer.find("construct")
    construct = dict(constructs[0].attributes) if constructs else None
    plan_source = "cached" if tracer.find("plan.cache.hit") else "compiled"
    return Explanation(
        query=query_text,
        engine=engine,
        preflight_skipped=preflight_skipped,
        index_lookups=index_lookups,
        graphs=graphs,
        construct=construct,
        stats=stats,
        trace=tracer,
        synthetic_source=synthetic_source,
        plan_source=plan_source,
        rewrites=rewrites,
    )


def explain(
    query: Union[str, Rule],
    sources: Optional[Sources] = None,
    options: Optional[ExecOptions] = None,
    indexes: Optional[Any] = None,
    plans: Optional[PlanCache] = None,
) -> Explanation:
    """Evaluate ``query`` with tracing on and digest the trace.

    ``sources`` defaults to the synthetic bibliography workload so a rule
    can be explained without data; ``options`` defaults to the default
    engine with tracing forced on (the caller's ``trace`` flag is
    irrelevant here — EXPLAIN always records).  ``indexes`` is forwarded
    to the evaluator (a private cache isolates the explain run); ``plans``
    likewise selects the compiled-plan cache — the report's ``plan:`` line
    says whether this run's plan was served ``cached`` or ``compiled``.
    """
    synthetic = sources is None
    if sources is None:
        from .workloads import bibliography

        sources = bibliography(DEFAULT_WORKLOAD_ENTRIES, seed=0)
    traced = replace(options or ExecOptions(), trace=True)
    stats = EvalStats()
    stats.trace = Tracer()
    rule, source_text, plan = lookup_or_compile(
        query, sources, indexes=indexes, stats=stats, plans=plans,
        rewrite=traced.rewrite,
    )
    query_text = source_text if source_text is not None else unparse_rule(rule)
    evaluate_rule(
        rule, sources, options=traced, stats=stats, indexes=indexes, plan=plan
    )
    rewrites = "off"
    if traced.rewrite:
        report = plan.rewrite
        rewrites = report.describe() if report is not None else "none"
    return _digest(
        query_text,
        traced.engine,
        stats,
        stats.trace,
        synthetic,
        rewrites=rewrites,
    )
