"""repro — Graphical Query Languages for Semi-Structured Information.

A full reproduction of the system described in the EDBT 2000 paper of the
same title: the two graph-based graphical query languages **XML-GL**
(schema-optional, for XML) and **WG-Log** (schema-based, G-Log-derived, for
WWW-style graph data), together with every substrate they need — an XML data
model and parser, DTD validation, a generic graph-pattern matcher, a shared
condition/binding engine, a headless visual (diagram) layer, and an
executable comparison framework.

This module is the consolidated public facade.  Everything a library
consumer needs rides on ``repro`` itself::

    from repro import ExecOptions, QueryBudget, QuerySession, explain

    session = QuerySession(document)
    cycle = session.run(
        "query { book as B { title as T } } construct { r { collect T } }",
        options=ExecOptions(
            budget=QueryBudget(deadline_ms=500, on_limit="partial")
        ),
    )

The facade groups:

* **Sessions** — :class:`QuerySession` / :class:`QueryCycle` /
  :class:`BatchResult`: parse-evaluate-inspect with a shared index cache.
* **Evaluation** — :func:`parse_rule` / :func:`evaluate_rule` /
  :func:`rule_bindings` (XML-GL) and :func:`wglog_query` (WG-Log), all
  taking one keyword-only ``options=`` :class:`ExecOptions` bundle (plus
  ``trace=`` / ``budget=`` per-call overlays).
* **Governance** — :class:`QueryBudget` / :class:`CancelToken`
  (:mod:`repro.engine.limits`) plus the typed errors in :mod:`.errors`.
* **Observability** — :func:`explain`, :class:`ExecOptions`,
  :class:`EvalStats`, :class:`MetricsRegistry`.
* **Static analysis** — :class:`Diagnostic`, :func:`analyze_rule`,
  :func:`analyze_program`.
* **Mutation & continuous queries** — :class:`MutationBatch` /
  :class:`MutationResult` (typed incremental edits via
  :meth:`QuerySession.mutate`) and :class:`Subscription` /
  :class:`ResultDelta` (:meth:`QuerySession.subscribe`), with execution
  defaults bundled in :class:`ExecOptions`.

Submodule attributes resolve lazily (PEP 562), so ``import repro`` stays
cheap; ``__all__`` is the supported surface and is snapshot-tested in
``tests/api/test_public_surface.py`` — additions are deliberate, removals
are breaking.
"""

from __future__ import annotations

from typing import Any

__version__ = "2.0.0"

from . import errors
from .session import BatchResult, QueryCycle, QuerySession

# Imported eagerly, function bound *after* the submodule registers itself
# on the package, so ``repro.explain`` is deterministically the function
# (the submodule stays reachable as ``sys.modules["repro.explain"]``,
# which is how every ``from repro.explain import ...`` resolves).
from .explain import Explanation, explain

#: Lazily-resolved facade attribute -> (module, attribute there).
_LAZY: dict[str, tuple[str, str]] = {
    # evaluation (XML-GL)
    "parse_rule": (".xmlgl.dsl", "parse_rule"),
    "parse_program": (".xmlgl.dsl", "parse_program"),
    "evaluate_rule": (".xmlgl.evaluator", "evaluate_rule"),
    "evaluate_program": (".xmlgl.evaluator", "evaluate_program"),
    "rule_bindings": (".xmlgl.evaluator", "rule_bindings"),
    # evaluation (WG-Log)
    "wglog_query": (".wglog.semantics", "query"),
    # engine knobs + governance
    "ExecOptions": (".session", "ExecOptions"),
    "EvalStats": (".engine.stats", "EvalStats"),
    "QueryBudget": (".engine.limits", "QueryBudget"),
    "CancelToken": (".engine.limits", "CancelToken"),
    # observability
    "MetricsRegistry": (".engine.metrics", "MetricsRegistry"),
    "global_registry": (".engine.metrics", "global_registry"),
    # static analysis
    "Diagnostic": (".analysis", "Diagnostic"),
    "Severity": (".analysis", "Severity"),
    "analyze_rule": (".analysis", "analyze_rule"),
    "analyze_program": (".analysis", "analyze_program"),
    # mutation + continuous queries
    "MutationBatch": (".engine.mutate", "MutationBatch"),
    "MutationResult": (".engine.mutate", "MutationResult"),
    "Subscription": (".engine.subscribe", "Subscription"),
    "ResultDelta": (".engine.subscribe", "ResultDelta"),
    # static query rewriting (canonicalization, minimization, pruning)
    "rewrite_rule": (".analysis.rewrite", "rewrite_rule"),
    "RewriteReport": (".analysis.rewrite", "RewriteReport"),
    "contains": (".analysis.rewrite", "contains"),
    # the query service (``repro serve``)
    "QueryService": (".server", "QueryService"),
    "ServiceClient": (".server", "ServiceClient"),
    "DocumentStore": (".server", "DocumentStore"),
    "ServerConfig": (".server", "ServerConfig"),
    "TenantConfig": (".server", "TenantConfig"),
}

__all__ = [
    "errors",
    "QuerySession",
    "QueryCycle",
    "BatchResult",
    "explain",
    "Explanation",
    "__version__",
    *_LAZY,
]


def __getattr__(name: str) -> Any:
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(module_name, __name__), attribute)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
