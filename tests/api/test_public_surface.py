"""Snapshot test of the consolidated public facade (``repro.__init__``).

The facade's ``__all__`` is the supported API surface: additions are
deliberate (update the snapshot here in the same change), removals are
breaking and must fail loudly.
"""

import subprocess
import sys

import pytest

import repro

#: The frozen public surface.  Keep sorted; update deliberately.
EXPECTED_SURFACE = [
    "BatchResult",
    "CancelToken",
    "Diagnostic",
    "DocumentStore",
    "EvalStats",
    "ExecOptions",
    "Explanation",
    "MetricsRegistry",
    "MutationBatch",
    "MutationResult",
    "QueryBudget",
    "QueryCycle",
    "QueryService",
    "QuerySession",
    "ResultDelta",
    "RewriteReport",
    "ServerConfig",
    "ServiceClient",
    "Severity",
    "Subscription",
    "TenantConfig",
    "__version__",
    "analyze_program",
    "analyze_rule",
    "contains",
    "errors",
    "evaluate_program",
    "evaluate_rule",
    "explain",
    "global_registry",
    "parse_program",
    "parse_rule",
    "rewrite_rule",
    "rule_bindings",
    "wglog_query",
]


def test_surface_snapshot():
    assert sorted(repro.__all__) == EXPECTED_SURFACE


def test_every_name_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


def test_acceptance_import_line():
    # The exact import the acceptance criteria names.
    from repro import ExecOptions, QueryBudget, QuerySession, explain

    assert QuerySession and ExecOptions and QueryBudget and explain


def test_facade_names_are_the_implementations():
    from repro.analysis import Diagnostic
    from repro.engine.limits import CancelToken, QueryBudget
    from repro.engine.mutate import MutationBatch
    from repro.engine.options import ExecOptions as EngineExecOptions
    from repro.engine.subscribe import Subscription
    from repro.explain import explain
    from repro.session import ExecOptions
    from repro.wglog.semantics import query
    from repro.xmlgl.evaluator import evaluate_rule

    assert repro.QueryBudget is QueryBudget
    assert repro.CancelToken is CancelToken
    assert repro.explain is explain
    assert repro.evaluate_rule is evaluate_rule
    assert repro.wglog_query is query
    assert repro.Diagnostic is Diagnostic
    assert repro.MutationBatch is MutationBatch
    assert repro.Subscription is Subscription
    assert repro.ExecOptions is ExecOptions is EngineExecOptions


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute"):
        repro.definitely_not_part_of_the_api


def test_dir_lists_lazy_names():
    listing = dir(repro)
    assert "QueryBudget" in listing
    assert "wglog_query" in listing


def test_import_repro_stays_lazy():
    # The facade resolves submodule attributes on first access (PEP 562);
    # a bare `import repro` must not drag in the heavy leaves.
    code = (
        "import sys, repro; "
        "heavy = [m for m in ('repro.analysis', 'repro.wglog.semantics', "
        "'repro.visual') if m in sys.modules]; "
        "print(','.join(heavy) or 'lazy')"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "lazy"
