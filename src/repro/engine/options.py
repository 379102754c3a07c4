"""The one execution-options type shared by every entry point.

:class:`ExecOptions` is the frozen bundle of run-time switches the XML-GL
document matcher, the WG-Log graph matcher, the evaluators and
:class:`~repro.session.QuerySession` all honour (re-exported unchanged as
``repro.session.ExecOptions`` and ``repro.ExecOptions``):

* ``engine`` — the evaluation strategy:

  - ``"pipeline"`` (default): set-at-a-time evaluation.  The query is
    compiled into per-node candidate pools plus binary edge relations,
    both held as int columns (:mod:`repro.engine.columns`); a
    Yannakakis-style semi-join reduction removes dangling candidates over
    a cost-chosen join tree, and hash joins assemble the final binding
    set.  Every fragment runs this way: an edge that closes a cycle and
    XML-GL's ordered arcs filter the assembled rows, and a WG-Log path
    edge is a relation built by breadth-first search.  Only a fragment
    that trips the ``max_hashjoin_rows`` cap re-runs on the backtracking
    core.
  - ``"backtracking"``: the node-at-a-time core with interval-index
    candidate narrowing (differential oracle for the pipeline).
  - ``"naive"``: backtracking with indexes disabled — full scans and
    per-candidate structural checks; the ablation baseline and the
    differential oracle of every other engine.

* ``rewrite`` — run the static query-rewrite layer
  (:mod:`repro.analysis.rewrite`) before planning: canonicalization,
  containment-based minimization and condition simplification.  On by
  default; ``False`` is the escape hatch (``repro run --no-rewrite``)
  that evaluates the drawn query verbatim.

* ``use_planner`` — the EXT-A1 ablation switch: ``False`` keeps the
  drawing order as the join / backtracking order instead of the
  cost-based :func:`repro.engine.planner.plan_order`.  Honoured by every
  XML-GL engine; WG-Log always plans (its graph matcher shares
  ``plan_order`` but reads no ablation switch).

* ``trace`` — record a span tree (:mod:`repro.engine.trace`) of the
  evaluation.  The outermost entry point attaches a fresh
  :class:`~repro.engine.trace.Tracer` to the evaluation's ``EvalStats``
  unless the caller installed one already; sessions expose the recorded
  tree on ``QueryCycle.trace`` / ``BatchResult.trace``.

* ``budget`` — resource limits (:class:`repro.engine.limits.QueryBudget`):
  deadline, work-unit ceiling, bindings / result-node / join-row caps, and
  the ``on_limit`` raise-vs-partial policy.  Armed onto the evaluation's
  ``EvalStats`` at query start, mirroring the tracer convention; ``None``
  (the default) means ungoverned and costs nothing on the hot path.

The bundle is frozen so it can be shared across threads and cached plans
without defensive copies; derive a variant with :func:`dataclasses.replace`
("this tenant runs unbudgeted" is ``replace(session.defaults,
budget=None)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from .limits import QueryBudget

__all__ = ["ENGINES", "ExecOptions"]

#: Recognised values of :attr:`ExecOptions.engine`.
ENGINES = ("pipeline", "backtracking", "naive")


@dataclass(frozen=True)
class ExecOptions:
    """Engine choice, rewrite and planner switches, tracing and budget."""

    engine: str = "pipeline"
    rewrite: bool = True
    use_planner: bool = True
    trace: bool = False
    budget: Optional["QueryBudget"] = None

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )
