"""Resource governance: query budgets, deadlines and cooperative cancellation.

The ROADMAP's serving-side north star needs *bounded, predictable* response
behaviour: a pathological query — a deep ``*``-edge descent over a large
document, an exploding hash join — must stop at a declared limit instead of
running away with the process.  This module is that governor:

* :class:`QueryBudget` — the declarative limits a caller attaches to one
  evaluation: a wall-clock deadline, a work-unit ceiling, caps on bindings,
  result nodes and materialised join rows, plus the ``on_limit`` policy
  (``"raise"`` a typed error vs. return a ``"partial"`` truncated result).
* :class:`BudgetState` — one *armed* budget: the deadline resolved to an
  absolute clock value, counters for work/rows consumed so far, and the
  cooperative :meth:`~BudgetState.charge` / :meth:`~BudgetState.poll`
  checks the engines call at their existing instrumentation sites.
* :class:`CancelToken` — a thread-safe flag another thread may set; the
  owning evaluation notices it at its next check site and raises
  :class:`~repro.errors.QueryCancelled`.

Like tracing, governance is **pay-for-use**: the state rides on
:attr:`repro.engine.stats.EvalStats.budget` (``None`` by default) and every
check site guards on ``is None``, so an unbudgeted run does byte-identical
work (``tests/test_bench_smoke.py`` asserts exactly that over every
bench query).  The
deadline clock is only consulted every :data:`CLOCK_STRIDE` work units —
cheap enough for per-candidate charging, tight enough that a budgeted
evaluation over tens of thousands of nodes stops well within ~2× its
deadline.

The degradation ladder (documented in DESIGN.md § Resource governance):

1. a set-at-a-time fragment whose materialised relations or hash-join rows
   exceed ``max_hashjoin_rows`` **degrades** to the backtracking core for
   that fragment — slower, but bounded memory.  Both matchers run every
   fragment through :func:`repro.engine.pipeline.run_fragment`, the one
   driver that refunds the abandoned rows and records the fallback reason
   ``budget`` and the counters ``pipeline_fallbacks`` and
   ``degraded_fragments``.  The fallback reads the same per-box pools
   the pipeline would have: XML-GL filters each box's pool by its
   circles, pushed-down conditions and crossed arcs once, before any
   engine runs, so the core needs no pool of its own;
2. a limit the ladder cannot absorb raises :class:`BudgetExceeded` /
   :class:`DeadlineExceeded` carrying the partial ``EvalStats``;
3. under ``on_limit="partial"`` the matchers catch step 2 and return the
   bindings gathered so far, flagged ``stats.extra["truncated"]``, so the
   construct step still produces a well-formed result document.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from ..errors import BudgetExceeded, DeadlineExceeded, QueryCancelled

if TYPE_CHECKING:
    from ..ssd.model import Element
    from .stats import EvalStats

__all__ = [
    "ON_LIMIT_POLICIES",
    "QueryBudget",
    "BudgetState",
    "CancelToken",
    "arm_budget",
    "mark_truncated",
    "truncate_element",
]

#: Recognised values of :attr:`QueryBudget.on_limit`.
ON_LIMIT_POLICIES = ("raise", "partial")

#: Work units charged between consultations of the deadline clock / cancel
#: token.  Small enough that a budgeted hot loop notices a deadline within
#: a fraction of the stride's wall time; large enough that
#: ``time.monotonic()`` stays off the per-candidate path.
CLOCK_STRIDE = 256


class CancelToken:
    """A thread-safe cancellation flag shared with a running evaluation.

    The evaluation polls the token cooperatively at its budget check sites;
    :meth:`cancel` may be called from any thread (e.g. to abort a whole
    ``run_batch`` fan-out).  Tokens are reusable across queries — every row
    of a batch can share one.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request cancellation; checked at the next cooperative site."""
        self._event.set()

    def cancelled(self) -> bool:
        return self._event.is_set()

    def reset(self) -> None:
        """Clear the flag (reuse the token for another run)."""
        self._event.clear()


@dataclass(frozen=True)
class QueryBudget:
    """Declarative resource limits for one query evaluation.

    All limits default to ``None`` (unlimited); a budget with every field
    ``None`` is legal and costs one no-op check per site.  Fields:

    * ``deadline_ms`` — wall-clock deadline, measured from the moment the
      budget is *armed* (query start), in milliseconds.
    * ``max_work`` — cooperative work units: candidates tried, edge checks,
      pool entries scanned, semi-join passes… roughly the same currency as
      ``EvalStats.candidates_tried + edge_checks``.
    * ``max_bindings`` — cap on bindings produced by matching.
    * ``max_result_nodes`` — cap on nodes in the constructed result
      document (checked by the construct step).
    * ``max_hashjoin_rows`` — memory-ish cap on materialised relation pairs
      plus hash-join rows; the pipeline *degrades* the offending fragment
      to backtracking before giving up (see the module docstring's ladder).
    * ``on_limit`` — ``"raise"`` (default) propagates the typed error;
      ``"partial"`` returns the truncated result gathered so far, flagged
      ``stats.extra["truncated"]``.
    """

    deadline_ms: Optional[float] = None
    max_work: Optional[int] = None
    max_bindings: Optional[int] = None
    max_result_nodes: Optional[int] = None
    max_hashjoin_rows: Optional[int] = None
    on_limit: str = "raise"

    def __post_init__(self) -> None:
        if self.on_limit not in ON_LIMIT_POLICIES:
            raise ValueError(
                f"unknown on_limit policy {self.on_limit!r}; "
                f"expected one of {ON_LIMIT_POLICIES}"
            )
        for name in (
            "deadline_ms",
            "max_work",
            "max_bindings",
            "max_result_nodes",
            "max_hashjoin_rows",
        ):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be non-negative, got {value!r}")

    @property
    def partial(self) -> bool:
        """Whether limit trips should yield truncated results."""
        return self.on_limit == "partial"

    def arm(
        self,
        stats: Optional["EvalStats"] = None,
        cancel: Optional[CancelToken] = None,
    ) -> "BudgetState":
        """Start the clock: bind this budget to one evaluation's stats."""
        return BudgetState(self, stats=stats, cancel=cancel)


class BudgetState:
    """One armed :class:`QueryBudget`: absolute deadline + consumption.

    Rides on ``EvalStats.budget`` exactly as the tracer rides on
    ``EvalStats.trace``; check sites guard on ``stats.budget is None`` so
    the unarmed path costs one attribute read.  Not thread-safe — each
    evaluation owns its state (``run_batch`` arms one per row) — except
    for the :class:`CancelToken`, which is shared by design.
    """

    __slots__ = (
        "budget",
        "stats",
        "cancel",
        "deadline_at",
        "work",
        "rows",
        "_countdown",
        "_polling",
    )

    def __init__(
        self,
        budget: QueryBudget,
        stats: Optional["EvalStats"] = None,
        cancel: Optional[CancelToken] = None,
    ) -> None:
        self.budget = budget
        self.stats = stats
        self.cancel = cancel
        self.deadline_at = (
            time.monotonic() + budget.deadline_ms / 1000.0
            if budget.deadline_ms is not None
            else None
        )
        self.work = 0
        self.rows = 0
        # Only tick the clock when there is a clock to tick.
        self._polling = self.deadline_at is not None or cancel is not None
        self._countdown = CLOCK_STRIDE

    # -- raising ------------------------------------------------------------

    def _exceed(self, limit: str, allowed: Any, spent: Any) -> None:
        if self.stats is not None:
            self.stats.bump("budget_exceeded")
        if limit == "deadline_ms":
            raise DeadlineExceeded(limit, allowed, round(spent, 3), self.stats)
        raise BudgetExceeded(limit, allowed, spent, self.stats)

    # -- cooperative checks ---------------------------------------------------

    def poll(self) -> None:
        """Immediate deadline + cancellation check (stage boundaries)."""
        if self.cancel is not None and self.cancel.cancelled():
            raise QueryCancelled(self.stats)
        if self.deadline_at is not None:
            now = time.monotonic()
            if now > self.deadline_at:
                allowed = self.budget.deadline_ms
                assert allowed is not None
                spent = allowed + (now - self.deadline_at) * 1000.0
                self._exceed("deadline_ms", allowed, spent)

    def charge(self, units: int = 1) -> None:
        """Consume ``units`` of work; the per-candidate check site.

        Work limits are enforced exactly; the deadline clock and the cancel
        token are consulted every :data:`CLOCK_STRIDE` units.
        """
        self.work += units
        max_work = self.budget.max_work
        if max_work is not None and self.work > max_work:
            self._exceed("max_work", max_work, self.work)
        if self._polling:
            self._countdown -= units
            if self._countdown <= 0:
                self._countdown = CLOCK_STRIDE
                self.poll()

    def add_rows(self, count: int) -> None:
        """Account materialised relation pairs / hash-join rows."""
        self.rows += count
        max_rows = self.budget.max_hashjoin_rows
        if max_rows is not None and self.rows > max_rows:
            self._exceed("max_hashjoin_rows", max_rows, self.rows)
        self.charge(count)

    def check_bindings(self, produced: int) -> None:
        """Enforce ``max_bindings`` against the bindings produced so far."""
        max_bindings = self.budget.max_bindings
        if max_bindings is not None and produced > max_bindings:
            self._exceed("max_bindings", max_bindings, produced)

    def check_result_nodes(self, nodes: int) -> None:
        """Enforce ``max_result_nodes`` against a constructed result."""
        max_nodes = self.budget.max_result_nodes
        if max_nodes is not None and nodes > max_nodes:
            self._exceed("max_result_nodes", max_nodes, nodes)


def arm_budget(
    stats: "EvalStats",
    budget: Optional[QueryBudget],
    cancel: Optional[CancelToken] = None,
) -> Optional[BudgetState]:
    """Attach an armed budget to ``stats`` unless one is armed already.

    Mirrors the tracer-attachment convention: the outermost entry point
    (session, evaluator, or a direct ``match``/``embeddings`` call) arms;
    inner layers see ``stats.budget`` set and leave it alone, so one
    deadline spans parse-to-construct.  Returns the armed state (or the
    existing one, or ``None`` when there is nothing to arm).
    """
    if stats.budget is not None:
        return stats.budget
    if budget is None:
        return None
    state = budget.arm(stats=stats, cancel=cancel)
    stats.budget = state
    return state


def mark_truncated(stats: "EvalStats", limit: str) -> None:
    """Flag a partial result on its stats (and the metrics counters).

    ``stats.extra["truncated"]`` is the per-result flag the acceptance
    contract names; ``truncated_results`` is the fleet-facing counter the
    metrics registry aggregates; ``truncated_by_<limit>`` records which
    limit cut the run short.  Every extra stays an *integer* counter —
    ``EvalStats.as_dict`` feeds the metrics totals, which sum.
    """
    stats.extra["truncated"] = 1
    stats.bump("truncated_results")
    stats.bump(f"truncated_by_{limit}")
    if stats.trace is not None:
        stats.trace.event("truncated", limit=limit)


def truncate_element(root: "Element", max_nodes: int) -> int:
    """Prune ``root``'s subtree, in place, to at most ``max_nodes`` nodes.

    Keeps a document-order prefix of the tree: once the node allowance is
    spent, remaining children are dropped wholesale, so every kept element
    retains its ancestors and the result stays well-formed.  Counting
    matches :meth:`Element.size` (every node — elements, text, comments —
    costs one).  Returns the number of nodes dropped.
    """
    from ..ssd.model import Element

    if max_nodes < 1:
        max_nodes = 1  # the root itself is never dropped

    before = root.size()
    allowance = max_nodes - 1  # the root costs one

    def prune(element: "Element") -> None:
        nonlocal allowance
        kept: list[Any] = []
        for child in element.children:
            cost = child.size() if isinstance(child, Element) else 1
            if cost <= allowance:
                allowance -= cost
                kept.append(child)
            elif isinstance(child, Element) and allowance >= 1:
                allowance -= 1
                kept.append(child)
                prune(child)
            else:
                allowance = 0
            if allowance <= 0:
                break
        element.children = kept

    prune(root)
    return before - root.size()
