"""Continuous queries over mutable documents.

A :class:`Subscription` registers a compiled query against a document
collection and keeps its binding set current as
:class:`~repro.engine.mutate.MutationBatch` commits land.  The interesting
part is what it *doesn't* do: re-run on every commit.  Each subscription
extracts a static :class:`QueryFootprint` from its rule — the tags,
attribute names and text-reads the query can possibly observe — and a
committed batch's :class:`~repro.engine.mutate.TouchedRegion` is checked
against that footprint first.  A batch that cannot intersect the query
(an ``<author>`` insert under a query over ``price`` elements) is skipped
outright, counted in :attr:`Subscription.skips`; only relevant batches
pay for re-evaluation.

Re-evaluation is from-index, not from-scratch: the typed mutation API
maintains the cached :class:`~repro.engine.index.DocumentIndex` in place,
so the re-run takes a warm index (and, for non-structural batches, a warm
plan-cache) hit.  The old and new binding sets are diffed by
:meth:`~repro.engine.bindings.Binding.key` into a :class:`ResultDelta` —
the rows a consumer must add and remove to stay current, queued until
:meth:`Subscription.poll` drains them.

Footprint soundness hinges on XML-GL's two text semantics: a text circle
(:class:`~repro.xmlgl.ast.TextPattern`) binds its parent's *immediate*
text, but a condition reading an element variable
(:class:`~repro.engine.conditions.ContentOf` through
:class:`~repro.engine.conditions.DocumentAccessor`) sees the *recursive*
``text_content()`` — a value edit deep under a ``book`` changes what a
condition on the ``book`` box observes even though no ``book`` node was
touched.  The footprint therefore distinguishes
:attr:`~QueryFootprint.uses_immediate_text` from
:attr:`~QueryFootprint.uses_deep_text`, and the touched region carries
the *ancestor* tags above every edit point so deep reads can be matched
against them.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Union

from ..ssd.model import Document
from .bindings import Binding, BindingSet
from .conditions import AttributeOf, ContentOf
from .mutate import MutationResult, TouchedRegion
from .options import ExecOptions
from .stats import EvalStats

__all__ = ["QueryFootprint", "ResultDelta", "Subscription"]

Sources = Union[Document, Mapping[str, Document]]

_SUBSCRIPTION_IDS = itertools.count(1)


@dataclass(frozen=True)
class QueryFootprint:
    """The statically knowable read set of a rule.

    ``wildcard`` is the give-up bit: an untagged element box can bind any
    element, so every structural batch is relevant.  Otherwise ``tags``
    holds every tag named by an element pattern — including patterns
    reached only through *negated* edges, whose disappearance can create
    matches just as their appearance destroys them.  ``attributes`` unions
    attribute-pattern names with every
    :class:`~repro.engine.conditions.AttributeOf` read in a condition.
    """

    wildcard: bool = False
    tags: frozenset[str] = field(default_factory=frozenset)
    attributes: frozenset[str] = field(default_factory=frozenset)
    #: A text circle appears in some graph: the rule reads the *immediate*
    #: text of elements whose tags are in ``tags``.
    uses_immediate_text: bool = False
    #: A condition reads ``ContentOf`` some variable: for element
    #: bindings that is the recursive ``text_content()``, so edits
    #: anywhere *below* a matched element are visible.
    uses_deep_text: bool = False

    @classmethod
    def of_rule(cls, rule: Any) -> "QueryFootprint":
        """Extract the footprint of a :class:`~repro.xmlgl.rule.Rule`.

        Unions over every extract graph plus graph-level and rule-level
        conditions.  Unknown node kinds (future pattern types) set
        ``wildcard`` — the conservative direction is "re-run", never
        "skip".
        """
        from ..xmlgl.ast import AttributePattern, ElementPattern, TextPattern

        wildcard = False
        tags: set[str] = set()
        attributes: set[str] = set()
        immediate = False
        deep = False
        for graph in rule.queries:
            for node in graph.nodes.values():
                if isinstance(node, ElementPattern):
                    if node.tag is None:
                        wildcard = True
                    else:
                        tags.add(node.tag)
                elif isinstance(node, TextPattern):
                    immediate = True
                elif isinstance(node, AttributePattern):
                    attributes.add(node.name)
                else:  # pragma: no cover - future node kinds
                    wildcard = True
            for condition in graph.conditions:
                immediate_c, deep_c = _walk_condition(condition, attributes)
                immediate = immediate or immediate_c
                deep = deep or deep_c
        for condition in rule.conditions:
            immediate_c, deep_c = _walk_condition(condition, attributes)
            immediate = immediate or immediate_c
            deep = deep or deep_c
        return cls(
            wildcard=wildcard,
            tags=frozenset(tags),
            attributes=frozenset(attributes),
            uses_immediate_text=immediate,
            uses_deep_text=deep,
        )

    def affected_by(self, touched: TouchedRegion) -> bool:
        """Whether a batch touching ``touched`` can change the binding set.

        The decision errs towards ``True``: a skip must be *provably*
        invisible to the query.  The cases, in order:

        * wildcard rules see every structural edit, every value edit when
          they read text at all, and every touched attribute they name;
        * structural edits matter when an inserted/deleted subtree's tags
          meet the footprint (an unrelated subtree cannot create or
          destroy a match over these tags);
        * attribute edits matter when the names meet;
        * value edits matter to immediate-text readers when the edited
          element's tag is in the footprint, and to deep-text readers
          additionally when any *ancestor* of the edit point is — the
          recursive-``text_content`` case.
        """
        reads_text = self.uses_immediate_text or self.uses_deep_text
        if self.wildcard:
            return (
                touched.structural
                or (touched.values_changed and reads_text)
                or bool(self.attributes & touched.attributes)
            )
        tag_hit = bool(self.tags & touched.tags)
        if touched.structural and tag_hit:
            return True
        if self.attributes & touched.attributes:
            return True
        if touched.values_changed:
            if self.uses_immediate_text and tag_hit:
                return True
            if self.uses_deep_text and (
                tag_hit or bool(self.tags & touched.ancestor_tags)
            ):
                return True
        return False


def _walk_condition(condition: Any, attributes: set[str]) -> tuple[bool, bool]:
    """Collect text/attribute reads from a condition tree.

    Conditions are nested frozen dataclasses (``And(Comparison(ContentOf,
    Const), ...)``), so a generic dataclass-field walk reaches every
    operand without enumerating the combinator zoo.  Returns
    ``(uses_immediate_text, uses_deep_text)`` and adds ``AttributeOf``
    names to ``attributes`` in place.  ``ContentOf`` is reported as *both*
    reads: the variable may bind a text node (immediate) or an element
    (recursive ``text_content``), and which cannot be known statically.
    """
    immediate = False
    deep = False
    stack = [condition]
    while stack:
        node = stack.pop()
        if isinstance(node, ContentOf):
            immediate = True
            deep = True
            continue
        if isinstance(node, AttributeOf):
            attributes.add(node.name)
            continue
        if dataclasses.is_dataclass(node) and not isinstance(node, type):
            for f in dataclasses.fields(node):
                value = getattr(node, f.name)
                if isinstance(value, (tuple, list)):
                    stack.extend(value)
                else:
                    stack.append(value)
    return immediate, deep


@dataclass(frozen=True)
class ResultDelta:
    """The binding-set change one committed batch produced.

    ``added`` and ``removed`` are the rows entering and leaving the result
    (diffed by :meth:`~repro.engine.bindings.Binding.key`, so a row is
    "the same" when every variable binds the identical node or equal
    scalar).  ``revision`` is the document revision whose commit produced
    the delta; deltas are queued in revision order.
    """

    revision: int
    added: tuple[Binding, ...] = ()
    removed: tuple[Binding, ...] = ()

    @property
    def empty(self) -> bool:
        return not self.added and not self.removed

    def describe(self) -> str:
        return (
            f"rev {self.revision}: +{len(self.added)} -{len(self.removed)}"
        )


class Subscription:
    """A continuous query: re-evaluated on relevant commits, diffed.

    Created by :meth:`repro.session.QuerySession.subscribe`; hold one and
    call :meth:`poll` (or :meth:`wait`) to drain deltas.  Thread-safe: the
    session commits batches (and hence calls :meth:`notify`) from whatever
    thread mutates, while consumers poll from their own.

    The initial evaluation happens eagerly at construction, so
    :attr:`rows` is live from the start and the first delta is relative
    to it.
    """

    def __init__(
        self,
        query: Union[str, Any],
        sources: Sources,
        *,
        options: Optional[ExecOptions] = None,
        indexes: Optional[Any] = None,
        plans: Optional[Any] = None,
    ) -> None:
        from ..xmlgl.evaluator import lookup_or_compile

        self.id = f"sub-{next(_SUBSCRIPTION_IDS)}"
        self._sources = sources
        self._options = options
        self._indexes = indexes
        self._plans = plans
        stats = EvalStats()
        rule, source_text, _plan = lookup_or_compile(
            query,
            sources,
            indexes=indexes,
            stats=stats,
            plans=plans,
            rewrite=options.rewrite if options is not None else True,
        )
        self.rule = rule
        self.source_text = source_text
        #: The rewritten rule's read set — what :meth:`notify` checks
        #: batches against.
        self.footprint = QueryFootprint.of_rule(rule)
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._pending: deque[ResultDelta] = deque()
        self._rows: dict[tuple, Binding] = {}
        self._closed = False
        #: Re-evaluations actually run / batches skipped by the footprint.
        self.evals = 0
        self.skips = 0
        #: Revision of the last commit this subscription observed (whether
        #: it re-ran or skipped); 0 until the first notify.
        self.last_revision = 0
        self._rows = self._evaluate()
        self.evals += 1

    # -- evaluation ------------------------------------------------------------

    def _evaluate(self) -> dict[tuple, Binding]:
        """One full run of the rule; rows keyed for diffing."""
        from ..xmlgl.evaluator import lookup_or_compile, rule_bindings

        stats = EvalStats()
        # Re-resolve the plan each run: a warm hit on the query's digest
        # (plans never depend on the document, so commits keep it warm).
        rule, _text, plan = lookup_or_compile(
            self.source_text if self.source_text is not None else self.rule,
            self._sources,
            parsed=self.rule,
            indexes=self._indexes,
            stats=stats,
            plans=self._plans,
            rewrite=self._options.rewrite if self._options is not None else True,
        )
        bindings: BindingSet = rule_bindings(
            rule,
            self._sources,
            options=self._options,
            stats=stats,
            indexes=self._indexes,
            plan=plan,
        )
        rows: dict[tuple, Binding] = {}
        for binding in bindings:
            rows[binding.key()] = binding
        return rows

    # -- commit intake ---------------------------------------------------------

    def notify(self, result: MutationResult) -> Optional[ResultDelta]:
        """Observe one committed batch; re-run if relevant.

        Returns the delta when the batch was relevant (possibly
        :attr:`ResultDelta.empty` — relevance is conservative), ``None``
        when the footprint proved it invisible.  Non-empty deltas are
        queued for :meth:`poll`.
        """
        with self._lock:
            if self._closed:
                return None
            self.last_revision = result.doc_revision
            if not self.footprint.affected_by(result.touched):
                self.skips += 1
                return None
        # Evaluate outside the lock: matching can be slow and pollers
        # must not block on it.  Commits are serialised by the caller
        # (the session holds its mutation lock across notify), so two
        # notifies never race each other.
        new_rows = self._evaluate()
        with self._lock:
            if self._closed:
                return None
            self.evals += 1
            old_rows = self._rows
            added = tuple(
                binding for key, binding in new_rows.items() if key not in old_rows
            )
            removed = tuple(
                binding for key, binding in old_rows.items() if key not in new_rows
            )
            self._rows = new_rows
            delta = ResultDelta(
                revision=result.doc_revision, added=added, removed=removed
            )
            if not delta.empty:
                self._pending.append(delta)
                self._changed.notify_all()
            return delta

    # -- consumption -----------------------------------------------------------

    def rows(self) -> list[Binding]:
        """The current binding rows (a snapshot copy)."""
        with self._lock:
            return list(self._rows.values())

    def poll(self) -> list[ResultDelta]:
        """Drain queued deltas (oldest first); empty when current."""
        with self._lock:
            drained = list(self._pending)
            self._pending.clear()
            return drained

    def wait(self, timeout: Optional[float] = None) -> list[ResultDelta]:
        """Block until at least one delta is queued, then drain.

        Returns ``[]`` on timeout or when the subscription closes while
        waiting — the long-poll primitive the server builds on.
        """
        with self._lock:
            if not self._pending and not self._closed:
                self._changed.wait(timeout)
            drained = list(self._pending)
            self._pending.clear()
            return drained

    def wait_pending(self, timeout: Optional[float] = None) -> bool:
        """Block until a delta is queued *without* draining it.

        The server parks long-polls here (no admission slot held), then
        drains with :meth:`poll` under admission.  True when something is
        queued; False on timeout or close.
        """
        with self._lock:
            if not self._pending and not self._closed:
                self._changed.wait(timeout)
            return bool(self._pending)

    @property
    def pending(self) -> int:
        with self._lock:
            return len(self._pending)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Stop observing; wakes any waiter with whatever is queued."""
        with self._lock:
            self._closed = True
            self._changed.notify_all()

    def describe(self) -> str:
        with self._lock:
            return (
                f"{self.id}: {len(self._rows)} rows, {self.evals} evals, "
                f"{self.skips} skips, rev {self.last_revision}"
            )
