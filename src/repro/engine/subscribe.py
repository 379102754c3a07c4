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

A relevant batch re-evaluates only the rows it can change (the delta
rule of a conjunctive query).  For each element box ``n`` the commit's
affected labels ``A_n`` are the labels inside inserted subtrees, plus
the ancestors-or-self of every edit point when ``n`` is the parent of a
crossed arc or a ``ContentOf`` condition reads it, plus the elements
whose immediate text or attributes changed when a circle hangs under
it or an ``AttributeOf`` reads it.  Arcs between unchanged nodes do not
change, nor does their document order (which ordered arcs read), and a
crossed arc only filters its parent's pool, so every
added row binds some box ``n`` inside ``A_n``, and every removed row
binds a deleted element or some box inside ``A_n``.  The rule therefore
runs once per box with only that box's pool cut to ``A_n``
(:func:`repro.xmlgl.matcher.match_within`) and unions the rows by key.
The candidates for removal are the stored rows that bind a deleted
element or a pre-existing node of some ``A_n``: ``removed`` is those
the union lacks, ``added`` the union's rows not stored.  Multi-graph
rules, a budget trip and a stored set that a ``partial`` budget
truncated fall back to one full re-run, counted per reason in
:attr:`Subscription.fallbacks` (``delta_fallback_<reason>``).  Either
way the rows are diffed by :meth:`~repro.engine.bindings.Binding.key`
into a :class:`ResultDelta` — the rows a consumer must add and remove to
stay current, queued until :meth:`Subscription.poll` drains them.  The
queue holds at most :data:`MAX_PENDING` deltas; past that it collapses
into one ``resync`` delta carrying the current rows.

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
from typing import Any, Iterator, Mapping, Optional, Union

from ..errors import BudgetExceeded
from ..ssd.model import Document, Element
from .bindings import Binding, BindingSet, value_key
from .conditions import AttributeOf, ContentOf, DocumentAccessor
from .index import DocumentIndex
from .limits import arm_budget
from .mutate import MutationResult, TouchedRegion
from .options import ExecOptions
from .stats import EvalStats

__all__ = ["MAX_PENDING", "QueryFootprint", "ResultDelta", "Subscription"]

Sources = Union[Document, Mapping[str, Document]]

_SUBSCRIPTION_IDS = itertools.count(1)

_ACCESSOR = DocumentAccessor()

#: Deltas a subscription queues for its consumer.  One more collapses
#: the queue into a single ``resync`` delta holding the current rows, so
#: a consumer that stops polling costs one row set, not one delta per
#: commit.
MAX_PENDING = 256


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


def _reads(condition: Any) -> Iterator[Union[ContentOf, AttributeOf]]:
    """Every ``ContentOf`` and ``AttributeOf`` operand of a condition tree.

    Conditions are nested frozen dataclasses (``And(Comparison(ContentOf,
    Const), ...)``), so a generic dataclass-field walk reaches every
    operand without enumerating the combinator zoo.
    """
    stack = [condition]
    while stack:
        node = stack.pop()
        if isinstance(node, (ContentOf, AttributeOf)):
            yield node
        elif dataclasses.is_dataclass(node) and not isinstance(node, type):
            for f in dataclasses.fields(node):
                value = getattr(node, f.name)
                if isinstance(value, (tuple, list)):
                    stack.extend(value)
                else:
                    stack.append(value)


def _walk_condition(condition: Any, attributes: set[str]) -> tuple[bool, bool]:
    """Collect text/attribute reads from a condition tree.

    Returns ``(uses_immediate_text, uses_deep_text)`` and adds
    ``AttributeOf`` names to ``attributes`` in place.  ``ContentOf`` is
    reported as *both* reads: the variable may bind a text node
    (immediate) or an element (recursive ``text_content``), and which
    cannot be known statically.
    """
    text = False
    for read in _reads(condition):
        if isinstance(read, ContentOf):
            text = True
        else:
            attributes.add(read.name)
    return text, text


# -- the delta rule ---------------------------------------------------------

#: What a box reads besides the arcs into it, as bit flags.  ``_SUBTREE``:
#: its whole subtree (it is the parent of a crossed arc, or ``ContentOf``
#: reads it); ``_OWN``: its own immediate text or attributes (a circle
#: hangs under it, or ``AttributeOf`` reads it).
_SUBTREE = 1
_OWN = 2


def _box_reads(rule: Any) -> dict[str, tuple[int, Optional[str]]]:
    """``(reads, tag)`` of every element box of a single-graph rule, its
    reads the ``_SUBTREE``/``_OWN`` flags."""
    graph = rule.queries[0]
    reads = {node.id: 0 for node in graph.element_nodes()}
    parents: dict[str, list[str]] = {}
    for edge in graph.all_edges():
        parents.setdefault(edge.child, []).append(edge.parent)
        if edge.negated:
            reads[edge.parent] |= _SUBTREE
        elif edge.child not in reads:
            reads[edge.parent] |= _OWN
    for condition in (*graph.conditions, *rule.conditions):
        for read in _reads(condition):
            if read.variable in reads:
                reads[read.variable] |= (
                    _SUBTREE if isinstance(read, ContentOf) else _OWN
                )
            else:  # a circle: it reads its parents' own text or attributes
                for parent in parents.get(read.variable, ()):
                    reads[parent] |= _OWN
    return {box: (kind, graph.nodes[box].tag) for box, kind in reads.items()}


def _affected(
    index: DocumentIndex, touched: TouchedRegion, kinds: set[int]
) -> dict[int, tuple[list[tuple[int, int]], list[Element]]]:
    """Per read kind, what a commit can change: ``(spans, elements)``.

    ``spans`` are the sorted, disjoint label intervals the kind's boxes
    re-run over: inserted subtrees always, the ancestors-or-self of every
    edit point for ``_SUBTREE`` readers, the elements whose own text or
    attributes changed for ``_OWN`` readers.  ``elements`` are those
    pre-existing nodes themselves, the only affected nodes a stored row
    can bind (a stored row never binds a node inserted since).  Labels
    are taken from the index as it stands after the commit; nodes it no
    longer covers (deleted later in the batch) add nothing.
    """
    covers, position = index.covers, index.position
    inserted = [index.interval(root) for root in touched.inserted if covers(root)]
    chain: dict[int, Element] = {}
    if any(kind & _SUBTREE for kind in kinds):
        for point in touched.edit_points:
            if covers(point):
                for element in itertools.chain((point,), point.ancestors()):
                    if id(element) in chain:
                        break
                    chain[id(element)] = element
    own = (
        [element for element in touched.changed if covers(element)]
        if any(kind & _OWN for kind in kinds)
        else []
    )
    affected = {}
    for kind in kinds:
        elements = list(chain.values()) if kind & _SUBTREE else []
        if kind & _OWN:
            elements.extend(own)
        spans = inserted + [(label, label) for label in map(position, elements)]
        affected[kind] = (_merged(spans), elements)
    return affected


def _merged(spans: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Sorted, disjoint union of label intervals."""
    spans.sort()
    merged: list[tuple[int, int]] = []
    for lo, hi in spans:
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


@dataclass(frozen=True)
class ResultDelta:
    """The binding-set change one committed batch produced.

    ``added`` and ``removed`` are the rows entering and leaving the result
    (diffed by :meth:`~repro.engine.bindings.Binding.key`, so a row is
    "the same" when every variable binds the identical node or equal
    scalar).  ``revision`` is the document revision whose commit produced
    the delta; deltas are queued in revision order.

    A ``resync`` delta replaces everything queued before it: its
    ``added`` is the whole current row set at ``revision`` and a consumer
    drops the rows it held before applying it (see :data:`MAX_PENDING`).
    """

    revision: int
    added: tuple[Binding, ...] = ()
    removed: tuple[Binding, ...] = ()
    resync: bool = False

    @property
    def empty(self) -> bool:
        return not self.added and not self.removed

    def describe(self) -> str:
        kind = " resync" if self.resync else ""
        return (
            f"rev {self.revision}{kind}: +{len(self.added)} -{len(self.removed)}"
        )


class Subscription:
    """A continuous query: re-evaluated on relevant commits, diffed.

    Created by :meth:`repro.session.QuerySession.subscribe`; hold one and
    call :meth:`poll` (or :meth:`wait`) to drain deltas.  Thread-safe: the
    session commits batches (and hence calls :meth:`notify`) from whatever
    thread mutates, while consumers poll from their own.

    The initial evaluation happens eagerly at construction, so
    :attr:`rows` is live from the start and the first delta is relative
    to it.  A re-evaluation that raises (a budget trip, say) closes the
    subscription and keeps the exception in :attr:`error`.
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
        self.id = f"sub-{next(_SUBSCRIPTION_IDS)}"
        self._sources = sources
        self._options = options if options is not None else ExecOptions()
        self._indexes = indexes
        self._plans = plans
        stats = EvalStats()
        rule, plan = self._resolve(query, stats)
        self.rule = rule
        self.source_text = query if isinstance(query, str) else None
        #: The rewritten rule's read set — what :meth:`notify` checks
        #: batches against.
        self.footprint = QueryFootprint.of_rule(rule)
        #: Why every relevant commit re-runs in full (``None``: delta route).
        self._blocker = None if len(rule.queries) == 1 else "multi_source"
        self._reads_plan: Any = None
        self._reads: dict[str, tuple[int, Optional[str]]] = {}
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._pending: deque[ResultDelta] = deque()
        self._closed = False
        #: The exception a re-evaluation raised, which closed the
        #: subscription (``None`` while it is healthy).
        self.error: Optional[BaseException] = None
        #: Evaluations run (the initial one included) / batches skipped
        #: by the footprint.
        self.evals = 0
        self.skips = 0
        #: Re-evaluations by the delta rule / by a full re-run, and the
        #: full re-runs per ``delta_fallback_<reason>``.
        self.delta_evals = 0
        self.full_evals = 0
        self.fallbacks: dict[str, int] = {}
        #: Counters of the last re-evaluation (delta or full).
        self.last_stats: Optional[EvalStats] = None
        #: Revision of the last commit this subscription observed (whether
        #: it re-ran or skipped); 0 until the first notify.
        self.last_revision = 0
        self._rows = self._evaluate(rule, plan, stats)
        self.evals += 1

    # -- evaluation ------------------------------------------------------------

    def _resolve(
        self, query: Any, stats: EvalStats, parsed: Any = None
    ) -> tuple[Any, Any]:
        """The rewritten rule and its compiled plan: a warm plan-cache hit
        on the query's text (plans never depend on the document, so
        commits keep it warm)."""
        from ..xmlgl.evaluator import lookup_or_compile

        rule, _text, plan = lookup_or_compile(
            query,
            self._sources,
            parsed=parsed,
            indexes=self._indexes,
            stats=stats,
            plans=self._plans,
            rewrite=self._options.rewrite,
        )
        return rule, plan

    def _evaluate(self, rule: Any, plan: Any, stats: EvalStats) -> dict[tuple, Binding]:
        """One full run of the rule; rows keyed for diffing."""
        from ..xmlgl.evaluator import rule_bindings

        bindings: BindingSet = rule_bindings(
            rule,
            self._sources,
            options=self._options,
            stats=stats,
            indexes=self._indexes,
            plan=plan,
        )
        # A partial budget's truncated rows are not the result the delta
        # rule updates, so the next commit re-runs in full.
        self._exact = not stats.extra.get("truncated")
        return {binding.key(): binding for binding in bindings}

    def _reevaluate(
        self, touched: TouchedRegion
    ) -> tuple[dict[tuple, Binding], dict[tuple, Binding], Optional[dict]]:
        """``(added, removed, rows)`` for one relevant commit: ``rows`` is
        the new full row set after a full re-run, ``None`` after a delta."""
        stats = EvalStats()
        self.last_stats = stats
        query = self.source_text if self.source_text is not None else self.rule
        rule, plan = self._resolve(query, stats, parsed=self.rule)
        reason = self._blocker or (None if self._exact else "truncated")
        if reason is None:
            try:
                added, removed = self._delta(plan, touched, stats)
            except BudgetExceeded:
                # The full run decides what the budget does to the result.
                reason = "budget"
            else:
                self.delta_evals += 1
                return added, removed, None
        self.fallbacks[f"delta_fallback_{reason}"] = (
            self.fallbacks.get(f"delta_fallback_{reason}", 0) + 1
        )
        self.full_evals += 1
        stats = self.last_stats = EvalStats()
        rows = self._evaluate(rule, plan, stats)
        old = self._rows
        added = {key: row for key, row in rows.items() if key not in old}
        removed = {key: row for key, row in old.items() if key not in rows}
        return added, removed, rows

    def _delta(
        self, plan: Any, touched: TouchedRegion, stats: EvalStats
    ) -> tuple[dict[tuple, Binding], dict[tuple, Binding]]:
        """``(added, removed)`` by the delta rule (see the module doc).

        Raises :class:`~repro.errors.BudgetExceeded` when the options'
        budget trips, ``max_bindings`` included: counted over the
        updated row set, as a full run counts it.
        """
        from ..xmlgl.evaluator import _resolve_source
        from ..xmlgl.matcher import match_within
        from .cache import shared_cache

        if plan.preflight_skip:
            return {}, {}
        budget = arm_budget(stats, self._options.budget)
        graph = plan.rule.queries[0]
        document = _resolve_source(graph, self._sources)
        index = (self._indexes or shared_cache).get(document, stats=stats)
        if self._reads_plan is not plan:
            self._reads, self._reads_plan = _box_reads(plan.rule), plan
        affected = _affected(
            index, touched, {kind for kind, _tag in self._reads.values()}
        )

        # The stored rows a commit can change: those binding a deleted
        # element, or binding some box to a pre-existing node of its
        # affected set.  Matched by value key, box by box.
        dead = [e for root in touched.deleted for e in root.iter()]
        spans: dict[str, list[tuple[int, int]]] = {}
        hot: dict[str, set] = {}
        for box, (kind, tag) in self._reads.items():
            spans[box], elements = affected[kind]
            keys = {
                value_key(element)
                for element in itertools.chain(elements, dead)
                if tag is None or element.tag == tag
            }
            if keys:
                hot[box] = keys
        candidates: dict[tuple, Binding] = {}
        if hot:
            for key, row in self._rows.items():
                for box, ident in key:
                    keys = hot.get(box)
                    if keys is not None and ident in keys:
                        candidates[key] = row
                        break

        fresh: dict[tuple, Binding] = {}
        conditions = plan.rule.conditions
        for box, box_spans in spans.items():
            if not box_spans:
                continue
            for binding in match_within(
                plan.graph_plans[0], document, index, box, box_spans,
                self._options, stats,
            ):
                if all(c.evaluate(binding, _ACCESSOR) for c in conditions):
                    fresh.setdefault(binding.key(), binding)
        rows = self._rows
        removed = {key: row for key, row in candidates.items() if key not in fresh}
        added = {key: row for key, row in fresh.items() if key not in rows}
        if budget is not None:
            budget.check_bindings(len(rows) - len(removed) + len(added))
        return added, removed

    # -- commit intake ---------------------------------------------------------

    def notify(self, result: MutationResult) -> Optional[ResultDelta]:
        """Observe one committed batch; re-evaluate if relevant.

        Returns the delta when the batch was relevant (possibly
        :attr:`ResultDelta.empty` — relevance is conservative), ``None``
        when the footprint proved it invisible or the re-evaluation
        raised (the subscription is then closed, with :attr:`error`
        set).  Non-empty deltas are queued for :meth:`poll`.
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
        try:
            added, removed, rows = self._reevaluate(result.touched)
        except Exception as error:  # noqa: BLE001 - kept on the subscription
            with self._lock:
                self.error = error
                self._closed = True
                self._changed.notify_all()
            return None
        with self._lock:
            if self._closed:
                return None
            self.evals += 1
            if rows is not None:
                self._rows = rows
            else:
                for key in removed:
                    del self._rows[key]
                self._rows.update(added)
            delta = ResultDelta(
                revision=result.doc_revision,
                added=tuple(added.values()),
                removed=tuple(removed.values()),
            )
            if not delta.empty:
                if len(self._pending) >= MAX_PENDING:
                    self._pending.clear()
                    self._pending.append(ResultDelta(
                        revision=delta.revision,
                        added=tuple(self._rows.values()),
                        resync=True,
                    ))
                else:
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
            text = (
                f"{self.id}: {len(self._rows)} rows, {self.evals} evals "
                f"({self.delta_evals} delta, {self.full_evals} full), "
                f"{self.skips} skips, rev {self.last_revision}"
            )
            for name, count in sorted(self.fallbacks.items()):
                text += f", {name} {count}"
            if self.error is not None:
                text += f", closed by {type(self.error).__name__}: {self.error}"
            return text
