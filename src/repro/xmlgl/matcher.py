"""Evaluation of XML-GL extract graphs against documents.

The matcher enumerates every assignment of the query graph's nodes to
document nodes such that

* element boxes map to elements with the required tag (wildcards to any),
* containment arcs map to parent/child (or ancestor/descendant for starred
  arcs) relationships,
* hollow circles bind the parent's immediate text, filled circles bind
  attribute values, honouring their constant/regex constraints,
* crossed-out arcs have **no** embedding of their subpattern,
* ordered arcs respect relative document order, and
* every predicate annotation holds.

Shared sub-nodes (the DAG case) are XML-GL's join: a shared box is one
document node; a value circle under several boxes binds its first arc's
value, and each further arc gets a private copy tied to it by ``=``, the
value equi-join every engine already runs (:func:`_split_shared_circles`).
Matching is homomorphic: two different boxes may map to the same element.

A crossed arc depends only on its parent's binding (a nested NOT EXISTS),
so it is a filter, not a route: on every engine, :func:`_prepare` drops
each element of the parent box's pool under which the crossed subpattern
has a witness, counted in ``stats.extra["antijoin_dropped"]``.  Circles
and single-box conditions read one box's element too: on both indexed
engines :func:`_prepare` resolves the circles and applies the box's
pushed-down conditions to its pool once, so every route — the pipeline,
a row-cap fallback, the backtracking engine — reads one pool per box.

A continuous query re-evaluates a commit's effect through
:func:`match_within`: the compiled graph with one box's pool cut to the
label intervals the commit touched, and the other boxes of that box's
fragment narrowed through their arcs (below it: slices inside the cut
elements' intervals; above it: their parent chains) before any pool is
built.  Reads never take that route: :func:`_prepare`'s restriction is
``None`` for them.

Or-arcs are evaluated by branch expansion: one branch per or-group is
chosen, the resulting plain graph matched, and the binding sets unioned
(with duplicate elimination across branches).

Matching is split into two phases.  :func:`compile_graph` performs every
document-independent analysis once — validation, condition-scope checks,
or-group branch expansion, edge classification, fragment discovery,
condition pushdown assignment — producing a
:class:`CompiledGraphPlan` that :func:`match` accepts via ``plan=`` so
repeated queries (through the plan cache,
:mod:`repro.engine.plan_cache`) skip the analysis entirely.  Document-
dependent state (candidate pools) is prepared per evaluation.

Three engines share this module (``ExecOptions.engine``):

* ``"pipeline"`` (default) evaluates **set-at-a-time**: the paper's
  queries-are-graphs idiom makes every extract graph a relational join
  plan, so each query fragment is compiled to per-box candidate pools
  (from the :class:`~repro.engine.index.DocumentIndex`, already filtered
  by circles and single-box predicates) plus binary edge relations, a
  Yannakakis semi-join reduction removes dangling candidates over a
  cost-chosen join tree, and hash joins assemble the binding set.  An
  arc that closes an undirected cycle filters the assembled rows, and so
  do ordered arcs; a box with no arc is its pool.
  Value joins — ``=`` conditions linking otherwise disconnected
  fragments — become hash equi-joins instead of filtered cross products.
  Only a fragment that trips the ``max_hashjoin_rows`` cap re-runs on
  the backtracking core (counted in ``stats.pipeline_fallbacks``).
* ``"backtracking"`` is the node-at-a-time core: boxes ordered with
  :func:`repro.engine.planner.plan_order`, candidates narrowed dynamically
  from already-assigned neighbours via the interval-encoded index
  (descendant pools are bisect ranges, ancestor tests two integer
  comparisons; candidates drawn from such pools satisfy every incident arc
  *by construction* and are counted as ``interval_candidates``, not
  ``candidates_tried``).
* ``"naive"`` is backtracking with the index disabled — subtree walks and
  per-candidate ancestor chases — the ablation baseline (EXT-A1 in
  DESIGN.md) and the differential oracle for both other engines.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import product
from typing import Iterator, Optional, Sequence

from ..engine.bindings import Binding, BindingSet
from ..engine.columns import containment_count, containment_pairs, direct_pairs
from ..engine.conditions import (
    Arith,
    AttributeOf,
    Comparison,
    Condition,
    Const,
    ContentOf,
    DocumentAccessor,
    NameOf,
    Operand,
    condition_variables,
)
from ..engine.index import DocumentIndex
from ..engine.joins import equijoin_key
from ..engine.limits import arm_budget, mark_truncated
from ..engine.narrowing import intersect_pools
from ..engine.options import ExecOptions
from ..engine.pipeline import (
    connected_components,
    degrade,
    evaluate_forest,
    relation_for,
    run_fragment,
)
from ..engine.planner import plan_order
from ..engine.stats import EvalStats
from ..engine.trace import Tracer, span as trace_span
from ..errors import BudgetExceeded, QueryStructureError
from ..ssd.model import Document, Element
from .ast import (
    AttributePattern,
    ContainmentEdge,
    ElementPattern,
    QueryGraph,
    TextPattern,
)

__all__ = ["CompiledGraphPlan", "compile_graph", "match", "match_within"]

_ACCESSOR = DocumentAccessor()


def match(
    graph: QueryGraph,
    document: Document,
    options: Optional[ExecOptions] = None,
    index: Optional[DocumentIndex] = None,
    stats: Optional[EvalStats] = None,
    plan: Optional["CompiledGraphPlan"] = None,
) -> BindingSet:
    """All bindings of ``graph`` in ``document``.

    Element boxes bind :class:`~repro.ssd.model.Element` nodes; text and
    attribute circles bind strings.  The graph is validated first.

    ``index`` must be an index *of* ``document``; when omitted a fresh one
    is built (callers evaluating many queries over one frozen document
    should pass :func:`repro.engine.cache.get_index` instead).

    ``plan`` is a :func:`compile_graph` result *for this graph*: the
    document-independent analysis (validation included) is then skipped —
    the plan-cache fast path.  When omitted the graph is compiled here.
    """
    if plan is None:
        plan = compile_graph(graph)
    options = options or ExecOptions()
    stats = stats if stats is not None else EvalStats()
    if options.trace and stats.trace is None:
        stats.trace = Tracer()
    budget = arm_budget(stats, options.budget)
    index = index or DocumentIndex(document)

    results = BindingSet()
    with stats.timed():
        seen: set[tuple] = set()
        multiple_branches = plan.multiple_branches
        try:
            for branch in plan.branches:
                prep = _prepare(branch, document, index, options, stats)
                if prep is None:
                    continue
                for binding in _branch_bindings(prep):
                    if multiple_branches:
                        key = binding.key()
                        if key in seen:
                            continue
                        seen.add(key)
                    if budget is not None:
                        # Check before adding so a partial result holds at
                        # most max_bindings rows.
                        budget.check_bindings(stats.bindings_produced + 1)
                    results.add(binding)
                    stats.bindings_produced += 1
        except BudgetExceeded as exc:
            # Cancellation (QueryCancelled) is not a budget trip and always
            # propagates; budget trips honour the on_limit policy.
            if budget is None or not budget.budget.partial:
                raise
            mark_truncated(stats, exc.limit)
    return results


def match_within(
    plan: "CompiledGraphPlan",
    document: Document,
    index: DocumentIndex,
    node_id: str,
    intervals: Sequence[tuple[int, int]],
    options: ExecOptions,
    stats: EvalStats,
) -> Iterator[Binding]:
    """The bindings of a compiled graph whose box ``node_id`` binds an
    element labelled inside one of ``intervals`` (sorted, disjoint
    ``(lo, hi)`` label ranges of ``index``).

    Every branch holding the box runs with that box's pool cut to the
    intervals and its fragment's other boxes narrowed through their arcs
    (:func:`_narrowed_labels`); boxes of other fragments run in full.
    A branch whose narrowed pools are empty is not prepared at all.
    Bindings may repeat across branches, and no ``max_bindings`` check
    runs here: the caller unions and counts.  Work, row and deadline
    limits of an armed ``stats.budget`` are charged as in :func:`match`.
    """
    for branch in plan.branches:
        if node_id not in branch.element_ids:
            continue
        restrict = _narrowed_labels(branch, index, node_id, intervals)
        if not all(restrict.values()):
            continue
        prep = _prepare(branch, document, index, options, stats, restrict)
        if prep is not None:
            yield from _branch_bindings(prep)


def _branch_bindings(prep: "_Prep") -> Iterator[Binding]:
    """One prepared branch's bindings on its engine, with the private
    circle copies of :func:`_split_shared_circles` dropped."""
    if prep.options.engine == "pipeline":
        produced: Iterator[Binding] = _match_pipeline(prep)
    else:
        produced = _match_backtracking(prep)
    private = prep.branch.private
    if not private:
        return produced
    return (
        Binding({k: v for k, v in binding.items() if k not in private})
        for binding in produced
    )


# ---------------------------------------------------------------------------
# Or-group expansion
# ---------------------------------------------------------------------------

def _expand_or_groups(graph: QueryGraph) -> Iterator[QueryGraph]:
    """Yield one plain graph per combination of or-group branches.

    Nodes reachable only through *unchosen* branches are pruned from each
    expansion — they are not part of that disjunct and must not constrain
    the match.
    """
    if not graph.or_groups:
        yield graph
        return
    branch_lists = [group.alternatives for group in graph.or_groups]
    had_parent = {e.child for e in graph.all_edges()}
    for choice in product(*branch_lists):
        expanded = QueryGraph(
            nodes=dict(graph.nodes),
            edges=list(graph.edges),
            or_groups=[],
            conditions=list(graph.conditions),
            source=graph.source,
        )
        for branch in choice:
            expanded.edges.extend(branch)
        _prune_unchosen(expanded, had_parent)
        yield expanded


def _prune_unchosen(expanded: QueryGraph, had_parent: set[str]) -> None:
    """Drop nodes that lost their only incoming arc to an unchosen branch."""
    changed = True
    while changed:
        changed = False
        with_parent = {e.child for e in expanded.edges}
        for node_id in list(expanded.nodes):
            if node_id in had_parent and node_id not in with_parent:
                del expanded.nodes[node_id]
                expanded.edges = [
                    e
                    for e in expanded.edges
                    if e.parent != node_id and e.child != node_id
                ]
                changed = True


# ---------------------------------------------------------------------------
# Compilation (document-independent analysis)
# ---------------------------------------------------------------------------

class _FragmentLocals:
    """Query-only digests of one fragment, shared by every evaluation.

    They depend only on the branch plan and the fragment's id set, so the
    plan computes them once and caches them.
    """

    __slots__ = (
        "element_edges",
        "value_edges",
        "adjacency",
        "edges_by_endpoint",
        "ordered_groups",
    )

    def __init__(self, branch: "_BranchPlan", fragment_ids: tuple[str, ...]):
        ids = set(fragment_ids)
        self.element_edges = [
            e for e in branch.element_edges if e.parent in ids and e.child in ids
        ]
        self.value_edges = [e for e in branch.value_edges if e.parent in ids]
        self.adjacency: dict[str, list[str]] = {n: [] for n in fragment_ids}
        self.edges_by_endpoint: dict[str, list[ContainmentEdge]] = {
            n: [] for n in fragment_ids
        }
        for edge in self.element_edges:
            self.adjacency[edge.parent].append(edge.child)
            self.adjacency[edge.child].append(edge.parent)
            self.edges_by_endpoint[edge.parent].append(edge)
            self.edges_by_endpoint[edge.child].append(edge)
        # ordered-arc groups are fixed by the query: group and sort them
        # once, not per produced binding
        ordered_by_parent: dict[str, list[ContainmentEdge]] = {}
        for edge in self.element_edges:
            if edge.ordered:
                ordered_by_parent.setdefault(edge.parent, []).append(edge)
        self.ordered_groups = [
            sorted(edges, key=lambda e: e.position)
            for edges in ordered_by_parent.values()
            if len(edges) >= 2
        ]


@dataclass
class _BranchPlan:
    """One expanded (plain) branch, fully analysed without any document.

    Everything here depends only on the query graph, so a branch plan is
    immutable-by-convention and safe to share across evaluations and
    threads (the plan cache does both).  ``consumed`` is a *frozen* set:
    :func:`_combine_fragments` mutates its working copy while equi-joining,
    so every evaluation copies it first.
    """

    graph: QueryGraph
    element_ids: list[str]
    element_edges: list[ContainmentEdge]
    value_edges: list[ContainmentEdge]
    #: Crossed arcs per parent box: each drops the box's pool elements
    #: under which its subpattern has a witness, for every engine.
    negated_by_parent: dict[str, list[ContainmentEdge]]
    attr_hints: dict[str, list[str]]
    values_by_parent: dict[str, list[ContainmentEdge]]
    #: Ids of the private circle copies :func:`_split_shared_circles` made.
    private: frozenset[str]
    #: ``(ids, edges)`` per connected fragment.
    components: list[tuple[list[str], list[ContainmentEdge]]]
    pushed: dict[str, list[Condition]]
    consumed: frozenset[int]
    #: Per-fragment locals cache, keyed by the fragment's id tuple.  Filled
    #: lazily; recomputation is idempotent, so concurrent warm-up from the
    #: shared plan cache is benign.
    _locals: dict[tuple[str, ...], _FragmentLocals] = field(
        default_factory=dict, repr=False, compare=False
    )

    def fragment_locals(self, fragment_ids: Sequence[str]) -> _FragmentLocals:
        key = tuple(fragment_ids)
        locals_ = self._locals.get(key)
        if locals_ is None:
            locals_ = self._locals[key] = _FragmentLocals(self, key)
        return locals_


@dataclass
class CompiledGraphPlan:
    """The compiled form of one extract graph: analysed or-branches."""

    branches: list[_BranchPlan]
    multiple_branches: bool


def compile_graph(graph: QueryGraph) -> CompiledGraphPlan:
    """Analyse ``graph`` once: everything :func:`match` needs that does
    not depend on the document.

    Validates the graph and checks condition scope (so a cached plan
    implies a valid query), expands or-groups, and digests each branch.
    Branches proved empty (no active boxes) are dropped here.
    """
    graph.validate()
    _check_condition_scope(graph)
    branches = []
    for expanded in _expand_or_groups(graph):
        branch = _compile_branch(expanded)
        if branch is not None:
            branches.append(branch)
    return CompiledGraphPlan(
        branches=branches, multiple_branches=bool(graph.or_groups)
    )


def _compile_branch(graph: QueryGraph) -> Optional[_BranchPlan]:
    """Digest one plain (or-free) graph; ``None`` when it has no boxes."""
    active = _active_nodes(graph)
    graph, private = _split_shared_circles(graph, active)
    active |= private
    element_ids = [n.id for n in graph.element_nodes() if n.id in active]
    if not element_ids:
        return None

    element_edges = [
        e
        for e in graph.edges
        if not e.negated
        and e.parent in active
        and e.child in active
        and isinstance(graph.nodes[e.child], ElementPattern)
    ]
    value_edges = [
        e
        for e in graph.edges
        if not e.negated
        and e.parent in active
        and isinstance(graph.nodes[e.child], (TextPattern, AttributePattern))
    ]
    negated_by_parent: dict[str, list[ContainmentEdge]] = {}
    for edge in graph.negated_edges():
        if edge.parent in active:
            negated_by_parent.setdefault(edge.parent, []).append(edge)

    # attribute circles required (non-negated) below each box: their names
    # narrow the box's static candidates through the attribute index
    attr_hints: dict[str, list[str]] = {}
    for edge in value_edges:
        child = graph.nodes[edge.child]
        if isinstance(child, AttributePattern):
            attr_hints.setdefault(edge.parent, []).append(child.name)

    values_by_parent: dict[str, list[ContainmentEdge]] = {}
    for edge in value_edges:
        values_by_parent.setdefault(edge.parent, []).append(edge)

    components: list[tuple[list[str], list[ContainmentEdge]]] = []
    for component in connected_components(
        element_ids, [(e.parent, e.child) for e in element_edges]
    ):
        ids = [n for n in element_ids if n in component]
        edges = [
            e
            for e in element_edges
            if e.parent in component and e.child in component
        ]
        components.append((ids, edges))

    pushed, consumed = _push_down_conditions(graph, element_ids, values_by_parent)
    return _BranchPlan(
        graph=graph,
        element_ids=element_ids,
        element_edges=element_edges,
        value_edges=value_edges,
        negated_by_parent=negated_by_parent,
        attr_hints=attr_hints,
        values_by_parent=values_by_parent,
        private=private,
        components=components,
        pushed=pushed,
        consumed=frozenset(consumed),
    )


def _split_shared_circles(
    graph: QueryGraph, active: set[str]
) -> tuple[QueryGraph, frozenset[str]]:
    """Compile every shared value circle into an equi-join.

    The circle's first positive arc in drawing order keeps its id; each
    further arc gets a private copy of the circle (same name, literal and
    regex) tied to it by ``=``, so the join runs wherever conditions run.
    Returns the graph unchanged when no active circle has two arcs.
    """
    first = graph.first_arcs()
    nodes, renamed, conditions = dict(graph.nodes), {}, list(graph.conditions)
    for edge in graph.edges:
        circle = edge.child
        if first[circle] is edge or edge.parent not in active or isinstance(
            nodes[circle], ElementPattern
        ):
            continue  # a box, a circle's first arc, or a negated subtree
        copy_id = f"{circle}#{len(nodes)}"
        while copy_id in nodes:
            copy_id += "#"
        nodes[copy_id] = replace(nodes[circle], id=copy_id)
        renamed[id(edge)] = replace(edge, child=copy_id)
        conditions.append(Comparison("=", ContentOf(circle), ContentOf(copy_id)))
    if not renamed:
        return graph, frozenset()
    edges = [renamed.get(id(e), e) for e in graph.edges]
    split = replace(graph, nodes=nodes, edges=edges, conditions=conditions)
    return split, frozenset(nodes.keys() - graph.nodes.keys())


# ---------------------------------------------------------------------------
# Shared preparation
# ---------------------------------------------------------------------------

def _check_condition_scope(graph: QueryGraph) -> None:
    """Conditions may not reach into negated subtrees."""
    negated = graph.negated_nodes()
    for condition in graph.conditions:
        overlap = condition_variables(condition) & negated
        if overlap:
            raise QueryStructureError(
                f"condition {condition} references negated node(s) {sorted(overlap)}"
            )


def _active_nodes(graph: QueryGraph) -> set[str]:
    """Nodes taking part in positive matching of this (plain) graph:
    every box outside the crossed subpatterns, and every circle under a
    plain arc from one."""
    active = {n.id for n in graph.element_nodes()}
    for edge in graph.edges:
        if not edge.negated:
            active.add(edge.child)
    return active - graph.negated_nodes()


@dataclass
class _Prep:
    """One compiled branch bound to a document: pools plus run context."""

    branch: _BranchPlan
    document: Document
    index: DocumentIndex
    options: ExecOptions
    stats: EvalStats
    static_candidates: dict[str, list[Element]]
    #: Circle values of every box :func:`_prepare` filtered, keyed by the
    #: surviving element's ``id`` (empty for a box without circles).
    value_rows: dict[str, dict[int, dict[str, object]]]
    use_intervals: bool = True
    #: Lazy caches: membership id-sets feed only the backtracking core and
    #: label columns only the set-at-a-time pipeline, so neither is built
    #: until an engine actually asks (a pure-pipeline run never pays for
    #: sets, a pure-backtracking run never pays for columns).
    _static_sets: dict[str, set[int]] = field(default_factory=dict, repr=False)
    _static_labels: dict[str, Sequence[int]] = field(
        default_factory=dict, repr=False
    )

    def static_set(self, node_id: str) -> set[int]:
        """Membership id-set of the node's static pool (cached)."""
        cached = self._static_sets.get(node_id)
        if cached is None:
            cached = self._static_sets[node_id] = {
                id(e) for e in self.static_candidates[node_id]
            }
        return cached

    def static_labels(self, node_id: str) -> Sequence[int]:
        """Sorted label column of the node's static pool (cached).

        A *pristine* pool — nothing dropped from its index pool — is
        recognised by length (static narrowing only ever removes
        elements, so equal size means equal set) and is the index's own
        label column, with no copy; every other pool pays one label
        lookup per element.  Static pools inherit document order from the
        index, so the columns are ascending by construction.
        """
        cached = self._static_labels.get(node_id)
        if cached is None:
            pool = self.static_candidates[node_id]
            cached = self.index.label_column(self.graph.nodes[node_id].tag)
            if len(pool) != len(cached):
                cached = self.index.labels_of(pool)
            self._static_labels[node_id] = cached
        return cached

    # Pass-throughs so the engine code reads one object, whether the
    # analysis was cached or compiled this call.
    @property
    def graph(self) -> QueryGraph:
        return self.branch.graph

    @property
    def element_ids(self) -> list[str]:
        return self.branch.element_ids


def _prepare(
    branch: _BranchPlan,
    document: Document,
    index: DocumentIndex,
    options: ExecOptions,
    stats: EvalStats,
    restrict: Optional[dict[str, Sequence[int]]] = None,
) -> Optional[_Prep]:
    """Bind one compiled branch to a document; ``None`` when some box's
    pool is empty (the branch cannot bind anything).

    ``restrict`` maps some boxes to the only labels their pools may draw
    from (:func:`match_within`); every other box, and every box of a
    read, starts from its whole index pool.

    On the indexed engines a box's circles and pushed-down conditions
    read its element alone, so they filter its pool here, once: an
    element with a missing circle is dropped (``circle_prefiltered``),
    then one failing a pushed condition, at one budget unit per element.
    The survivors' circle values stay on the prep (``value_rows``).  The
    naive oracle keeps its unfiltered pools."""
    graph = branch.graph
    use_intervals = options.engine != "naive"
    budget = stats.budget
    static_candidates: dict[str, list[Element]] = {}
    value_rows: dict[str, dict[int, dict[str, object]]] = {}
    for node_id in branch.element_ids:
        hints = branch.attr_hints.get(node_id, [])
        if restrict is None or node_id not in restrict:
            pool = _static_candidates(
                graph.nodes[node_id], document, index, options, stats, hints
            )
        else:
            pool = _candidates_at(
                graph.nodes[node_id], document, index, restrict[node_id], hints
            )
        circles = [
            (edge.child, graph.nodes[edge.child])
            for edge in branch.values_by_parent.get(node_id, ())
        ]
        conditions = branch.pushed.get(node_id, ())
        if use_intervals and pool and (circles or conditions):
            kept: list[Element] = []
            values: dict[int, dict[str, object]] = {}
            missing = 0
            for element in pool:
                if budget is not None:
                    budget.charge()
                row: dict[str, object] = {node_id: element}
                for circle_id, circle in circles:
                    stats.condition_checks += 1
                    value = _value_of(circle, element)
                    if value is None:
                        missing += 1
                        break
                    row[circle_id] = value
                else:
                    # every circle resolved: now the pushed conditions
                    for condition in conditions:
                        stats.condition_checks += 1
                        if not condition.evaluate(row, _ACCESSOR):  # type: ignore[arg-type]
                            break
                    else:
                        kept.append(element)
                        if circles:
                            del row[node_id]
                            values[id(element)] = row
            if missing:
                stats.bump("circle_prefiltered", missing)
            value_rows[node_id] = values
            pool = kept
        # A crossed arc depends on its parent's binding alone: it is a
        # filter on the parent's pool (nested NOT EXISTS), not a route.
        negated = branch.negated_by_parent.get(node_id)
        if negated and pool:
            kept = [
                element
                for element in pool
                if not any(
                    _subtree_exists(graph, edge, element, index, use_intervals, stats)
                    for edge in negated
                )
            ]
            if len(kept) < len(pool):
                stats.bump("antijoin_dropped", len(pool) - len(kept))
            pool = kept
        if not pool:
            return None
        static_candidates[node_id] = pool
    return _Prep(
        branch=branch,
        document=document,
        index=index,
        options=options,
        stats=stats,
        static_candidates=static_candidates,
        value_rows=value_rows,
        use_intervals=use_intervals,
    )


# ---------------------------------------------------------------------------
# Backtracking core (node-at-a-time)
# ---------------------------------------------------------------------------

def _match_backtracking(prep: _Prep) -> Iterator[Binding]:
    """The node-at-a-time engine: one backtracking pass over every box."""
    for row in _fragment_bindings(prep, prep.element_ids):
        full = Binding(row)
        ok = True
        for condition in prep.graph.conditions:
            prep.stats.condition_checks += 1
            if not condition.evaluate(full, _ACCESSOR):
                ok = False
                break
        if ok:
            yield full


def _fragment_bindings(
    prep: _Prep, fragment_ids: Sequence[str]
) -> Iterator[dict[str, object]]:
    """Backtracking enumeration of one query fragment.

    Yields complete assignments for ``fragment_ids`` — ordered arcs and
    value circles of the fragment resolved — as plain dicts.  Crossed arcs,
    circles and pushed-down conditions already filtered the pools in
    :func:`_prepare`.  Rule-level conditions are *not* applied here; the
    pipeline applies them after fragments are combined, the backtracking
    engine right after this generator.  With ``fragment_ids`` covering
    every box this is exactly the legacy single-pass engine.
    """
    graph, index, options, stats = prep.graph, prep.index, prep.options, prep.stats
    budget = stats.budget
    locals_ = prep.branch.fragment_locals(fragment_ids)
    element_edges = locals_.element_edges
    value_edges = locals_.value_edges
    adjacency = locals_.adjacency
    static_candidates = prep.static_candidates
    use_intervals = prep.use_intervals

    def estimate(node_id: str) -> int:
        """Selectivity: global tag count, sharpened to the count within an
        already-pinned parent's subtree when the pattern fixes one."""
        base = len(static_candidates[node_id])
        if not use_intervals:
            return base
        node = graph.nodes[node_id]
        best = base
        for edge in element_edges:
            if edge.child != node_id:
                continue
            parents = static_candidates[edge.parent]
            if len(parents) != 1 or not index.covers(parents[0]):
                continue
            anchor = parents[0]
            if edge.deep:
                within = index.tag_count_within(anchor, node.tag)
            else:
                within = sum(
                    1
                    for child in anchor.child_elements()
                    if node.tag is None or child.tag == node.tag
                )
            best = min(best, within)
        if best < base:
            stats.bump("selectivity_refinements")
        return best

    order = plan_order(
        list(fragment_ids),
        estimate=estimate,
        adjacency=adjacency,
        enabled=options.use_planner,
    )

    edges_by_endpoint = locals_.edges_by_endpoint
    ordered_groups = locals_.ordered_groups

    assignment: dict[str, Element] = {}

    def structural_ok(edge: ContainmentEdge) -> bool:
        parent = assignment.get(edge.parent)
        child = assignment.get(edge.child)
        if parent is None or child is None:
            return True
        stats.edge_checks += 1
        if edge.deep:
            if use_intervals and index.covers(parent) and index.covers(child):
                return index.is_ancestor(parent, child)
            return any(anc is parent for anc in child.ancestors())
        return child.parent is parent

    def pool_for(edge: ContainmentEdge, node_id: str) -> Optional[Sequence[Element]]:
        """Candidate pool one incident edge contributes, or ``None`` when
        the edge's other endpoint is not assigned yet."""
        if edge.child == node_id and edge.parent in assignment:
            parent = assignment[edge.parent]
            if not edge.deep:
                return parent.child_elements()
            if use_intervals and index.covers(parent):
                stats.interval_lookups += 1
                tag = graph.nodes[node_id].tag
                if tag is not None:
                    return index.descendants_with_tag(parent, tag)
                return index.descendants(parent)
            return [e for e in parent.iter() if e is not parent]
        if edge.parent == node_id and edge.child in assignment:
            child = assignment[edge.child]
            if edge.deep:
                return list(child.ancestors())
            return [child.parent] if isinstance(child.parent, Element) else []
        return None

    def candidates_for(node_id: str) -> tuple[Sequence[Element], bool]:
        """``(candidates, verified)`` — every incident assigned edge
        contributes one pool, so pool-intersection membership *is* the
        conjunction of those arcs: verified candidates skip per-candidate
        structural re-checks (one wholesale ``edge_checks`` per pool)."""
        pools: list[Sequence[Element]] = []
        for edge in edges_by_endpoint[node_id]:
            pool = pool_for(edge, node_id)
            if pool is not None:
                pools.append(pool)
        if not pools:
            return static_candidates[node_id], False
        narrowed = intersect_pools(pools, allowed=prep.static_set(node_id), key=id)
        if use_intervals:
            stats.edge_checks += len(pools)
            return narrowed, True
        return narrowed, False

    def backtrack(position: int) -> Iterator[dict[str, Element]]:
        if position == len(order):
            yield dict(assignment)
            return
        node_id = order[position]
        candidates, verified = candidates_for(node_id)
        if verified:
            for candidate in candidates:
                stats.interval_candidates += 1
                if budget is not None:
                    budget.charge()
                assignment[node_id] = candidate
                yield from backtrack(position + 1)
                del assignment[node_id]
        else:
            incident = edges_by_endpoint[node_id]
            for candidate in candidates:
                stats.candidates_tried += 1
                if budget is not None:
                    budget.charge()
                assignment[node_id] = candidate
                if all(structural_ok(e) for e in incident):
                    yield from backtrack(position + 1)
                del assignment[node_id]

    for element_binding in backtrack(0):
        if not _ordered_ok(ordered_groups, element_binding, index, stats):
            continue
        yield from _resolve_value_patterns(
            graph, value_edges, element_binding, stats
        )


# ---------------------------------------------------------------------------
# Set-at-a-time pipeline
# ---------------------------------------------------------------------------

def _match_pipeline(prep: _Prep) -> Iterator[Binding]:
    """The set-at-a-time engine: one semi-join pipeline per fragment; see
    the module docstring for the plan shape."""
    branch = prep.branch
    graph, stats = prep.graph, prep.stats
    fragments: list[tuple[set[str], list[dict[str, object]]]] = []
    for ids, edges in branch.components:
        rows = run_fragment(
            stats,
            ids,
            partial(_setwise_fragment, prep, ids, edges),
            lambda ids=ids: list(_fragment_bindings(prep, ids)),
        )
        if not rows:
            return  # conjunctive semantics: one empty fragment, no bindings
        variables = set(ids) | {
            e.child for n in ids for e in branch.values_by_parent.get(n, ())
        }
        fragments.append((variables, rows))

    consumed = set(branch.consumed)
    rows_before_combine = 0 if stats.budget is None else stats.budget.rows
    try:
        rows = _combine_fragments(graph.conditions, fragments, consumed, stats)
        remaining = [
            c for i, c in enumerate(graph.conditions) if i not in consumed
        ]
    except BudgetExceeded as exc:
        if exc.limit != "max_hashjoin_rows":
            raise
        # Degradation ladder, combine stage: the *cross-fragment* hash
        # join blew the row cap.  Discard the joined rows and re-run the
        # whole graph on the backtracking core (bounded memory), which
        # re-checks every rule-level condition itself.
        degrade(stats, rows_before_combine, scope="combine")
        rows = list(_fragment_bindings(prep, list(prep.element_ids)))
        remaining = list(graph.conditions)
    final: list[dict[str, object]] = []
    for row in rows:
        ok = True
        for condition in remaining:
            stats.condition_checks += 1
            if not condition.evaluate(row, _ACCESSOR):  # type: ignore[arg-type]
                ok = False
                break
        if ok:
            final.append(row)
    # Canonical result order: document order over the boxes in drawing
    # order (the backtracking engines emit nested-loop order, which
    # coincides for tree queries; sorting keeps construction — ``collect``
    # output — deterministic regardless of join order).
    position = prep.index.position
    final.sort(
        key=lambda row: tuple(position(row[n]) for n in prep.element_ids)  # type: ignore[arg-type]
    )
    for row in final:
        yield Binding(row)


def _operand_variables(operand: Operand) -> set[str]:
    if isinstance(operand, Const):
        return set()
    if isinstance(operand, (ContentOf, NameOf, AttributeOf)):
        return {operand.variable}
    if isinstance(operand, Arith):
        return _operand_variables(operand.left) | _operand_variables(operand.right)
    return set()


def _push_down_conditions(
    graph: QueryGraph,
    element_ids: list[str],
    values_by_parent: dict[str, list[ContainmentEdge]],
) -> tuple[dict[str, list[Condition]], set[int]]:
    """Assign single-box conditions to their box's candidate pool.

    A condition whose variables all belong to one box's *cluster* — the box
    plus its value circles — evaluates identically on the pool row and on
    the final binding, so it filters the pool before any join.  Every box
    consumes its conditions: :func:`_prepare` filters the box's one pool
    with them on both indexed engines, so a fragment the row cap degrades
    to the backtracking core reads the same pool.  Returns the per-box
    pushed conditions and the set of consumed condition indexes.
    """
    clusters = {
        n: {n} | {e.child for e in values_by_parent.get(n, ())}
        for n in element_ids
    }
    pushed: dict[str, list[Condition]] = {}
    consumed: set[int] = set()
    for idx, condition in enumerate(graph.conditions):
        variables = condition_variables(condition)
        if not variables:
            continue
        for node_id in element_ids:
            if variables <= clusters[node_id]:
                pushed.setdefault(node_id, []).append(condition)
                consumed.add(idx)
                break
    return pushed, consumed


def _setwise_fragment(
    prep: _Prep, ids: list[str], edges: list[ContainmentEdge]
) -> list[dict[str, object]]:
    """Evaluate one fragment set-at-a-time.

    Pools, which :func:`_prepare` already filtered by circles and
    pushed-down predicates, become sorted label columns; edge relations
    are materialised by the interval kernels (:mod:`repro.engine.columns`),
    then reduced and hash-joined by
    :func:`repro.engine.pipeline.evaluate_forest`.  A box
    with no arc has no relation, so its pool is its rows.  Node objects
    are looked up in the index's ``label -> element`` map only for the
    surviving assembled rows, which ordered arcs then filter.
    """
    stats, index = prep.stats, prep.index
    tracer = stats.trace
    budget = stats.budget
    pools: dict[str, Sequence[int]] = {}
    value_rows: dict[str, dict[int, dict[str, object]]] = {}
    with trace_span(tracer, "fragment.pools") as pools_span:
        for node_id in ids:
            # Adopt the static pool's label column wholesale — for a
            # pristine index pool this is the index's own array.  A box
            # _prepare filtered was charged there, one unit per element.
            column = prep.static_labels(node_id)
            values = prep.value_rows.get(node_id)
            if values is None:
                values = {}
                if budget is not None:
                    budget.charge(len(column))
            if pools_span is not None:
                pools_span.attributes.setdefault("sizes", {})[node_id] = len(
                    column
                )
            pools[node_id] = column
            value_rows[node_id] = values

    relations = []
    with trace_span(tracer, "fragment.relations") as relations_span:
        for edge in edges:
            relation = relation_for(
                edge.parent, edge.child, _edge_pairs(prep, edge, pools), stats
            )
            if relations_span is not None:
                relations_span.attributes.setdefault("pairs", {})[
                    f"{edge.parent}-{edge.child}"
                ] = len(relation)
            if not len(relation):
                return []
            relations.append(relation)

    order, int_rows = evaluate_forest(
        pools, relations, stats, planner_enabled=prep.options.use_planner
    )
    element_of = index.element_map()
    ordered_groups = prep.branch.fragment_locals(ids).ordered_groups
    rows: list[dict[str, object]] = []
    for int_row in int_rows:
        row: dict[str, object] = {}
        for var, label in zip(order, int_row):
            element = element_of[label]
            row[var] = element
            extra = value_rows[var].get(id(element))
            if extra:
                row.update(extra)
        if ordered_groups and not _ordered_ok(ordered_groups, row, index, stats):
            continue
        rows.append(row)
    return rows


def _edge_pairs(
    prep: _Prep, edge: ContainmentEdge, pools: dict[str, Sequence[int]]
) -> tuple[Sequence[int], Sequence[int]]:
    """Column pairs satisfying one containment arc (sorted label columns).

    Direct arcs look up each child's parent label (O(child pool)); deep
    arcs become one bisect range per parent over the child column — no
    descendant enumeration, no ancestor walks.  When a budget is armed,
    deep pair counts are known *before* materialisation
    (:func:`containment_count` is pure bisect arithmetic), so the row cap
    trips without ever building the oversized pair set.
    """
    index, stats = prep.index, prep.stats
    budget = stats.budget
    parent_col = pools[edge.parent]
    child_col = pools[edge.child]
    if not edge.deep:
        left, right = direct_pairs(parent_col, index.parent_map(), child_col)
        if budget is not None:
            budget.charge(len(child_col))
            budget.add_rows(len(left))
        return left, right
    posts = index.post_map()
    stats.interval_lookups += len(parent_col)
    if budget is not None:
        budget.charge(len(parent_col) + len(child_col))
        budget.add_rows(containment_count(parent_col, posts, child_col))
    return containment_pairs(parent_col, posts, child_col)


def _combine_fragments(
    conditions: Sequence[Condition],
    fragments: list[tuple[set[str], list[dict[str, object]]]],
    consumed: set[int],
    stats: EvalStats,
) -> list[dict[str, object]]:
    """Merge fragment row sets: hash equi-joins where a ``=`` condition
    links two fragments, cross products otherwise.

    Consumed condition indexes are added to ``consumed`` so the final
    filter skips them.  Smallest fragments merge first.
    """
    if not fragments:
        return []
    join_conditions = [
        (idx, condition, _operand_variables(condition.left),
         _operand_variables(condition.right))
        for idx, condition in enumerate(conditions)
        if idx not in consumed
        and isinstance(condition, Comparison)
        and condition.op == "="
        and _operand_variables(condition.left)
        and _operand_variables(condition.right)
    ]
    pending = sorted(fragments, key=lambda f: len(f[1]))
    current_vars, current_rows = pending.pop(0)
    current_vars = set(current_vars)
    while pending:
        pick = None
        for idx, condition, left_vars, right_vars in join_conditions:
            if idx in consumed:
                continue
            for position, (frag_vars, _) in enumerate(pending):
                if left_vars <= current_vars and right_vars <= frag_vars:
                    pick = (idx, condition.left, condition.right, position)
                    break
                if right_vars <= current_vars and left_vars <= frag_vars:
                    pick = (idx, condition.right, condition.left, position)
                    break
            if pick:
                break
        if pick:
            idx, current_operand, other_operand, position = pick
            frag_vars, frag_rows = pending.pop(position)
            current_rows = _hash_equijoin(
                current_rows, current_operand, frag_rows, other_operand, stats
            )
            consumed.add(idx)
        else:
            frag_vars, frag_rows = pending.pop(0)
            current_rows = [
                {**row, **other} for row in current_rows for other in frag_rows
            ]
            stats.hashjoin_rows += len(current_rows)
            if stats.budget is not None:
                stats.budget.add_rows(len(current_rows))
        current_vars |= frag_vars
        if not current_rows:
            return []
    return current_rows


def _hash_equijoin(
    left_rows: list[dict[str, object]],
    left_operand: Operand,
    right_rows: list[dict[str, object]],
    right_operand: Operand,
    stats: EvalStats,
) -> list[dict[str, object]]:
    """Join two row sets on computed operand values.

    Keys normalise through :func:`repro.engine.joins.equijoin_key`, so the
    join accepts exactly the pairs ``Comparison("=")`` would — rows whose
    operand is ``None`` or fails to evaluate never match.
    """
    table: dict[object, list[dict[str, object]]] = {}
    for row in right_rows:
        stats.condition_checks += 1
        try:
            value = right_operand.evaluate(row, _ACCESSOR)  # type: ignore[arg-type]
        except (TypeError, KeyError):
            continue
        key = equijoin_key(value)
        if key is None:
            continue
        table.setdefault(key, []).append(row)
    joined: list[dict[str, object]] = []
    for row in left_rows:
        stats.condition_checks += 1
        try:
            value = left_operand.evaluate(row, _ACCESSOR)  # type: ignore[arg-type]
        except (TypeError, KeyError):
            continue
        key = equijoin_key(value)
        if key is None:
            continue
        for other in table.get(key, ()):
            joined.append({**row, **other})
    stats.hashjoin_rows += len(joined)
    if stats.budget is not None:
        stats.budget.add_rows(len(joined))
    return joined


# ---------------------------------------------------------------------------
# Shared leaf helpers
# ---------------------------------------------------------------------------

def _static_candidates(
    node: ElementPattern,
    document: Document,
    index: DocumentIndex,
    options: ExecOptions,
    stats: EvalStats,
    required_attributes: list[str],
) -> list[Element]:
    if node.anchored:
        root = document.root
        if root is None:
            return []
        if node.tag is not None and root.tag != node.tag:
            return []
        return [root]
    if options.engine == "naive":
        stats.full_scans += 1
        if node.tag is None:
            return list(document.iter())
        return [e for e in document.iter() if e.tag == node.tag]
    # indexed: start from the smallest pool among the tag pool and the
    # required-attribute pools, then filter by the remaining criteria
    pools: list[tuple[Element, ...]] = []
    if node.tag is not None:
        stats.index_lookups += 1
        pools.append(index.elements_with_tag(node.tag))
    for name in required_attributes:
        stats.index_lookups += 1
        pools.append(index.elements_with_attribute(name))
    if not pools:
        # Wildcard box with no attribute hints: every element qualifies.
        # The index's pre-order table *is* that pool in document order —
        # no tree walk needed (still a full scan for accounting purposes).
        stats.full_scans += 1
        return list(index.all_elements())
    base = min(pools, key=len)
    return [
        e
        for e in base
        if (node.tag is None or e.tag == node.tag)
        and all(name in e.attributes for name in required_attributes)
    ]


def _candidates_at(
    node: ElementPattern,
    document: Document,
    index: DocumentIndex,
    labels: Sequence[int],
    required_attributes: list[str],
) -> list[Element]:
    """A box's pool drawn from ``labels`` alone (tag-exact, ascending),
    filtered as :func:`_static_candidates` filters the whole index pool."""
    element_of = index.element_map()
    pool = [element_of[label] for label in labels]
    if node.anchored:
        return [e for e in pool if e is document.root]
    if not required_attributes:
        return pool
    return [
        e for e in pool if all(name in e.attributes for name in required_attributes)
    ]


def _narrowed_labels(
    branch: _BranchPlan,
    index: DocumentIndex,
    node_id: str,
    intervals: Sequence[tuple[int, int]],
) -> dict[str, list[int]]:
    """Candidate labels for every box of ``node_id``'s fragment when that
    box may bind only inside ``intervals``.

    The box takes bisect slices of its tag's label column; the rest of
    the fragment follows through its arcs from there, each box once: a
    child box keeps the labels inside its narrowed parent's intervals
    (with the parent's label as parent on a direct arc), a parent box the
    labels on its narrowed child's parent chain (one step on a direct
    arc).  Each narrowing is a necessary condition of the arc, so no row
    of the restricted box is lost.
    """
    graph = branch.graph
    column = index.label_column(graph.nodes[node_id].tag)
    seed: list[int] = []
    for lo, hi in intervals:
        seed.extend(column[bisect_left(column, lo):bisect_right(column, hi)])
    labels = {node_id: seed}
    ids = next(ids for ids, _edges in branch.components if node_id in ids)
    edges_by_endpoint = branch.fragment_locals(ids).edges_by_endpoint
    frontier = [node_id]
    while frontier:
        current = frontier.pop()
        for edge in edges_by_endpoint[current]:
            if edge.parent == current and edge.child not in labels:
                other = edge.child
                labels[other] = _labels_below(
                    index, graph.nodes[other].tag, labels[current], edge.deep
                )
            elif edge.child == current and edge.parent not in labels:
                other = edge.parent
                labels[other] = _labels_above(
                    index, graph.nodes[other].tag, labels[current], edge.deep
                )
            else:
                continue
            if not labels[other]:
                return labels
            frontier.append(other)
    return labels


def _labels_below(
    index: DocumentIndex, tag: Optional[str], parents: Sequence[int], deep: bool
) -> list[int]:
    """``tag`` labels inside the subtrees of ``parents`` (ascending), or
    only their children when ``deep`` is off."""
    column = index.label_column(tag)
    posts = index.post_map()
    found: list[int] = []
    end = -1
    for parent in parents:
        if parent <= end:
            continue  # nested in the previous parent's subtree
        end = posts[parent]
        found.extend(column[bisect_right(column, parent):bisect_right(column, end)])
    if deep:
        return found
    parent_of, allowed = index.parent_map(), set(parents)
    return [label for label in found if parent_of[label] in allowed]


def _labels_above(
    index: DocumentIndex, tag: Optional[str], children: Sequence[int], deep: bool
) -> list[int]:
    """``tag`` labels among the parents of ``children`` (ascending), or
    among all their proper ancestors when ``deep`` is on."""
    parent_of, element_of = index.parent_map(), index.element_map()
    chain: set[int] = set()
    for child in children:
        label = parent_of[child]
        while label >= 0 and label not in chain:
            chain.add(label)
            if not deep:
                break
            label = parent_of[label]
    return sorted(
        label for label in chain if tag is None or element_of[label].tag == tag
    )


def _ordered_ok(
    ordered_groups: list[list[ContainmentEdge]],
    assignment: dict[str, Element],
    index: DocumentIndex,
    stats: EvalStats,
) -> bool:
    """Ordered arcs of one parent must match in drawing order."""
    for edges_sorted in ordered_groups:
        positions = []
        for edge in edges_sorted:
            child = assignment.get(edge.child)
            if child is None:
                continue
            try:
                positions.append(index.position(child))
            except KeyError:
                return False  # child from another document cannot be ordered
        stats.edge_checks += 1
        if positions != sorted(positions) or len(set(positions)) != len(positions):
            return False
    return True


def _resolve_value_patterns(
    graph: QueryGraph,
    value_edges: list[ContainmentEdge],
    element_binding: dict[str, Element],
    stats: EvalStats,
) -> Iterator[dict[str, object]]:
    """Extend an element assignment with text/attribute bindings.

    Each circle resolves deterministically (at most one value per parent),
    so this yields zero or one extended binding.
    """
    binding: dict[str, object] = dict(element_binding)
    for edge in value_edges:
        parent = element_binding.get(edge.parent)
        if parent is None:
            return
        node = graph.nodes[edge.child]
        value = _value_of(node, parent)
        stats.condition_checks += 1
        if value is None:
            return
        binding[edge.child] = value
    yield binding


def _value_of(node, parent: Element) -> Optional[str]:
    """Resolve a text/attribute circle under ``parent``; ``None`` = no match."""
    if isinstance(node, TextPattern):
        text = parent.immediate_text().strip()
        if not text:
            return None
        if node.value is not None and text != node.value:
            return None
        if node.compiled_regex is not None and node.compiled_regex.fullmatch(text) is None:
            return None
        return text
    assert isinstance(node, AttributePattern)
    value = parent.get(node.name)
    if value is None:
        return None
    if node.value is not None and value != node.value:
        return None
    if node.compiled_regex is not None and node.compiled_regex.fullmatch(value) is None:
        return None
    return value


def _subtree_exists(
    graph: QueryGraph,
    edge: ContainmentEdge,
    parent: Element,
    index: DocumentIndex,
    use_intervals: bool,
    stats: EvalStats,
) -> bool:
    """Does any embedding of ``edge.child``'s subpattern exist under ``parent``?"""
    node = graph.nodes[edge.child]
    if isinstance(node, (TextPattern, AttributePattern)):
        stats.condition_checks += 1
        return _value_of(node, parent) is not None
    assert isinstance(node, ElementPattern)
    pool: Sequence[Element]
    if edge.deep:
        if use_intervals and index.covers(parent):
            stats.interval_lookups += 1
            pool = (
                index.descendants_with_tag(parent, node.tag)
                if node.tag is not None
                else index.descendants(parent)
            )
        else:
            pool = [e for e in parent.iter(node.tag) if e is not parent]
    else:
        pool = [
            c
            for c in parent.child_elements()
            if node.tag is None or c.tag == node.tag
        ]
    child_edges = graph.children_of(node.id)
    for candidate in pool:
        stats.candidates_tried += 1
        if stats.budget is not None:
            stats.budget.charge()
        if all(
            _subtree_exists(graph, child_edge, candidate, index, use_intervals, stats)
            for child_edge in child_edges
            if not child_edge.negated
        ) and all(
            not _subtree_exists(graph, child_edge, candidate, index, use_intervals, stats)
            for child_edge in child_edges
            if child_edge.negated
        ):
            return True
    return False
