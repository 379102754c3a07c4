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

Shared sub-nodes (the DAG case) come out naturally: a node id is assigned
once, so two arcs pointing at it force the *same* document node — that is
XML-GL's join.  Matching is homomorphic: two different boxes may map to the
same element.

Or-arcs are evaluated by branch expansion: one branch per or-group is
chosen, the resulting plain graph matched, and the binding sets unioned
(with duplicate elimination across branches).

Matching is split into two phases.  :func:`compile_graph` performs every
document-independent analysis once — validation, condition-scope checks,
or-group branch expansion, edge classification, fragment discovery with
hard-fallback reasons, condition pushdown assignment — producing a
:class:`CompiledGraphPlan` that :func:`match` accepts via ``plan=`` so
repeated queries (through the plan cache,
:mod:`repro.engine.plan_cache`) skip the analysis entirely.  Document-
dependent state (candidate pools) is prepared per evaluation.

Three engines share this module (``ExecOptions.engine``):

* ``"pipeline"`` (default) evaluates **set-at-a-time**: the paper's
  queries-are-graphs idiom makes every extract graph a relational join
  plan, so each acyclic query fragment is compiled to per-box candidate
  pools (from the :class:`~repro.engine.index.DocumentIndex`) plus binary
  edge relations, single-box predicates and required circles are pushed
  down into the pools, a Yannakakis semi-join reduction removes dangling
  candidates over a cost-chosen join tree, and hash joins assemble the
  binding set.  Value joins — ``=`` conditions linking otherwise
  disconnected fragments — become hash equi-joins instead of filtered
  cross products.  Fragments the pipeline cannot cover (undirected cycles,
  ordered arcs, negation parents) fall back to the backtracking core *per
  fragment* (counted in ``stats.pipeline_fallbacks``), and so do boxes
  with no containment arc: they have nothing to semi-join.
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

from dataclasses import dataclass, field
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
    evaluate_forest,
    is_forest,
    relation_for,
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

__all__ = ["CompiledGraphPlan", "compile_graph", "match"]

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
    engine = options.engine

    results = BindingSet()
    with stats.timed():
        seen: set[tuple] = set()
        multiple_branches = plan.multiple_branches
        try:
            for branch in plan.branches:
                prep = _prepare(branch, document, index, options, stats)
                if prep is None:
                    continue
                if engine == "pipeline":
                    produced: Iterator[Binding] = _match_pipeline(prep)
                else:
                    produced = _match_backtracking(prep)
                for binding in produced:
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

    :func:`_fragment_bindings` used to recompute these per *call* — once
    per fallback fragment per document, and again per degradation re-run.
    They depend only on the branch plan and the fragment's id set, so the
    plan computes them once and caches them (satellite micro-opt, measured
    in bench_smoke).
    """

    __slots__ = (
        "element_edges",
        "value_edges",
        "negated_edges",
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
        self.negated_edges = [e for e in branch.negated_edges if e.parent in ids]
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
    negated_edges: list[ContainmentEdge]
    attr_hints: dict[str, list[str]]
    adjacency: dict[str, list[str]]
    values_by_parent: dict[str, list[ContainmentEdge]]
    #: Non-negated circles with a constant/regex constraint, per parent box
    #: — these prefilter the box's static pool for every engine.
    constrained_circles: dict[str, list[object]]
    multi_parent_circle: bool
    #: ``(ids, edges, hard_fallback_reason)`` per connected fragment.
    components: list[tuple[list[str], list[ContainmentEdge], Optional[str]]]
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
    negated_edges = [e for e in graph.negated_edges() if e.parent in active]

    # attribute circles required (non-negated) below each box: their names
    # narrow the box's static candidates through the attribute index
    attr_hints: dict[str, list[str]] = {}
    for edge in value_edges:
        child = graph.nodes[edge.child]
        if isinstance(child, AttributePattern):
            attr_hints.setdefault(edge.parent, []).append(child.name)

    adjacency: dict[str, list[str]] = {n: [] for n in element_ids}
    for edge in element_edges:
        adjacency[edge.parent].append(edge.child)
        adjacency[edge.child].append(edge.parent)

    values_by_parent: dict[str, list[ContainmentEdge]] = {}
    circle_parents: dict[str, int] = {}
    for edge in value_edges:
        values_by_parent.setdefault(edge.parent, []).append(edge)
        circle_parents[edge.child] = circle_parents.get(edge.child, 0) + 1
    multi_parent_circle = any(count > 1 for count in circle_parents.values())

    constrained_circles: dict[str, list[object]] = {}
    for edge in value_edges:
        child = graph.nodes[edge.child]
        if child.value is not None or child.compiled_regex is not None:
            constrained_circles.setdefault(edge.parent, []).append(child)

    components: list[tuple[list[str], list[ContainmentEdge], Optional[str]]] = []
    for component in connected_components(
        element_ids, [(e.parent, e.child) for e in element_edges]
    ):
        ids = [n for n in element_ids if n in component]
        edges = [
            e
            for e in element_edges
            if e.parent in component and e.child in component
        ]
        components.append(
            (ids, edges, _fallback_reason(negated_edges, component, edges))
        )

    pushed, consumed = _push_down_conditions(graph, element_ids, values_by_parent)
    return _BranchPlan(
        graph=graph,
        element_ids=element_ids,
        element_edges=element_edges,
        value_edges=value_edges,
        negated_edges=negated_edges,
        attr_hints=attr_hints,
        adjacency=adjacency,
        values_by_parent=values_by_parent,
        constrained_circles=constrained_circles,
        multi_parent_circle=multi_parent_circle,
        components=components,
        pushed=pushed,
        consumed=frozenset(consumed),
    )


# ---------------------------------------------------------------------------
# Shared preparation
# ---------------------------------------------------------------------------

def _check_condition_scope(graph: QueryGraph) -> None:
    """Conditions may not reach into negated subtrees."""
    negated: set[str] = set()
    for edge in graph.negated_edges():
        stack = [edge.child]
        while stack:
            node_id = stack.pop()
            if node_id in negated:
                continue
            negated.add(node_id)
            stack.extend(e.child for e in graph.edges if e.parent == node_id)
    for condition in graph.conditions:
        overlap = condition_variables(condition) & negated
        if overlap:
            raise QueryStructureError(
                f"condition {condition} references negated node(s) {sorted(overlap)}"
            )


def _active_nodes(graph: QueryGraph) -> set[str]:
    """Nodes taking part in positive matching of this (plain) graph."""
    active: set[str] = set()
    incident: set[str] = set()
    for edge in graph.edges:
        incident.add(edge.parent)
        if edge.negated:
            continue
        active.add(edge.parent)
        active.add(edge.child)
    for node in graph.nodes.values():
        if isinstance(node, ElementPattern) and node.id not in incident:
            # isolated box (or box only acting as negation parent)
            active.add(node.id)
    # Parents of negated edges must be matched even if otherwise isolated.
    for edge in graph.negated_edges():
        active.add(edge.parent)
    # Remove nodes that are only inside negated subtrees.
    negated_only = set()
    for edge in graph.negated_edges():
        stack = [edge.child]
        while stack:
            node_id = stack.pop()
            if node_id in negated_only:
                continue
            negated_only.add(node_id)
            stack.extend(e.child for e in graph.edges if e.parent == node_id)
    return active - negated_only


@dataclass
class _Prep:
    """One compiled branch bound to a document: pools plus run context."""

    branch: _BranchPlan
    document: Document
    index: DocumentIndex
    options: ExecOptions
    stats: EvalStats
    static_candidates: dict[str, list[Element]]
    use_intervals: bool = True
    #: Lazy caches: membership id-sets feed only the backtracking core and
    #: pre columns only the set-at-a-time pipeline, so neither is built
    #: until an engine actually asks (a pure-pipeline run never pays for
    #: sets, a pure-backtracking run never pays for columns).
    _static_sets: dict[str, set[int]] = field(default_factory=dict, repr=False)
    _static_pres: dict[str, Sequence[int]] = field(default_factory=dict, repr=False)

    def static_set(self, node_id: str) -> set[int]:
        """Membership id-set of the node's static pool (cached)."""
        cached = self._static_sets.get(node_id)
        if cached is None:
            cached = self._static_sets[node_id] = {
                id(e) for e in self.static_candidates[node_id]
            }
        return cached

    def static_pres(self, node_id: str) -> Sequence[int]:
        """Sorted pre column of the node's static pool (cached).

        *Pristine* pools — nothing dropped from a single index pool — are
        recognised by length (static narrowing only ever removes
        elements, so equal size means equal set) and reuse the index's own
        sorted pre arrays with zero copying; every other pool pays one
        ``pre`` lookup per element.  Static pools inherit document order
        from the index, so the columns are ascending by construction.
        """
        cached = self._static_pres.get(node_id)
        if cached is None:
            pool = self.static_candidates[node_id]
            index = self.index
            tag = self.graph.nodes[node_id].tag
            if tag is not None and len(pool) == index.tag_count(tag):
                cached = index.tag_pres(tag)
            elif tag is None and len(pool) == index.element_count():
                cached = index.all_pres()
            else:
                cached = index.pres_of(pool)
            self._static_pres[node_id] = cached
        return cached

    # Pass-throughs so the engine code reads one object, whether the
    # analysis was cached or compiled this call.
    @property
    def graph(self) -> QueryGraph:
        return self.branch.graph

    @property
    def element_ids(self) -> list[str]:
        return self.branch.element_ids

    @property
    def element_edges(self) -> list[ContainmentEdge]:
        return self.branch.element_edges

    @property
    def value_edges(self) -> list[ContainmentEdge]:
        return self.branch.value_edges

    @property
    def negated_edges(self) -> list[ContainmentEdge]:
        return self.branch.negated_edges

    @property
    def adjacency(self) -> dict[str, list[str]]:
        return self.branch.adjacency


def _prepare(
    branch: _BranchPlan,
    document: Document,
    index: DocumentIndex,
    options: ExecOptions,
    stats: EvalStats,
) -> Optional[_Prep]:
    """Bind one compiled branch to a document; ``None`` when some box's
    pool is empty (the branch cannot bind anything)."""
    graph = branch.graph
    use_intervals = options.engine != "naive"
    static_candidates: dict[str, list[Element]] = {}
    for node_id in branch.element_ids:
        pool = _static_candidates(
            graph.nodes[node_id], document, index, options, stats,
            branch.attr_hints.get(node_id, []),
        )
        # Constant/regex circles are per-element filters known statically:
        # apply them to the pool once, so *both* engines enumerate only
        # elements that can still resolve every constrained circle (the
        # ext_paths/filtered fix — without this, a fallback fragment scans
        # the unfiltered pool exactly like the naive engine).
        constrained = branch.constrained_circles.get(node_id)
        if constrained and use_intervals and pool:
            kept = []
            for element in pool:
                stats.condition_checks += len(constrained)
                if all(
                    _value_of(circle, element) is not None
                    for circle in constrained
                ):
                    kept.append(element)
            if len(kept) < len(pool):
                stats.bump("circle_prefiltered", len(pool) - len(kept))
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
    prep: _Prep,
    fragment_ids: Sequence[str],
    pools: Optional[dict[str, list[Element]]] = None,
) -> Iterator[dict[str, object]]:
    """Backtracking enumeration of one query fragment.

    Yields complete assignments for ``fragment_ids`` — ordered arcs,
    negated arcs and value circles of the fragment resolved — as plain
    dicts.  Rule-level conditions are *not* applied here; the pipeline
    applies them after fragments are combined, the backtracking engine
    right after this generator.  With ``fragment_ids`` covering every box
    this is exactly the legacy single-pass engine.  ``pools`` overrides
    per-box candidate pools (pushed-down conditions applied by
    :func:`_pushdown_pools`) without touching the shared preparation.
    """
    graph, index, options, stats = prep.graph, prep.index, prep.options, prep.stats
    budget = stats.budget
    locals_ = prep.branch.fragment_locals(fragment_ids)
    element_edges = locals_.element_edges
    value_edges = locals_.value_edges
    negated_edges = locals_.negated_edges
    adjacency = locals_.adjacency
    static_candidates = prep.static_candidates
    override_sets: dict[str, set[int]] = {}
    if pools:
        static_candidates = {**static_candidates, **pools}
        override_sets = {n: {id(e) for e in pool} for n, pool in pools.items()}

    def allowed_for(node_id: str) -> set[int]:
        override = override_sets.get(node_id)
        return override if override is not None else prep.static_set(node_id)

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
        narrowed = intersect_pools(pools, allowed=allowed_for(node_id), key=id)
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
        if not _negations_ok(
            graph, negated_edges, element_binding, index, use_intervals, stats
        ):
            continue
        yield from _resolve_value_patterns(
            graph, value_edges, element_binding, stats
        )


# ---------------------------------------------------------------------------
# Set-at-a-time pipeline
# ---------------------------------------------------------------------------

def _match_pipeline(prep: _Prep) -> Iterator[Binding]:
    """The set-at-a-time engine: semi-join pipeline with per-fragment
    fallback; see the module docstring for the plan shape."""
    branch = prep.branch
    graph, stats = prep.graph, prep.stats
    tracer = stats.trace

    # A circle with several parent arcs resolves against each in edge
    # order (last write wins); that interleaving is inherently
    # tuple-at-a-time, so keep the legacy core for the whole expansion.
    if branch.multi_parent_circle:
        stats.pipeline_fallbacks += 1
        stats.bump("fallback_multi-parent-circle")
        with trace_span(
            tracer,
            "match.fragment",
            variables=list(prep.element_ids),
            decision="fallback",
            reason="multi-parent-circle",
        ):
            yield from _match_backtracking(prep)
        return

    values_by_parent = branch.values_by_parent
    pushed = branch.pushed
    consumed = set(branch.consumed)

    fragments: list[tuple[set[str], list[dict[str, object]]]] = []
    for ids, edges, fallback_reason in branch.components:
        with trace_span(
            tracer,
            "match.fragment",
            variables=ids,
            decision="pipeline" if fallback_reason is None else "fallback",
            reason=fallback_reason,
        ) as fragment_span:
            if fallback_reason is None:
                stats.pipeline_fragments += 1
                rows_before = 0 if stats.budget is None else stats.budget.rows
                try:
                    rows = _setwise_fragment(
                        prep, ids, edges, values_by_parent, pushed
                    )
                except BudgetExceeded as exc:
                    if exc.limit != "max_hashjoin_rows":
                        raise
                    # Degradation ladder step 1: the fragment's materialised
                    # relations / join rows blew the memory-ish cap, so
                    # discard them and re-run this fragment on the
                    # backtracking core (bounded memory, node-at-a-time).
                    rows = _degrade_fragment(
                        prep, ids, pushed, fragment_span, rows_before
                    )
            else:
                stats.pipeline_fallbacks += 1
                stats.bump(f"fallback_{fallback_reason}")
                rows = list(
                    _fragment_bindings(
                        prep, ids, pools=_pushdown_pools(prep, ids)
                    )
                )
            if fragment_span is not None:
                fragment_span["rows"] = len(rows)
        if not rows:
            return  # conjunctive semantics: one empty fragment, no bindings
        variables = set(ids) | {
            e.child for n in ids for e in values_by_parent.get(n, ())
        }
        fragments.append((variables, rows))

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
        stats.pipeline_fallbacks += 1
        stats.bump("fallback_budget")
        stats.bump("degraded_fragments")
        assert stats.budget is not None
        stats.budget.rows = rows_before_combine
        if tracer is not None:
            tracer.event("degraded", scope="combine", reason="budget")
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


def _degrade_fragment(
    prep: _Prep,
    ids: list[str],
    pushed: dict[str, list[Condition]],
    fragment_span,
    rows_before: int,
) -> list[dict[str, object]]:
    """Re-run one fragment on the backtracking core after a row-cap trip.

    Records the stable fallback reason ``budget`` exactly like the static
    fallback reasons (counter ``fallback_budget``, span ``decision`` /
    ``reason`` attributes digested by ``explain()``) plus the governance
    counter ``degraded_fragments``.  The abandoned fragment's row charge is
    refunded (back to ``rows_before``) so sibling fragments keep their
    headroom — those rows were discarded, not kept.

    The fragment's pushed-down conditions (already consumed from the final
    filter) are re-applied here: the backtracking core does not see pool
    filters, so skipping them would leak rows the pipeline would have cut.
    """
    stats = prep.stats
    budget = stats.budget
    stats.pipeline_fallbacks += 1
    stats.bump("fallback_budget")
    stats.bump("degraded_fragments")
    if budget is not None:
        budget.rows = rows_before
    if fragment_span is not None:
        fragment_span["decision"] = "fallback"
        fragment_span["reason"] = "budget"
    if stats.trace is not None:
        stats.trace.event("degraded", reason="budget", variables=list(ids))
    rows = list(_fragment_bindings(prep, ids))
    conditions = [c for n in ids for c in pushed.get(n, ())]
    if conditions:
        kept = []
        for row in rows:
            ok = True
            for condition in conditions:
                stats.condition_checks += 1
                if not condition.evaluate(row, _ACCESSOR):  # type: ignore[arg-type]
                    ok = False
                    break
            if ok:
                kept.append(row)
        rows = kept
    return rows


def _fallback_reason(
    negated_edges: list[ContainmentEdge],
    component: set[str],
    edges: list[ContainmentEdge],
) -> Optional[str]:
    """Why one fragment cannot run on the semi-join pipeline (or ``None``).

    Ordered arcs (an n-ary constraint over siblings), negation parents and
    cyclic / multi-edge skeletons stay on the backtracking core.  So does
    a box with no containment arc (``edge-free``): with nothing to
    semi-join, a set-at-a-time run would only copy the pool into a column
    — and make the index rebuild its dense view after every structural
    commit.  The rule reads the query graph alone, so it is decided at
    compile time.  The returned reason string is stable — EXPLAIN output,
    fallback counters (``stats.extra["fallback_<reason>"]``) and the trace
    all carry it.
    """
    if any(e.ordered for e in edges):
        return "ordered"
    if any(e.parent in component for e in negated_edges):
        return "negated"
    if not edges:
        return "edge-free"
    if not is_forest(component, [(e.parent, e.child) for e in edges]):
        return "cyclic"
    return None


def _pushdown_pools(
    prep: _Prep, ids: Sequence[str]
) -> Optional[dict[str, list[Element]]]:
    """Per-box pool overrides applying pushed-down conditions.

    Conditions consumed by push-down never reach the final filter, so
    fallback fragments, which run node-at-a-time, must apply them to their
    pools here — otherwise rows the pipeline would have cut leak through.
    Returns ``None`` when the fragment has nothing pushed.
    """
    branch = prep.branch
    overrides: dict[str, list[Element]] = {}
    for node_id in ids:
        conditions = branch.pushed.get(node_id)
        if not conditions:
            continue
        pool, _ = _filtered_pool(
            prep,
            node_id,
            branch.values_by_parent.get(node_id, ()),
            conditions,
        )
        overrides[node_id] = pool
    return overrides or None


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
    consumes its conditions, whatever engine its fragment runs on:
    set-at-a-time fragments filter pools in :func:`_filtered_pool`,
    backtracking fragments through :func:`_pushdown_pools`.  Returns the
    per-box pushed conditions and the set of consumed condition indexes.
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
    prep: _Prep,
    ids: list[str],
    edges: list[ContainmentEdge],
    values_by_parent: dict[str, list[ContainmentEdge]],
    pushed: dict[str, list[Condition]],
) -> list[dict[str, object]]:
    """Evaluate one acyclic fragment set-at-a-time.

    Pools are filtered by required circles and pushed-down predicates and
    become sorted ``pre``-id columns; edge relations are materialised by
    the interval kernels (:mod:`repro.engine.columns`), then reduced and
    hash-joined by :func:`repro.engine.pipeline.evaluate_forest`.  Node
    objects are looked up in the index's ``pre -> element`` side table
    only for the surviving assembled rows.
    """
    stats, index = prep.stats, prep.index
    tracer = stats.trace
    budget = stats.budget
    pools: dict[str, Sequence[int]] = {}
    value_rows: dict[str, dict[int, dict[str, str]]] = {}
    with trace_span(tracer, "fragment.pools") as pools_span:
        for node_id in ids:
            circles = values_by_parent.get(node_id, ())
            conditions = pushed.get(node_id, ())
            values: dict[int, dict[str, str]] = {}
            if not circles and not conditions:
                # Nothing to resolve or filter: adopt the static pool's
                # pre column wholesale — for pristine index pools this is
                # the index's own array, no per-element work at all.
                column: Sequence[int] = prep.static_pres(node_id)
                if budget is not None:
                    budget.charge(len(column))
            else:
                pool, values = _filtered_pool(prep, node_id, circles, conditions)
                column = index.pres_of(pool)
            if pools_span is not None:
                pools_span.attributes.setdefault("sizes", {})[node_id] = len(
                    column
                )
            if not len(column):
                return []
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
    table = index.element_table()
    rows: list[dict[str, object]] = []
    for int_row in int_rows:
        row: dict[str, object] = {}
        for var, pre in zip(order, int_row):
            element = table[pre]
            row[var] = element
            extra = value_rows[var].get(id(element))
            if extra:
                row.update(extra)
        rows.append(row)
    return rows


def _edge_pairs(
    prep: _Prep, edge: ContainmentEdge, pools: dict[str, Sequence[int]]
) -> tuple[Sequence[int], Sequence[int]]:
    """Column pairs satisfying one containment arc (sorted pre columns).

    Direct arcs probe each child's slot in the ``parent_pre`` column
    (O(child pool)); deep arcs become one bisect range per parent over the
    child column — no descendant enumeration, no ancestor walks.  When a
    budget is armed, deep pair counts are known *before* materialisation
    (:func:`containment_count` is pure bisect arithmetic), so the row cap
    trips without ever building the oversized pair set.
    """
    index, stats = prep.index, prep.stats
    budget = stats.budget
    parent_col = pools[edge.parent]
    child_col = pools[edge.child]
    if not edge.deep:
        left, right = direct_pairs(
            parent_col, index.parent_pre_column(), child_col
        )
        if budget is not None:
            budget.charge(len(child_col))
            budget.add_rows(len(left))
        return left, right
    posts = index.post_column()
    stats.interval_lookups += len(parent_col)
    if budget is not None:
        budget.charge(len(parent_col) + len(child_col))
        budget.add_rows(containment_count(parent_col, posts, child_col))
    return containment_pairs(parent_col, posts, child_col)


def _filtered_pool(
    prep: _Prep,
    node_id: str,
    value_edges: Sequence[ContainmentEdge],
    conditions: Sequence[Condition],
) -> tuple[list[Element], dict[int, dict[str, str]]]:
    """A box's candidate pool with circles resolved and predicates applied."""
    graph, stats = prep.graph, prep.stats
    budget = stats.budget
    pool: list[Element] = []
    values: dict[int, dict[str, str]] = {}
    for element in prep.static_candidates[node_id]:
        if budget is not None:
            budget.charge()
        row: dict[str, object] = {node_id: element}
        ok = True
        for edge in value_edges:
            node = graph.nodes[edge.child]
            stats.condition_checks += 1
            value = _value_of(node, element)
            if value is None:
                ok = False
                break
            row[edge.child] = value
        if not ok:
            continue
        for condition in conditions:
            stats.condition_checks += 1
            if not condition.evaluate(row, _ACCESSOR):  # type: ignore[arg-type]
                ok = False
                break
        if not ok:
            continue
        pool.append(element)
        if len(row) > 1:
            del row[node_id]
            values[id(element)] = row  # type: ignore[assignment]
    return pool, values


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


def _negations_ok(
    graph: QueryGraph,
    negated_edges: list[ContainmentEdge],
    element_binding: dict[str, Element],
    index: DocumentIndex,
    use_intervals: bool,
    stats: EvalStats,
) -> bool:
    for edge in negated_edges:
        parent = element_binding.get(edge.parent)
        if parent is None:
            continue
        if _subtree_exists(graph, edge, parent, index, use_intervals, stats):
            return False
    return True


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
