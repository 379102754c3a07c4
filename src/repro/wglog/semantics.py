"""Generative semantics of WG-Log / G-Log.

A rule's declarative reading: an instance *satisfies* the rule when every
embedding of the red part extends to an embedding of the red+green part.
The *generative* reading (what the query system executes): for every red
embedding that has no green extension, add a **minimal** set of new nodes,
edges and slots realising the green part.

A program is a sequence of rules applied round-robin to a fixpoint.
Implementation choices (documented because G-Log's minimal-model semantics
leaves them open):

* Each unsatisfied embedding instantiates its own copies of the green
  nodes; satisfaction is re-checked before every instantiation, so rule
  application is idempotent and the fixpoint terminates whenever the rule
  set is *safe* (green labels do not re-trigger their own red parts with
  fresh nodes forever).  A ``max_rounds`` guard turns runaway recursion
  into an error instead of a hang.
* Collector (triangle) nodes are instantiated once per rule application
  and linked to every match; an existing node already linked to all
  matches satisfies the collector.
* Rules with crossed edges are treated as in stratified Datalog: apply
  them after the rules that derive their negated labels (the caller
  controls rule order; every round applies every rule, so a monotone
  program converges regardless).
* A program whose rules all derive edges from edges alone runs
  semi-naive rounds: from its second application on, a rule matches
  only embeddings that use an edge added since it last started
  matching.  Any other program runs naive rounds that re-match every
  rule against the whole instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional

from ..engine.bindings import Binding
from ..engine.stats import EvalStats
from ..errors import EvaluationError
from ..graph.matching import MatchSpec, find_homomorphisms
from ..graph.labeled_graph import LabeledGraph
from .ast import Color, RuleGraph, RuleNode, SlotAssertion
from .data import SLOT_LABEL, InstanceGraph
from .matcher import Embeddings, delta_restrictable, embeddings
from .schema import WGSchema

__all__ = [
    "satisfies", "apply_rule", "apply_program", "semi_naive_eligible",
    "EdgeLog", "query", "answer_graph",
]

NodeId = Hashable


def query(
    rule: RuleGraph,
    instance: InstanceGraph,
    schema: Optional[WGSchema] = None,
    injective: bool = False,
    stats: Optional[EvalStats] = None,
    *,
    options=None,
    trace: Optional[bool] = None,
    budget=None,
):
    """Evaluate a rule as a query: the embeddings of its red part.

    Accepts the unified keyword-only ``options=`` / ``trace=`` /
    ``budget=`` run contract (see
    :func:`repro.xmlgl.evaluator.evaluate_rule` — identical semantics and
    defaults): ``options`` (a :class:`~repro.engine.options.ExecOptions`)
    selects the evaluation engine, ``trace`` overrides its trace flag, and
    ``budget`` (a :class:`~repro.engine.limits.QueryBudget`) governs the
    run — raising typed errors or returning a truncated binding set
    flagged ``stats.extra["truncated"]`` under ``on_limit="partial"``.
    """
    return embeddings(
        rule, instance, schema=schema, injective=injective, stats=stats,
        options=options, trace=trace, budget=budget,
    )


def satisfies(
    instance: InstanceGraph,
    rule: RuleGraph,
    schema: Optional[WGSchema] = None,
    injective: bool = False,
) -> bool:
    """Declarative reading: every red embedding has a green extension."""
    matched = embeddings(rule, instance, schema=schema, injective=injective)
    plan = _GreenPlan(rule)
    for binding in matched:
        if not _green_satisfied(plan, instance, binding):
            return False
    return _collectors_satisfied(rule, instance, list(matched))


@dataclass
class EdgeLog:
    """The semi-naive bookkeeping one rule application is handed.

    The delta lives in the instance's own edge columns, which a program
    run only appends to: ``start`` holds, per edge label, the column
    length when this rule's previous application started matching
    (:meth:`~repro.graph.labeled_graph.LabeledGraph.edge_marks`), so the
    columns' tails past it are this rule's delta.  ``None`` means the rule
    has not matched yet and matches in full.
    """

    start: Optional[dict[str, int]] = None


def apply_rule(
    instance: InstanceGraph,
    rule: RuleGraph,
    schema: Optional[WGSchema] = None,
    injective: bool = False,
    stats: Optional[EvalStats] = None,
    *,
    delta: Optional[EdgeLog] = None,
) -> int:
    """Generative reading: mutate ``instance`` minimally; return additions.

    The returned count is the number of nodes + edges + slots added; zero
    means the instance already satisfied the rule.  ``delta`` (keyword
    only; see :func:`apply_program`) restricts matching to embeddings that
    use an edge added since ``delta.start``.

    A rule whose green part is only edges between red nodes appends them
    straight from the embeddings' row columns, one bulk append per green
    edge; any other rule instantiates binding by binding.
    """
    matched = embeddings(
        rule, instance, schema=schema, injective=injective, stats=stats,
        delta=None if delta is None else delta.start,
    )
    plan = _GreenPlan(rule)
    if plan.bulk:
        return _instantiate_edges(plan, instance, matched)
    bindings = list(matched)
    additions = 0
    for binding in bindings:
        # instantiation adds only missing edges and slots, so the full
        # check is needed only before it would create green nodes
        if plan.plain and _green_satisfied(plan, instance, binding):
            continue
        additions += _instantiate_green(plan, instance, binding)
    additions += _instantiate_collectors(rule, instance, bindings)
    return additions


def apply_program(
    instance: InstanceGraph,
    rules: list[RuleGraph],
    schema: Optional[WGSchema] = None,
    injective: bool = False,
    max_rounds: int = 100,
    stats: Optional[EvalStats] = None,
) -> int:
    """Apply rules round-robin until no rule adds anything.

    When every rule is :func:`semi_naive_eligible`, rounds are semi-naive:
    from its second application on, a rule matches only embeddings that
    use an edge added since its previous application started matching —
    its own additions included.  Such a rule derives edges from edges, so
    every embedding it has not yet seen uses one of those edges, and each
    round adds exactly what a naive round would.  Any other program runs
    naive rounds that re-match every rule against the whole instance.

    Returns total additions.  Raises :class:`EvaluationError` when
    ``max_rounds`` passes do not reach a fixpoint (unsafe recursion).
    """
    deltas: list[Optional[EdgeLog]] = [None] * len(rules)
    if all(semi_naive_eligible(rule) for rule in rules):
        deltas = [EdgeLog() for _ in rules]
    total = 0
    for _ in range(max_rounds):
        round_additions = 0
        for rule, delta in zip(rules, deltas):
            start = instance.graph.edge_marks()
            round_additions += apply_rule(
                instance, rule, schema=schema, injective=injective,
                stats=stats, delta=delta,
            )
            if delta is not None:
                delta.start = start
        total += round_additions
        if round_additions == 0:
            return total
    raise EvaluationError(
        f"program did not reach a fixpoint within {max_rounds} rounds; "
        "the rule set is likely unsafe (green part keeps re-triggering)"
    )


def semi_naive_eligible(rule: RuleGraph) -> bool:
    """Can the rule run semi-naive rounds inside :func:`apply_program`?

    It can when it only adds green edges between red nodes (no green
    nodes, collectors or slot assertions) and its matching may be
    restricted to a delta (:func:`~repro.wglog.matcher.delta_restrictable`:
    no crossed edges, path edges or conditions, no isolated red node).
    """
    return (
        not rule.green_nodes()
        and not rule.slot_assertions
        and delta_restrictable(rule)
    )


# ---------------------------------------------------------------------------
# Green-part satisfaction and instantiation
# ---------------------------------------------------------------------------

class _GreenPlan:
    """The rule-constant half of green satisfaction and instantiation.

    Built once per rule application and shared by :func:`satisfies` and
    :func:`apply_rule`; per binding only values are looked up.
    """

    def __init__(self, rule: RuleGraph) -> None:
        collector_ids = {n.id for n in rule.green_nodes() if n.collector}
        self.plain = [n for n in rule.green_nodes() if not n.collector]
        #: green edges instantiated per binding (no collector endpoint)
        self.edges = [
            e for e in rule.green_edges()
            if e.source not in collector_ids and e.target not in collector_ids
        ]
        #: slot assertions instantiated per binding (no collector target)
        self.slots = [a for a in rule.slot_assertions if a.node not in collector_ids]
        self.red_edges = [
            e for e in self.edges
            if rule.nodes[e.source].color is Color.RED
            and rule.nodes[e.target].color is Color.RED
        ]
        self.red_slots = [
            a for a in self.slots if rule.nodes[a.node].color is Color.RED
        ]
        self.embed = _GreenEmbedding(rule, self.plain) if self.plain else None
        #: only green edges between red nodes, none leaving a slot: they
        #: are appended in bulk from the row columns
        self.bulk = (
            not rule.green_nodes()
            and not rule.slot_assertions
            and all(
                rule.nodes[e.source].label != SLOT_LABEL for e in self.edges
            )
        )


class _GreenEmbedding:
    """Pattern deciding whether instance nodes already realise the plain
    green nodes of one binding.

    Red endpoints of the green edges form the boundary, each pinned to the
    one node its binding names; a green node hung off the boundary by an
    edge draws its candidates from that node's adjacency, so a check
    never scans the whole instance for them.
    """

    def __init__(self, rule: RuleGraph, plain: list[RuleNode]) -> None:
        self.rule = rule
        green_ids = {n.id for n in plain}
        self.pattern = LabeledGraph()
        for node in plain:
            self.pattern.add_node(node.id, node.label or "*")
        self.boundary: list[str] = []
        #: a plain green node sharing an edge with a collector is realised
        #: globally, with the collector
        self.via_collector = False
        #: green node -> (bound node, edge label, green node is the target)
        self.anchors: dict[str, tuple[str, str, bool]] = {}
        for edge in rule.green_edges():
            if not {edge.source, edge.target} & green_ids:
                continue
            for endpoint in (edge.source, edge.target):
                if endpoint in green_ids:
                    continue
                if rule.nodes[endpoint].color is Color.GREEN:
                    self.via_collector = True
                elif endpoint not in self.pattern:
                    self.boundary.append(endpoint)
                    self.pattern.add_node(endpoint, rule.nodes[endpoint].label or "*")
            if edge.source not in green_ids and edge.source in self.pattern:
                self.anchors.setdefault(edge.target, (edge.source, edge.label, True))
            elif edge.target not in green_ids and edge.target in self.pattern:
                self.anchors.setdefault(edge.source, (edge.target, edge.label, False))
            if edge.source in self.pattern and edge.target in self.pattern:
                self.pattern.add_edge(edge.source, edge.target, edge.label)
        self.pinned = set(self.boundary)
        self.slots: dict[str, list[SlotAssertion]] = {}
        for assertion in rule.slot_assertions:
            if assertion.node in green_ids:
                self.slots.setdefault(assertion.node, []).append(assertion)

    def exists(self, instance: InstanceGraph, binding: Binding) -> bool:
        if self.via_collector:
            return True
        pinned = self.pinned
        requirements = {
            node: {
                a.name: _resolve_slot_value(instance, binding, a)
                for a in assertions
            }
            for node, assertions in self.slots.items()
        }
        rule = self.rule

        def compat(pnode, dnode) -> bool:
            if pnode in pinned:
                return True  # its one candidate is the bound node
            if instance.is_slot(dnode):
                return False
            wanted = rule.nodes[pnode].label
            if wanted is not None and instance.label(dnode) != wanted:
                return False
            for name, value in requirements.get(pnode, {}).items():
                if instance.slot_value(dnode, name) != value:
                    return False
            return True

        candidates = {node: [binding[node]] for node in self.boundary}
        for node, (bound, label, outgoing) in self.anchors.items():
            if outgoing:
                candidates[node] = instance.graph.successors(binding[bound], label)
            else:
                candidates[node] = instance.graph.predecessors(binding[bound], label)
        spec = MatchSpec(injective=False, node_compat=compat, candidates=candidates)
        for _ in find_homomorphisms(self.pattern, instance.graph, spec):
            return True
        return False


def _resolve_slot_value(instance, binding: Binding, assertion):
    if assertion.value is not None:
        return assertion.value
    source = binding[assertion.from_node]
    value = instance.slot_value(source, assertion.from_slot)
    if value is None:
        raise EvaluationError(
            f"cannot copy slot {assertion.from_slot!r} of {source!r}: absent"
        )
    return value


def _green_satisfied(
    plan: _GreenPlan, instance: InstanceGraph, binding: Binding
) -> bool:
    """Is this embedding's per-embedding green part already realised?

    Collectors are handled globally and skipped here.
    """
    for edge in plan.red_edges:
        if not instance.has_relationship(
            binding[edge.source], binding[edge.target], edge.label
        ):
            return False
    for assertion in plan.red_slots:
        wanted = _resolve_slot_value(instance, binding, assertion)
        if instance.slot_value(binding[assertion.node], assertion.name) != wanted:
            return False
    return plan.embed is None or plan.embed.exists(instance, binding)


def _instantiate_edges(
    plan: _GreenPlan, instance: InstanceGraph, matched: Embeddings
) -> int:
    """Append a bulk plan's green edges from the row columns.

    Each green edge is one :meth:`~repro.graph.labeled_graph.LabeledGraph.add_edge_columns`
    call over its endpoints' columns, which skips the pairs already
    present; returns how many edges were new.
    """
    rows = matched.rows
    if not rows:
        return 0
    column = {node: i for i, node in enumerate(matched.columns)}
    additions = 0
    for edge in plan.edges:
        source, target = column[edge.source], column[edge.target]
        additions += instance.graph.add_edge_columns(
            edge.label, [row[source] for row in rows], [row[target] for row in rows]
        )
    return additions


def _instantiate_green(
    plan: _GreenPlan, instance: InstanceGraph, binding: Binding
) -> int:
    """Add one binding's green structure; returns additions count."""
    additions = 0
    created: dict[str, NodeId] = {}
    for node in plan.plain:
        if node.label is None:
            raise EvaluationError(
                f"green node {node.id!r} needs a label to be created"
            )
        created[node.id] = instance.add_entity(node.label)
        additions += 1

    values = {**binding, **created} if created else binding
    for edge in plan.edges:
        source, target = values[edge.source], values[edge.target]
        if not instance.has_relationship(source, target, edge.label):
            instance.relate(source, target, edge.label)
            additions += 1
    for assertion in plan.slots:
        target = values[assertion.node]
        value = _resolve_slot_value(instance, binding, assertion)
        if instance.slot_value(target, assertion.name) != value:
            instance.add_slot(target, assertion.name, value)
            additions += 1
    return additions


# ---------------------------------------------------------------------------
# Collectors (the aggregation triangle)
# ---------------------------------------------------------------------------

def _collector_targets(
    rule: RuleGraph, matched: list[Binding], collector_id: str
) -> dict[str, set[NodeId]]:
    """Per edge-label target sets of one collector over all embeddings."""
    targets: dict[str, set[NodeId]] = {}
    for edge in rule.green_edges():
        if edge.source != collector_id:
            continue
        bucket = targets.setdefault(edge.label, set())
        for binding in matched:
            bucket.add(binding[edge.target])
    return targets


def _collectors_satisfied(
    rule: RuleGraph, instance: InstanceGraph, matched: list[Binding]
) -> bool:
    for node in rule.green_nodes():
        if not node.collector:
            continue
        if not matched:
            continue
        targets = _collector_targets(rule, matched, node.id)
        if _find_collector_host(instance, node.label, targets) is None:
            return False
    return True


def _find_collector_host(
    instance: InstanceGraph, label: Optional[str], targets: dict[str, set[NodeId]]
) -> Optional[NodeId]:
    """An existing entity already linked to every collected target."""
    for candidate in instance.entities(label):
        if all(
            all(
                instance.has_relationship(candidate, target, edge_label)
                for target in wanted
            )
            for edge_label, wanted in targets.items()
        ):
            return candidate
    return None


def _instantiate_collectors(
    rule: RuleGraph, instance: InstanceGraph, matched: list[Binding]
) -> int:
    additions = 0
    for node in rule.green_nodes():
        if not node.collector or not matched:
            continue
        if node.label is None:
            raise EvaluationError(
                f"collector {node.id!r} needs a label to be created"
            )
        targets = _collector_targets(rule, matched, node.id)
        host = _find_collector_host(instance, node.label, targets)
        if host is not None:
            continue
        # Reuse a partially linked collector of the same label if present,
        # so repeated applications extend instead of multiplying.
        partial = None
        for candidate in instance.entities(node.label):
            if any(
                instance.has_relationship(candidate, target, edge_label)
                for edge_label, wanted in targets.items()
                for target in wanted
            ):
                partial = candidate
                break
        if partial is None:
            partial = instance.add_entity(node.label)
            additions += 1
        for edge_label, wanted in targets.items():
            for target in wanted:
                if not instance.has_relationship(partial, target, edge_label):
                    instance.relate(partial, target, edge_label)
                    additions += 1
        for assertion in rule.slot_assertions:
            if assertion.node == node.id and assertion.value is not None:
                if instance.slot_value(partial, assertion.name) != assertion.value:
                    instance.add_slot(partial, assertion.name, assertion.value)
                    additions += 1
    return additions


def answer_graph(
    rule: RuleGraph,
    instance: InstanceGraph,
    schema: Optional[WGSchema] = None,
    injective: bool = False,
) -> InstanceGraph:
    """The query answer *as a graph* (G-Log's formal reading).

    The answer to a pure query is the sub-instance induced by all red
    embeddings: every matched entity (with its slots) and every instance
    edge realising a matched red edge.  Path edges contribute their
    endpoint entities only (the intermediate hops are not part of the
    answer).  The result is a fresh :class:`InstanceGraph` that conforms
    to any schema the input conformed to.
    """
    matched = list(embeddings(rule, instance, schema=schema, injective=injective))
    answer = InstanceGraph()
    included: set[NodeId] = set()
    for binding in matched:
        for node_id in binding.values():
            if node_id in included or instance.is_slot(node_id):
                continue
            included.add(node_id)
            answer.add_entity(instance.label(node_id), node_id)
            for name, value in instance.slots(node_id).items():
                answer.add_slot(node_id, name, value)
    for binding in matched:
        for edge in rule.red_edges():
            if edge.crossed or edge.path:
                continue
            source = binding.get(edge.source)
            target = binding.get(edge.target)
            if source is None or target is None:
                continue
            if instance.has_relationship(source, target, edge.label):
                answer.relate(source, target, edge.label)
    return answer
