"""wglog_rules: WG-Log rule application over site graphs.

Each op applies one rule to a fresh copy of a seeded ``site_graph``;
ops cycle through GraphLog's sibling rule (injective), the
forall-negated root rule, and the two-rule transitive-closure program
run to a fixpoint by ``apply_program``.  This is the only workload that
reaches ``repro.wglog`` and ``repro.graph.matching``.

Checks, against answers computed from the input graph before the
window: derived ``reach`` edges equal ``reachable_by_labels`` over page
links (the closure graph is drawn so its closure has a fixed size); sibling edges number sum(k * (k - 1)) over index pages; the root
pages found by ``repro.wglog.query`` are exactly the pages no page links
to; and re-running the fixpoint adds nothing.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import repro.wglog as wglog
from repro.engine.stats import EvalStats
from repro.wglog.data import InstanceGraph
from repro.wglog.dsl import parse_wglog

from . import catalog, harness, spans
from .harness import Op, Outcome, Window

SIZES = {
    "sibling_pages": 400,
    "root_pages": 220,
    "closure_pages": 60,
    "closure_reach": 540,
    "closure_depth": 8,
    "link_factor": 1.5,
    "setups": 11,
    "idempotence_every": 10,
    "traced_ops": 120,
}

_MARKED_ROOTS = "rule marked { match { p: Page } where p.root = 'yes' }"


class Rules:
    """One set-up: the three input graphs loaded and the rules parsed."""

    def __init__(self, specs: dict[str, catalog.GraphSpec]) -> None:
        self.graphs = {name: catalog.build_instance(spec) for name, spec in specs.items()}
        self.sibling = wglog.parse_rule(catalog.SIBLING_RULE)
        self.root = wglog.parse_rule(catalog.ROOT_RULE)
        self.closure = parse_wglog(catalog.CLOSURE_PROGRAM)[1]
        self.marked = wglog.parse_rule(_MARKED_ROOTS)
        for name in catalog.WGLOG_RULES:
            self.apply(name, self.graphs[name].copy(), EvalStats())

    def apply(self, name: str, instance: InstanceGraph, stats: EvalStats) -> int:
        if name == "wglog_sibling":
            return wglog.apply_rule(instance, self.sibling, injective=True, stats=stats)
        if name == "wglog_root":
            return wglog.apply_rule(instance, self.root, stats=stats)
        return wglog.apply_program(instance, self.closure, stats=stats)


def _edges(instance: InstanceGraph, label: str) -> set[tuple[Any, Any]]:
    return {
        (edge.source, edge.target)
        for edge in instance.relationship_edges()
        if edge.label == label
    }


def references(graphs: dict[str, InstanceGraph]) -> dict[str, Any]:
    """What each rule must derive, computed from the input graphs."""
    sibling = graphs["wglog_sibling"]
    sibling_edges = sum(
        len(fanout) * (len(fanout) - 1)
        for fanout in (
            [e for e in sibling.relationships(index, "index")
             if sibling.label(e.target) == "Page"]
            for index in sibling.entities("Index")
        )
    )
    root = graphs["wglog_root"]
    linked = {
        target for source, target in _edges(root, "link")
        if root.label(source) == "Page"
    }
    roots = {page for page in root.entities("Page") if page not in linked}
    reach = catalog.reach_pairs(graphs["wglog_closure"])
    return {"sibling_edges": sibling_edges, "roots": roots, "reach": reach}


def _verify(
    rules: Rules, name: str, instance: InstanceGraph, added: int,
    expected: dict[str, Any], idempotence: bool,
) -> Optional[str]:
    """None when the op's derivation is right, else what went wrong."""
    if name == "wglog_sibling":
        derived = len(_edges(instance, "sibling"))
        if derived != expected["sibling_edges"] or added != derived:
            return f"sibling: {derived} edges, {added} added, expected {expected['sibling_edges']}"
    elif name == "wglog_root":
        found = {b["p"] for b in wglog.query(rules.marked, instance)}
        if found != expected["roots"] or added != len(found):
            return f"root: {len(found)} pages marked, expected {len(expected['roots'])}"
    else:
        reach = _edges(instance, "reach")
        if reach != expected["reach"]:
            return f"closure: {len(reach)} reach edges, expected {len(expected['reach'])}"
        if idempotence and rules.apply(name, instance, EvalStats()) != 0:
            return "closure: re-running the fixpoint added edges"
    return None


def _one(
    rules: Rules, name: str, expected: dict[str, Any], outcome: Outcome,
    idempotence: bool, around: Callable[[Callable[[], int]], int],
) -> tuple[float, float, EvalStats, int]:
    """Copy, apply (timed, via ``around``), verify: (op s, untimed s, ...)."""
    instance, copying = harness.timed(rules.graphs[name].copy)
    stats = EvalStats()
    added, elapsed = harness.timed(
        lambda: around(lambda: rules.apply(name, instance, stats))
    )
    problem, checking = harness.timed(
        lambda: _verify(rules, name, instance, added, expected, idempotence)
    )
    outcome.attempted += 1
    if problem is not None:
        outcome.fail(problem)
    return elapsed, copying + checking, stats, added


def run(
    seed: int,
    seconds: float,
    trace: bool,
    sizes: Optional[dict[str, Any]] = None,
    corrupt: bool = False,
) -> Outcome:
    sizes = {**SIZES, **(sizes or {})}
    link_factor = sizes["link_factor"]
    specs = {
        "wglog_sibling": catalog.site_spec(sizes["sibling_pages"], seed, link_factor),
        "wglog_root": catalog.site_spec(sizes["root_pages"], seed, link_factor),
        "wglog_closure": catalog.closure_spec(
            sizes["closure_pages"], seed, link_factor,
            sizes["closure_reach"], sizes["closure_depth"],
        ),
    }
    expected = references({n: catalog.build_instance(s) for n, s in specs.items()})
    if corrupt:
        expected["sibling_edges"] += 1
    outcome = Outcome(sizes={
        **sizes, "entities": {n: len(s.entities) for n, s in specs.items()},
        "expected_reach_edges": len(expected["reach"]),
    })
    rules, setups = harness.repeated_setup(
        (sizes["setups"] + 1) // 2, lambda: Rules(specs), lambda old: None
    )
    window = Window(seconds)
    ops: list[Op] = []
    window.start()
    while not window.expired():
        name = catalog.WGLOG_RULES[len(ops) % len(catalog.WGLOG_RULES)]
        closure_ops = len(ops) // len(catalog.WGLOG_RULES)
        elapsed, untimed, _stats, _added = _one(
            rules, name, expected, outcome,
            closure_ops % sizes["idempotence_every"] == 0, lambda apply: apply(),
        )
        window.exclude(untimed)
        ops.append(Op(name, elapsed, window.now()))
    window_s = window.stop()
    outcome.checks["rank"] = harness.rank_check(ops, "wglog_rules")
    if not trace:
        del rules  # the set-ups after the window run alone
        setups += harness.setups_after(
            sizes["setups"] // 2, lambda: Rules(specs), lambda old: None
        )
        outcome.metrics = harness.end_to_end(
            setup_s=harness.median(setups), window_s=window_s, ops=ops,
            rss_mb=harness.rss_self_mb(), checks=outcome.checks,
        )
        return outcome

    # Traced pass: the same op sequence, each op run once untraced and once
    # traced; which goes first alternates, so neither pays for the other's
    # garbage more often.
    recorder = spans.Recorder()
    untraced, stats, added, rounds = [], [], [], []

    def traced_apply(name: str) -> Callable[[Callable[[], int]], int]:
        def around(apply: Callable[[], int]) -> int:
            with spans.installed(recorder), recorder.op(name):
                return apply()
        return around

    for position in range(min(len(ops), sizes["traced_ops"])):
        name = catalog.WGLOG_RULES[position % len(catalog.WGLOG_RULES)]
        for traced in ((False, True) if position % 2 else (True, False)):
            if not traced:
                untraced.append(
                    _one(rules, name, expected, outcome, False, lambda a: a())[0]
                )
                continue
            _e, _u, op_stats, op_added = _one(
                rules, name, expected, outcome, False, traced_apply(name)
            )
            stats.append(op_stats)
            added.append(op_added)
    per_op = recorder.per_op()
    for op in per_op:
        if op["shape"] == "wglog_closure":
            rounds.append(
                op["calls"]["wglog.semantics.apply_rule"] / len(rules.closure)
            )
    outcome.layer_rows = spans.span_table(per_op)
    outcome.spans = recorder.export()
    values = {
        **spans.span_layer_values(per_op),
        **harness.engine_counter_metrics(stats),
        **harness.op_shape_metrics(ops),
        "wglog.embeddings": harness.mean(s.bindings_produced for s in stats),
        "wglog.rounds": harness.mean(rounds),
        "wglog.derived": harness.mean(added),
        "bench.trace_overhead_ratio": harness.ratio(
            harness.median(op["seconds"] for op in per_op), harness.median(untraced)
        ),
    }
    outcome.metrics = harness.layer_metrics(values)
    return outcome
