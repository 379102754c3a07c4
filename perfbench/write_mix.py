"""write_mix: commits with live subscriptions, and reads in between.

An in-process :class:`~repro.session.QuerySession` with a private
:class:`~repro.engine.cache.DocumentIndexCache` over a bibliography, with
eight live subscriptions of different footprints (tag/attribute only,
text-reading, join, deep).  A single-thread closed loop runs a seeded
edit script with the smoke bench's incremental mix (entry and note
inserts, deletes, price and year updates), balanced so the document's
size stays within +-10%; after every fourth commit it runs
one read from the serve_read mix (its deep-path slot reads the
bibliography).  Structural commits bump the stats epoch, so reads after
writes pay recompiles.

Subscription rows must equal a from-scratch re-evaluation over a fresh
index at checkpoints and at the end; checkpoint time is excluded from
the window.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.engine.cache import DocumentIndexCache
from repro.engine.plan_cache import PlanCache
from repro.errors import ReproError
from repro.session import QuerySession
from repro.ssd import parse_document
from repro.xmlgl.evaluator import rule_bindings

from . import catalog, harness, spans
from .harness import Op, Outcome, Window

SIZES = {
    "bib_entries": 150,
    "commits_per_read": 4,
    "checkpoint_every": 100,
    "setups": 11,
    "schedule_ops": 39,
    "traced_commits": 400,
}


class Mix:
    """One set-up: the session, its document, caches and subscriptions."""

    def __init__(self, xml: str, reads: list[catalog.ReadOp], seed: int) -> None:
        self.document = parse_document(xml)
        self.indexes = DocumentIndexCache()
        self.plans = PlanCache()
        self.session = QuerySession(self.document, indexes=self.indexes, plans=self.plans)
        self.index = self.indexes.get(self.document)
        self.subscriptions = {
            name: self.session.subscribe(text)
            for name, text in catalog.SUBSCRIPTIONS.items()
        }
        for op in catalog.distinct_reads(reads).values():
            self.session.execute(op.text())
        self.script = catalog.EditScript(seed, self.document)
        self.deltas = 0

    def commit(self) -> tuple[str, Any]:
        kind, batch = self.script.next_batch(self.document)
        return kind, lambda: self.session.mutate(batch)

    def drain(self) -> None:
        for subscription in self.subscriptions.values():
            self.deltas += len(subscription.poll())

    def diverging(self, corrupt: bool = False) -> list[str]:
        """Subscriptions whose rows differ from a from-scratch evaluation."""
        wrong = []
        for name, subscription in self.subscriptions.items():
            scratch = {
                binding.key()
                for binding in rule_bindings(
                    subscription.rule, self.document, indexes=DocumentIndexCache()
                )
            }
            if corrupt and scratch:
                scratch.pop()
            if {binding.key() for binding in subscription.rows()} != scratch:
                wrong.append(name)
        return wrong


def _window(
    mix: Mix, reads: list[catalog.ReadOp], sizes: dict[str, Any],
    seconds: float, outcome: Outcome, corrupt: bool,
) -> tuple[list[Op], list[Op], float]:
    window = Window(seconds)
    commits: list[Op] = []
    ops: list[Op] = []
    window.start()
    while not window.expired():
        kind, mutate = mix.commit()
        outcome.attempted += 1
        try:
            _result, elapsed = harness.timed(mutate)
            commits.append(Op(kind, elapsed, window.now()))
        except ReproError as error:
            outcome.fail(f"commit {kind} failed: {error}")
        mix.drain()
        if len(commits) % sizes["commits_per_read"] == 0:
            op = reads[len(ops) % len(reads)]
            row, elapsed = harness.timed(lambda: mix.session.execute(op.text()))
            ops.append(Op(op.shape, elapsed, window.now()))
            outcome.attempted += 1
            if not row.ok:
                outcome.fail(f"read {op.shape} failed: {row.error}")
        if len(commits) % sizes["checkpoint_every"] == 0:
            window.exclude(_checkpoint(mix, outcome, corrupt)[1])
            corrupt = False
    elapsed = window.stop()
    _checkpoint(mix, outcome, corrupt)
    return commits, ops, elapsed


def _checkpoint(mix: Mix, outcome: Outcome, corrupt: bool) -> tuple[None, float]:
    def check() -> None:
        outcome.attempted += 1
        wrong = mix.diverging(corrupt)
        if wrong:
            outcome.fail(f"subscriptions differ from re-evaluation: {wrong}")

    return harness.timed(check)


def run(
    seed: int,
    seconds: float,
    trace: bool,
    sizes: Optional[dict[str, Any]] = None,
    corrupt: bool = False,
) -> Outcome:
    sizes = {**SIZES, **(sizes or {})}
    entries = sizes["bib_entries"]
    xml = catalog.bib_xml(entries, seed)
    reads = catalog.read_schedule(seed, sizes["schedule_ops"], deep_on_bib=True)
    outcome = Outcome(sizes={
        **sizes,
        "subscriptions": len(catalog.SUBSCRIPTIONS),
        "working_set_plans": len(catalog.distinct_reads(reads))
        + len(catalog.SUBSCRIPTIONS),
        "plan_cache_entries": catalog.PLAN_CACHE_ENTRIES,
    })
    mix, setups = harness.repeated_setup(
        1 if trace else (sizes["setups"] + 1) // 2,
        lambda: Mix(xml, reads, seed),
        lambda old: None,
    )
    start_elements = mix.index.element_count()
    commits, ops, window_s = _window(mix, reads, sizes, seconds, outcome, corrupt)
    outcome.sizes["elements_start_end"] = [start_elements, mix.index.element_count()]
    outcome.sizes["commit_kinds"] = mix.script.counts
    outcome.checks["rank"] = harness.rank_check(ops, "write_mix reads")
    outcome.checks["commit_rank"] = harness.rank_check(commits, "write_mix commits")
    if not trace:
        del mix  # the set-ups after the window run alone
        setups += harness.setups_after(
            sizes["setups"] // 2, lambda: Mix(xml, reads, seed), lambda old: None
        )
        outcome.metrics = harness.end_to_end(
            setup_s=harness.median(setups), window_s=window_s, ops=ops,
            commits=commits,
            rss_mb=harness.rss_self_mb(), checks=outcome.checks,
        )
        return outcome
    values = {
        **_traced(xml, reads, seed, sizes, min(len(commits), sizes["traced_commits"]), outcome),
        **harness.op_shape_metrics(ops),
        "engine.index.build_ms": harness.index_build_ms(xml),
    }
    outcome.metrics = harness.layer_metrics(values)
    return outcome


def _traced(
    xml: str, reads: list[catalog.ReadOp], seed: int, sizes: dict[str, Any],
    count: int, outcome: Outcome,
) -> dict[str, float]:
    """Replay ``count`` commits (and their reads) in lockstep on two mixes."""
    plain, mix = Mix(xml, reads, seed), Mix(xml, reads, seed)
    recorder = spans.Recorder()
    counters = mix.index.maintenance_counters()
    evals = sum(s.evals for s in mix.subscriptions.values())
    skips = sum(s.skips for s in mix.subscriptions.values())
    evictions = mix.plans.stats()["evictions"]
    untraced, stats, nodes = [], [], []
    for position in range(count):
        _kind, mutate = plain.commit()
        untraced.append(harness.timed(mutate)[1])
        plain.drain()
        kind, mutate = mix.commit()
        with spans.installed(recorder), recorder.op(f"commit.{kind}"):
            mutate()
        mix.drain()
        if (position + 1) % sizes["commits_per_read"] == 0:
            op = reads[((position + 1) // sizes["commits_per_read"] - 1) % len(reads)]
            untraced.append(harness.timed(lambda: plain.session.execute(op.text()))[1])
            with spans.installed(recorder), recorder.op(op.shape):
                row = mix.session.execute(op.text())
            stats.append(row.stats)
            nodes.append(row.result.root.size())
    _checkpoint(mix, outcome, False)
    after = mix.index.maintenance_counters()
    delta = {key: after[key] - counters[key] for key in after}
    notified = sum(s.evals + s.skips for s in mix.subscriptions.values()) - evals - skips
    reevaluated = sum(s.evals for s in mix.subscriptions.values()) - evals
    per_op = recorder.per_op()
    outcome.layer_rows = spans.span_table(per_op)
    outcome.spans = recorder.export()
    return {
        **spans.span_layer_values(per_op),
        **harness.engine_counter_metrics(stats),
        "xmlgl.construct.result_nodes": harness.mean(nodes),
        "engine.plan_cache.evictions": mix.plans.stats()["evictions"] - evictions,
        "engine.index.labels_per_commit": harness.ratio(
            delta["labels_assigned"] + delta["labels_removed"] + delta["relabel_labels"],
            count,
        ),
        "engine.index.relabels": delta["relabels"],
        "engine.index.dense_rebuilds": delta["dense_rebuilds"],
        "engine.index.stats_nodes": harness.ratio(delta["stats_nodes"], count),
        "engine.subscribe.skip_ratio": harness.ratio(
            sum(s.skips for s in mix.subscriptions.values()) - skips, notified
        ),
        "engine.subscribe.useful_ratio": harness.ratio(mix.deltas, reevaluated),
        "bench.trace_overhead_ratio": harness.ratio(
            harness.median(op["seconds"] for op in per_op), harness.median(untraced)
        ),
    }
