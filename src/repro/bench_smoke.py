"""Benchmark smoke-runner: the ``bench_ext_*`` workloads at small sizes.

Runs the representative matcher queries from the extension benchmarks
(``bench_ext_ablation``, ``bench_ext_paths``, ``bench_ext_scaling``,
``bench_fig_q3_join``, ``bench_fig_q4_deep``) on all three evaluation
engines — the set-at-a-time semi-join **pipeline** (default), the
interval-**indexed** backtracking core and the **naive** full-scan
ablation — and writes a JSON report (``BENCH_matcher.json``) with
per-query wall time and :class:`~repro.engine.stats.EvalStats` counters,
so successive PRs leave a perf trajectory to compare against::

    PYTHONPATH=src python -m repro.bench_smoke            # small sizes
    PYTHONPATH=src python -m repro.bench_smoke --repeat 9 -o BENCH_matcher.json
    PYTHONPATH=src python -m repro.bench_smoke -o /tmp/b.json \
        --baseline BENCH_matcher.json --append-history     # CI mode

``work`` is ``candidates_tried + edge_checks``; ``work_ratio`` is
naive-work / indexed-work (≥ 1 means the interval path does less
trial-and-error) and ``speedup`` the same for wall time;
``pipeline_work_ratio`` is pipeline-work / indexed-work (≤ 1 means the
semi-join plan replaces per-candidate search with set operations) and
``pipeline_speedup`` indexed-time / pipeline-time.

``--baseline`` compares each engine's ``work`` per query against a
committed report and prints a GitHub ``::warning::`` annotation for every
regression beyond 20% (fails-soft).  ``--append-history`` carries the
baseline's ``history`` forward and appends one timestamped summary record
per run.

The ``rewrite`` block evaluates a deliberately redundant query (three
overlapping deep arcs + a tautological condition) with the static
rewriter off and on, *asserts* at least one fragment was removed, the
results are identical and the off/on work ratio clears 2x, and records
the counters and timings.

The ``incremental`` block applies a deterministic 1000-edit mutation
script (inserts, deletes, value and attribute updates) to the
bibliography through :meth:`~repro.session.QuerySession.mutate` with a
continuous query subscribed throughout, *asserts* the maintained row set
equals a from-scratch re-evaluation, and records the maintenance work
ratio — what rebuild-per-edit would have cost (relabel the whole
document each commit) over what the gap-label maintenance actually did —
plus the subscription's footprint eval/skip split.
``--gate-incremental 5.0`` turns the work ratio into a hard gate (CI).

The ``scaling`` block (``--workers N``, off by default) maps the
selection query over a 100-document corpus on a
:class:`~repro.engine.shard.ShardedExecutor` with 1 worker and with
``N`` workers, asserts the merged results identical, and records the
speedup, per-shard wall times and merge overhead along with the host's
CPU count.  ``--gate-scaling 2.0`` hard-fails the run when the measured
speedup at ``N >= 4`` workers is below the floor (CI runs this on
multi-core runners; single-core hosts record an honest ~1x and must not
gate).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from .engine.index import DocumentIndex
from .engine.stats import EvalStats
from .ssd.model import Document
from .workloads import bibliography, nested_sections
from .xmlgl.ast import QueryGraph
from .xmlgl.dsl import parse_rule
from .engine.options import ExecOptions
from .xmlgl.matcher import match

__all__ = ["run_suite", "main"]

PIPELINE = ExecOptions(engine="pipeline")
INDEXED = ExecOptions(engine="backtracking")
NAIVE = ExecOptions(engine="naive")

ENGINES: list[tuple[str, ExecOptions]] = [
    ("pipeline", PIPELINE),
    ("indexed", INDEXED),
    ("naive", NAIVE),
]

#: Work regression tolerated before --baseline warns (fails-soft).
REGRESSION_TOLERANCE = 0.20

# (name, dsl text, dataset, descendant_heavy, join_heavy)
QUERIES: list[tuple[str, str, str, bool, bool]] = [
    (
        "ext_paths/chain",
        "query { root bib as R { book as B { title as T } } }"
        " construct { r { collect T } }",
        "bib",
        False,
        False,
    ),
    (
        "ext_paths/deep",
        "query { root report as R { deep para as P } }"
        " construct { r { collect P } }",
        "sections",
        True,
        False,
    ),
    (
        "ext_paths/filtered",
        'query { book as B { @year = "1999" as Y  not publisher as P } }'
        " construct { r { collect B } }",
        "bib",
        False,
        False,
    ),
    (
        "fig_q4/deep_star",
        "query { root report as R { deep para as P } }"
        " construct { r { collect P } }",
        "sections",
        True,
        False,
    ),
    (
        "fig_q3/join",
        "query { book as B  * as C { title as T } where B.cites = C.id }"
        " construct { r { collect T } }",
        "bib",
        False,
        True,
    ),
    (
        "ext_ablation/multibox",
        "query { book as B { publisher as P  title as T  @year as Y }"
        " where Y >= 1995 } construct { r { collect T } }",
        "bib",
        False,
        True,
    ),
    (
        "ext_scaling/select",
        "query { book as B { title as T  @year as Y } where Y >= 1995 }"
        " construct { r { collect T } }",
        "bib",
        False,
        False,
    ),
]


def _first_graph(text: str) -> QueryGraph:
    return parse_rule(text).queries[0]


def _time_and_count(
    graph: QueryGraph,
    document: Document,
    index: DocumentIndex,
    options: ExecOptions,
    repeat: int,
) -> tuple[float, dict, int]:
    stats = EvalStats()
    bindings = match(graph, document, options=options, index=index, stats=stats)
    best = stats.seconds
    for _ in range(repeat - 1):
        started = time.perf_counter()
        match(graph, document, options=options, index=index)
        best = min(best, time.perf_counter() - started)
    counters = stats.as_dict()
    counters.pop("seconds", None)
    return best, counters, len(bindings)


#: The deliberately redundant drawing the rewrite guard measures (the same
#: shape as ``examples/fig_redundant.xgl``): three deep arcs asking for
#: overlapping structure plus a tautological conjunct.  The rewriter must
#: shrink it to one arc.
REWRITE_GUARD_QUERY = (
    "query { root report as R { deep para as P  deep para as P2  "
    "deep * as W } where 1 = 1 } construct { r { collect P } }"
)


def measure_rewrite(document: Document, repeat: int) -> dict:
    """The rewrite guard: minimization must pay for itself on redundancy.

    Evaluates the redundant guard rule with the rewriter off (the drawing
    verbatim) and on (the minimized rule), best-of-``repeat`` each.
    *Asserts* the rewriter removed at least one fragment, that the
    constructed results are byte-identical, and that the off/on work
    ratio clears 2x — the counters are deterministic, so this cannot
    flake on wall time.  Records counters, timings and the ratio.
    """
    from .analysis.rewrite import rewrite_rule
    from .ssd import serialize
    from .xmlgl.evaluator import evaluate_rule

    rule = parse_rule(REWRITE_GUARD_QUERY)
    rewritten, report = rewrite_rule(rule)
    fragments_removed = report.counters.get(
        "merged", 0
    ) + report.counters.get("pruned", 0)
    assert fragments_removed >= 1, "the redundant guard rule did not shrink"

    def best_of(target) -> tuple[float, int, str]:
        stats = EvalStats()
        result = evaluate_rule(target, document, options=PIPELINE, stats=stats)
        work = stats.candidates_tried + stats.edge_checks
        best = stats.seconds
        for _ in range(repeat - 1):
            started = time.perf_counter()
            evaluate_rule(target, document, options=PIPELINE)
            best = min(best, time.perf_counter() - started)
        return best, work, serialize(result)

    off_seconds, off_work, off_result = best_of(rule)
    on_seconds, on_work, on_result = best_of(rewritten)
    assert on_result == off_result, "the rewrite changed the result"
    work_ratio = round(off_work / max(on_work, 1), 2)
    assert work_ratio > 2.0, (
        f"rewrite-off/rewrite-on work ratio {work_ratio} <= 2x"
    )
    return {
        "query": "rewrite/redundant",
        "rewrites": report.describe(),
        "fragments_removed": fragments_removed,
        "results_identical": True,
        "off_work": off_work,
        "on_work": on_work,
        "work_ratio": work_ratio,
        "off_seconds": off_seconds,
        "on_seconds": on_seconds,
        "speedup": round(off_seconds / max(on_seconds, 1e-9), 2),
    }


#: The continuous query the incremental block keeps live during the edit
#: script: tags {book} + attribute {year}, no text reads — so the edit mix
#: below exercises both footprint outcomes (re-run and provable skip).
INCREMENTAL_QUERY = (
    "query { book as B { @year as Y } } construct { r { collect B } }"
)


def measure_incremental(
    bib_entries: int = 400, edits: int = 1000, seed: int = 0
) -> dict:
    """The mutation block: a 1000-edit script, incremental vs rebuild work.

    Applies a deterministic script of typed mutations (insert book /
    insert note / delete entry / retag year / reprice) to a bibliography
    through :meth:`~repro.session.QuerySession.mutate`, with the cached
    :class:`~repro.engine.index.DocumentIndex` maintained in place and a
    continuous query subscribed throughout.  Records:

    * ``incremental_work`` — labels assigned/removed/relabelled, from the
      index's maintenance counters;
    * ``rebuild_work`` — what rebuild-per-edit would have cost: every
      edit relabels the whole document (``n`` per edit);
    * ``work_ratio`` — rebuild / incremental, the headline number
      (``--gate-incremental`` turns it into a hard CI floor);
    * the subscription's eval/skip split and a correctness anchor: the
      final maintained row count *asserts* equal to a from-scratch
      re-evaluation over the mutated document with a fresh index.
    """
    import random

    from .engine.cache import DocumentIndexCache
    from .engine.mutate import MutationBatch
    from .session import QuerySession
    from .ssd.model import Element, Text
    from .xmlgl.evaluator import rule_bindings

    document = bibliography(bib_entries, seed=seed)
    indexes = DocumentIndexCache()
    session = QuerySession(document, indexes=indexes)
    index = indexes.get(document)
    subscription = session.subscribe(INCREMENTAL_QUERY)
    rng = random.Random(seed)
    base = index.maintenance_counters()
    rebuild_work = 0
    deltas = 0
    started = time.perf_counter()
    for position in range(edits):
        root = document.root
        entries = root.child_elements()
        batch = MutationBatch()
        kind = rng.random()
        if kind < 0.30 or len(entries) < 10:
            book = Element("book", attributes={"year": str(rng.randint(1980, 2005))})
            title = Element("title")
            title.append(Text(f"generated {position}"))
            book.append(title)
            batch.insert_subtree(root, book, rng.randrange(len(entries) + 1))
        elif kind < 0.50:
            note = Element("note")
            note.append(Text(f"margin {position}"))
            batch.insert_subtree(rng.choice(entries), note)
        elif kind < 0.65:
            batch.delete_subtree(rng.choice(entries))
        elif kind < 0.85:
            target = rng.choice(entries)
            prices = [e for e in target.child_elements() if e.tag == "price"]
            batch.update_value(
                prices[0] if prices else target.child_elements()[0],
                f"{rng.randint(10, 200)}.00",
            )
        else:
            batch.update_attribute(
                rng.choice(entries), "year", str(rng.randint(1980, 2005))
            )
        session.mutate(batch)
        # A rebuild-per-edit maintenance strategy relabels every element
        # each commit.
        rebuild_work += index.element_count()
        deltas += len(subscription.poll())
    seconds = time.perf_counter() - started
    counters = index.maintenance_counters()
    incremental_work = sum(
        counters[key] - base[key]
        for key in ("labels_assigned", "labels_removed", "relabel_labels")
    )
    scratch = len(
        rule_bindings(
            parse_rule(INCREMENTAL_QUERY),
            document,
            indexes=DocumentIndexCache(),
        )
    )
    maintained_rows = len(subscription.rows())
    assert maintained_rows == scratch, (
        f"maintained subscription rows {maintained_rows} != "
        f"from-scratch re-evaluation {scratch}"
    )
    assert subscription.skips > 0, "the edit mix never exercised a skip"
    return {
        "query": INCREMENTAL_QUERY,
        "edits": edits,
        "final_elements": index.element_count(),
        "incremental_work": incremental_work,
        "rebuild_work": rebuild_work,
        "work_ratio": round(rebuild_work / max(incremental_work, 1), 2),
        "seconds": seconds,
        "evals": subscription.evals,
        "skips": subscription.skips,
        "deltas": deltas,
        "rows": maintained_rows,
        "rows_match_scratch": True,
        "maintenance_counters": {
            key: counters[key] - base[key] for key in counters
        },
    }


#: The query the sharded-scaling block maps over the corpus.
SCALING_QUERY = "ext_scaling/select"


def measure_scaling(
    workers: int,
    corpus_documents: int = 100,
    bib_entries: int = 40,
) -> dict:
    """The sharding block: one query over a corpus, 1 worker vs ``workers``.

    Builds a ``corpus_documents``-document corpus (distinct seeds — 100
    documents is the 100x-scale entry the trajectory tracks), maps the
    selection query over it single-worker and ``workers``-wide, asserts
    the per-document results identical, and records wall times, the
    speedup, each shard's own wall time and the driver-side merge
    overhead.  The host CPU count is recorded because the number *means*
    nothing without it: a single-core container honestly reports ~1x.
    """
    import os

    from .engine.shard import ShardedExecutor
    from .ssd import serialize

    query = next(q[1] for q in QUERIES if q[0] == SCALING_QUERY)
    corpus = {
        f"doc{position}": bibliography(bib_entries, seed=position)
        for position in range(corpus_documents)
    }
    started = time.perf_counter()
    single = ShardedExecutor(max_workers=1).map_corpus(query, corpus, shards=1)
    single_seconds = time.perf_counter() - started
    started = time.perf_counter()
    sharded = ShardedExecutor(max_workers=workers).map_corpus(
        query, corpus, shards=workers
    )
    sharded_seconds = time.perf_counter() - started
    assert single.ok and sharded.ok, "scaling corpus run raised"
    for one, other in zip(single.results, sharded.results):
        assert serialize(one) == serialize(other), "sharded results diverged"
    return {
        "query": SCALING_QUERY,
        "workers": workers,
        "cpus": os.cpu_count(),
        "corpus_documents": corpus_documents,
        "bib_entries_per_document": bib_entries,
        "results_identical": True,
        "bindings": sharded.stats.bindings_produced,
        "single_seconds": single_seconds,
        "sharded_seconds": sharded_seconds,
        "speedup": round(single_seconds / max(sharded_seconds, 1e-9), 2),
        "shard_seconds": [round(s, 4) for s in sharded.shard_seconds],
        "merge_seconds": round(sharded.merge_seconds, 4),
    }


def run_suite(
    bib_entries: int = 400,
    sections_depth: int = 7,
    repeat: int = 5,
    workers: int = 0,
) -> dict:
    """Run every query on all three engines; returns the JSON-ready report."""
    datasets = {
        "bib": bibliography(bib_entries, seed=0),
        "sections": nested_sections(depth=sections_depth, fanout=2, seed=0),
    }
    indexes = {name: DocumentIndex(doc) for name, doc in datasets.items()}
    report: dict = {
        "generated_by": "repro.bench_smoke",
        "schema_version": 5,
        "sizes": {
            "bib_entries": bib_entries,
            "sections_depth": sections_depth,
            "bib_elements": indexes["bib"].element_count(),
            "sections_elements": indexes["sections"].element_count(),
        },
        "repeat": repeat,
        "queries": {},
    }
    for name, text, dataset, descendant_heavy, join_heavy in QUERIES:
        graph = _first_graph(text)
        document = datasets[dataset]
        index = indexes[dataset]
        entry: dict = {
            "dataset": dataset,
            "descendant_heavy": descendant_heavy,
            "join_heavy": join_heavy,
        }
        for label, options in ENGINES:
            seconds, counters, bindings = _time_and_count(
                graph, document, index, options, repeat
            )
            work = counters["candidates_tried"] + counters["edge_checks"]
            entry[label] = {
                "seconds": seconds,
                "bindings": bindings,
                "work": work,
                **counters,
            }
        assert entry["indexed"]["bindings"] == entry["naive"]["bindings"], name
        assert entry["pipeline"]["bindings"] == entry["indexed"]["bindings"], name
        indexed_work = max(entry["indexed"]["work"], 1)
        entry["work_ratio"] = round(entry["naive"]["work"] / indexed_work, 2)
        entry["speedup"] = round(
            entry["naive"]["seconds"] / max(entry["indexed"]["seconds"], 1e-9), 2
        )
        entry["pipeline_work_ratio"] = round(
            entry["pipeline"]["work"] / indexed_work, 4
        )
        entry["pipeline_speedup"] = round(
            entry["indexed"]["seconds"] / max(entry["pipeline"]["seconds"], 1e-9),
            2,
        )
        report["queries"][name] = entry
    report["rewrite"] = measure_rewrite(datasets["sections"], repeat)
    # Tiny test-suite sizes get a proportionally shorter edit script;
    # the CI size (400 entries) runs the full 1000 edits.
    report["incremental"] = measure_incremental(
        bib_entries=bib_entries, edits=min(1000, 10 * bib_entries)
    )
    if workers > 1:
        report["scaling"] = measure_scaling(workers)
    return report


def check_baseline(report: dict, baseline: dict) -> list[str]:
    """Per-query, per-engine ``work`` regressions beyond the tolerance.

    Returns human-readable warning lines (empty = no regressions).  Only
    queries and engines present in both reports are compared, so adding or
    renaming queries never trips the check.
    """
    warnings = []
    for name, entry in report.get("queries", {}).items():
        base_entry = baseline.get("queries", {}).get(name)
        if not isinstance(base_entry, dict):
            continue
        for label, _ in ENGINES:
            current = entry.get(label, {}).get("work")
            previous = base_entry.get(label, {}).get("work")
            if current is None or previous is None or previous <= 0:
                continue
            if current > previous * (1 + REGRESSION_TOLERANCE):
                warnings.append(
                    f"{name} [{label}]: work {previous} -> {current} "
                    f"(+{(current / previous - 1) * 100:.0f}%, "
                    f"tolerance {REGRESSION_TOLERANCE * 100:.0f}%)"
                )
    return warnings


def _history_record(report: dict) -> dict:
    """One compact, timestamped trajectory point for the history list."""
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "sizes": dict(report["sizes"]),
        "work": {
            name: {label: entry[label]["work"] for label, _ in ENGINES}
            for name, entry in report["queries"].items()
        },
        "pipeline_speedup": {
            name: entry["pipeline_speedup"]
            for name, entry in report["queries"].items()
        },
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench_smoke", description=__doc__.splitlines()[0]
    )
    parser.add_argument("-o", "--output", default="BENCH_matcher.json")
    parser.add_argument("--bib-entries", type=int, default=400)
    parser.add_argument("--sections-depth", type=int, default=7)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument(
        "--baseline",
        default=None,
        help="committed report to compare against; work regressions beyond "
        "20%% print ::warning:: annotations but never fail the run",
    )
    parser.add_argument(
        "--append-history",
        action="store_true",
        help="carry the baseline's (or previous output's) history forward "
        "and append one timestamped record for this run",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="also run the sharded-scaling block over a 100-document "
        "corpus with this many worker processes (0 = skip)",
    )
    parser.add_argument(
        "--gate-scaling",
        type=float,
        default=None,
        metavar="RATIO",
        help="hard-fail if the sharded speedup at --workers is below this "
        "ratio (CI uses 2.0 at 4 workers; needs a multi-core host)",
    )
    parser.add_argument(
        "--gate-incremental",
        type=float,
        default=None,
        metavar="RATIO",
        help="hard-fail if the incremental-maintenance work ratio "
        "(rebuild-per-edit / incremental) is below this ratio (CI uses 5.0)",
    )
    args = parser.parse_args(argv)
    report = run_suite(
        args.bib_entries, args.sections_depth, args.repeat, args.workers
    )

    baseline: Optional[dict] = None
    if args.baseline:
        try:
            with open(args.baseline, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"::warning::bench baseline unreadable: {exc}")

    if args.append_history:
        prior = baseline
        if prior is None:
            try:
                with open(args.output, "r", encoding="utf-8") as handle:
                    prior = json.load(handle)
            except (OSError, ValueError):
                prior = None
        history = list(prior.get("history", [])) if prior else []
        history.append(_history_record(report))
        report["history"] = history

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(f"wrote {args.output}")
    for name, entry in report["queries"].items():
        marker = "*" if entry["descendant_heavy"] else " "
        marker = "j" if entry["join_heavy"] else marker
        print(
            f" {marker} {name}: work {entry['naive']['work']} -> "
            f"{entry['indexed']['work']} -> {entry['pipeline']['work']} "
            f"(naive/indexed {entry['work_ratio']}x), "
            f"time {entry['naive']['seconds'] * 1000:.2f}ms -> "
            f"{entry['indexed']['seconds'] * 1000:.2f}ms -> "
            f"{entry['pipeline']['seconds'] * 1000:.2f}ms "
            f"(pipeline {entry['pipeline_speedup']}x over indexed)"
        )
    heavy = [
        (name, entry)
        for name, entry in report["queries"].items()
        if entry["descendant_heavy"]
    ]
    worst = min(entry["work_ratio"] for _, entry in heavy)
    print(f"descendant-heavy (*) worst work ratio: {worst}x")
    joins = [
        (name, entry)
        for name, entry in report["queries"].items()
        if entry["join_heavy"]
    ]
    if joins:
        worst_join = min(entry["pipeline_speedup"] for _, entry in joins)
        print(f"join-heavy (j) worst pipeline speedup: {worst_join}x")
    rewrite = report["rewrite"]
    print(
        f"rewrite ({rewrite['query']}): {rewrite['rewrites']}, "
        f"work {rewrite['off_work']} -> {rewrite['on_work']} "
        f"({rewrite['work_ratio']}x off/on), results identical"
    )
    incremental = report["incremental"]
    print(
        f"incremental ({incremental['edits']} edits, "
        f"{incremental['final_elements']} final elements): "
        f"maintenance work {incremental['rebuild_work']} rebuild -> "
        f"{incremental['incremental_work']} incremental "
        f"({incremental['work_ratio']}x), subscription "
        f"{incremental['evals']} evals / {incremental['skips']} skips, "
        f"rows match scratch re-eval"
    )
    if "scaling" in report:
        scaling = report["scaling"]
        print(
            f"scaling ({scaling['query']}, {scaling['corpus_documents']} "
            f"docs, {scaling['cpus']} cpu(s)): "
            f"{scaling['single_seconds'] * 1000:.0f}ms @1 worker -> "
            f"{scaling['sharded_seconds'] * 1000:.0f}ms @{scaling['workers']}"
            f" workers ({scaling['speedup']}x), merge "
            f"{scaling['merge_seconds'] * 1000:.1f}ms, results identical"
        )

    failures = []
    if args.gate_scaling is not None:
        if "scaling" not in report:
            failures.append("--gate-scaling given but --workers not set")
        elif report["scaling"]["speedup"] < args.gate_scaling:
            failures.append(
                f"sharded speedup {report['scaling']['speedup']}x at "
                f"{report['scaling']['workers']} workers < "
                f"{args.gate_scaling}x floor "
                f"({report['scaling']['cpus']} cpus)"
            )
    if args.gate_incremental is not None:
        ratio = incremental["work_ratio"]
        if ratio < args.gate_incremental:
            failures.append(
                f"incremental maintenance work ratio {ratio}x < "
                f"{args.gate_incremental}x floor"
            )
    for line in failures:
        print(f"::error::bench gate: {line}")

    if baseline is not None:
        regressions = check_baseline(report, baseline)
        for line in regressions:
            print(f"::warning::bench regression: {line}")
        if not regressions:
            print("no work regressions vs baseline")

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
