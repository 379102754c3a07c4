"""Metric definitions: names, units, directions and the layer map.

``BENCHMARK.json`` at the repository root lists the same names; the
benchmark's tests check that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


#: Reported by every workload with ``--trace 0``.
END_TO_END = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "median of several set-ups, half before the window and half after: "
        "inputs handed over until ready for the first timed op (server "
        "start, load, index build, warm-up)",
    ),
    EndToEnd(
        "ops_per_s", "op/s", "higher", 0.25,
        "completed ops per second over the faster half of the window's 2 s "
        "blocks (closed loop)",
    ),
    EndToEnd("op_p50_ms", "ms", "lower", 0.25,
             "median op latency over the faster half of the window's blocks"),
    EndToEnd("op_p95_ms", "ms", "lower", 0.25,
             "95th-percentile op latency over the faster half of the blocks"),
    EndToEnd(
        "commit_p50_ms", "ms", "lower", 0.25,
        "write_mix: median QuerySession.mutate latency including "
        "subscription notification; workloads without commits report "
        "op_p50_ms",
    ),
    EndToEnd(
        "commit_p95_ms", "ms", "lower", 0.25,
        "write_mix: 95th-percentile commit latency; workloads without "
        "commits report op_p95_ms",
    ),
    EndToEnd(
        "rss_peak_mb", "MB", "lower", 0.1,
        "peak resident memory of the process running the program (the "
        "server child on serve_read; in process, one set-up alive at a "
        "time)",
    ),
)


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    how: str
    moves: str


#: Reported by every workload with ``--trace 1``.  A layer a workload does
#: not reach reports 0.
LAYERS = (
    Layer("server.overhead_ms", "ms", "lower",
          "client round trip minus the response's seconds field (p50)",
          "op_p50_ms on serve_read"),
    Layer("server.admission_queued", "count", "lower",
          "/metrics admission queued_total delta over the window",
          "op_p95_ms on serve_read"),
    Layer("session.execute_ms", "ms", "lower",
          "QuerySession.execute total per op (p50); on serve_read the "
          "response's seconds field",
          "op_p50_ms on all XML-GL workloads"),
    Layer("xmlgl.dsl.parse_ms", "ms", "lower",
          "repro.xmlgl.dsl.parse_rule self time per op that parses (p50)",
          "op_p50_ms on write_mix"),
    Layer("analysis.rewrite.rewrite_ms", "ms", "lower",
          "repro.analysis.rewrite.rewrite_rule self time per op (p50)",
          "op_p50_ms on write_mix"),
    Layer("analysis.rewrite.fragments_removed", "count", "higher",
          "rewrite merged + pruned counters per op (mean)",
          "op_p50_ms on write_mix"),
    Layer("xmlgl.evaluator.compile_ms", "ms", "lower",
          "xmlgl_preflight + compile_graph self time per compiling op (p50)",
          "op_p50_ms on write_mix"),
    Layer("engine.plan_cache.hit_ratio", "1", "higher",
          "plan_cache_hits / (hits + misses) over all ops",
          "op_p50_ms on write_mix"),
    Layer("engine.plan_cache.evictions", "count", "lower",
          "PlanCache.stats() evictions delta over the traced pass",
          "op_p50_ms on write_mix"),
    Layer("engine.index.build_ms", "ms", "lower",
          "DocumentIndex(document) over the workload's documents (median "
          "of 3, summed over documents)",
          "setup_s on all XML-GL workloads"),
    Layer("xmlgl.matcher.match_ms", "ms", "lower",
          "repro.xmlgl.evaluator.rule_bindings self time per op (p50)",
          "op_p50_ms on serve_read and write_mix"),
    Layer("engine.candidates_tried", "count", "lower",
          "EvalStats.candidates_tried per op (mean)", "op_p50_ms on serve_read"),
    Layer("engine.edge_checks", "count", "lower",
          "EvalStats.edge_checks per op (mean)", "op_p50_ms on serve_read"),
    Layer("engine.relation_pairs", "count", "lower",
          "EvalStats.relation_pairs per op (mean)", "op_p50_ms on serve_read"),
    Layer("engine.hashjoin_rows", "count", "lower",
          "EvalStats.hashjoin_rows per op (mean)", "op_p50_ms on serve_read"),
    Layer("engine.semijoin_dropped", "count", "higher",
          "EvalStats.semijoin_dropped per op (mean)", "op_p50_ms on serve_read"),
    Layer("engine.bindings", "count", "lower",
          "EvalStats.bindings_produced per op (mean)", "op_p50_ms on serve_read"),
    Layer("engine.yield_ratio", "1", "higher",
          "bindings / (candidates + edge checks + relation pairs + hash-join "
          "rows) over all ops",
          "op_p50_ms on serve_read"),
    Layer("xmlgl.construct.build_ms", "ms", "lower",
          "repro.xmlgl.construct.build self time per op (p50)",
          "op_p50_ms on serve_read"),
    Layer("xmlgl.construct.result_nodes", "count", "lower",
          "result element size per op (mean)", "op_p50_ms on serve_read"),
    Layer("ssd.serializer.ms", "ms", "lower",
          "repro.ssd.serialize of the result root per op (p50)",
          "op_p50_ms on serve_read"),
    Layer("ssd.serializer.bytes", "B", "lower",
          "serialized result length per op (mean)", "op_p50_ms on serve_read"),
    Layer("engine.mutate.apply_ms", "ms", "lower",
          "repro.engine.mutate.apply_batch per commit, cached index "
          "maintained (p50)",
          "commit_p50_ms on write_mix"),
    Layer("engine.index.labels_per_commit", "count", "lower",
          "maintenance_counters labels assigned + removed + relabelled per "
          "commit (mean)",
          "commit_p95_ms on write_mix"),
    Layer("engine.index.relabels", "count", "lower",
          "maintenance_counters relabels delta", "commit_p95_ms on write_mix"),
    Layer("engine.index.dense_rebuilds", "count", "lower",
          "maintenance_counters dense_rebuilds delta",
          "commit_p95_ms on write_mix"),
    Layer("engine.index.stats_nodes", "count", "lower",
          "maintenance_counters stats_nodes per commit (mean)",
          "commit_p95_ms on write_mix"),
    Layer("engine.subscribe.notify_ms", "ms", "lower",
          "Subscription.notify total per commit, all subscriptions (p50)",
          "commit_p50_ms on write_mix"),
    Layer("engine.subscribe.skip_ratio", "1", "higher",
          "footprint skips / notifications", "commit_p50_ms on write_mix"),
    Layer("engine.subscribe.useful_ratio", "1", "higher",
          "non-empty deltas / re-evaluations", "commit_p50_ms on write_mix"),
    Layer("wglog.matcher.embeddings_ms", "ms", "lower",
          "repro.wglog.matcher.embeddings per op (p50)",
          "op_p50_ms on wglog_rules"),
    Layer("wglog.embeddings", "count", "lower",
          "embeddings found per op (mean)", "op_p50_ms on wglog_rules"),
    Layer("wglog.semantics.instantiate_ms", "ms", "lower",
          "apply_rule self time (apply_rule minus embeddings) per op (p50)",
          "op_p50_ms on wglog_rules"),
    Layer("wglog.rounds", "count", "lower",
          "fixpoint rounds per apply_program op (mean)",
          "op_p50_ms on wglog_rules"),
    Layer("wglog.derived", "count", "lower",
          "nodes + edges + slots added per op (mean)",
          "op_p50_ms on wglog_rules"),
    *(
        Layer(f"op.{shape}.p50_ms", "ms", "lower",
              "median latency of this shape's ops (untraced pass)",
              "op_p50_ms on the mixed workloads")
        for shape in (
            "q1_selection", "q2_conditions", "q3_join", "q4_deep",
            "q5_negation", "q6_aggregation", "q7_nest", "multibox",
            "wglog_sibling", "wglog_root", "wglog_closure",
        )
    ),
    Layer("engine.trace.overhead_ratio", "1", "lower",
          "ExecOptions(trace=True) vs off on the read mix, in process, "
          "interleaved (p50 ratio)",
          "op_p50_ms on serve_read (must stay near 1 when off)"),
    Layer("bench.trace_overhead_ratio", "1", "lower",
          "traced vs untraced op p50 of the same op sequence", "none"),
    Layer("unattributed_ms", "ms", "lower",
          "op time not covered by any layer span (p50)", "none"),
)

LAYER_BY_NAME = {layer.name: layer for layer in LAYERS}
