"""Smoke test for the benchmark runner (tiny sizes, one repeat)."""

import json

from repro.bench_smoke import (
    QUERIES,
    check_adaptive,
    check_baseline,
    main,
    measure_plan_cache,
    run_suite,
)


def test_run_suite_shape_and_agreement():
    report = run_suite(bib_entries=30, sections_depth=4, repeat=1)
    assert set(report["queries"]) == {name for name, *_ in QUERIES}
    for entry in report["queries"].values():
        assert entry["indexed"]["bindings"] == entry["naive"]["bindings"]
        assert entry["pipeline"]["bindings"] == entry["indexed"]["bindings"]
        assert entry["adaptive"]["bindings"] == entry["indexed"]["bindings"]
        assert entry["work_ratio"] >= 1.0
        assert entry["indexed"]["seconds"] > 0
        assert entry["pipeline"]["seconds"] > 0
        assert entry["adaptive"]["seconds"] > 0
        assert entry["adaptive_overhead"] > 0
    assert "scaling" not in report  # off unless workers > 1


def test_descendant_heavy_work_reduction():
    report = run_suite(bib_entries=30, sections_depth=4, repeat=1)
    heavy = [e for e in report["queries"].values() if e["descendant_heavy"]]
    assert heavy
    for entry in heavy:
        assert entry["work_ratio"] >= 2.0


def test_join_heavy_pipeline_work_reduction():
    report = run_suite(bib_entries=30, sections_depth=4, repeat=1)
    joins = [e for e in report["queries"].values() if e["join_heavy"]]
    assert joins
    for entry in joins:
        # the semi-join plan replaces per-candidate search with wholesale
        # set operations; its residual work is a fraction of backtracking's
        assert entry["pipeline_work_ratio"] <= 0.5


def test_check_baseline_flags_only_regressions():
    report = run_suite(bib_entries=20, sections_depth=4, repeat=1)
    assert check_baseline(report, report) == []
    worse = json.loads(json.dumps(report))
    name = next(iter(worse["queries"]))
    worse["queries"][name]["indexed"]["work"] *= 10
    warnings = check_baseline(worse, report)
    assert len(warnings) == 1
    assert name in warnings[0]
    # missing queries in either report never trip the check
    del worse["queries"][name]
    assert check_baseline(worse, report) == []


def test_main_writes_json(tmp_path, capsys):
    out = tmp_path / "bench.json"
    # best-of-3 timing: the adaptive gate compares wall times, and a
    # single-sample run of microsecond queries can flake on one
    # scheduler hiccup
    args = [
        "-o", str(out),
        "--bib-entries", "20",
        "--sections-depth", "4",
        "--repeat", "3",
    ]
    assert main(args) == 0
    report = json.loads(out.read_text())
    assert report["schema_version"] == 3
    assert "history" not in report
    out_text = capsys.readouterr().out
    assert "worst work ratio" in out_text
    assert "worst pipeline speedup" in out_text

    # a second run with --append-history and --baseline carries history
    # forward and reports no regressions against itself
    assert main(args + ["--baseline", str(out), "--append-history"]) == 0
    report2 = json.loads(out.read_text())
    assert len(report2["history"]) == 1
    assert "timestamp" in report2["history"][0]
    assert "no work regressions" in capsys.readouterr().out
    assert main(args + ["--baseline", str(out), "--append-history"]) == 0
    report3 = json.loads(out.read_text())
    assert len(report3["history"]) == 2


def test_check_adaptive_flags_only_real_violations():
    report = run_suite(bib_entries=20, sections_depth=4, repeat=1)
    # the gate is count-stable: fabricate a clear violation and a clear pass.
    # Pin every query to parity first — a repeat=1 report carries real timing
    # noise, and a genuine borderline violation would skew the counts.
    rigged = json.loads(json.dumps(report))
    for noisy in rigged["queries"].values():
        noisy["adaptive"]["seconds"] = min(
            noisy["pipeline"]["seconds"], noisy["indexed"]["seconds"]
        )
    assert check_adaptive(rigged) == []
    name = next(iter(rigged["queries"]))
    entry = rigged["queries"][name]
    best = min(entry["pipeline"]["seconds"], entry["indexed"]["seconds"])
    entry["adaptive"]["seconds"] = best * 10 + 1.0
    violations = check_adaptive(rigged)
    assert len(violations) == 1
    assert name in violations[0]
    entry["adaptive"]["seconds"] = best  # at parity: never a violation
    assert check_adaptive(rigged) == []
    # missing adaptive column (old reports) never trips the gate
    del entry["adaptive"]
    assert check_adaptive(rigged) == []


def test_plan_cache_block_asserts_counters():
    block = measure_plan_cache(repeat=2, bib_entries=20)
    assert block["query"] == "fig_q3/join"
    assert block["cold_seconds"] > 0
    assert block["warm_seconds"] > 0
    assert block["speedup"] > 0


def test_rewrite_block_asserts_shrink_and_work_ratio():
    from repro.bench_smoke import measure_rewrite
    from repro.workloads import nested_sections

    block = measure_rewrite(
        nested_sections(depth=4, fanout=2, seed=0), repeat=1
    )
    assert block["query"] == "rewrite/redundant"
    assert block["fragments_removed"] >= 1
    assert block["results_identical"] is True
    # the acceptance bar: evaluating the drawing verbatim must cost more
    # than twice the rewritten rule's work
    assert block["work_ratio"] > 2.0
    assert block["rewrites"] == "merged=1 pruned=1 dropped=1"


def test_report_carries_rewrite_block():
    report = run_suite(bib_entries=20, sections_depth=4, repeat=1)
    assert report["rewrite"]["work_ratio"] > 2.0


def test_report_carries_tracing_guard_block():
    report = run_suite(bib_entries=20, sections_depth=4, repeat=1)
    tracing = report["tracing"]
    assert tracing["query"] == "fig_q3/join"
    assert tracing["counters_identical"] is True
    assert tracing["bindings"] > 0
    assert tracing["disabled_seconds"] > 0
    assert tracing["traced_seconds"] > 0
    assert tracing["overhead_ratio"] > 0


def test_tracing_guard_fails_hard_when_counters_diverge(monkeypatch):
    from repro import bench_smoke
    from repro.engine.index import DocumentIndex
    from repro.engine.stats import EvalStats
    from repro.workloads import bibliography
    from repro.xmlgl.dsl import parse_rule

    graph = parse_rule(
        "query { book as B { title as T } } construct { r { collect T } }"
    ).queries[0]
    document = bibliography(10, seed=0)
    index = DocumentIndex(document)

    real_match = bench_smoke.match

    def skewed_match(graph, document, options=None, index=None, stats=None):
        result = real_match(
            graph, document, options=options, index=index, stats=stats
        )
        if options is not None and options.trace and stats is not None:
            stats.candidates_tried += 1  # tracing "steering" the engine
        return result

    monkeypatch.setattr(bench_smoke, "match", skewed_match)
    import pytest

    with pytest.raises(AssertionError, match="work counters"):
        bench_smoke.measure_tracing_overhead(graph, document, index, repeat=1)


def test_incremental_block_work_ratio_and_oracle():
    from repro.bench_smoke import measure_incremental

    block = measure_incremental(bib_entries=20, edits=150)
    assert block["edits"] == 150
    assert block["rows_match_scratch"] is True
    assert block["evals"] + block["skips"] == block["edits"] + 1
    assert block["skips"] > 0  # footprint filter provably pruned work
    assert block["incremental_work"] > 0
    assert block["rebuild_work"] > block["incremental_work"]
    # the acceptance bar: gap-label maintenance must beat rebuild-per-edit
    # by a wide margin even on a tiny document
    assert block["work_ratio"] >= 5.0
    assert block["maintenance_counters"]["dense_rebuilds"] == 0


def test_report_carries_incremental_block():
    report = run_suite(bib_entries=20, sections_depth=4, repeat=1)
    block = report["incremental"]
    assert block["edits"] == 200  # 10 * bib_entries, capped at 1000
    assert block["work_ratio"] >= 5.0
    assert block["rows_match_scratch"] is True


def test_scaling_block_and_gates(tmp_path, capsys):
    from repro.bench_smoke import measure_scaling

    block = measure_scaling(workers=2, corpus_documents=4, bib_entries=10)
    assert block["results_identical"] is True
    assert block["workers"] == 2 and block["corpus_documents"] == 4
    assert block["single_seconds"] > 0 and block["sharded_seconds"] > 0
    assert len(block["shard_seconds"]) <= 2
    assert block["merge_seconds"] >= 0
    # an impossible scaling floor must fail the run via --gate-scaling
    out = tmp_path / "bench.json"
    args = [
        "-o", str(out),
        "--bib-entries", "20",
        "--sections-depth", "4",
        "--repeat", "3",
    ]
    assert main(args + ["--gate-scaling", "1000"]) == 1
    assert "--gate-scaling given but --workers not set" in capsys.readouterr().out
    assert main(args + ["--gate-incremental", "1000000"]) == 1
    assert "incremental maintenance work ratio" in capsys.readouterr().out
    assert main(args + ["--gate-incremental", "5.0"]) == 0
