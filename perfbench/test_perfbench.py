"""Tests of the benchmark's own code: tiny passes of every workload.

Run with ``python -m pytest perfbench -q`` from the root of a checkout.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading

import pytest
from repro.engine.mutate import apply_batch
from repro.ssd import parse_document

from perfbench import catalog, compare, harness, metrics, run, serve_read, wglog_rules, write_mix

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tiny_closure() -> dict[str, int]:
    """Closure size and depth of the first candidate graph for seed 1."""
    instance = catalog.build_instance(catalog.site_spec(12, 1 * 2000, 1.5))
    return {
        "closure_pages": 12,
        "closure_reach": len(catalog.reach_pairs(instance)),
        "closure_depth": catalog.link_depth(instance),
    }


TINY = {
    "serve_read": (serve_read, {
        "bib_entries": 30, "sections_depth": 4, "naive_bib_entries": 12,
        "naive_sections_depth": 3, "setups": 1, "schedule_ops": 200,
        "replay_ops": 20,
    }),
    "write_mix": (write_mix, {
        "bib_entries": 20, "setups": 1, "checkpoint_every": 10,
        "traced_commits": 20,
    }),
    "wglog_rules": (wglog_rules, {
        "sibling_pages": 30, "root_pages": 20, "setups": 1,
        "idempotence_every": 1, "traced_ops": 6, **_tiny_closure(),
    }),
}


def test_benchmark_json_matches_the_metric_definitions():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec["command"] == ["python3", "perfbench/run.py"]
    gated = [w["name"] for w in spec["workloads"]]
    assert gated == list(run.WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.LAYERS
    ]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200


def test_read_schedule_working_set_fits_the_plan_cache():
    schedule = catalog.read_schedule(3, 500)
    assert len(catalog.distinct_reads(schedule)) == 12
    assert catalog.read_schedule(3, 500) == schedule
    assert {op.shape for op in schedule} == set(catalog.READ_SHAPES)


def test_edit_script_keeps_the_document_bounded():
    document = parse_document(catalog.bib_xml(60, 2))
    script = catalog.EditScript(2, document)
    start = document.size()
    for _ in range(1000):
        _kind, batch = script.next_batch(document)
        apply_batch(document, batch)
        assert abs(document.size() - start) <= 0.1 * start
    structural = sum(
        script.counts[kind] for kind in ("insert_entry", "insert_note", "delete")
    )
    assert structural / 1000 >= 0.6


def test_server_killed_mid_window_counts_failures():
    sizes = {**serve_read.SIZES, **TINY["serve_read"][1]}
    documents = {
        "bib": catalog.bib_xml(sizes["bib_entries"], 1),
        "sections": catalog.sections_xml(sizes["sections_depth"], 1),
    }
    schedule = catalog.read_schedule(1, 100)
    reads = catalog.distinct_reads(schedule)
    outcome = harness.Outcome()
    expected = serve_read.references(1, sizes, documents, reads, outcome)
    server = serve_read._start(documents, schedule, 2)
    killer = threading.Timer(0.3, server.process.kill)
    try:
        killer.start()
        records, _elapsed = serve_read._http_window(
            server, schedule, 2, 1.0, expected, outcome
        )
    finally:
        killer.cancel()
        server.stop()
    assert outcome.failed >= 1
    assert outcome.attempted == len(records)
    assert any("request failed" in note for note in outcome.notes)


def test_fast_blocks_keep_the_faster_half():
    """Blocks the host slowed are dropped; one slow op does not drop its block."""
    ops = []
    for block in range(6):
        factor = 2.0 if block % 2 else 1.0
        for i in range(10):
            shape, base = ("cheap", 0.01) if i % 2 else ("dear", 0.05)
            ops.append(harness.Op(shape, base * factor, block * 2.0 + 0.1 * (i + 1)))
    ops.append(harness.Op("cheap", 1.0, 0.05))
    kept, summary = harness.fast_blocks(ops, 12.0)
    assert kept == {0, 2, 4}
    assert (summary["blocks"], summary["kept"]) == (6, 3)
    values = harness.end_to_end(
        setup_s=1.0, window_s=12.0, ops=ops, rss_mb=1.0, checks={}
    )
    assert values["ops_per_s"] == pytest.approx(31 / 6.0)
    assert values["op_p50_ms"] == pytest.approx(50.0)


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_pass(name, trace):
    module, sizes = TINY[name]
    outcome = module.run(1, 0.3, trace, sizes=sizes)
    assert outcome.failed == 0, outcome.notes
    assert outcome.attempted > 0
    expected = metrics.LAYERS if trace else metrics.END_TO_END
    assert list(outcome.metrics) == [m.name for m in expected]
    if trace:
        assert outcome.spans and outcome.layer_rows
        assert outcome.layer_rows[-1]["span"] == "(unattributed)"
    else:
        assert all(value > 0 for value in outcome.metrics.values())


@pytest.mark.parametrize("name", list(TINY))
def test_corrupted_reference_is_caught(name):
    module, sizes = TINY[name]
    outcome = module.run(1, 0.3, False, sizes=sizes, corrupt=True)
    assert outcome.failed >= 1


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wglog_rules",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_compare_refuses_different_backends():
    record = {
        "workload": "wglog_rules",
        "environment": {"columns_backend": "numpy", "REPRO_COLUMNS": ""},
        "result": {"metrics": {"op_p50_ms": {"value": 1.0, "unit": "ms"}}},
    }
    other = {**record, "environment": {"columns_backend": "python", "REPRO_COLUMNS": "python"}}
    assert compare.backend_mismatch([record, record]) == []
    assert len(compare.backend_mismatch([record, other])) == 2
    assert any("+0.0%" in line for line in compare.compare([record], [record]))
