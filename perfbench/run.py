"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve_read --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: the same seed and op sequence,
with spans recorded around the program's layers; it prints the per-layer
table and reports every per-layer metric.  Either way the last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.

Every run also writes ``.perfbench_out/<workload>-seed<N>-trace<T>.json``
(the result with its sizes, environment and checks) and, when traced, the
spans file and the table next to it.  ``perfbench/compare.py`` compares
saved results.  The exit status is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCES = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Every workload, as ``BENCHMARK.json`` lists them.
WORKLOADS = ("serve_read", "write_mix", "wglog_rules")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _table(outcome, workload: str) -> str:
    from perfbench.metrics import LAYER_BY_NAME

    lines = [f"per-layer table: {workload}", ""]
    lines.append(f"{'metric':40} {'value':>14} {'unit':6} should move")
    for name, value in outcome.metrics.items():
        layer = LAYER_BY_NAME[name]
        lines.append(f"{name:40} {value:14.4f} {layer.unit:6} {layer.moves}")
    lines += ["", f"{'span':32} {'ops':>6} {'calls/op':>9} {'self p50':>10}"
                  f" {'total p50':>10} {'share':>7}"]
    for row in outcome.layer_rows:
        lines.append(
            f"{row['span']:32} {row['ops_with']:6d} {row['calls_per_op']:9.2f}"
            f" {row['self_p50_ms']:9.3f}ms {row['total_p50_ms']:9.3f}ms"
            f" {row['share_of_op_time']:7.1%}"
        )
    return "\n".join(lines)


def _write(name: str, text: str) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as handle:
        handle.write(text)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SOURCES, "repro")):
        print(
            "perfbench: the program's sources (src/repro) are missing; run "
            "from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    if SOURCES not in sys.path:
        sys.path.insert(0, SOURCES)
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    import importlib

    from perfbench import harness
    from perfbench.metrics import END_TO_END, LAYERS

    module = importlib.import_module(f"perfbench.{args.workload}")
    outcome = module.run(args.seed, args.seconds, bool(args.trace))
    expected = [m.name for m in (LAYERS if args.trace else END_TO_END)]
    units = {m.name: m.unit for m in (*END_TO_END, *LAYERS)}
    assert list(outcome.metrics) == expected, "metric set drifted"

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in outcome.metrics.items()
        },
    }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": harness.environment(args.seed),
        "sizes": outcome.sizes,
        "checks": outcome.checks,
        "notes": outcome.notes,
        "result": result,
    }
    _write(f"{stem}.json", json.dumps(record, indent=2, sort_keys=True) + "\n")
    if args.trace:
        table = _table(outcome, args.workload)
        _write(f"{stem}.layers.txt", table + "\n")
        _write(f"{stem}.spans.json", json.dumps(outcome.spans) + "\n")
        print(table)
    for note in outcome.notes:
        print(f"perfbench: {note}", file=sys.stderr)
    rank = outcome.checks.get("rank", {})
    if rank.get("status") == "boundary":
        print(f"perfbench: percentile on a shape boundary: {rank}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
