"""Compare saved benchmark results of two commits.

Usage, from the root of a checkout::

    python3 perfbench/compare.py BASE.json [BASE.json ...] --against NEW.json [...]

Each file is one ``.perfbench_out/*.json`` record written by ``run.py``.
Results are grouped by workload; per metric the script prints both
medians, the change, and each side's spread (interquartile range over
median).  Results measured with different column-kernel backends are not
comparable: the script refuses them and exits 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Any

#: Environment keys that must agree between every compared result.
_MUST_MATCH = ("columns_backend", "REPRO_COLUMNS")


def load(paths: list[str]) -> list[dict[str, Any]]:
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    return records


def backend_mismatch(records: list[dict[str, Any]]) -> list[str]:
    """Descriptions of environment keys that differ across ``records``."""
    problems = []
    for key in _MUST_MATCH:
        seen = {record["environment"].get(key) for record in records}
        if len(seen) > 1:
            problems.append(f"{key} differs: {sorted(map(str, seen))}")
    return problems


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / middle if middle else 0.0


def compare(base: list[dict[str, Any]], new: list[dict[str, Any]]) -> list[str]:
    lines = []
    workloads = sorted({r["workload"] for r in base} | {r["workload"] for r in new})
    for workload in workloads:
        sides = [
            [r for r in records if r["workload"] == workload]
            for records in (base, new)
        ]
        if not all(sides):
            lines.append(f"{workload}: only on one side, skipped")
            continue
        lines.append(f"{workload} ({len(sides[0])} vs {len(sides[1])} runs)")
        names = sides[0][0]["result"]["metrics"]
        for name, entry in names.items():
            values = [
                [r["result"]["metrics"][name]["value"] for r in side
                 if name in r["result"]["metrics"]]
                for side in sides
            ]
            before, after = (statistics.median(v) for v in values)
            change = (after - before) / before if before else 0.0
            lines.append(
                f"  {name:36} {before:12.4f} -> {after:12.4f} {entry['unit']:6}"
                f" {change:+8.1%}  spread {spread(values[0]):.3f} / "
                f"{spread(values[1]):.3f}"
            )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/compare.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument("base", nargs="+")
    parser.add_argument("--against", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.against)
    problems = backend_mismatch(base + new)
    if problems:
        for problem in problems:
            print(f"refusing to compare: {problem}", file=sys.stderr)
        return 2
    print("\n".join(compare(base, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
