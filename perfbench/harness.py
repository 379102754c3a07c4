"""Measurement helpers shared by the workloads.

Timings are taken with :func:`time.perf_counter`; percentiles use
:func:`statistics.quantiles` (inclusive method).  Garbage is collected
before every timed window, but the collector is never disabled: users
pay for it.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, NamedTuple, Optional

from .metrics import END_TO_END, LAYERS


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values: Iterable[float], q: int) -> float:
    """The ``q``-th percentile (1..99); the sole value for one sample."""
    values = list(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Op(NamedTuple):
    """One timed operation of a window.

    ``ended`` is when it completed, in seconds of window time.  A tuple of
    atoms, which the garbage collector stops tracking, so a window's
    records do not lengthen the program's full collections.
    """

    shape: str
    seconds: float
    ended: float


class Window:
    """A closed-loop measurement window of a fixed length.

    Time spent on output checks inside the window is :meth:`exclude`-d,
    so checks slow neither throughput nor latency.
    """

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.started = 0.0
        self._excluded = 0.0

    def start(self) -> None:
        gc.collect()
        self.started = time.perf_counter()

    def now(self) -> float:
        """Window time: seconds since the start, excluded time left out."""
        return time.perf_counter() - self.started - self._excluded

    def expired(self) -> bool:
        return self.now() >= self.seconds

    def exclude(self, seconds: float) -> None:
        self._excluded += seconds

    def stop(self) -> float:
        return self.now()


#: Length of the blocks a window is cut into to find the host's fast phases.
BLOCK_S = 2.0


def fast_blocks(ops: list[Op], window_s: float) -> tuple[set[int], dict[str, Any]]:
    """The faster half of the window's blocks, and a summary of all blocks.

    The window is cut into blocks of about :data:`BLOCK_S` seconds, and
    each op belongs to the block in which it ended.  A block's pace is
    the median, over its ops, of each op's latency relative to its
    shape's median over the whole window: a block that holds more of a
    slow shape does not look slower, and the program's own rare slow ops
    (a full collection, a relabel) do not decide which blocks are kept.
    The shared host this benchmark runs on changes speed by up to 1.5x
    within seconds, while a program's own speed does not; the end-to-end
    timings are taken over the faster half of the blocks, which follows
    the program and not the host's slow phases.
    """
    count = max(1, int(window_s // BLOCK_S))
    length = window_s / count
    typical = {shape: value / 1000 for shape, value in shape_medians(ops).items()}
    relative: list[list[float]] = [[] for _ in range(count)]
    for op in ops:
        relative[block_of(op, length, count)].append(op.seconds / typical[op.shape])
    pace = [median(values) if values else float("inf") for values in relative]
    ranked = sorted(range(count), key=pace.__getitem__)
    kept = set(ranked[: (count + 1) // 2])
    finite = sorted(value for value in pace if value != float("inf"))
    summary = {
        "blocks": count,
        "kept": len(kept),
        "block_s": length,
        "pace_min_median_max": [finite[0], median(finite), finite[-1]],
    }
    return kept, summary


def block_of(op: Op, length: float, count: int) -> int:
    return min(count - 1, max(0, int(op.ended // length)))


def timed(fn: Callable[[], Any]) -> tuple[Any, float]:
    started = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - started


def repeated_setup(
    times: int, setup: Callable[[], Any], teardown: Callable[[Any], None]
) -> tuple[Any, list[float]]:
    """Run ``setup`` ``times`` times; keep the last, return every duration.

    Every earlier result is torn down and dropped before the next set-up
    starts, so no two set-ups are alive at once.
    """
    durations = []
    state = None
    for _ in range(times):
        if state is not None:
            teardown(state)
            state = None
        gc.collect()
        state, seconds = timed(setup)
        durations.append(seconds)
    return state, durations


def setups_after(
    times: int, setup: Callable[[], Any], teardown: Callable[[Any], None]
) -> list[float]:
    """Durations of ``times`` more set-ups, run after the window.

    ``setup_s`` is the median over the set-ups before the window and
    these: the host's speed changes from one half-minute to the next, and
    set-ups on both sides of the window sample two of its phases.
    """
    state, durations = repeated_setup(times, setup, teardown)
    if state is not None:
        teardown(state)
    return durations


def index_build_ms(xml: str) -> float:
    """Median of three ``DocumentIndex`` builds over the parsed document."""
    from repro.engine.index import DocumentIndex
    from repro.ssd import parse_document

    document = parse_document(xml)
    return median(timed(lambda: DocumentIndex(document))[1] for _ in range(3)) * 1000


def rss_self_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_children_mb() -> float:
    """Largest peak resident set among waited-for child processes."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def environment(seed: int) -> dict[str, Any]:
    """What a result must record to be comparable with another."""
    from repro.engine import columns

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "columns_backend": columns.backend(),
        "REPRO_COLUMNS": os.environ.get("REPRO_COLUMNS", ""),
    }


def rank_check(ops: list[Op], name: str) -> dict[str, Any]:
    """Do the p50 and p95 ranks sit inside one shape's cluster?

    A mixed workload's percentile is unstable when its rank falls on the
    step between two shapes' latency clusters: a small change in the mix
    then moves it from one cluster to the other.  For each percentile
    this takes the 1% of ranks just below and just above it: ``boundary``
    is flagged when the most common shape differs between the two sides
    and their latencies differ by more than 15%.
    """
    ordered = sorted(ops, key=lambda op: op.seconds)
    report: dict[str, Any] = {
        "mix": name,
        "samples": len(ordered),
        "shape_p50_ms": shape_medians(ops),
    }
    if len(ordered) < 20:
        report["status"] = "too few samples"
        return report
    span = max(2, len(ordered) // 100)
    flagged = False
    for q in (50, 95):
        rank = min(len(ordered) - 2, int(round(q / 100 * (len(ordered) - 1))))
        below = ordered[max(0, rank - span):rank + 1]
        above = ordered[rank + 1:rank + 1 + span]
        step = ratio(above[-1].seconds - below[0].seconds, ordered[rank].seconds)
        sides = [statistics.mode(op.shape for op in side) for side in (below, above)]
        boundary = step > 0.15 and sides[0] != sides[1]
        flagged = flagged or boundary
        report[f"p{q}"] = {"shapes": sides, "step": round(step, 4), "boundary": boundary}
    report["status"] = "boundary" if flagged else "ok"
    return report


def shape_medians(ops: list[Op]) -> dict[str, float]:
    """Median latency (ms) per shape."""
    by_shape: dict[str, list[float]] = {}
    for op in ops:
        by_shape.setdefault(op.shape, []).append(op.seconds)
    return {shape: median(values) * 1000 for shape, values in by_shape.items()}


@dataclass
class Outcome:
    """What one workload run hands back to :mod:`run`."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    sizes: dict[str, Any] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    checks: dict[str, Any] = field(default_factory=dict)
    layer_rows: list[dict[str, Any]] = field(default_factory=list)
    spans: list[dict[str, Any]] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(message)


def end_to_end(
    *,
    setup_s: float,
    window_s: float,
    ops: list[Op],
    commits: Optional[list[Op]] = None,
    rss_mb: float,
    checks: dict[str, Any],
) -> dict[str, float]:
    """The ``--trace 0`` metrics.  Without commits, commit_* mirror op_*.

    Throughput and latencies are taken over the blocks
    :func:`fast_blocks` keeps; ``checks["blocks"]`` records them.
    """
    commits = commits or []
    kept, checks["blocks"] = fast_blocks(ops + commits, window_s)
    count, length = checks["blocks"]["blocks"], checks["blocks"]["block_s"]
    ops = [op for op in ops if block_of(op, length, count) in kept]
    commits = [op for op in commits if block_of(op, length, count) in kept]
    checks["blocks"]["samples"] = {"ops": len(ops), "commits": len(commits)}
    latencies = [op.seconds for op in ops]
    commit_latencies = [op.seconds for op in commits] if commits else latencies
    values = {
        "setup_s": setup_s,
        "ops_per_s": ratio(len(ops) + len(commits), len(kept) * length),
        "op_p50_ms": median(latencies) * 1000,
        "op_p95_ms": percentile(latencies, 95) * 1000,
        "commit_p50_ms": median(commit_latencies) * 1000,
        "commit_p95_ms": percentile(commit_latencies, 95) * 1000,
        "rss_peak_mb": rss_mb,
    }
    assert set(values) == {metric.name for metric in END_TO_END}
    return values


def layer_metrics(values: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric; layers the workload does not reach are 0."""
    unknown = set(values) - {layer.name for layer in LAYERS}
    if unknown:
        raise KeyError(f"unknown per-layer metrics: {sorted(unknown)}")
    return {layer.name: float(values.get(layer.name, 0.0)) for layer in LAYERS}


_ENGINE_COUNTERS = {
    "engine.candidates_tried": "candidates_tried",
    "engine.edge_checks": "edge_checks",
    "engine.relation_pairs": "relation_pairs",
    "engine.hashjoin_rows": "hashjoin_rows",
    "engine.semijoin_dropped": "semijoin_dropped",
    "engine.bindings": "bindings_produced",
}


def engine_counter_metrics(stats: list[Any]) -> dict[str, float]:
    """Per-op means of the named ``EvalStats`` counters, and their ratios.

    Counts come from the counters themselves, never from a derived
    ``work`` figure.
    """
    values = {
        metric: mean(getattr(s, attribute) for s in stats)
        for metric, attribute in _ENGINE_COUNTERS.items()
    }
    attempts = sum(
        s.candidates_tried + s.edge_checks + s.relation_pairs + s.hashjoin_rows
        for s in stats
    )
    values["engine.yield_ratio"] = ratio(
        sum(s.bindings_produced for s in stats), attempts
    )
    hits = sum(s.plan_cache_hits for s in stats)
    values["engine.plan_cache.hit_ratio"] = ratio(
        hits, hits + sum(s.plan_cache_misses for s in stats)
    )
    values["analysis.rewrite.fragments_removed"] = mean(
        s.extra.get("rewrite_merged", 0) + s.extra.get("rewrite_pruned", 0)
        for s in stats
    )
    return values


def op_shape_metrics(ops: list[Op]) -> dict[str, float]:
    """``op.<shape>.p50_ms`` for every shape present."""
    return {
        f"op.{shape}.p50_ms": value for shape, value in shape_medians(ops).items()
    }
