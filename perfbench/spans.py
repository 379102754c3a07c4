"""Spans recorded around calls into the program's layers.

A traced pass installs wrappers on public functions at the seams between
the program's modules -- the same technique the smoke bench's columnar
block uses -- and records one span per call: name, start, end, parent
span and op id.  Spans stay in memory and are written out when the run
ends.  A layer's self time is its span's duration minus its child spans'.

Wrapping resolves through module attributes at call time, which is how
the program itself looks these functions up (``from .dsl import
parse_rule`` inside a function body, module-global references in
``repro.xmlgl.evaluator`` and ``repro.wglog.semantics``).
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from .harness import median

#: (module, attribute path, span name).  One span name may cover several
#: seams: compilation is preflight + per-graph compilation.
SEAMS = (
    ("repro.session", "QuerySession.execute", "session.execute"),
    ("repro.xmlgl.dsl", "parse_rule", "xmlgl.dsl.parse"),
    ("repro.analysis.rewrite", "rewrite_rule", "analysis.rewrite.rewrite"),
    ("repro.analysis.preflight", "xmlgl_preflight", "xmlgl.evaluator.compile"),
    ("repro.xmlgl.evaluator", "compile_graph", "xmlgl.evaluator.compile"),
    ("repro.xmlgl.evaluator", "rule_bindings", "xmlgl.matcher.match"),
    ("repro.xmlgl.evaluator", "build", "xmlgl.construct.build"),
    ("repro.session", "apply_batch", "engine.mutate.apply"),
    ("repro.engine.subscribe", "Subscription.notify", "engine.subscribe.notify"),
    ("repro.wglog.semantics", "embeddings", "wglog.matcher.embeddings"),
    ("repro.wglog.semantics", "apply_rule", "wglog.semantics.apply_rule"),
    ("repro.wglog", "apply_rule", "wglog.semantics.apply_rule"),
    ("repro.wglog", "apply_program", "wglog.semantics.apply_program"),
)

#: Span name -> (per-layer metric, aggregate).  ``self`` takes each op's
#: summed self time, ``total`` its summed inclusive time; either way the
#: metric is the median over the ops in which the layer ran.
SPAN_METRICS = {
    "session.execute": ("session.execute_ms", "total"),
    "xmlgl.dsl.parse": ("xmlgl.dsl.parse_ms", "self"),
    "analysis.rewrite.rewrite": ("analysis.rewrite.rewrite_ms", "self"),
    "xmlgl.evaluator.compile": ("xmlgl.evaluator.compile_ms", "self"),
    "xmlgl.matcher.match": ("xmlgl.matcher.match_ms", "self"),
    "xmlgl.construct.build": ("xmlgl.construct.build_ms", "self"),
    "ssd.serializer": ("ssd.serializer.ms", "self"),
    "engine.mutate.apply": ("engine.mutate.apply_ms", "self"),
    "engine.subscribe.notify": ("engine.subscribe.notify_ms", "total"),
    "wglog.matcher.embeddings": ("wglog.matcher.embeddings_ms", "self"),
    "wglog.semantics.apply_rule": ("wglog.semantics.instantiate_ms", "self"),
}


class Recorder:
    """In-memory span store for one single-threaded traced pass.

    Spans live in parallel arrays rather than one object each, so a long
    traced pass does not grow the garbage collector's working set.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.ops = array("i")
        self.op_shapes: list[str] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(len(self.op_shapes) - 1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    @contextmanager
    def op(self, shape: str) -> Iterator[None]:
        """The root span of one op; layer spans inside it attach to it."""
        self.op_shapes.append(shape)
        with self.span("op"):
            yield

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    # -- analysis --------------------------------------------------------------

    def per_op(self) -> list[dict[str, Any]]:
        """Per op: duration, unattributed time, and per-layer self/total/calls."""
        count = len(self.names)
        durations = [self.ends[i] - self.starts[i] for i in range(count)]
        child_time = [0.0] * count
        for index in range(count):
            if self.parents[index] >= 0:
                child_time[self.parents[index]] += durations[index]
        ops = [
            {"shape": shape, "seconds": 0.0, "unattributed": 0.0,
             "self": {}, "total": {}, "calls": {}}
            for shape in self.op_shapes
        ]
        for index in range(count):
            if self.ops[index] < 0:
                continue
            entry = ops[self.ops[index]]
            own = durations[index] - child_time[index]
            name = self.names[index]
            if name == "op":
                entry["seconds"] = durations[index]
                entry["unattributed"] = own
                continue
            entry["self"][name] = entry["self"].get(name, 0.0) + own
            # inclusive time counts only outermost spans of a name
            if not self._nested_in_same(index):
                entry["total"][name] = entry["total"].get(name, 0.0) + durations[index]
            entry["calls"][name] = entry["calls"].get(name, 0) + 1
        return ops

    def _nested_in_same(self, index: int) -> bool:
        name = self.names[index]
        parent = self.parents[index]
        while parent >= 0:
            if self.names[parent] == name:
                return True
            parent = self.parents[parent]
        return False

    def export(self) -> list[dict[str, Any]]:
        """The spans as plain dicts, times in seconds from the first span."""
        origin = self.starts[0] if self.names else 0.0
        return [
            {
                "id": index,
                "name": name,
                "start": self.starts[index] - origin,
                "end": self.ends[index] - origin,
                "parent": self.parents[index],
                "op": self.ops[index],
                "shape": self.op_shapes[self.ops[index]]
                if self.ops[index] >= 0 else None,
            }
            for index, name in enumerate(self.names)
        ]


def _resolve(module_name: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


@contextmanager
def installed(recorder: Recorder) -> Iterator[Recorder]:
    """Wrap every seam for the duration of the ``with`` body."""
    originals = []
    try:
        for module_name, path, name in SEAMS:
            owner, attribute = _resolve(module_name, path)
            original = getattr(owner, attribute)
            originals.append((owner, attribute, original))
            setattr(owner, attribute, recorder.wrap(original, name))
        yield recorder
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


def span_layer_values(ops: list[dict[str, Any]]) -> dict[str, float]:
    """Per-layer metrics derived from spans (ms), plus ``unattributed_ms``."""
    values: dict[str, float] = {}
    for span_name, (metric, aggregate) in SPAN_METRICS.items():
        samples = [op[aggregate][span_name] for op in ops if span_name in op[aggregate]]
        values[metric] = median(samples) * 1000
    values["unattributed_ms"] = median(op["unattributed"] for op in ops) * 1000
    return values


def span_table(ops: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """One row per span name: how often it ran and where the time went."""
    names = sorted({name for op in ops for name in op["calls"]})
    op_total = sum(op["seconds"] for op in ops) or 1.0
    rows = []
    for name in names:
        present = [op for op in ops if name in op["calls"]]
        self_total = sum(op["self"][name] for op in present)
        rows.append({
            "span": name,
            "ops_with": len(present),
            "calls_per_op": sum(op["calls"][name] for op in present) / len(ops),
            "self_p50_ms": median(op["self"][name] for op in present) * 1000,
            "total_p50_ms": median(op["total"][name] for op in present) * 1000,
            "share_of_op_time": self_total / op_total,
        })
    unattributed = sum(op["unattributed"] for op in ops)
    rows.append({
        "span": "(unattributed)",
        "ops_with": len(ops),
        "calls_per_op": 1.0,
        "self_p50_ms": median(op["unattributed"] for op in ops) * 1000,
        "total_p50_ms": median(op["unattributed"] for op in ops) * 1000,
        "share_of_op_time": unattributed / op_total,
    })
    return rows
