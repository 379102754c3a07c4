"""Span-based evaluation tracing.

Every engine stage — parse, pre-flight, index lookup, fragment planning,
semi-join reduction, hash-join assembly, construction — can record what it
did and how long it took as a tree of :class:`Span` objects collected by a
:class:`Tracer`.  Tracing is **opt-in and pay-for-use**: the tracer rides
on :attr:`repro.engine.stats.EvalStats.trace` (``None`` by default), and
every instrumentation site guards on that attribute, so a disabled trace
costs one attribute read and an ``is None`` test per *stage*, never per
candidate.  Enable it with ``ExecOptions(trace=True)`` or by attaching a
tracer yourself::

    stats = EvalStats()
    stats.trace = Tracer()
    match(graph, document, options=options, index=index, stats=stats)
    print(stats.trace.render_text())

Span names and their attributes are part of the public observability
contract (documented in DESIGN.md § Observability); :mod:`repro.explain`
turns the recorded tree into the ``EXPLAIN`` report, and tests may rely on
the names staying stable:

========================  ===================================================
span / event              recorded by
========================  ===================================================
``parse``                 session / CLI / explain — DSL text to Rule
``plan.cache.hit``        event: :func:`repro.xmlgl.evaluator.lookup_or_compile`
                          served a compiled plan (attr ``key``)
``plan.cache.miss``       event: plan-cache lookup missed (attr ``key``)
``plan.cache.compile``    :func:`repro.xmlgl.evaluator.lookup_or_compile`
                          compiling the plan after a miss (attr ``key``)
``preflight``             :func:`repro.xmlgl.evaluator.rule_bindings`
                          (attr ``cached`` when served from a compiled plan)
``index.lookup``          :meth:`repro.engine.cache.DocumentIndexCache.get`
                          (attr ``outcome``: hit / built / raced)
``match``                 evaluator / WG-Log ``embeddings`` (attr ``engine``)
``match.fragment``        per connected query fragment (attrs ``variables``,
                          ``decision``: pipeline / fallback, ``reason``
                          on fallbacks, ``rows``)
``fragment.pools``        XML-GL pool construction (attr ``sizes``)
``fragment.relations``    edge-relation build (attr ``pairs``)
``plan``                  :func:`repro.engine.pipeline.evaluate_forest`
                          (attrs ``order``, ``forest``)
``reduce``                semi-join reduction; ``semijoin`` events carry
                          ``var``, ``before``, ``after``, ``direction``
``assemble``              hash-join assembly (attr ``rows``)
``construct``             :func:`repro.xmlgl.evaluator.evaluate_rule`
========================  ===================================================
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

__all__ = ["Span", "Tracer", "span"]

#: Test-only fault-injection hook (:mod:`repro.engine.faults`).  When set,
#: it is called with each span *name* as the stage opens — exactly once per
#: site, whether or not a tracer is attached: :func:`span` fires it only on
#: the no-tracer path, :meth:`Tracer.span` always.  ``None`` in production;
#: the guard is one global read per stage, never per candidate.
_SITE_HOOK: Optional[Callable[[str], None]] = None


class Span:
    """One traced stage: a name, a duration, attributes and child spans.

    Attribute assignment is dict-style (``span["rows"] = 10``) so call
    sites can attach facts discovered mid-stage.  Instantaneous *events*
    (semi-join passes) are zero-duration child spans.
    """

    __slots__ = ("name", "start", "end", "attributes", "children")

    def __init__(self, name: str, start: float, **attributes: Any) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.attributes: dict[str, Any] = dict(attributes)
        self.children: list[Span] = []

    def __setitem__(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def __getitem__(self, key: str) -> Any:
        return self.attributes[key]

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def find(self, name: str) -> list["Span"]:
        """All descendant spans (self included) with the given name."""
        found = [self] if self.name == name else []
        for child in self.children:
            found.extend(child.find(name))
        return found

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready view (durations in seconds, children recursive)."""
        return {
            "name": self.name,
            "seconds": round(self.seconds, 9),
            "attributes": dict(self.attributes),
            "children": [child.as_dict() for child in self.children],
        }


class Tracer:
    """Collects a forest of spans for one evaluation.

    Not thread-safe: each evaluation owns its tracer, exactly as it owns
    its :class:`~repro.engine.stats.EvalStats` (``run_batch`` hands every
    query its own pair).
    """

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Record a stage spanning the ``with`` body; yields the span."""
        if _SITE_HOOK is not None:
            _SITE_HOOK(name)
        opened = Span(name, time.perf_counter(), **attributes)
        if self._stack:
            self._stack[-1].children.append(opened)
        else:
            self.roots.append(opened)
        self._stack.append(opened)
        try:
            yield opened
        finally:
            opened.end = time.perf_counter()
            self._stack.pop()

    def event(self, name: str, **attributes: Any) -> Span:
        """Record an instantaneous fact under the current span."""
        stamp = time.perf_counter()
        recorded = Span(name, stamp, **attributes)
        if self._stack:
            self._stack[-1].children.append(recorded)
        else:
            self.roots.append(recorded)
        return recorded

    def find(self, name: str) -> list[Span]:
        """All spans with the given name, depth-first over every root."""
        found: list[Span] = []
        for root in self.roots:
            found.extend(root.find(name))
        return found

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready view of the whole trace."""
        return {"spans": [root.as_dict() for root in self.roots]}

    def render_text(self, min_seconds: float = 0.0) -> str:
        """Indented one-line-per-span rendering of the trace tree."""
        lines: list[str] = []

        def visit(node: Span, depth: int) -> None:
            # Filter timed leaf spans below the threshold; zero-duration
            # events (semi-join passes) always render.
            if not node.children and 0 < node.seconds < min_seconds:
                return
            attrs = ", ".join(
                f"{key}={_short(value)}" for key, value in node.attributes.items()
            )
            duration = f"{node.seconds * 1000:.3f}ms" if node.seconds else "·"
            lines.append(
                "  " * depth + f"{node.name}  {duration}" + (f"  [{attrs}]" if attrs else "")
            )
            for child in node.children:
                visit(child, depth + 1)

        for root in self.roots:
            visit(root, 0)
        return "\n".join(lines)


def _short(value: Any, limit: int = 60) -> str:
    text = str(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


@contextmanager
def span(tracer: Optional[Tracer], name: str, **attributes: Any) -> Iterator[Optional[Span]]:
    """``tracer.span`` when tracing, a no-op context otherwise.

    Call sites on warm (per-stage, not per-candidate) paths use this to
    avoid an if/else at every instrumentation point::

        with span(stats.trace, "reduce"):
            ...
    """
    if tracer is None:
        if _SITE_HOOK is not None:
            _SITE_HOOK(name)
        yield None
        return
    with tracer.span(name, **attributes) as opened:
        yield opened
