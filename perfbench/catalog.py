"""Seeded inputs for every workload: documents, query mixes, edit scripts.

Everything the benchmark hands to the program is made here from the
workload seed, so the same seed gives the same inputs.  Input generation
happens before any timing starts and is never part of ``setup_s``.

The read queries are the classes of Bonifati & Ceri's comparison of XML
query languages, which are also the paper's Q1-Q7 figures: selection,
conditions, IDREF join, deep path, negation, aggregation and
nest-by-year restructuring, plus the multibox query of the ablation
benchmark.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.engine.mutate import MutationBatch
from repro.graph import reachable_by_labels
from repro.ssd import Document, serialize
from repro.ssd.model import Element, Text
from repro.wglog.data import InstanceGraph
from repro.workloads import bibliography, nested_sections, site_graph

#: Capacity of ``repro.engine.plan_cache.PlanCache`` (its default), which
#: the working sets below are sized against.
PLAN_CACHE_ENTRIES = 128

# -- the read mix (serve_read, and the reads of write_mix) --------------------

#: Read shapes: name -> (document, query template).  ``${year}`` is a
#: prepared-query parameter, rendered by the server as a DSL number.
READ_SHAPES: dict[str, tuple[str, str]] = {
    "q1_selection": (
        "bib",
        "query { book as B { title as T } } construct { titles { collect T } }",
    ),
    "q2_conditions": (
        "bib",
        "query { book as B { @year as Y  title as T } where Y >= ${year} }"
        " construct { r { collect T } }",
    ),
    "q3_join": (
        "bib",
        "query { book as B  * as C { title as T } where B.cites = C.id }"
        " construct { r { collect T } }",
    ),
    "q4_deep": (
        "sections",
        "query { root report as R { deep para as P } }"
        " construct { r { collect P } }",
    ),
    "q5_negation": (
        "bib",
        "query { book as B { not publisher as P } } construct { r { collect B } }",
    ),
    "q6_aggregation": (
        "bib",
        "query { book as B { price as P { text as PT } } } construct { stats {"
        " n { count(B) } min { min(PT) } max { max(PT) } avg { avg(PT) } } }",
    ),
    "q7_nest": (
        "bib",
        "query { book as B { @year as Y  title as T } } construct { by-year {"
        " year for Y sortby Y { value Y  books { collect T } } } }",
    ),
    "multibox": (
        "bib",
        "query { book as B { publisher as P  title as T  @year as Y }"
        " where Y >= ${year} } construct { r { collect T } }",
    ),
}

#: The deep-path read against the bibliography, for mixes whose only
#: document is a bibliography (write_mix).
BIB_DEEP = (
    "query { root bib as R { deep last as L } } construct { r { collect L } }"
)

#: Parameter values of the parameterized shapes (a small fixed set).
YEARS = (1988, 1994, 1998)

#: One round of the read mix: thirteen equal slots, five shapes in two
#: each.  Whatever order the shapes' latencies fall in, the median rank
#: (6.5 of 13 slots) lies inside one slot's cluster, never on the edge
#: between two.  The 95th percentile (12.35 of 13) lies at the 35th
#: percentile of the slowest shape, which sits in one slot: below the
#: upper part of its spread, where the reads that a full garbage
#: collection lands in sit.
READ_SLOTS = (
    "q1_selection", "q2_conditions", "q3_join", "q4_deep", "q5_negation",
    "q6_aggregation", "q7_nest", "multibox",
    "q1_selection", "q2_conditions", "q3_join", "q5_negation", "multibox",
)


@dataclass(frozen=True)
class ReadOp:
    """One read request: shape, target document and parameters."""

    shape: str
    document: str
    template: str
    params: tuple[tuple[str, int], ...]

    @property
    def key(self) -> tuple[str, tuple[tuple[str, int], ...]]:
        return (self.shape, self.params)

    def text(self) -> str:
        """The query text with parameters substituted as the server does."""
        text = self.template
        for name, value in self.params:
            text = text.replace("${" + name + "}", repr(value))
        return text


def read_schedule(seed: int, length: int, *, deep_on_bib: bool = False) -> list[ReadOp]:
    """``length`` read ops: the slot round in a seeded order, repeated.

    Parameterized shapes rotate through :data:`YEARS`, so the working set
    is fixed: 6 unparameterized shapes + 2 x 3 parameterized = 12 plans,
    well inside the plan cache, and the schedule repeats every three
    rounds (39 ops).
    """
    rng = random.Random(f"read-{seed}")
    order = list(READ_SLOTS)
    rng.shuffle(order)
    seen: dict[str, int] = {}
    ops = []
    for position in range(length):
        shape = order[position % len(order)]
        document, template = READ_SHAPES[shape]
        if deep_on_bib and shape == "q4_deep":
            document, template = "bib", BIB_DEEP
        params: tuple[tuple[str, int], ...] = ()
        if "${year}" in template:
            turn = seen.get(shape, 0)
            seen[shape] = turn + 1
            params = (("year", YEARS[(turn + seed) % len(YEARS)]),)
        ops.append(ReadOp(shape, document, template, params))
    return ops


def distinct_reads(ops: list[ReadOp]) -> dict[tuple, ReadOp]:
    """The working set of a read schedule, keyed by (shape, params)."""
    return {op.key: op for op in ops}


# -- documents ---------------------------------------------------------------

def bib_xml(entries: int, seed: int) -> str:
    """A seeded bibliography as XML text (what the program is handed)."""
    return serialize(bibliography(entries, seed=seed).root)


def sections_xml(depth: int, seed: int) -> str:
    """A seeded ``nested_sections`` report (fanout 2) as XML text."""
    return serialize(nested_sections(depth=depth, fanout=2, seed=seed).root)


# -- write mix -------------------------------------------------------------------

#: Continuous queries kept live during write_mix, with different
#: footprints: tag/attribute only, text-reading, join and deep.
SUBSCRIPTIONS: dict[str, str] = {
    "year_attr": "query { book as B { @year as Y } } construct { r { collect B } }",
    "recent_attr": (
        "query { book as B { @year as Y } where Y >= 1998 }"
        " construct { r { collect B } }"
    ),
    "article_tag": (
        "query { article as A { title as T } } construct { r { collect A } }"
    ),
    "no_publisher": (
        "query { book as B { not publisher as P } } construct { r { collect B } }"
    ),
    "price_text": (
        "query { book as B { price as P { text as PT } } where PT >= 100 }"
        " construct { r { collect B } }"
    ),
    "title_text": (
        "query { * as E { title as T } where T ~ /[A-F].*/ }"
        " construct { r { collect E } }"
    ),
    "cites_join": READ_SHAPES["q3_join"][1],
    "deep_last": BIB_DEEP,
}


def _leaf(tag: str, text: str) -> Element:
    element = Element(tag)
    element.append(Text(text))
    return element


class EditScript:
    """A seeded stream of mutation batches over a live bibliography.

    The kinds and proportions are those of the smoke bench's incremental
    block (``repro.bench_smoke.measure_incremental``): entry inserts 30%,
    note inserts into an entry 20%, entry deletes 15%, price updates 20%
    and year updates 15%, so 65% of commits are structural.  An inserted
    entry is a copy of a random entry of the starting document, id
    included, so the document's make-up (books against articles, authors,
    prices, and the cites that join entries) keeps returning to what it
    was, and read costs do not drift with the number of commits a run
    gets through.  Once the document's node count drifts 5%
    from its start, the corrective kind (a delete when it grew, an insert
    when it shrank) is forced, so the size stays within +-10% however
    long the run; :attr:`counts` records the kinds made.
    """

    KINDS = ("insert_entry", "insert_note", "delete", "update_value", "update_attribute")

    def __init__(self, seed: int, document: Document) -> None:
        self._rng = random.Random(f"edits-{seed}")
        root = document.root
        assert root is not None
        self._originals = [entry.copy() for entry in root.child_elements()]
        self._start = document.size()
        self._nodes = self._start
        self.counts = dict.fromkeys(self.KINDS, 0)

    def next_batch(self, document: Document) -> tuple[str, MutationBatch]:
        kind, batch, grown = self._draw(document)
        self._nodes += grown
        self.counts[kind] += 1
        return kind, batch

    def _draw(self, document: Document) -> tuple[str, MutationBatch, int]:
        rng = self._rng
        root = document.root
        assert root is not None
        entries = root.child_elements()
        roll = rng.random()
        if self._nodes > self._start * 1.05:
            roll = 0.5
        elif self._nodes < self._start * 0.95:
            roll = 0.0
        made = sum(self.counts.values())
        batch = MutationBatch()
        if roll < 0.3:
            entry = rng.choice(self._originals).copy()
            batch.insert_subtree(root, entry, rng.randrange(len(entries) + 1))
            return "insert_entry", batch, entry.size()
        if roll < 0.5:
            note = _leaf("note", f"margin {made}")
            batch.insert_subtree(rng.choice(entries), note)
            return "insert_note", batch, note.size()
        if roll < 0.65:
            victim = rng.choice(entries)
            batch.delete_subtree(victim)
            return "delete", batch, -victim.size()
        if roll < 0.85:
            target = rng.choice(entries)
            prices = [e for e in target.child_elements() if e.tag == "price"]
            field = prices[0] if prices else target.child_elements()[0]
            batch.update_value(field, f"{rng.randint(5, 150)}.00")
            return "update_value", batch, 0
        batch.update_attribute(
            rng.choice(entries), "year", str(rng.randint(1985, 2000))
        )
        return "update_attribute", batch, 0


# -- WG-Log rules ------------------------------------------------------------------

#: GraphLog's sibling rule, applied injectively.
SIBLING_RULE = """
rule sibling {
  match { i: Index  p1: Page  p2: Page  i -index-> p1  i -index-> p2 }
  construct { p1 -sibling-> p2 }
}
"""

#: The root-page rule: ``q`` appears only behind the crossed edge, so it
#: is universally quantified -- pages no page links to.
ROOT_RULE = """
rule root {
  match { p: Page  q: Page  no q -link-> p }
  construct { p.root = 'yes' }
}
"""

#: Transitive closure of ``link`` over pages, as a two-rule fixpoint.
CLOSURE_PROGRAM = """
rule base {
  match { a: Page  b: Page  a -link-> b }
  construct { a -reach-> b }
}
rule step {
  match { a: Page  b: Page  c: Page  a -reach-> b  b -link-> c }
  construct { a -reach-> c }
}
"""

WGLOG_RULES = ("wglog_sibling", "wglog_root", "wglog_closure")


@dataclass(frozen=True)
class GraphSpec:
    """A site graph as plain data: what the program is handed."""

    entities: tuple[tuple[str, str], ...]  # (id, label)
    slots: tuple[tuple[str, str, object], ...]  # (entity, name, value)
    edges: tuple[tuple[str, str, str], ...]  # (source, target, label)


def site_spec(pages: int, seed: int, link_factor: float = 1.5) -> GraphSpec:
    """A seeded ``site_graph`` flattened to entities, slots and edges."""
    instance = site_graph(pages, seed=seed, link_factor=link_factor)
    entities = tuple((n, instance.label(n)) for n in instance.entities())
    slots = tuple(
        (n, name, value)
        for n in instance.entities()
        for name, value in instance.slots(n).items()
    )
    edges = tuple(
        (e.source, e.target, e.label) for e in instance.relationship_edges()
    )
    return GraphSpec(entities, slots, edges)


def reach_pairs(instance: InstanceGraph) -> set[tuple[str, str]]:
    """(page, page) pairs joined by a path of page-to-page links."""
    is_page = lambda node: instance.label(node) == "Page"  # noqa: E731
    return {
        (page, target)
        for page in instance.entities("Page")
        for target in reachable_by_labels(instance.graph, page, "link", is_page)
    }


def link_depth(instance: InstanceGraph) -> int:
    """The longest shortest page-to-page link path (the fixpoint's depth)."""
    depth = 0
    for page in instance.entities("Page"):
        frontier, seen, hops = [page], {page}, 0
        while frontier:
            hops += 1
            frontier = [
                succ
                for node in frontier
                for succ in instance.graph.successors(node, "link")
                if succ not in seen and instance.label(succ) == "Page"
                and not seen.add(succ)
            ]
            if frontier:
                depth = max(depth, hops)
    return depth


def closure_spec(
    pages: int, seed: int, link_factor: float, reach: int, depth: int
) -> GraphSpec:
    """A seeded site graph with ``reach`` (+-5%) closure pairs at ``depth``.

    The closure fixpoint's cost follows its size times its number of
    rounds, which swings by a factor of ten between random graphs of one
    size; drawing seeded candidates until one has the wanted closure size
    and depth keeps the op's cost the same from seed to seed.
    """
    for attempt in range(2000):
        spec = site_spec(pages, seed * 2000 + attempt, link_factor)
        instance = build_instance(spec)
        if (
            abs(len(reach_pairs(instance)) - reach) <= 0.05 * reach
            and link_depth(instance) == depth
        ):
            return spec
    raise ValueError(f"no {pages}-page site graph with ~{reach} reach pairs")


def build_instance(spec: GraphSpec) -> InstanceGraph:
    """Load a :class:`GraphSpec` through the instance graph's public API."""
    instance = InstanceGraph()
    for node, label in spec.entities:
        instance.add_entity(label, node)
    for node, name, value in spec.slots:
        instance.add_slot(node, name, value)
    for source, target, label in spec.edges:
        instance.relate(source, target, label)
    return instance
