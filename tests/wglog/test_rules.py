"""Unit tests for WG-Log rule graphs, matching and semantics."""

import pytest

from repro.compare import CATALOG
from repro.engine import EvalStats, ExecOptions
from repro.engine.limits import QueryBudget
from repro.errors import EvaluationError, QueryStructureError, SchemaError
from repro.wglog import (
    Color,
    InstanceGraph,
    RuleEdge,
    RuleGraph,
    RuleNode,
    SlotDecl,
    WGSchema,
    apply_program,
    apply_rule,
    check_against_schema,
    document_to_instance,
    embeddings,
    parse_rule,
    parse_wglog,
    query,
    satisfies,
)
from repro.workloads import bibliography
from repro.xmlgl import attr, cmp  # condition helpers are shared


def library() -> InstanceGraph:
    """A small site: an index document pointing at content documents."""
    inst = InstanceGraph()
    idx = inst.add_entity("Doc", "idx")
    a = inst.add_entity("Doc", "a")
    b = inst.add_entity("Doc", "b")
    c = inst.add_entity("Doc", "c")
    inst.relate(idx, a, "index")
    inst.relate(idx, b, "index")
    inst.relate(a, c, "link")
    inst.add_slot(a, "title", "Alpha")
    inst.add_slot(b, "title", "Beta")
    inst.add_slot(a, "size", 10)
    inst.add_slot(b, "size", 99)
    return inst


class TestRuleGraphStructure:
    def test_duplicate_node_rejected(self):
        rule = RuleGraph()
        rule.red("x", "Doc")
        with pytest.raises(QueryStructureError):
            rule.red("x", "Doc")

    def test_edge_endpoints_checked(self):
        rule = RuleGraph()
        rule.red("x", "Doc")
        with pytest.raises(QueryStructureError):
            rule.match_edge("x", "nope", "link")

    def test_red_edge_cannot_touch_green(self):
        rule = RuleGraph()
        rule.red("x", "Doc")
        rule.green("g", "Doc")
        with pytest.raises(QueryStructureError):
            rule.match_edge("x", "g", "link")

    def test_crossed_green_rejected(self):
        rule = RuleGraph()
        rule.red("x", "Doc")
        rule.red("y", "Doc")
        with pytest.raises(QueryStructureError):
            rule.add_edge(RuleEdge("x", "y", "l", Color.GREEN, crossed=True))

    def test_collector_must_be_green(self):
        with pytest.raises(QueryStructureError):
            RuleGraph().add_node(RuleNode("c", "L", Color.RED, collector=True))

    def test_collector_needs_outgoing(self):
        rule = RuleGraph()
        rule.red("x", "Doc")
        rule.green("c", "List", collector=True)
        with pytest.raises(QueryStructureError):
            rule.validate()

    def test_collector_must_point_at_red(self):
        rule = RuleGraph()
        rule.red("x", "Doc")
        rule.green("c", "List", collector=True)
        rule.green("g", "Doc")
        rule.derive_edge("c", "g", "member")
        with pytest.raises(QueryStructureError):
            rule.validate()

    def test_slot_assertion_shape(self):
        rule = RuleGraph()
        rule.red("x", "Doc")
        with pytest.raises(QueryStructureError):
            rule.assert_slot("x", "a")  # neither value nor from_node
        with pytest.raises(QueryStructureError):
            rule.assert_slot("x", "a", value=1, from_node="x")
        with pytest.raises(QueryStructureError):
            rule.assert_slot("nope", "a", value=1)

    def test_rule_without_red_part_rejected(self):
        rule = RuleGraph()
        rule.green("g", "Doc")
        with pytest.raises(QueryStructureError):
            rule.validate()

    def test_is_query(self):
        rule = RuleGraph()
        rule.red("x", "Doc")
        assert rule.is_query()
        rule.assert_slot("x", "seen", value="y")
        assert not rule.is_query()

    def test_describe_smoke(self):
        rule = RuleGraph()
        rule.red("x", "Doc")
        rule.red("y", None)
        rule.match_edge("x", "y", "link", crossed=True)
        rule.green("g", "Doc")
        rule.assert_slot("g", "t", value="v")
        text = rule.describe()
        assert "[Doc](x)" in text and "=/=>" in text and ":= 'v'" in text


class TestEmbeddings:
    def test_single_node(self):
        rule = RuleGraph()
        rule.red("d", "Doc")
        assert len(embeddings(rule, library())) == 4

    def test_wildcard_excludes_slots(self):
        rule = RuleGraph()
        rule.red("x", None)
        assert len(embeddings(rule, library())) == 4

    def test_edge_pattern(self):
        rule = RuleGraph()
        rule.red("i", "Doc")
        rule.red("d", "Doc")
        rule.match_edge("i", "d", "index")
        pairs = {(b["i"], b["d"]) for b in embeddings(rule, library())}
        assert pairs == {("idx", "a"), ("idx", "b")}

    def test_homomorphic_default(self):
        inst = InstanceGraph()
        x = inst.add_entity("D", "x")
        inst.relate(x, x, "self")
        rule = RuleGraph()
        rule.red("a", "D")
        rule.red("b", "D")
        rule.match_edge("a", "b", "self")
        assert len(embeddings(rule, inst)) == 1
        assert len(embeddings(rule, inst, injective=True)) == 0

    def test_path_edge(self):
        rule = RuleGraph()
        rule.red("s", "Doc")
        rule.red("t", "Doc")
        rule.match_edge("s", "t", "", path=True)  # empty label: any edge chain
        pairs = {(b["s"], b["t"]) for b in embeddings(rule, library())}
        # idx reaches a, b, c; a reaches c
        assert pairs == {("idx", "a"), ("idx", "b"), ("idx", "c"), ("a", "c")}

    def test_path_edge_label_restricted(self):
        rule = RuleGraph()
        rule.red("s", "Doc")
        rule.red("t", "Doc")
        rule.match_edge("s", "t", "index", path=True)
        pairs = {(b["s"], b["t"]) for b in embeddings(rule, library())}
        assert pairs == {("idx", "a"), ("idx", "b")}

    def test_conditions_on_slots(self):
        rule = RuleGraph()
        rule.red("d", "Doc")
        rule.add_condition(cmp(">", attr("d", "size"), 50))
        assert [b["d"] for b in embeddings(rule, library())] == ["b"]

    def test_name_condition(self):
        from repro.xmlgl import name_of

        rule = RuleGraph()
        rule.red("x", None)
        rule.add_condition(cmp("=", name_of("x"), "Doc"))
        assert len(embeddings(rule, library())) == 4

    def test_stats(self):
        rule = RuleGraph()
        rule.red("d", "Doc")
        stats = EvalStats()
        embeddings(rule, library(), stats=stats)
        assert stats.bindings_produced == 4

    def test_embeddings_are_a_binding_set_decoded_from_rows(self):
        inst = library()
        rule = RuleGraph()
        rule.red("x", "Doc")
        rule.red("y", "Doc")
        rule.match_edge("x", "y", "index")
        found = embeddings(rule, inst)
        assert found.columns == ["x", "y"]
        table = inst.graph.node_table()
        assert [tuple(table[i] for i in row) for row in found.rows] == [
            (b["x"], b["y"]) for b in found
        ]
        assert found.variables() == {"x", "y"}
        assert len(found.join(found)) == len(found) > 0
        assert "bindings over ['x', 'y']" in repr(found)

    def test_delta_restricts_each_edge_in_turn(self):
        # reach chain n0 -> n1 -> n2 -> n3 -> n4 with only (n1, n2) new:
        # the embeddings using it, at either pattern edge, and no other
        # (the delta is the edges appended after the marks)
        inst = InstanceGraph()
        for number in range(5):
            inst.add_entity("N", f"n{number}")
        for i in (0, 2, 3):
            inst.relate(f"n{i}", f"n{i + 1}", "reach")
        marks = inst.graph.edge_marks()
        inst.relate("n1", "n2", "reach")
        rule = parse_rule(
            "rule r { match { a: N  b: N  c: N  a -reach-> b  b -reach-> c } }"
        )
        found = {
            (b["a"], b["b"], b["c"])
            for b in embeddings(rule, inst, delta=marks)
        }
        assert found == {("n0", "n1", "n2"), ("n1", "n2", "n3")}
        nothing_new = inst.graph.edge_marks()
        assert len(embeddings(rule, inst, delta=nothing_new)) == 0
        # a crossed edge makes the restriction unsound: matched in full
        negated = parse_rule(
            "rule r { match { a: N  b: N  a -reach-> b  no b -link-> a } }"
        )
        assert len(embeddings(negated, inst, delta=nothing_new)) == 4


class TestPathRelation:
    """A path edge joins as a relation built by breadth-first search."""

    @staticmethod
    def run(rule, instance, engine):
        stats = EvalStats()
        found = embeddings(
            rule, instance, stats=stats, options=ExecOptions(engine=engine),
            budget=QueryBudget(max_work=10**9),
        )
        return sorted(tuple(sorted(b.items())) for b in found), stats

    def test_q8_work_grows_with_the_graph_not_its_square(self):
        pair = next(p for p in CATALOG if p.id == "q8-recursion")
        rule = parse_rule(pair.wglog_source)
        work = []
        for entries in (30, 120):
            instance, _ = document_to_instance(bibliography(entries))
            rows, stats = self.run(rule, instance, "pipeline")
            assert rows == self.run(rule, instance, "backtracking")[0]
            assert stats.pipeline_fragments == 1
            assert stats.pipeline_fallbacks == 0
            work.append(stats.budget.work)
        small, large = work
        assert 0 < small and large <= 6 * small

    def test_path_rows_equal_the_backtracking_core(self):
        rule = parse_rule("rule q { match { a: *  b: *  a -cites*-> b } }")
        instance, _ = document_to_instance(bibliography(30))
        rows, stats = self.run(rule, instance, "pipeline")
        assert rows and rows == self.run(rule, instance, "backtracking")[0]
        assert not any(key.startswith("fallback_") for key in stats.extra)


class TestNegation:
    def test_pairwise_negation(self):
        # pairs of documents with an index edge but no link edge
        rule = RuleGraph()
        rule.red("x", "Doc")
        rule.red("y", "Doc")
        rule.match_edge("x", "y", "index")
        rule.match_edge("x", "y", "link", crossed=True)
        pairs = {(b["x"], b["y"]) for b in embeddings(rule, library())}
        assert pairs == {("idx", "a"), ("idx", "b")}

    def test_forall_negation_incoming(self):
        # documents nothing points at with an index edge (GraphLog root rule)
        rule = RuleGraph()
        rule.red("d", "Doc")
        rule.red("i", "Doc")
        rule.match_edge("i", "d", "index", crossed=True)
        rule.assert_slot("d", "root", value="yes")  # anchors d
        docs = {b["d"] for b in embeddings(rule, library())}
        assert docs == {"idx", "c"}

    def test_forall_negation_outgoing(self):
        # documents with no outgoing link
        rule = RuleGraph()
        rule.red("d", "Doc")
        rule.red("t", None)
        rule.match_edge("d", "t", "link", crossed=True)
        rule.assert_slot("d", "leaf", value="yes")
        docs = {b["d"] for b in embeddings(rule, library())}
        assert docs == {"idx", "b", "c"}

    def test_unanchored_negation_rejected(self):
        rule = RuleGraph()
        rule.red("x", "Doc")
        rule.red("y", "Doc")
        rule.match_edge("x", "y", "link", crossed=True)
        with pytest.raises(QueryStructureError, match="anchor"):
            embeddings(rule, library())

    def test_negated_fragment_with_structure(self):
        # docs with no index edge from something that itself has a title slot
        # fragment: i (with condition disallowed) -> use slot via structure:
        # i -index-> d crossed, i -link-> z  (fragment includes z)
        inst = library()
        rule = RuleGraph()
        rule.red("d", "Doc")
        rule.red("i", "Doc")
        rule.red("z", "Doc")
        rule.match_edge("i", "d", "index", crossed=True)
        rule.match_edge("i", "z", "link")
        rule.assert_slot("d", "mark", value="1")
        # i has a link edge (fragment structure): only 'a' links, and 'a'
        # indexes nothing, so no doc is excluded.
        docs = {b["d"] for b in embeddings(rule, inst)}
        assert docs == {"idx", "a", "b", "c"}


class TestSchemaChecking:
    def schema(self) -> WGSchema:
        s = WGSchema()
        s.entity("Doc", SlotDecl("title", "string"), SlotDecl("size", "int"))
        s.relation("Doc", "index", "Doc")
        s.relation("Doc", "link", "Doc")
        return s

    def test_conformant_rule_passes(self):
        rule = RuleGraph()
        rule.red("i", "Doc")
        rule.red("d", "Doc")
        rule.match_edge("i", "d", "index")
        check_against_schema(rule, self.schema())

    def test_undeclared_label_rejected(self):
        rule = RuleGraph()
        rule.red("x", "Monument")
        with pytest.raises(SchemaError, match="Monument"):
            embeddings(rule, library(), schema=self.schema())

    def test_undeclared_relation_rejected(self):
        rule = RuleGraph()
        rule.red("a", "Doc")
        rule.red("b", "Doc")
        rule.match_edge("a", "b", "cites")
        with pytest.raises(SchemaError, match="cites"):
            check_against_schema(rule, self.schema())

    def test_wildcards_skip_schema_check(self):
        rule = RuleGraph()
        rule.red("a", None)
        rule.red("b", "Doc")
        rule.match_edge("a", "b", "anything")
        check_against_schema(rule, self.schema())

    def test_path_edges_skip_relation_check(self):
        rule = RuleGraph()
        rule.red("a", "Doc")
        rule.red("b", "Doc")
        rule.match_edge("a", "b", "whatever", path=True)
        check_against_schema(rule, self.schema())


class TestGenerativeSemantics:
    def sibling_rule(self) -> RuleGraph:
        rule = RuleGraph()
        rule.red("d1", "Doc")
        rule.red("d2", "Doc")
        rule.red("i", "Doc")
        rule.match_edge("i", "d1", "index")
        rule.match_edge("i", "d2", "index")
        rule.derive_edge("d1", "d2", "sibling")
        return rule

    def test_apply_derives_edges(self):
        inst = library()
        additions = apply_rule(inst, self.sibling_rule())
        assert additions == 4  # (a,a) (a,b) (b,a) (b,b)
        assert inst.has_relationship("a", "b", "sibling")

    def test_apply_injective_skips_self_pairs(self):
        inst = library()
        additions = apply_rule(inst, self.sibling_rule(), injective=True)
        assert additions == 2
        assert not inst.has_relationship("a", "a", "sibling")

    def test_apply_idempotent(self):
        inst = library()
        apply_rule(inst, self.sibling_rule())
        assert apply_rule(inst, self.sibling_rule()) == 0

    def test_satisfies_before_and_after(self):
        inst = library()
        rule = self.sibling_rule()
        assert not satisfies(inst, rule)
        apply_rule(inst, rule)
        assert satisfies(inst, rule)

    def test_slot_assertion_literal(self):
        inst = library()
        rule = RuleGraph()
        rule.red("d", "Doc")
        rule.red("i", "Doc")
        rule.match_edge("i", "d", "index")
        rule.assert_slot("d", "indexed", value=True)
        apply_rule(inst, rule)
        assert inst.slot_value("a", "indexed") is True
        assert inst.slot_value("c", "indexed") is None

    def test_slot_assertion_copied(self):
        inst = library()
        rule = RuleGraph()
        rule.red("s", "Doc")
        rule.red("t", "Doc")
        rule.match_edge("s", "t", "link")
        rule.assert_slot("t", "from_title", from_node="s", from_slot="title")
        apply_rule(inst, rule)
        assert inst.slot_value("c", "from_title") == "Alpha"

    def test_slot_copy_missing_source_raises(self):
        inst = library()
        rule = RuleGraph()
        rule.red("s", "Doc")
        rule.red("t", "Doc")
        rule.match_edge("s", "t", "index")
        rule.assert_slot("t", "x", from_node="s", from_slot="title")
        with pytest.raises(EvaluationError, match="absent"):
            apply_rule(inst, rule)  # idx has no title slot

    def test_green_node_created_per_embedding(self):
        inst = library()
        rule = RuleGraph()
        rule.red("d", "Doc")
        rule.red("i", "Doc")
        rule.match_edge("i", "d", "index")
        rule.green("n", "Note")
        rule.derive_edge("n", "d", "about")
        apply_rule(inst, rule)
        assert len(inst.entities("Note")) == 2

    def test_green_node_needs_label(self):
        inst = library()
        rule = RuleGraph()
        rule.red("d", "Doc")
        rule.green("g", None)
        rule.derive_edge("g", "d", "x")
        with pytest.raises(EvaluationError, match="label"):
            apply_rule(inst, rule)

    def test_slot_assertion_replaces_existing_value(self):
        # a slot is single-valued: asserting a new value overwrites the old
        # one, so the rule is satisfied afterwards and programs converge
        def page_marked_no() -> InstanceGraph:
            inst = InstanceGraph()
            inst.add_entity("Page", "p")
            inst.add_slot("p", "root", "no")
            return inst

        rule = RuleGraph()
        rule.red("p", "Page")
        rule.assert_slot("p", "root", value="yes")
        inst = page_marked_no()
        assert not satisfies(inst, rule)
        assert apply_rule(inst, rule) == 1
        assert inst.slot_value("p", "root") == "yes"
        assert inst.slots("p") == {"root": "yes"}
        assert len(inst.graph.out_edges("p", "root")) == 1
        assert satisfies(inst, rule)
        assert apply_rule(inst, rule) == 0
        assert apply_program(page_marked_no(), [rule]) == 1

    def test_green_node_check_is_pinned_to_the_binding(self):
        # the per-binding existence check for green nodes draws candidates
        # from the bound node and its adjacency, never from a scan of the
        # whole instance: compat calls do not grow with unrelated nodes
        from repro.wglog import semantics

        def compat_calls(unrelated: int) -> int:
            inst = library()
            for number in range(unrelated):
                inst.add_entity("Note", f"spare{number}")
            rule = RuleGraph()
            rule.red("d", "Doc")
            rule.red("i", "Doc")
            rule.match_edge("i", "d", "index")
            rule.green("n", "Note")
            rule.derive_edge("n", "d", "about")
            apply_rule(inst, rule)
            calls = []
            original = semantics.find_homomorphisms

            def counting(pattern, data, spec=None, stats=None):
                compat = spec.node_compat

                def counted(pnode, dnode):
                    calls.append((pnode, dnode))
                    return compat(pnode, dnode)

                spec.node_compat = counted
                return original(pattern, data, spec, stats)

            semantics.find_homomorphisms = counting
            try:
                assert apply_rule(inst, rule) == 0
            finally:
                semantics.find_homomorphisms = original
            return len(calls)

        # two bindings, each: its pinned d and the one Note linked to it
        assert compat_calls(0) == 4
        assert compat_calls(200) == 4

    def test_collector_single_node(self):
        inst = library()
        rule = RuleGraph()
        rule.red("d", "Doc")
        rule.green("lst", "DocList", collector=True)
        rule.derive_edge("lst", "d", "member")
        apply_rule(inst, rule)
        lists = inst.entities("DocList")
        assert len(lists) == 1
        assert len(inst.relationships(lists[0], "member")) == 4

    def test_collector_idempotent(self):
        inst = library()
        rule = RuleGraph()
        rule.red("d", "Doc")
        rule.green("lst", "DocList", collector=True)
        rule.derive_edge("lst", "d", "member")
        apply_rule(inst, rule)
        assert apply_rule(inst, rule) == 0
        assert len(inst.entities("DocList")) == 1

    def test_collector_extends_after_growth(self):
        inst = library()
        rule = RuleGraph()
        rule.red("d", "Doc")
        rule.green("lst", "DocList", collector=True)
        rule.derive_edge("lst", "d", "member")
        apply_rule(inst, rule)
        inst.add_entity("Doc", "new")
        apply_rule(inst, rule)
        lists = inst.entities("DocList")
        assert len(lists) == 1
        assert len(inst.relationships(lists[0], "member")) == 5


class TestPrograms:
    def test_fixpoint_transitive_closure(self):
        # reach edges: closure of link
        inst = InstanceGraph()
        for name in "abcd":
            inst.add_entity("N", name)
        inst.relate("a", "b", "link")
        inst.relate("b", "c", "link")
        inst.relate("c", "d", "link")
        base = RuleGraph()
        base.red("x", "N")
        base.red("y", "N")
        base.match_edge("x", "y", "link")
        base.derive_edge("x", "y", "reach")
        step = RuleGraph()
        step.red("x", "N")
        step.red("y", "N")
        step.red("z", "N")
        step.match_edge("x", "y", "reach")
        step.match_edge("y", "z", "link")
        step.derive_edge("x", "z", "reach")
        apply_program(inst, [base, step])
        assert inst.has_relationship("a", "d", "reach")
        assert sum(1 for e in inst.relationship_edges() if e.label == "reach") == 6

    def test_fixpoint_guard(self):
        # unsafe rule: every N spawns a new N forever
        inst = InstanceGraph()
        inst.add_entity("N", "seed")
        runaway = RuleGraph()
        runaway.red("x", "N")
        runaway.green("g", "N")
        runaway.derive_edge("g", "x", "made_from")
        with pytest.raises(EvaluationError, match="fixpoint"):
            apply_program(inst, [runaway], max_rounds=5)

    def test_stratified_negation(self):
        # mark leaves, then propagate: rules applied in order converge
        inst = InstanceGraph()
        for name in "abc":
            inst.add_entity("N", name)
        inst.relate("a", "b", "link")
        inst.relate("b", "c", "link")
        leaf = RuleGraph()
        leaf.red("x", "N")
        leaf.red("t", "N")
        leaf.match_edge("x", "t", "link", crossed=True)
        leaf.assert_slot("x", "leaf", value="yes")
        apply_program(inst, [leaf])
        assert inst.slot_value("c", "leaf") == "yes"
        assert inst.slot_value("a", "leaf") is None

    def test_semi_naive_eligibility(self):
        from repro.wglog.semantics import semi_naive_eligible

        def rule(text: str) -> RuleGraph:
            return parse_rule(f"rule r {{ {text} }}")

        assert semi_naive_eligible(
            rule("match { a: N  b: N  a -link-> b } construct { a -reach-> b }")
        )
        ineligible = [
            # green node
            "match { a: N  b: N  a -link-> b } construct { g: G  g -of-> a }",
            # collector
            "match { a: N  b: N  a -link-> b } construct { g: G collect  g -of-> a }",
            # slot assertion
            "match { a: N  b: N  a -link-> b } construct { a.x = 1 }",
            # crossed edge
            "match { a: N  b: N  a -link-> b  no b -link-> a }"
            " construct { a -reach-> b }",
            # path edge
            "match { a: N  b: N  a -link*-> b } construct { a -reach-> b }",
            # condition
            "match { a: N  b: N  a -link-> b } construct { a -reach-> b }"
            " where a.x = 1",
            # isolated red node
            "match { a: N  b: N  c: N  a -link-> b } construct { a -reach-> c }",
        ]
        for text in ineligible:
            assert not semi_naive_eligible(rule(text)), text

    def test_semi_naive_rounds_match_only_the_delta(self):
        # closure of a 6-chain: later rounds see only new reach edges, so
        # the program matches far fewer embeddings than naive rounds would
        def chain() -> InstanceGraph:
            inst = InstanceGraph()
            for number in range(6):
                inst.add_entity("N", f"n{number}")
            for number in range(5):
                inst.relate(f"n{number}", f"n{number + 1}", "link")
            return inst

        base, step = parse_wglog(
            "rule base { match { a: N  b: N  a -link-> b }"
            " construct { a -reach-> b } }"
            "rule step { match { a: N  b: N  c: N  a -reach-> b  b -link-> c }"
            " construct { a -reach-> c } }"
        )[1]
        semi, naive = EvalStats(), EvalStats()
        inst = chain()
        assert apply_program(inst, [base, step], stats=semi) == 15
        oracle = chain()
        while apply_rule(oracle, base, stats=naive) + apply_rule(
            oracle, step, stats=naive
        ):
            pass
        assert set(inst.graph.edges()) == set(oracle.graph.edges())
        assert semi.bindings_produced < naive.bindings_produced

    def test_query_shortcut(self):
        rule = RuleGraph()
        rule.red("d", "Doc")
        assert len(query(rule, library())) == 4
