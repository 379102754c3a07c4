"""Unit tests for WG-Log instance graphs and schemas."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.errors import SchemaError
from repro.wglog import InstanceGraph, SlotDecl, WGSchema, apply_rule, parse_rule

TAG_RULE = (
    "rule tag { match { i: Index  p: Page  i -index-> p } "
    "construct { t: Tag  p -tagged-> t } }"
)


def site_instance() -> InstanceGraph:
    inst = InstanceGraph()
    home = inst.add_entity("Page", "home")
    about = inst.add_entity("Page", "about")
    inst.add_slot(home, "title", "Home")
    inst.add_slot(home, "hits", 42)
    inst.relate(home, about, "link")
    return inst


def site_schema() -> WGSchema:
    schema = WGSchema()
    schema.entity("Page", SlotDecl("title", "string"), SlotDecl("hits", "int"))
    schema.relation("Page", "link", "Page")
    return schema


class TestInstanceGraph:
    def test_entities_and_labels(self):
        inst = site_instance()
        assert set(inst.entities()) == {"home", "about"}
        assert inst.entities("Page") == ["home", "about"]
        assert inst.label("home") == "Page"
        assert inst.entity_count() == 2

    def test_duplicate_entity_id_rejected(self):
        inst = site_instance()
        with pytest.raises(KeyError):
            inst.add_entity("Page", "home")

    def test_auto_ids(self):
        inst = InstanceGraph()
        a = inst.add_entity("X")
        b = inst.add_entity("X")
        assert a != b

    def test_slots(self):
        inst = site_instance()
        assert inst.slot_value("home", "title") == "Home"
        assert inst.slot_value("home", "missing") is None
        assert inst.slots("home") == {"title": "Home", "hits": 42}

    def test_slot_on_unknown_entity_rejected(self):
        with pytest.raises(KeyError):
            site_instance().add_slot("zzz", "a", 1)

    def test_slots_not_entities(self):
        inst = site_instance()
        assert all(not inst.is_slot(e) for e in inst.entities())
        slot_nodes = [n for n in inst.graph.nodes() if inst.is_slot(n)]
        assert len(slot_nodes) == 2

    def test_relationships(self):
        inst = site_instance()
        assert inst.has_relationship("home", "about", "link")
        assert not inst.has_relationship("about", "home", "link")
        rels = inst.relationships("home")
        assert len(rels) == 1 and rels[0].label == "link"

    def test_relationship_edges_exclude_slots(self):
        inst = site_instance()
        labels = [e.label for e in inst.relationship_edges()]
        assert labels == ["link"]

    def test_slot_cannot_relate(self):
        inst = site_instance()
        slot_node = next(n for n in inst.graph.nodes() if inst.is_slot(n))
        with pytest.raises(ValueError):
            inst.relate(slot_node, "home", "x")

    def test_copy_independent(self):
        inst = site_instance()
        clone = inst.copy()
        clone.add_entity("Page", "extra")
        assert "extra" not in inst.graph
        fresh = clone.add_entity("Page")
        assert fresh not in inst.graph

    def test_describe_smoke(self):
        text = site_instance().describe()
        assert "home: Page" in text and "home -link-> about" in text


class TestFreshIds:
    """Generated ids never collide with ids already in the instance."""

    def indexed_pages(self) -> InstanceGraph:
        inst = InstanceGraph()
        inst.add_entity("Index", "i")
        for page in "abc":
            inst.add_entity("Page", page)
            inst.relate("i", page, "index")
        return inst

    def test_green_node_skips_an_explicit_id(self):
        inst = self.indexed_pages()
        inst.add_entity("Tag", "Tag#1")
        assert apply_rule(inst, parse_rule(TAG_RULE)) == 6
        assert inst.label("Tag#1") == "Tag"
        assert inst.relationships("Tag#1") == []
        assert len(inst.entities("Tag")) == 4
        assert apply_rule(inst, parse_rule(TAG_RULE)) == 0

    def test_slot_skips_an_explicit_id(self):
        inst = InstanceGraph()
        inst.add_entity("Page", "p")
        inst.add_entity("Page", "p.title#1")
        slot = inst.add_slot("p", "title", "Home")
        assert slot != "p.title#1"
        assert inst.label("p.title#1") == "Page"
        assert not inst.is_slot("p.title#1")
        assert inst.slot_value("p", "title") == "Home"


DESCRIBE_COPY_AFTER_RULE = f"""
from repro.wglog import InstanceGraph, apply_rule, parse_rule
inst = InstanceGraph()
inst.add_entity("Index", "i")
for page in "abcdef":
    inst.add_entity("Page", page)
    inst.relate("i", page, "index")
copy = inst.copy()
apply_rule(copy, parse_rule({TAG_RULE!r}))
print(copy.describe())
sub = copy.graph.subgraph(set(copy.graph.nodes()))
print(list(sub.nodes()))
print([(e.source, e.target, e.label) for e in sub.edges()])
"""


def test_rule_on_a_copy_does_not_depend_on_the_hash_seed():
    # copies and subgraphs keep insertion order, so green nodes get the
    # same fresh ids under every hash seed
    src = str(Path(repro.__file__).resolve().parents[1])
    outputs = []
    for seed in ("1", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", DESCRIBE_COPY_AFTER_RULE],
            capture_output=True, text=True, env=env, check=True,
        )
        outputs.append(done.stdout)
    assert "b -tagged-> Tag#2" in outputs[0]
    assert outputs[0] == outputs[1]


class TestSlotDecl:
    def test_type_checking(self):
        assert SlotDecl("a", "string").accepts("x")
        assert not SlotDecl("a", "string").accepts(5)
        assert SlotDecl("a", "int").accepts(5)
        assert not SlotDecl("a", "int").accepts(True)
        assert SlotDecl("a", "float").accepts(2.5)
        assert SlotDecl("a", "float").accepts(2)
        assert SlotDecl("a", "bool").accepts(True)
        assert SlotDecl("a", "any").accepts(object())

    def test_unknown_type_rejected(self):
        with pytest.raises(SchemaError):
            SlotDecl("a", "date")


class TestWGSchema:
    def test_conformant_instance(self):
        assert site_schema().conform(site_instance()) == []

    def test_duplicate_entity_rejected(self):
        schema = site_schema()
        with pytest.raises(SchemaError):
            schema.entity("Page")

    def test_relation_endpoints_must_exist(self):
        schema = WGSchema().entity("A")
        with pytest.raises(SchemaError):
            schema.relation("A", "x", "B")

    def test_undeclared_entity_type(self):
        inst = site_instance()
        inst.add_entity("Alien", "a1")
        violations = site_schema().conform(inst)
        assert any("undeclared type" in v for v in violations)

    def test_undeclared_slot(self):
        inst = site_instance()
        inst.add_slot("home", "color", "red")
        violations = site_schema().conform(inst)
        assert any("undeclared slot" in v for v in violations)

    def test_slot_type_violation(self):
        inst = site_instance()
        inst.add_slot("about", "hits", "many")
        violations = site_schema().conform(inst)
        assert any("is not a int" in v for v in violations)

    def test_required_slot(self):
        schema = WGSchema().entity("P", SlotDecl("title", "string", required=True))
        inst = InstanceGraph()
        inst.add_entity("P", "p1")
        violations = schema.conform(inst)
        assert any("missing required slot" in v for v in violations)

    def test_undeclared_relation(self):
        inst = site_instance()
        inst.relate("about", "home", "secret")
        violations = site_schema().conform(inst)
        assert any("secret" in v for v in violations)

    def test_relation_queries(self):
        schema = site_schema()
        assert schema.allows_relation("Page", "link", "Page")
        assert not schema.allows_relation("Page", "x", "Page")
        assert len(schema.relations_from("Page")) == 1

    def test_describe_smoke(self):
        text = site_schema().describe()
        assert "entity Page" in text
        assert "Page -link-> Page" in text
