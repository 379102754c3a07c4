"""Unit tests for the labelled multigraph."""

import pytest

from repro.graph import Edge, LabeledGraph


def triangle() -> LabeledGraph:
    g = LabeledGraph()
    g.add_node("a", "page")
    g.add_node("b", "page")
    g.add_node("c", "index")
    g.add_edge("a", "b", "link")
    g.add_edge("b", "c", "link")
    g.add_edge("c", "a", "index-of")
    return g


class TestConstruction:
    def test_add_node_and_lookup(self):
        g = LabeledGraph()
        g.add_node(1, "x", value=42)
        assert g.label(1) == "x"
        assert g.value(1) == 42
        assert 1 in g and 2 not in g

    def test_relabel_node(self):
        g = LabeledGraph()
        g.add_node(1, "x")
        g.add_node(1, "y")
        assert g.label(1) == "y"
        assert len(g) == 1

    def test_add_edge_requires_endpoints(self):
        g = LabeledGraph()
        g.add_node(1, "x")
        with pytest.raises(KeyError):
            g.add_edge(1, 2, "e")
        with pytest.raises(KeyError):
            g.add_edge(3, 1, "e")

    def test_duplicate_edges_idempotent(self):
        g = LabeledGraph()
        g.add_node(1, "x")
        g.add_node(2, "y")
        g.add_edge(1, 2, "e")
        g.add_edge(1, 2, "e")
        assert g.edge_count() == 1

    def test_parallel_edges_different_labels(self):
        g = LabeledGraph()
        g.add_node(1, "x")
        g.add_node(2, "y")
        g.add_edge(1, 2, "e1")
        g.add_edge(1, 2, "e2")
        assert g.edge_count() == 2
        assert len(g.out_edges(1, "e1")) == 1

    def test_self_loop(self):
        g = LabeledGraph()
        g.add_node(1, "x")
        g.add_edge(1, 1, "loop")
        assert g.has_edge(1, 1, "loop")
        assert g.degree(1) == 2


class TestRemoval:
    def test_remove_edge(self):
        g = triangle()
        edge = Edge("a", "b", "link")
        g.remove_edge(edge)
        assert not g.has_edge("a", "b", "link")
        assert g.edge_count() == 2

    def test_remove_missing_edge_raises(self):
        g = triangle()
        with pytest.raises(KeyError):
            g.remove_edge(Edge("a", "c", "nope"))

    def test_remove_node_cascades(self):
        g = triangle()
        g.remove_node("b")
        assert "b" not in g
        assert g.edge_count() == 1  # only c -> a remains

    def test_remove_missing_node_raises(self):
        with pytest.raises(KeyError):
            triangle().remove_node("zz")


class TestQueries:
    def test_successors_predecessors(self):
        g = triangle()
        assert g.successors("a") == ["b"]
        assert g.predecessors("a") == ["c"]
        assert g.successors("a", "nope") == []

    def test_nodes_with_label(self):
        assert set(triangle().nodes_with_label("page")) == {"a", "b"}

    def test_in_out_edges_filtered(self):
        g = triangle()
        assert [e.label for e in g.out_edges("c")] == ["index-of"]
        assert [e.label for e in g.in_edges("c", "link")] == ["link"]

    def test_degree(self):
        assert triangle().degree("a") == 2


class TestBulk:
    def test_copy_independent(self):
        g = triangle()
        clone = g.copy()
        clone.remove_node("a")
        assert "a" in g
        assert g.edge_count() == 3

    def test_subgraph_induced(self):
        sub = triangle().subgraph(["a", "b"])
        assert set(sub.nodes()) == {"a", "b"}
        assert sub.edge_count() == 1

    def test_is_subgraph_of(self):
        g = triangle()
        sub = g.subgraph(["a", "b"])
        assert sub.is_subgraph_of(g)
        assert not g.is_subgraph_of(sub)

    def test_is_subgraph_respects_labels(self):
        g = triangle()
        other = g.copy()
        other.add_node("a", "different")
        assert not other.is_subgraph_of(g)

    def test_repr(self):
        assert "nodes=3" in repr(triangle())


class TestInterleavedReads:
    def test_reads_between_appends_rebuild_the_index_geometrically(
        self, monkeypatch
    ):
        # a read after each append catches up with the appended tail; the
        # CSR is rebuilt only when the tail outgrows it, not per read
        from repro.graph import labeled_graph

        rebuilds = []
        original = labeled_graph._Adjacency._rebuild

        def counted(self, column):
            rebuilds.append(len(column))
            original(self, column)

        monkeypatch.setattr(labeled_graph._Adjacency, "_rebuild", counted)
        g = LabeledGraph()
        for node in range(2001):
            g.add_node(node, "n")
        for node in range(2000):
            g.add_edge(node, node + 1, "next")
            assert g.successors(node, "next") == [node + 1]
            assert g.predecessors(node + 1, "next") == [node]
        # out- and in-index each rebuild at most once per doubling
        assert len(rebuilds) <= 2 * 11
        assert g.successors(0, "next") == [1]
