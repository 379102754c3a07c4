"""LabeledGraph against networkx.MultiDiGraph, under random edit sequences.

A Hypothesis state machine interleaves node and edge additions (duplicate
and parallel edges included, in batches large enough to build the
per-label adjacency indexes), removals and copies, and after every step
compares every read with a ``networkx.MultiDiGraph`` keyed by edge label.
networkx fixes the contents; the order of a node's edges (insertion order
across labels when no label is given) is checked against a plain list
model, since networkx groups a node's edges by neighbour.
"""

import networkx as nx
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.graph import Edge, LabeledGraph

SIZE = 10
NODES = st.integers(0, SIZE - 1)
NODE_LABELS = st.sampled_from("pq")
EDGE_LABELS = st.sampled_from(["x", "y"])
EDGES = st.tuples(NODES, NODES, EDGE_LABELS)


class GraphVersusNetworkx(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.graph = LabeledGraph()
        self.oracle = nx.MultiDiGraph()
        #: every edge (source, target, label) in insertion order
        self.order: list[tuple[int, int, str]] = []

    @initialize(labels=st.lists(NODE_LABELS, min_size=SIZE, max_size=SIZE))
    def add_every_node(self, labels):
        for node, label in enumerate(labels):
            self.add_node(node, label, None)

    @rule(node=NODES, label=NODE_LABELS, value=st.none() | st.integers(0, 2))
    def add_node(self, node, label, value):
        self.graph.add_node(node, label, value)
        self.oracle.add_node(node, label=label, value=value)

    @rule(edges=st.lists(EDGES, min_size=1, max_size=50))
    def add_edges(self, edges):
        for source, target, label in edges:
            if source not in self.oracle or target not in self.oracle:
                try:
                    self.graph.add_edge(source, target, label)
                except KeyError:
                    continue
                raise AssertionError("edge to an unknown node was accepted")
            self.graph.add_edge(source, target, label)
            if not self.oracle.has_edge(source, target, key=label):
                self.oracle.add_edge(source, target, key=label)
                self.order.append((source, target, label))

    @rule(data=st.data())
    def remove_edge(self, data):
        if not self.order:
            return
        source, target, label = data.draw(st.sampled_from(self.order))
        self.graph.remove_edge(Edge(source, target, label))
        self.oracle.remove_edge(source, target, key=label)
        self.order.remove((source, target, label))

    @rule(node=NODES)
    def remove_node(self, node):
        if node not in self.oracle:
            return
        self.graph.remove_node(node)
        self.oracle.remove_node(node)
        self.order = [e for e in self.order if node not in e[:2]]

    @rule()
    def copy(self):
        self.graph = self.graph.copy()

    @invariant()
    def nodes_agree(self):
        graph, oracle = self.graph, self.oracle
        assert list(graph.nodes()) == list(oracle.nodes)
        assert len(graph) == oracle.number_of_nodes()
        for node, attributes in oracle.nodes(data=True):
            assert graph.label(node) == attributes["label"]
            assert graph.value(node) == attributes["value"]
        for label in "pq":
            assert graph.nodes_with_label(label) == [
                n for n, l in oracle.nodes(data="label") if l == label
            ]

    @invariant()
    def edges_agree(self):
        graph, oracle = self.graph, self.oracle
        assert graph.edge_count() == oracle.number_of_edges()
        outgoing = {node: [] for node in oracle.nodes}
        incoming = {node: [] for node in oracle.nodes}
        for edge in self.order:
            outgoing[edge[0]].append(edge)
            incoming[edge[1]].append(edge)
        assert [(e.source, e.target, e.label) for e in graph.edges()] == [
            edge for node in oracle.nodes for edge in outgoing[node]
        ]
        for source in range(SIZE):
            for target in range(SIZE):
                for label in "xy":
                    assert graph.has_edge(source, target, label) == (
                        oracle.has_edge(source, target, key=label)
                    )
        for node in oracle.nodes:
            out, into = outgoing[node], incoming[node]
            assert sorted(out) == sorted(oracle.out_edges(node, keys=True))
            assert sorted(into) == sorted(oracle.in_edges(node, keys=True))
            assert graph.degree(node) == oracle.degree(node)
            for label in (None, "x", "y"):
                if label is not None:
                    out = [e for e in outgoing[node] if e[2] == label]
                    into = [e for e in incoming[node] if e[2] == label]
                assert [
                    (e.source, e.target, e.label)
                    for e in graph.out_edges(node, label)
                ] == out
                assert [
                    (e.source, e.target, e.label)
                    for e in graph.in_edges(node, label)
                ] == into
                assert graph.successors(node, label) == [e[1] for e in out]
                assert graph.predecessors(node, label) == [e[0] for e in into]


GraphVersusNetworkx.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestGraphVersusNetworkx = GraphVersusNetworkx.TestCase
