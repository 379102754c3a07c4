"""Unit tests for the subgraph matcher, brute force as oracle."""

from itertools import permutations, product

import pytest

from repro.graph import Edge, LabeledGraph, MatchSpec, count_homomorphisms, find_homomorphisms


def build(nodes, edges) -> LabeledGraph:
    g = LabeledGraph()
    for node_id, label, *rest in nodes:
        g.add_node(node_id, label, rest[0] if rest else None)
    for src, dst, label in edges:
        g.add_edge(src, dst, label)
    return g


def site_graph() -> LabeledGraph:
    return build(
        [
            ("home", "page"), ("about", "page"), ("prod", "page"),
            ("idx", "index"),
        ],
        [
            ("home", "about", "link"),
            ("home", "prod", "link"),
            ("about", "idx", "link"),
            ("idx", "home", "link"),
        ],
    )


class TestBasicMatching:
    def test_single_node_pattern(self):
        pattern = build([("p", "page")], [])
        matches = list(find_homomorphisms(pattern, site_graph()))
        assert {m["p"] for m in matches} == {"home", "about", "prod"}

    def test_empty_pattern_single_empty_match(self):
        matches = list(find_homomorphisms(LabeledGraph(), site_graph()))
        assert matches == [{}]

    def test_edge_pattern(self):
        pattern = build([("a", "page"), ("b", "page")], [("a", "b", "link")])
        matches = list(find_homomorphisms(pattern, site_graph()))
        pairs = {(m["a"], m["b"]) for m in matches}
        assert pairs == {("home", "about"), ("home", "prod")}

    def test_edge_label_must_match(self):
        pattern = build([("a", "page"), ("b", "page")], [("a", "b", "other")])
        assert count_homomorphisms(pattern, site_graph()) == 0

    def test_wildcard_label(self):
        pattern = build([("x", "*")], [])
        assert count_homomorphisms(pattern, site_graph()) == 4

    def test_value_constraint(self):
        data = build([(1, "n", "red"), (2, "n", "blue")], [])
        pattern = build([("x", "n", "red")], [])
        matches = list(find_homomorphisms(pattern, data))
        assert [m["x"] for m in matches] == [1]

    def test_no_candidates_short_circuits(self):
        pattern = build([("x", "missing")], [])
        assert count_homomorphisms(pattern, site_graph()) == 0


class TestInjectivity:
    def test_homomorphism_allows_collapse(self):
        data = build([(1, "n")], [(1, 1, "e")])
        pattern = build([("a", "n"), ("b", "n")], [("a", "b", "e")])
        spec = MatchSpec(injective=False)
        assert count_homomorphisms(pattern, data, spec) == 1

    def test_injective_forbids_collapse(self):
        data = build([(1, "n")], [(1, 1, "e")])
        pattern = build([("a", "n"), ("b", "n")], [("a", "b", "e")])
        assert count_homomorphisms(pattern, data, MatchSpec(injective=True)) == 0

    def test_injective_counts(self):
        data = build([(1, "n"), (2, "n")], [])
        pattern = build([("a", "n"), ("b", "n")], [])
        assert count_homomorphisms(pattern, data, MatchSpec(injective=True)) == 2
        assert count_homomorphisms(pattern, data, MatchSpec(injective=False)) == 4


class TestPathEdges:
    def test_path_edge_matches_transitively(self):
        data = build(
            [(1, "n"), (2, "n"), (3, "n")],
            [(1, 2, "e"), (2, 3, "e")],
        )
        pattern = build([("a", "n"), ("b", "n")], [("a", "b", "e")])
        spec = MatchSpec(path_edges={Edge("a", "b", "e")})
        pairs = {
            (m["a"], m["b"]) for m in find_homomorphisms(pattern, data, spec)
        }
        assert pairs == {(1, 2), (1, 3), (2, 3)}

    def test_path_edge_requires_nonempty_path(self):
        data = build([(1, "n")], [])
        pattern = build([("a", "n"), ("b", "n")], [("a", "b", "p")])
        spec = MatchSpec(injective=False, path_edges={Edge("a", "b", "p")})
        assert count_homomorphisms(pattern, data, spec) == 0

    def test_path_edge_with_empty_label_follows_any_edge(self):
        data = build(
            [(1, "n"), (2, "n"), (3, "n")],
            [(1, 2, "x"), (2, 3, "y")],
        )
        pattern = build([("a", "n"), ("b", "n")], [("a", "b", "")])
        spec = MatchSpec(path_edges={Edge("a", "b", "")})
        pairs = {
            (m["a"], m["b"]) for m in find_homomorphisms(pattern, data, spec)
        }
        assert (1, 3) in pairs

    def test_path_edge_label_restricts_traversal(self):
        data = build(
            [(1, "n"), (2, "n"), (3, "n")],
            [(1, 2, "x"), (2, 3, "y")],
        )
        pattern = build([("a", "n"), ("b", "n")], [("a", "b", "x")])
        spec = MatchSpec(path_edges={Edge("a", "b", "x")})
        pairs = {
            (m["a"], m["b"]) for m in find_homomorphisms(pattern, data, spec)
        }
        assert pairs == {(1, 2)}

    def test_path_edge_cycle_allows_self(self):
        data = build([(1, "n"), (2, "n")], [(1, 2, "e"), (2, 1, "e")])
        pattern = build([("a", "n"), ("b", "n")], [("a", "b", "e")])
        spec = MatchSpec(injective=False, path_edges={Edge("a", "b", "e")})
        pairs = {
            (m["a"], m["b"]) for m in find_homomorphisms(pattern, data, spec)
        }
        assert pairs == {(1, 2), (2, 1), (1, 1), (2, 2)}


class TestNarrowingToggle:
    def test_same_results_with_and_without_narrowing(self):
        import random

        rng = random.Random(5)
        data = LabeledGraph()
        for i in range(8):
            data.add_node(i, rng.choice("ab"))
        for _ in range(12):
            data.add_edge(rng.randrange(8), rng.randrange(8), rng.choice("xy"))
        pattern = build(
            [("p", "a"), ("q", "b"), ("r", "*")],
            [("p", "q", "x"), ("q", "r", "y")],
        )
        key = lambda m: tuple(sorted(m.items()))
        fast = sorted(
            map(key, find_homomorphisms(pattern, data, MatchSpec(narrow=True)))
        )
        slow = sorted(
            map(key, find_homomorphisms(pattern, data, MatchSpec(narrow=False)))
        )
        assert fast == slow


class TestCustomCompat:
    def test_node_compat_hook(self):
        data = build([(1, "n", 5), (2, "n", 50)], [])
        pattern = build([("x", "n")], [])
        spec = MatchSpec(
            node_compat=lambda p, d: data.value(d) is not None and data.value(d) > 10
        )
        matches = list(find_homomorphisms(pattern, data, spec))
        assert [m["x"] for m in matches] == [2]


def brute_force_homomorphisms(pattern, data, injective):
    """Oracle: try every assignment."""
    pnodes = list(pattern.nodes())
    dnodes = list(data.nodes())
    results = []
    iterator = (
        permutations(dnodes, len(pnodes))
        if injective
        else product(dnodes, repeat=len(pnodes))
    )
    for assignment in iterator:
        mapping = dict(zip(pnodes, assignment))
        ok = True
        for p in pnodes:
            pd, dd = pattern.node(p), data.node(mapping[p])
            if pd.label != "*" and pd.label != dd.label:
                ok = False
                break
            if pd.value is not None and pd.value != dd.value:
                ok = False
                break
        if ok:
            for edge in pattern.edges():
                if not data.has_edge(mapping[edge.source], mapping[edge.target], edge.label):
                    ok = False
                    break
        if ok:
            results.append(mapping)
    return results


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("injective", [True, False])
    def test_random_graphs(self, seed, injective):
        import random

        rng = random.Random(seed)
        labels = ["a", "b"]
        data = LabeledGraph()
        for i in range(6):
            data.add_node(i, rng.choice(labels))
        for _ in range(9):
            data.add_edge(rng.randrange(6), rng.randrange(6), rng.choice("xy"))
        pattern = LabeledGraph()
        for i in range(3):
            pattern.add_node(f"p{i}", rng.choice(labels + ["*"]))
        for _ in range(2):
            pattern.add_edge(
                f"p{rng.randrange(3)}", f"p{rng.randrange(3)}", rng.choice("xy")
            )
        expected = brute_force_homomorphisms(pattern, data, injective)
        actual = list(
            find_homomorphisms(pattern, data, MatchSpec(injective=injective))
        )
        key = lambda m: tuple(sorted(m.items()))
        assert sorted(map(key, actual)) == sorted(map(key, expected))
