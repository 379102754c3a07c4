"""Unit tests for the set-at-a-time join layer (joins.py + pipeline.py)."""

from array import array
from itertools import product

import pytest

from repro.engine.joins import (
    ColumnRelation,
    equijoin_key,
    join_forest,
    semijoin_reduce,
)
from repro.engine.pipeline import (
    connected_components,
    evaluate_forest,
    relation_for,
)
from repro.engine.stats import EvalStats


def col(*values):
    return array("i", values)


def rel(left_var, right_var, pairs, stats=None):
    """A relation from ``(left, right)`` int pairs, optionally tallied."""
    left = col(*(pair[0] for pair in pairs))
    right = col(*(pair[1] for pair in pairs))
    if stats is None:
        return ColumnRelation(left_var, right_var, left, right)
    return relation_for(left_var, right_var, (left, right), stats)


def pair_list(relation):
    return list(zip(relation.left, relation.right))


def as_dicts(order, rows):
    return [dict(zip(order, row)) for row in rows]


class TestEquijoinKey:
    def test_numeric_coercion_collides_equal_atoms(self):
        assert equijoin_key("007") == equijoin_key(7) == equijoin_key(7.0)

    def test_booleans_key_as_numbers(self):
        assert equijoin_key(True) == equijoin_key(1)
        assert equijoin_key(False) == equijoin_key(0)

    def test_strings_key_canonically(self):
        assert equijoin_key("abc") == equijoin_key("abc")
        assert equijoin_key("abc") != equijoin_key("abd")

    def test_none_is_none(self):
        assert equijoin_key(None) is None


class TestEdgeRelation:
    """The relation of one pattern edge: a :class:`ColumnRelation`."""

    def relation(self):
        return rel("a", "b", [(1, 10), (1, 11), (2, 10)])

    def test_len_vars_other(self):
        relation = self.relation()
        assert len(relation) == 3
        assert (relation.left_var, relation.right_var) == ("a", "b")
        assert list(relation.side("a")) == [1, 1, 2]
        assert list(relation.side("b")) == [10, 11, 10]
        assert relation.other("a") == "b"
        assert relation.other("b") == "a"

    def test_by_side_groups_partners(self):
        relation = self.relation()
        assert relation.partners("a") == {1: [10, 11], 2: [10]}
        assert relation.partners("b") == {10: [1, 2], 11: [1]}

    def test_restrict_drops_and_invalidates(self):
        relation = self.relation()
        relation.partners("a")  # build the lazy grouping, then invalidate it
        removed = relation.restrict({1}, {10})
        assert removed == 2
        assert pair_list(relation) == [(1, 10)]
        assert relation.partners("a") == {1: [10]}

    def test_restrict_full_pools_is_a_no_op(self):
        relation = self.relation()
        assert relation.restrict({1, 2}, {10, 11}) == 0
        assert relation.restrict({1}, {10, 11}) == 1


def chain_setup():
    """a -> b -> c chain with one dangling candidate at each level."""
    pools = {"a": col(1, 2), "b": col(10, 11, 12), "c": col(100)}
    r_ab = rel("a", "b", [(1, 10), (2, 11), (2, 12)])
    r_bc = rel("b", "c", [(10, 100)])
    order = ["a", "b", "c"]
    parent_of = {"b": ("a", r_ab), "c": ("b", r_bc)}
    return pools, [r_ab, r_bc], order, parent_of


class TestSemijoinReduce:
    def test_full_reduction_removes_all_dangling(self):
        pools, relations, order, parent_of = chain_setup()
        stats = EvalStats()
        assert semijoin_reduce(pools, relations, order, parent_of, stats)
        # only a=1, b=10, c=100 survive: 2/11/12 reach no c
        assert {var: list(pool) for var, pool in pools.items()} == {
            "a": [1], "b": [10], "c": [100],
        }
        assert stats.semijoins > 0
        # dropped: b=11 and b=12 (no c partner), then a=2 (its b's are gone)
        assert stats.semijoin_dropped == 3
        for relation in relations:
            assert all(
                left in pools[relation.left_var]
                and right in pools[relation.right_var]
                for left, right in pair_list(relation)
            )

    def test_empty_pool_reports_no_results(self):
        pools, relations, order, parent_of = chain_setup()
        pools["c"] = col()  # no c candidate at all
        assert not semijoin_reduce(pools, relations, order, parent_of, EvalStats())


class TestJoinForest:
    def test_joins_along_tree(self):
        pools, relations, order, parent_of = chain_setup()
        stats = EvalStats()
        assert semijoin_reduce(pools, relations, order, parent_of, stats)
        rows = join_forest(pools, order, parent_of, stats)
        assert rows == [[1, 10, 100]]
        assert stats.hashjoin_rows > 0

    def test_roots_cross_product(self):
        pools = {"a": col(1, 2), "b": col(10, 11)}
        rows = join_forest(pools, ["a", "b"], {}, EvalStats())
        assert sorted(map(tuple, rows)) == [(1, 10), (1, 11), (2, 10), (2, 11)]

    def test_empty_root_pool_yields_nothing(self):
        assert join_forest({"a": col()}, ["a"], {}, EvalStats()) == []


class TestForestHelpers:
    def test_connected_components(self):
        components = connected_components(
            ["a", "b", "c", "d"], [("a", "b"), ("c", "c")]
        )
        assert sorted(sorted(c, key=str) for c in components) == [
            ["a", "b"], ["c"], ["d"],
        ]

def brute_force(pools, pairs):
    """Every assignment of the pools' product that satisfies each
    ``(left_var, right_var, pair list)`` relation, as sorted item tuples."""
    variables = list(pools)
    found = []
    for values in product(*(pools[v] for v in variables)):
        row = dict(zip(variables, values))
        if all((row[left], row[right]) in set(p) for left, right, p in pairs):
            found.append(tuple(sorted(row.items())))
    return sorted(found)


class TestCyclicJoinGraphs:
    """Relations the join tree does not place filter the assembled rows."""

    def run(self, pools, pairs, planner_enabled=True):
        stats = EvalStats()
        relations = [rel(left, right, p, stats) for left, right, p in pairs]
        order, rows = evaluate_forest(
            {v: col(*c) for v, c in pools.items()}, relations, stats,
            planner_enabled=planner_enabled,
        )
        return sorted(tuple(sorted(r.items())) for r in as_dicts(order, rows))

    @pytest.mark.parametrize("planner_enabled", [True, False])
    @pytest.mark.parametrize(
        "pools,pairs",
        [
            pytest.param(
                {"a": [1, 2], "b": [10, 11], "c": [100, 101]},
                [
                    ("a", "b", [(1, 10), (1, 11), (2, 11)]),
                    ("b", "c", [(10, 100), (11, 100), (11, 101)]),
                    ("c", "a", [(100, 1), (101, 2)]),
                ],
                id="triangle",
            ),
            pytest.param(
                {"a": [1, 2, 3], "b": [10, 11]},
                [
                    ("a", "b", [(1, 10), (2, 10), (2, 11), (3, 11)]),
                    ("b", "a", [(10, 2), (11, 3), (11, 1)]),
                ],
                id="parallel-pair",
            ),
            pytest.param(
                {"a": [1, 2, 3], "b": [10, 11]},
                [
                    ("a", "b", [(1, 10), (2, 10), (3, 11)]),
                    ("a", "a", [(1, 1), (2, 3), (3, 3)]),
                ],
                id="self-loop",
            ),
        ],
    )
    def test_rows_equal_brute_force(self, pools, pairs, planner_enabled):
        expected = brute_force(pools, pairs)
        assert expected  # each case keeps some rows and drops others
        assert len(expected) < len(brute_force(pools, pairs[:1]))
        assert self.run(pools, pairs, planner_enabled) == expected

    def test_lone_self_loop_is_not_dropped(self):
        # the variable's only relation is its self-loop: no tree link
        assert self.run({"a": [1, 2, 3]}, [("a", "a", [(1, 1), (2, 3)])]) == [
            (("a", 1),),
        ]

    def test_only_tree_links_are_semi_joined(self):
        stats = EvalStats()
        relations = [
            rel("a", "b", [(1, 10), (2, 11)], stats),
            rel("b", "c", [(10, 100), (11, 101)], stats),
            rel("c", "a", [(100, 1)], stats),
        ]
        order, rows = evaluate_forest(
            {"a": col(1, 2), "b": col(10, 11), "c": col(100, 101)},
            relations, stats,
        )
        assert as_dicts(order, rows) == [{"a": 1, "b": 10, "c": 100}]
        # only the two tree links are semi-joined (twice each)
        assert stats.semijoins == 4


class TestEvaluateForest:
    def test_chain_query(self):
        stats = EvalStats()
        pools = {"a": col(1, 2), "b": col(10, 11, 12), "c": col(100)}
        relations = [
            rel("a", "b", [(1, 10), (2, 11), (2, 12)], stats),
            rel("b", "c", [(10, 100)], stats),
        ]
        order, rows = evaluate_forest(pools, relations, stats)
        assert as_dicts(order, rows) == [{"a": 1, "b": 10, "c": 100}]
        assert stats.relation_pairs == 4
        assert stats.edge_checks == 2

    def test_planner_off_agrees_with_planner_on(self):
        def run(planner_enabled):
            stats = EvalStats()
            pools = {"a": col(1, 2), "b": col(10, 11), "c": col(100, 101)}
            relations = [
                rel("b", "a", [(10, 1), (11, 2)], stats),
                rel("b", "c", [(10, 100), (10, 101)], stats),
            ]
            order, rows = evaluate_forest(
                pools, relations, stats, planner_enabled=planner_enabled
            )
            return sorted(
                tuple(sorted(row.items())) for row in as_dicts(order, rows)
            )

        assert run(True) == run(False) == [
            (("a", 1), ("b", 10), ("c", 100)),
            (("a", 1), ("b", 10), ("c", 101)),
        ]

    def test_disconnected_trees_cross_product(self):
        stats = EvalStats()
        pools = {"a": col(1), "b": col(10), "x": col(7, 8)}
        relations = [rel("a", "b", [(1, 10)], stats)]
        order, rows = evaluate_forest(pools, relations, stats)
        assert sorted(
            (r["a"], r["b"], r["x"]) for r in as_dicts(order, rows)
        ) == [(1, 10, 7), (1, 10, 8)]

    def test_empty_relation_short_circuits(self):
        stats = EvalStats()
        pools = {"a": col(1), "b": col(10)}
        relations = [rel("a", "b", [], stats)]
        assert evaluate_forest(pools, relations, stats)[1] == []
        assert stats.hashjoin_rows == 0
