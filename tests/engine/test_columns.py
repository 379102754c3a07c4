"""Unit tests for the columnar kernels (repro.engine.columns).

Every kernel is checked against a brute-force oracle, on both backends
when numpy is importable: the backend pin is flipped by monkeypatching
``columns._FORCED`` (the module-level snapshot of ``REPRO_COLUMNS``), so
one test run covers the pure-Python and the vectorised paths with
identical inputs.  The tree cases run twice: on dense pre numbers with
list-shaped structure, and on gap labels with holes and label-keyed
dicts, which is what a maintained :class:`DocumentIndex` hands the
kernels after edits.
"""

import random
from array import array

import pytest

from repro.engine import columns
from repro.engine.columns import (
    HAVE_NUMPY,
    backend,
    column,
    containment_count,
    containment_pairs,
    direct_pairs,
    intersect_sorted,
    member_filter,
    unique_sorted,
)
from repro.engine.index import LABEL_GAP

BACKENDS = ["python"] + (["numpy"] if HAVE_NUMPY else [])


@pytest.fixture(params=BACKENDS)
def pinned_backend(request, monkeypatch):
    monkeypatch.setattr(columns, "_FORCED", request.param)
    return request.param


def random_tree_columns(rng: random.Random, count: int):
    """A random tree's (posts, parent_pre) columns in pre-order numbering.

    Built the same way DocumentIndex numbers elements: children get
    consecutive pre ids after their parent; ``post`` is the largest pre in
    the subtree; the root's parent is -1.
    """
    parent_pre = [-1] * count
    for pre in range(1, count):
        parent_pre[pre] = rng.randint(max(0, pre - 4), pre - 1)
    posts = list(range(count))
    for pre in range(count - 1, 0, -1):
        ancestor = parent_pre[pre]
        while ancestor >= 0:
            posts[ancestor] = max(posts[ancestor], posts[pre])
            ancestor = parent_pre[ancestor]
    return posts, parent_pre


def tree_labels(rng: random.Random, count: int, spacing: int):
    """A random tree as ``(labels, post_of, parent_of)``.

    ``spacing == 1`` keeps dense pre numbers and list-shaped maps.
    Otherwise labels are multiples of ``spacing`` with random holes (the
    labels deleted subtrees leave behind) and the maps are label-keyed
    dicts, the shape :class:`DocumentIndex` keeps.
    """
    posts, parent_pre = random_tree_columns(rng, count)
    if spacing == 1:
        return list(range(count)), posts, parent_pre
    labels = []
    label = 0
    for _ in range(count):
        label += spacing * rng.choice((1, 1, 2, 5))
        labels.append(label)
    post_of = {labels[pre]: labels[posts[pre]] for pre in range(count)}
    parent_of = {
        labels[pre]: labels[parent_pre[pre]] if parent_pre[pre] >= 0 else -1
        for pre in range(count)
    }
    return labels, post_of, parent_of


def tree_cases(seeds: int) -> list:
    """``(seed, spacing)`` cases: dense pre numbers (ids ``0``..) and gap
    labels (ids ``gap-0``..)."""
    return [pytest.param(seed, 1, id=str(seed)) for seed in range(seeds)] + [
        pytest.param(seed, LABEL_GAP, id=f"gap-{seed}") for seed in range(seeds)
    ]


class TestBasics:
    def test_backend_report(self, pinned_backend):
        assert backend() == pinned_backend

    def test_column_and_unique_sorted(self):
        assert list(column([3, 1])) == [3, 1]
        assert list(unique_sorted([5, 1, 5, 3, 1])) == [1, 3, 5]
        assert isinstance(unique_sorted([2]), array)

    def test_member_filter(self):
        pool = column([1, 4, 9])
        assert list(member_filter(pool, {4, 9, 12})) == [4, 9]
        assert list(member_filter(pool, None)) == [1, 4, 9]
        assert list(member_filter(pool, set())) == []


class TestIntersectSorted:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_set_intersection(self, pinned_backend, seed):
        rng = random.Random(seed)
        universe = range(600)
        a = unique_sorted(rng.sample(universe, rng.randint(0, 300)))
        b = unique_sorted(rng.sample(universe, rng.randint(0, 300)))
        expected = sorted(set(a) & set(b))
        assert list(intersect_sorted(a, b)) == expected
        assert list(intersect_sorted(b, a)) == expected

    def test_lopsided_sizes_take_galloping_route(self, pinned_backend):
        small = column([5, 100, 400])
        big = unique_sorted(range(0, 500, 2))
        assert list(intersect_sorted(small, big)) == [100, 400]

    def test_empty_sides(self, pinned_backend):
        assert list(intersect_sorted(column(), column([1, 2]))) == []
        assert list(intersect_sorted(column([1, 2]), column())) == []


class TestContainmentKernels:
    @pytest.mark.parametrize("seed, spacing", tree_cases(6))
    def test_pairs_match_interval_oracle(self, pinned_backend, seed, spacing):
        rng = random.Random(seed)
        count = rng.randint(2, 400)
        labels, posts, _ = tree_labels(rng, count, spacing)
        parents = unique_sorted(rng.sample(labels, rng.randint(1, count)))
        children = unique_sorted(rng.sample(labels, rng.randint(1, count)))
        expected = [
            (p, c)
            for p in parents
            for c in children
            if p < c <= posts[p]
        ]
        left, right = containment_pairs(parents, posts, children)
        assert sorted(zip(left, right)) == sorted(expected)
        assert containment_count(parents, posts, children) == len(expected)

    def test_empty_pools(self, pinned_backend):
        posts = [1, 1]
        assert containment_count(column(), posts, column([0])) == 0
        left, right = containment_pairs(column([0]), posts, column())
        assert (list(left), list(right)) == ([], [])


class TestDirectPairs:
    @pytest.mark.parametrize("seed, spacing", tree_cases(6))
    def test_pairs_match_parent_pointer_oracle(
        self, pinned_backend, seed, spacing
    ):
        rng = random.Random(seed)
        count = rng.randint(2, 400)
        labels, _, parent_of = tree_labels(rng, count, spacing)
        parents = unique_sorted(rng.sample(labels, rng.randint(1, count)))
        children = unique_sorted(rng.sample(labels, rng.randint(1, count)))
        parent_members = set(parents)
        expected = [
            (parent_of[c], c)
            for c in children
            if parent_of[c] >= 0 and parent_of[c] in parent_members
        ]
        left, right = direct_pairs(parents, parent_of, children)
        assert list(zip(left, right)) == expected


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not importable")
class TestBackendAgreement:
    """The two backends must be bit-identical on the same inputs."""

    @pytest.mark.parametrize("seed, spacing", tree_cases(4))
    def test_all_kernels_agree(self, monkeypatch, seed, spacing):
        rng = random.Random(1000 + seed)
        count = 500  # above _NUMPY_MIN so auto would vectorise too
        labels, posts, parent_of = tree_labels(rng, count, spacing)
        parents = unique_sorted(rng.sample(labels, 200))
        children = unique_sorted(rng.sample(labels, 300))
        results = {}
        for pin in ("python", "numpy"):
            monkeypatch.setattr(columns, "_FORCED", pin)
            results[pin] = (
                list(intersect_sorted(parents, children)),
                containment_count(parents, posts, children),
                tuple(
                    list(side)
                    for side in containment_pairs(parents, posts, children)
                ),
                tuple(
                    list(side)
                    for side in direct_pairs(parents, parent_of, children)
                ),
            )
        assert results["python"] == results["numpy"]
