"""Randomized oracle for the row-cap route on prepared pools.

Under a tiny ``max_hashjoin_rows`` the pipeline degrades fragments (and
its combine stage) to the backtracking core, which reads the same
per-box pools :func:`repro.xmlgl.matcher._prepare` filtered by circles,
pushed-down conditions and crossed arcs.  Every degraded run must still
bind exactly what the naive engine binds: the naive oracle builds no
filtered pool and re-checks every condition itself.  The random
documents and queries are the engine-equivalence suite's.
"""

import random
from functools import lru_cache

import pytest

from repro.engine.limits import QueryBudget
from repro.engine.options import ExecOptions
from repro.engine.stats import EvalStats
from repro.xmlgl.matcher import match

from ..property.test_matcher_equivalence import (
    binding_multiset,
    random_document,
    random_query,
)

SEEDS = range(300)
ROW_CAPS = (0, 1, 2, 5)


@lru_cache(maxsize=None)
def degraded_run(seed: int) -> tuple[bool, bool]:
    """``(agrees with naive, degraded at least once)`` for one seed."""
    rng = random.Random(seed)
    document = random_document(rng)
    graph = random_query(rng)
    cap = rng.choice(ROW_CAPS)
    stats = EvalStats()
    capped = match(
        graph,
        document,
        options=ExecOptions(budget=QueryBudget(max_hashjoin_rows=cap)),
        stats=stats,
    )
    naive = match(graph, document, options=ExecOptions(engine="naive"))
    agrees = binding_multiset(capped) == binding_multiset(naive)
    return agrees, stats.extra.get("degraded_fragments", 0) > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_row_capped_pipeline_matches_naive(seed):
    agrees, _ = degraded_run(seed)
    assert agrees, f"seed {seed}: row-capped pipeline diverged from naive"


def test_enough_seeds_degrade():
    # The oracle only covers the fallback if the caps actually trip.
    degraded = sum(degraded_run(seed)[1] for seed in SEEDS)
    assert degraded >= 50, f"only {degraded} of {len(SEEDS)} seeds degraded"
