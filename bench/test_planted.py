"""The planted-certificate builder yields instances that pass every assumption
check, with the planted tree as the basic-activity graph.

    python3 -m pytest bench/test_planted.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import fluidq as fq  # noqa: E402
from planted import planted_instance  # noqa: E402


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("seed", range(5))
def test_planted_tree_is_the_unique_optimum(size, seed):
    raw, tree = planted_instance(np.random.default_rng(seed), size, size)
    model = fq.validate_model(raw)
    sol = fq.solve_static_allocation(model)
    report = fq.check_assumptions(model, sol)
    assert report.all_hold, report.violations
    assert sol.basic_edges == tree
    assert abs(sol.load - 1.0) <= 1e-9
