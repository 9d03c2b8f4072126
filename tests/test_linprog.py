from dataclasses import replace

import numpy as np
import pytest

import fluidq.linprog
from fluidq import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    NumericalFailure,
    generate_critical_instance,
    solve_lp,
    solve_static_allocation,
    validate_model,
)
from fluidq.static_fluid import _allocation_lp

from support import vertex_optimum


def test_simple_lower_bound():
    # min x subject to x >= 3, expressed as -x <= -3
    lp = LinearProgram([1.0], a_ub=[[-1.0]], b_ub=[-3.0])
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(3.0, abs=1e-9)


def test_case_a_allocation_lp_value(case_a):
    res = solve_lp(_allocation_lp(case_a))
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_infeasible_reported():
    # x1 + x2 = -1 with x >= 0
    lp = LinearProgram([1.0, 1.0], [[1.0, 1.0]], [-1.0])
    assert solve_lp(lp).status == INFEASIBLE


def test_unbounded_reported():
    lp = LinearProgram([-1.0])
    assert solve_lp(lp).status == UNBOUNDED


@pytest.mark.parametrize(
    "objective, blocks",
    [
        ([1.0, 1.0], dict(a_eq=[[1.0]], b_eq=[1.0])),
        ([1.0, 1.0], dict(a_eq=[[1.0, 1.0]], b_eq=[1.0, 2.0])),
        ([1.0, 1.0], dict(a_ub=[1.0, 1.0], b_ub=[1.0])),
        ([1.0, 1.0], dict(b_ub=[1.0])),
        ([[1.0, 1.0]], {}),
    ],
    ids=["a_eq-too-narrow", "b_eq-wrong-length", "a_ub-1d", "b_ub-without-a_ub", "objective-2d"],
)
def test_mismatched_coefficients_rejected(objective, blocks):
    with pytest.raises(ValueError):
        LinearProgram(objective, **blocks)


def _random_transportation(rng):
    I = int(rng.integers(1, 4))
    J = int(rng.integers(1, 4))
    cost = rng.uniform(1, 10, (I, J))
    supply = rng.uniform(1, 5, I)
    demand_cap = rng.uniform(1, 5, J)
    demand_cap *= (supply.sum() / demand_cap.sum()) * rng.uniform(1.1, 2.0)
    row_sums = np.kron(np.eye(I), np.ones(J))
    column_sums = np.tile(np.eye(J), I)
    return LinearProgram(cost.ravel(), row_sums, supply, column_sums, demand_cap)


def test_random_transportation_against_vertex_enumeration():
    rng = np.random.default_rng(42)
    for _ in range(40):
        lp = _random_transportation(rng)
        res = solve_lp(lp)
        oracle = vertex_optimum(lp.objective, lp.a_eq, lp.b_eq, lp.a_ub, lp.b_ub)
        if oracle is None:
            assert res.status == INFEASIBLE
        else:
            assert res.status == OPTIMAL
            assert res.value == pytest.approx(oracle[0], abs=1e-7)


def test_optimal_results_are_feasible():
    rng = np.random.default_rng(7)
    for _ in range(30):
        lp = _random_transportation(rng)
        res = solve_lp(lp)
        if res.status != OPTIMAL:
            continue
        assert (np.abs(lp.a_eq @ res.x - lp.b_eq) <= 1e-9).all()
        assert (lp.a_ub @ res.x <= lp.b_ub + 1e-9).all()
        assert (res.x >= -1e-9).all()


def test_optimum_bounds_feasible_points():
    # the reported minimum never exceeds the objective at a feasible point
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        x0 = rng.uniform(0, 3, n)
        a_eq = rng.uniform(-1, 1, (1, n))
        g = rng.uniform(-1, 1, (2, n))
        slack = rng.uniform(0.1, 1, 2)
        c = rng.uniform(-1, 1, n)
        # keep it bounded: total mass capped
        a_ub = np.vstack([g, np.ones(n)])
        b_ub = np.append(g @ x0 + slack, x0.sum() + 5)
        res = solve_lp(LinearProgram(c, a_eq, a_eq @ x0, a_ub, b_ub))
        assert res.status == OPTIMAL
        assert res.value <= c @ x0 + 1e-9


def test_deterministic_bit_for_bit():
    rng = np.random.default_rng(3)
    lp = _random_transportation(rng)
    r1 = solve_lp(lp)
    r2 = solve_lp(lp)
    assert r1.value == r2.value
    assert np.array_equal(r1.x, r2.x)


def test_redundant_and_contradictory_rows():
    # duplicated equalities are dropped; a zero row with nonzero rhs is not
    lp = LinearProgram([1.0, 0.0], [[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]], [1.0, 1.0, 2.0])
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(0.0, abs=1e-9)
    bad = LinearProgram([1.0], [[0.0]], [1.0])
    assert solve_lp(bad).status == INFEASIBLE


def test_fuzz_against_vertex_oracle():
    # random dense LPs with mixed statuses, judged by independent enumeration
    rng = np.random.default_rng(99)
    for _ in range(150):
        n = int(rng.integers(1, 5))
        m_eq = int(rng.integers(0, 3))
        m_ub = int(rng.integers(0, 4))
        a_eq = rng.uniform(-2, 2, (m_eq, n)).round(2)
        b_eq = rng.uniform(-2, 2, m_eq).round(2)
        a_ub = rng.uniform(-2, 2, (m_ub, n)).round(2)
        b_ub = rng.uniform(-2, 2, m_ub).round(2)
        c = rng.uniform(-2, 2, n).round(2)
        # cap total mass so the oracle's vertex set is the whole story
        a_ub = np.vstack([a_ub, np.ones(n)])
        b_ub = np.append(b_ub, 10.0)
        res = solve_lp(LinearProgram(c, a_eq, b_eq, a_ub, b_ub))
        oracle = vertex_optimum(c, a_eq, b_eq, a_ub, b_ub)
        if oracle is None:
            assert res.status == INFEASIBLE
        else:
            assert res.status == OPTIMAL, oracle
            assert res.value == pytest.approx(oracle[0], abs=1e-6)


def test_optimal_range_confirmed_by_perturbed_objectives(case_a):
    # nudging the objective must not move a unique optimizer
    lp = _allocation_lp(case_a)
    base = solve_lp(lp)
    rng = np.random.default_rng(17)
    for _ in range(10):
        bump = np.zeros(lp.objective.size)
        bump[:-1] = rng.uniform(0, 1e-7, lp.objective.size - 1)
        res = solve_lp(replace(lp, objective=lp.objective + bump))
        assert np.abs(res.x - base.x).max() <= 1e-6


def test_bland_fallback_ends_a_dantzig_cycle(monkeypatch):
    # Beale's degenerate program, on which Dantzig's rule alone cycles
    lp = LinearProgram(
        [-0.75, 20.0, -0.5, 6.0],
        a_ub=[[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]],
        b_ub=[0.0, 0.0, 1.0],
    )
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(-1.25, abs=1e-12)
    assert res.pivots > fluidq.linprog.DEGENERATE_RUN
    monkeypatch.setattr(fluidq.linprog, "DEGENERATE_RUN", 10**9)
    with pytest.raises(NumericalFailure, match="exceeded"):
        solve_lp(lp)


def test_allocation_lp_pivot_count():
    # Bland's rule over every pair took 4,382 pivots on this program
    model, _ = generate_critical_instance(1, 32, 32)
    res = solve_lp(_allocation_lp(model))
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert res.pivots <= 400


def test_non_finite_program_raises_numerical_failure():
    # rates in extreme units: mu * nu = 1e400 overflows in the allocation LP
    model = validate_model(
        {"classes": 1, "stations": 1, "lambda": [1], "nu": [1e200], "mu": [[1e200]]}
    )
    # with no RuntimeWarning on the way: the tests run with warnings as errors
    with pytest.raises(NumericalFailure, match="non-finite"):
        solve_static_allocation(model)
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(NumericalFailure, match="non-finite"):
            solve_lp(LinearProgram([1.0, 0.0], a_ub=[[1.0, bad]], b_ub=[1.0]))
        with pytest.raises(NumericalFailure, match="non-finite"):
            solve_lp(LinearProgram([1.0, bad]))
