import numpy as np
import pytest

from fluidq import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    solve_lp,
)
from fluidq.static_fluid import _allocation_lp

from support import vertex_optimum


def test_simple_lower_bound():
    # min x subject to x >= 3, expressed as -x <= -3
    lp = LinearProgram(1, [1.0], ub=[([-1.0], -3.0)])
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(3.0, abs=1e-9)


def test_case_a_allocation_lp_value(case_a):
    res = solve_lp(_allocation_lp(case_a))
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_infeasible_reported():
    # x1 + x2 = -1 with x >= 0
    lp = LinearProgram(2, [1.0, 1.0], eq=[([1.0, 1.0], -1.0)])
    assert solve_lp(lp).status == INFEASIBLE


def test_unbounded_reported():
    lp = LinearProgram(1, [-1.0])
    assert solve_lp(lp).status == UNBOUNDED


def test_mismatched_coefficients_rejected():
    with pytest.raises(ValueError):
        LinearProgram(2, [1.0, 1.0], eq=[([1.0], 1.0)])


def _random_transportation(rng):
    I = int(rng.integers(1, 4))
    J = int(rng.integers(1, 4))
    cost = rng.uniform(1, 10, (I, J))
    supply = rng.uniform(1, 5, I)
    demand_cap = rng.uniform(1, 5, J)
    demand_cap *= (supply.sum() / demand_cap.sum()) * rng.uniform(1.1, 2.0)
    n = I * J
    eq = []
    for i in range(I):
        coef = np.zeros(n)
        coef[i * J:(i + 1) * J] = 1.0
        eq.append((coef, float(supply[i])))
    ub = []
    for j in range(J):
        coef = np.zeros(n)
        coef[np.arange(I) * J + j] = 1.0
        ub.append((coef, float(demand_cap[j])))
    return LinearProgram(n, cost.ravel(), eq=tuple(eq), ub=tuple(ub)), eq, ub


def test_random_transportation_against_vertex_enumeration():
    rng = np.random.default_rng(42)
    for _ in range(40):
        lp, eq, ub = _random_transportation(rng)
        res = solve_lp(lp)
        oracle = vertex_optimum(
            lp.objective,
            np.vstack([c for c, _ in eq]),
            np.array([r for _, r in eq]),
            np.vstack([c for c, _ in ub]),
            np.array([r for _, r in ub]),
        )
        if oracle is None:
            assert res.status == INFEASIBLE
        else:
            assert res.status == OPTIMAL
            assert res.value == pytest.approx(oracle[0], abs=1e-7)


def test_optimal_results_are_feasible():
    rng = np.random.default_rng(7)
    for _ in range(30):
        lp, eq, ub = _random_transportation(rng)
        res = solve_lp(lp)
        if res.status != OPTIMAL:
            continue
        for coef, rhs in lp.eq:
            assert abs(coef @ res.x - rhs) <= 1e-9
        for coef, rhs in lp.ub:
            assert coef @ res.x <= rhs + 1e-9
        assert (res.x >= -1e-9).all()


def test_optimum_bounds_feasible_points():
    # the reported minimum never exceeds the objective at a feasible point
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        x0 = rng.uniform(0, 3, n)
        a_eq = rng.uniform(-1, 1, (1, n))
        eq = [(a_eq[0], float(a_eq[0] @ x0))]
        g = rng.uniform(-1, 1, (2, n))
        ub = [(g[k], float(g[k] @ x0 + rng.uniform(0.1, 1))) for k in range(2)]
        c = rng.uniform(-1, 1, n)
        # keep it bounded: total mass capped
        ub.append((np.ones(n), float(x0.sum() + 5)))
        res = solve_lp(LinearProgram(n, c, eq=tuple(eq), ub=tuple(ub)))
        assert res.status == OPTIMAL
        assert res.value <= c @ x0 + 1e-9


def test_deterministic_bit_for_bit():
    rng = np.random.default_rng(3)
    lp, _, _ = _random_transportation(rng)
    r1 = solve_lp(lp)
    r2 = solve_lp(lp)
    assert r1.value == r2.value
    assert np.array_equal(r1.x, r2.x)


def test_redundant_and_contradictory_rows():
    # duplicated equalities are dropped; a zero row with nonzero rhs is not
    lp = LinearProgram(
        2, [1.0, 0.0], eq=[([1.0, 1.0], 1.0), ([1.0, 1.0], 1.0), ([2.0, 2.0], 2.0)]
    )
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(0.0, abs=1e-9)
    bad = LinearProgram(1, [1.0], eq=[([0.0], 1.0)])
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
        lp = LinearProgram(
            n, c,
            eq=tuple((a_eq[k], float(b_eq[k])) for k in range(m_eq)),
            ub=tuple((a_ub[k], float(b_ub[k])) for k in range(m_ub + 1)),
        )
        res = solve_lp(lp)
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
        bump = np.zeros(lp.n_vars)
        bump[: case_a.num_classes * case_a.num_stations] = rng.uniform(
            0, 1e-7, case_a.num_classes * case_a.num_stations
        )
        shifted = LinearProgram(lp.n_vars, lp.objective + bump, lp.eq, lp.ub)
        res = solve_lp(shifted)
        assert np.abs(res.x - base.x).max() <= 1e-6
