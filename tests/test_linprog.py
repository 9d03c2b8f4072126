from dataclasses import replace

import numpy as np
import pytest

import fluidq.linprog
import fluidq.optimality
import fluidq.static_fluid
from fluidq import (
    NC_POSSIBLE,
    NumericalFailure,
    check_assumptions,
    generate_critical_instance,
    solve_static_allocation,
    validate_model,
)
from fluidq.analysis import run_analysis
from fluidq.linprog import COLD, INFEASIBLE, OPTIMAL, UNBOUNDED, WARM, LinearProgram, solve_lp
from fluidq.optimality import throughput_verdict_lp
from fluidq.static_fluid import _allocation_lp

from conftest import CASE_A
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


def _fuzz_programs(rng, count):
    """Random dense LPs with mixed statuses, total mass capped at 10 so that
    the vertex oracle's vertex set is the whole story."""
    for _ in range(count):
        n = int(rng.integers(1, 5))
        m_eq = int(rng.integers(0, 3))
        m_ub = int(rng.integers(0, 4))
        a_eq = rng.uniform(-2, 2, (m_eq, n)).round(2)
        b_eq = rng.uniform(-2, 2, m_eq).round(2)
        a_ub = rng.uniform(-2, 2, (m_ub, n)).round(2)
        b_ub = rng.uniform(-2, 2, m_ub).round(2)
        c = rng.uniform(-2, 2, n).round(2)
        a_ub = np.vstack([a_ub, np.ones(n)])
        b_ub = np.append(b_ub, 10.0)
        yield LinearProgram(c, a_eq, b_eq, a_ub, b_ub)


def _agrees_with_vertex_oracle(lp, res):
    oracle = vertex_optimum(lp.objective, lp.a_eq, lp.b_eq, lp.a_ub, lp.b_ub)
    if oracle is None:
        assert res.status == INFEASIBLE
    else:
        assert res.status == OPTIMAL, oracle
        assert res.value == pytest.approx(oracle[0], abs=1e-6)


def test_fuzz_against_vertex_oracle():
    # random dense LPs with mixed statuses, judged by independent enumeration
    for lp in _fuzz_programs(np.random.default_rng(99), 150):
        _agrees_with_vertex_oracle(lp, solve_lp(lp))


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


def _recorded_solves(monkeypatch, module):
    """The results of every ``solve_lp`` call made through ``module``."""
    results = []

    def recording(lp, basis=None):
        results.append(solve_lp(lp, basis))
        return results[-1]

    monkeypatch.setattr(module, "solve_lp", recording)
    return results


@pytest.mark.parametrize("size", [8, 12, 16, 20, 30])
def test_face_lp_pivot_count(monkeypatch, size):
    # started at the allocation vertex; the cold start took 20 pivots at 8x8
    # and 108 at 30x30 (seed 1), the warm one takes 1
    solves = _recorded_solves(monkeypatch, fluidq.static_fluid)
    for seed in (1, 2, 3):
        model, sol = generate_critical_instance(seed, size, size)
        solves.clear()
        assert check_assumptions(model, sol).unique
        (face,) = solves
        assert (face.start, face.status) == (WARM, OPTIMAL)
        assert face.pivots <= 4, (size, seed)


# the throughput-optimal draws among the first 400 seeds at 8x8 (the first
# five of 27), 10x10 (two of 9) and 12x12 (the only one)
OPTIMAL_DRAWS = [(8, 1), (8, 31), (8, 50), (8, 75), (8, 77), (10, 105), (10, 112), (12, 113)]


@pytest.mark.parametrize("size, seed", OPTIMAL_DRAWS)
def test_max_throughput_pivot_count_on_optimal_draws(monkeypatch, size, seed):
    # started at the basic tree, which is optimal here; the cold start took
    # 15 pivots at 8x8 (seed 1), the warm one takes 1
    model, sol = generate_critical_instance(seed, size, size)
    solves = _recorded_solves(monkeypatch, fluidq.optimality)
    assert throughput_verdict_lp(model, sol).optimal
    (res,) = solves
    assert (res.start, res.status) == (WARM, OPTIMAL)
    assert res.pivots <= 4


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


def _rows(lp):
    return lp.b_eq.size + lp.b_ub.size


def _programs_with_full_bases():
    """Optimal programs whose cold solve keeps every row, so its final basis
    has one column per row: transportation, fuzz and allocation programs."""
    rng = np.random.default_rng(5)
    lps = [_random_transportation(rng) for _ in range(20)]
    lps += list(_fuzz_programs(np.random.default_rng(99), 150))
    lps += [_allocation_lp(generate_critical_instance(seed, 6, 5)[0]) for seed in range(5)]
    for lp in lps:
        res = solve_lp(lp)
        if res.status == OPTIMAL and res.basis.size == _rows(lp):
            yield lp, res


def test_warm_start_at_the_optimal_basis_takes_no_pivot():
    solved = 0
    for lp, cold in _programs_with_full_bases():
        warm = solve_lp(lp, cold.basis)
        assert (warm.start, warm.fallback, warm.pivots) == (WARM, None, 0)
        assert np.array_equal(warm.basis, cold.basis)
        assert np.allclose(warm.x, cold.x, rtol=1e-12, atol=1e-12)
        solved += 1
    assert solved >= 60


# a 2x2 transportation program: x_ij at column 2i + j, rows 0-1 ship each
# supply in full, rows 2-3 cap each demand, with slacks at columns 4 and 5
TRANSPORT_2X2 = LinearProgram(
    [1.0, 2.0, 3.0, 1.0],
    [[1, 1, 0, 0], [0, 0, 1, 1]], [2.0, 3.0],
    [[1, 0, 1, 0], [0, 1, 0, 1]], [4.0, 4.0],
)


# two equality rows whose columns differ by 1e-11: the basis [0, 1] has an
# inverse, so only the WARM_COND check refuses it (at WARM_COND = inf it warm-starts)
NEAR_SINGULAR = LinearProgram([1.0, 1.0], [[1.0, 1.0], [1.0, 1.0 + 1e-11]], [1.0, 1.0])


@pytest.mark.parametrize("lp, basis, reason", [
    (TRANSPORT_2X2, [0, 3, 4], "basis has shape (3,), the program has 4 rows"),
    (TRANSPORT_2X2, [0, 3, 4, 5, 1], "basis has shape (5,), the program has 4 rows"),
    (TRANSPORT_2X2, [0, 3, 4, 4], "basis repeats a column"),
    # the four shipments close a cycle: x_00 - x_01 - x_10 + x_11 = 0 on every row
    (TRANSPORT_2X2, [0, 1, 2, 3], "basis is singular"),
    # no basic column touches supply row 1: a zero row of the basis matrix
    (TRANSPORT_2X2, [0, 1, 4, 5], "basis is singular"),
    (NEAR_SINGULAR, [0, 1], "basis is singular"),
    # both supplies shipped to demand 0: its slack is 4 - 2 - 3 = -1
    (TRANSPORT_2X2, [0, 2, 4, 5], "basis is infeasible"),
    (TRANSPORT_2X2, [0, 3, 4, 6], "basis names a column outside 0..5"),
    (TRANSPORT_2X2, [-1, 3, 4, 5], "basis names a column outside 0..5"),
], ids=["short", "long", "repeated", "singular", "zero-row", "ill-conditioned", "infeasible",
        "past-the-end", "negative"])
def test_warm_start_fallbacks_are_the_cold_start(lp, basis, reason):
    cold = solve_lp(lp)
    res = solve_lp(lp, basis)
    assert (res.start, res.fallback) == (COLD, reason)
    assert (res.status, res.value, res.pivots) == (cold.status, cold.value, cold.pivots)
    assert np.array_equal(res.x, cold.x) and np.array_equal(res.basis, cold.basis)


def test_warm_start_from_a_valid_basis_reaches_the_optimum():
    # x_01 = 2 and x_10 = 3 is a vertex, but not the cheapest
    res = solve_lp(TRANSPORT_2X2, [1, 2, 4, 5])
    assert (res.start, res.status, res.value) == (WARM, OPTIMAL, 5.0)
    assert res.pivots > 0
    assert np.array_equal(res.x, solve_lp(TRANSPORT_2X2).x)


def test_warm_solution_failing_the_residual_check_falls_back(monkeypatch):
    # a warm tableau whose basic values are off: its solution fails the
    # residual check, and the cold start answers instead
    real = fluidq.linprog._warm_start

    def off(A, b, basis):
        tableau, x_basic, basis = real(A, b, basis)
        return tableau, x_basic + 1e-3, basis

    monkeypatch.setattr(fluidq.linprog, "_warm_start", off)
    cold = solve_lp(TRANSPORT_2X2)
    res = solve_lp(TRANSPORT_2X2, [1, 2, 4, 5])
    assert res.start == COLD
    assert res.fallback.startswith("warm start: solution residual")
    assert (res.status, res.value) == (cold.status, cold.value)
    assert np.array_equal(res.x, cold.x) and res.pivots > cold.pivots


def test_verdict_at_large_capacity_units_matches_the_cold_start():
    # at nu and lambda times 1e10 the warm face LP's solution misses the
    # absolute residual bound, where the cold pivots on case_a stay exact
    raw = dict(CASE_A, **{"lambda": [1e10 * v for v in CASE_A["lambda"]]})
    raw["nu"] = [1e10 * v for v in CASE_A["nu"]]
    assert run_analysis(validate_model(raw)).nc.status == NC_POSSIBLE


def test_fuzz_from_a_random_basis_against_vertex_oracle():
    # the fuzz programs again, each started from a random basis; a basis that
    # cannot start phase 2 falls back, and the answer must not change
    rng = np.random.default_rng(98)
    starts = {COLD: 0, WARM: 0}
    for lp in _fuzz_programs(np.random.default_rng(99), 150):
        n_real = lp.objective.size + lp.b_ub.size
        basis = rng.choice(n_real, size=min(_rows(lp), n_real), replace=False)
        res = solve_lp(lp, basis)
        _agrees_with_vertex_oracle(lp, res)
        starts[res.start] += 1
    assert starts[WARM] >= 25, starts
