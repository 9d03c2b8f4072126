import numpy as np
import pytest

from fluidq import (
    NC_IMPOSSIBLE,
    NC_POSSIBLE,
    NC_UNKNOWN,
    AllocationPolytope,
    activity_set,
    check_assumptions,
    combined_zero_path_check,
    enumerate_simple_paths,
    gamma_family,
    generate_critical_instance,
    max_throughput,
    nc_verdict,
    solve_static_allocation,
    throughput_verdict_lp,
    throughput_verdict_paths,
    validate_model,
    zero_path_check,
)

from support import max_throughput_oracle, tune_zero_path

# a 3x3 instance found by randomized search: throughput optimal, assumptions
# hold, yet its zero path is neither class- nor pool-dependent and the mass
# perturbation check fails, so the verdict machinery must answer "unknown"
GAP_3X3 = {
    "classes": 3,
    "stations": 3,
    "lambda": [1.9774930873384793, 10.917360860116247, 10.385930721653521],
    "nu": [1.8218833612413086, 1.47490995476083, 0.7984111709641641],
    "mu": [
        [0.0, 6.526706351893008, 4.061237190151964],
        [7.942705766447079, 1.115455431962837, 7.047571370691107],
        [3.6703282081060946, 5.240662974091166, 0.0],
    ],
}


def test_max_throughput_case_a_matches_oracle(case_a):
    sol = solve_static_allocation(case_a)
    value, psi = max_throughput(sol.class_masses, case_a.capacities, case_a)
    assert value == pytest.approx(14.0, abs=1e-9)
    oracle = max_throughput_oracle(sol.class_masses, case_a.capacities, case_a)
    assert value == pytest.approx(oracle, abs=1e-7)
    assert AllocationPolytope(sol.class_masses, case_a.capacities).contains(psi)
    assert (case_a.service_rates * psi).sum() == pytest.approx(value, abs=1e-9)


def test_max_throughput_case_b_matches_oracle(case_b):
    sol = solve_static_allocation(case_b)
    value, _ = max_throughput(sol.class_masses, case_b.capacities, case_b)
    assert value == pytest.approx(13.5, abs=1e-9)
    oracle = max_throughput_oracle(sol.class_masses, case_b.capacities, case_b)
    assert value == pytest.approx(oracle, abs=1e-7)


def test_max_throughput_zero_mass(case_a):
    value, psi = max_throughput(np.zeros(2), case_a.capacities, case_a)
    assert value == pytest.approx(0.0, abs=1e-12)
    assert np.abs(psi).max() <= 1e-12


def test_max_throughput_random_against_oracle():
    rng = np.random.default_rng(77)
    for _ in range(20):
        I, J = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        model, sol = generate_critical_instance(int(rng.integers(0, 9999)), I, J)
        x_bar = rng.uniform(0.1, 2.0, I)
        value, psi = max_throughput(x_bar, model.capacities, model)
        oracle = max_throughput_oracle(x_bar, model.capacities, model)
        assert value == pytest.approx(oracle, abs=1e-7)
        assert AllocationPolytope(x_bar, model.capacities).contains(psi)


def test_lp_verdict_case_a_sub_optimal(case_a):
    sol = solve_static_allocation(case_a)
    v = throughput_verdict_lp(case_a, sol)
    assert not v.optimal
    assert v.text == "throughput sub-optimal"
    assert v.max_throughput == pytest.approx(14.0, abs=1e-9)
    assert v.arrival_total == pytest.approx(12.0, abs=1e-12)
    # every sub-optimal verdict carries a checkable witness
    psi = v.witness_allocation
    assert AllocationPolytope(sol.class_masses, case_a.capacities).contains(psi)
    assert (case_a.service_rates * psi).sum() > v.arrival_total + 1e-9


def test_beta_certificate_accepted(case_a):
    # the explicit perturbed allocation with beta = 0.1 certifies sub-optimality
    beta = 0.1
    xi_hat = np.array([[1 - beta, 0.5 + beta, 0.0], [beta, 0.5 - beta, 1.0]])
    psi_hat = xi_hat * case_a.capacities[None, :]
    sol = solve_static_allocation(case_a)
    polytope = AllocationPolytope(sol.class_masses, case_a.capacities)
    assert polytope.contains(psi_hat)
    throughput = float((case_a.service_rates * psi_hat).sum())
    assert throughput == pytest.approx(12.4, abs=1e-9)
    assert throughput > case_a.arrival_rates.sum() + 1e-9


def test_minimal_model_optimal(minimal):
    sol = solve_static_allocation(minimal)
    v = throughput_verdict_lp(minimal, sol)
    assert v.optimal
    assert v.max_throughput == pytest.approx(2.0, abs=1e-9)
    assert v.witness_allocation is None


def test_path_verdict_case_a(case_a):
    sol = solve_static_allocation(case_a)
    paths = enumerate_simple_paths(sol, activity_set(case_a), case_a)
    v = throughput_verdict_paths(paths)
    assert not v.optimal
    assert v.witness_path.weight == pytest.approx(-4.0, abs=1e-9)


def test_path_verdict_case_b(case_b):
    sol = solve_static_allocation(case_b)
    paths = enumerate_simple_paths(sol, activity_set(case_b), case_b)
    v = throughput_verdict_paths(paths)
    assert not v.optimal
    assert v.witness_path.weight == pytest.approx(-3.0, abs=1e-9)


def test_path_verdict_optimal_when_no_negative(class_dependent_2x2):
    sol = solve_static_allocation(class_dependent_2x2)
    paths = enumerate_simple_paths(sol, activity_set(class_dependent_2x2), class_dependent_2x2)
    assert throughput_verdict_paths(paths).optimal


def test_verdicts_agree_on_generated_instances():
    rng = np.random.default_rng(404)
    for _ in range(40):
        I, J = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        model, sol = generate_critical_instance(int(rng.integers(0, 99999)), I, J)
        paths = enumerate_simple_paths(sol, activity_set(model), model)
        assert throughput_verdict_lp(model, sol).optimal == throughput_verdict_paths(paths).optimal


def test_monotone_in_class_masses(case_a):
    rng = np.random.default_rng(55)
    for _ in range(15):
        lo = rng.uniform(0.1, 2.0, 2)
        hi = lo + rng.uniform(0.0, 1.0, 2)
        v_lo, _ = max_throughput(lo, case_a.capacities, case_a)
        v_hi, _ = max_throughput(hi, case_a.capacities, case_a)
        assert v_lo <= v_hi + 1e-9


def test_zero_path_check_degenerate(class_dependent_2x2):
    sol = solve_static_allocation(class_dependent_2x2)
    paths = enumerate_simple_paths(
        sol, activity_set(class_dependent_2x2), class_dependent_2x2
    )
    (path,) = paths
    chk = zero_path_check(sol, path, class_dependent_2x2)
    assert chk.degenerate
    assert chk.satisfied
    assert not chk.strict
    assert np.array_equal(chk.perturbed_x, sol.class_masses)


def test_zero_path_check_rejects_nonzero_path(case_a):
    sol = solve_static_allocation(case_a)
    paths = enumerate_simple_paths(sol, activity_set(case_a), case_a)
    with pytest.raises(ValueError):
        zero_path_check(sol, paths[0], case_a)


def test_zero_path_check_pool_dependent_equality():
    # rates depend only on the station: the perturbation moves mass between
    # classes that the stations cannot tell apart, so the maximum ties exactly
    m = validate_model(
        {"classes": 2, "stations": 2, "lambda": [3.6, 1.4], "nu": [1, 1], "mu": [[3, 2], [3, 2]]}
    )
    sol = solve_static_allocation(m)
    paths = enumerate_simple_paths(sol, activity_set(m), m)
    (path,) = paths
    assert path.sign_class == "zero"
    assert path.dependence == "pool"
    chk = zero_path_check(sol, path, m)
    assert not chk.degenerate
    assert chk.satisfied
    assert not chk.strict
    assert chk.perturbed_max == pytest.approx(chk.baseline, abs=1e-9)


def test_zero_path_checks_on_generated_two_sided_instances():
    # with two classes or two pools the perturbed maximum never beats the
    # baseline, at every grid step
    produced = 0
    seed = 0
    shapes = [(2, 2), (2, 3), (3, 2)]
    while produced < 12:
        seed += 1
        out = tune_zero_path(seed * 61 + 1, *shapes[seed % 3])
        if out is None:
            continue
        model, sol, report, paths = out
        produced += 1
        for p in paths:
            if p.sign_class != "zero":
                continue
            chk = zero_path_check(sol, p, model)
            assert chk.satisfied
            assert all(ok for (_, _, ok) in chk.grid)
            assert (chk.perturbed_x >= 0).all()


def test_combined_zero_path_check(case_a):
    out = None
    seed = 0
    while out is None:
        seed += 1
        out = tune_zero_path(seed * 61 + 1, 2, 3)
    model, sol, report, paths = out
    zeros = [p for p in paths if p.sign_class == "zero"]
    chk = combined_zero_path_check(sol, zeros, model)
    assert chk is not None
    assert chk.satisfied
    assert combined_zero_path_check(sol, [], model) is None


def test_gamma_family_constant_throughput():
    # closed four-vertex zero path with distinct rates
    m = validate_model(
        {"classes": 2, "stations": 2, "lambda": [4, 2.5], "nu": [1, 1], "mu": [[2, 4], [3, 5]]}
    )
    planted = np.array([[1.0, 0.5], [0.0, 0.5]])
    from fluidq.static_fluid import FluidSolution

    masses = planted * m.capacities[None, :]
    sol = FluidSolution(
        allocation=planted,
        load=1.0,
        masses=masses,
        class_masses=masses.sum(axis=1),
        basic_edges=frozenset({(1, 3), (1, 4), (2, 4)}),
    )
    paths = enumerate_simple_paths(sol, activity_set(m), m)
    (path,) = paths
    assert path.sign_class == "zero"
    fam = gamma_family(sol, path, m, kappa=0.05)
    polytope = AllocationPolytope(fam.perturbed_x, m.capacities)
    values = []
    for g in np.linspace(0.0, fam.gamma_max, 100):
        psi = fam.allocation(g)
        assert polytope.contains(psi)
        values.append(fam.throughput(g))
    assert max(values) - min(values) <= 1e-9


def test_gamma_family_needs_zero_path(case_a):
    sol = solve_static_allocation(case_a)
    paths = enumerate_simple_paths(sol, activity_set(case_a), case_a)
    with pytest.raises(ValueError):
        gamma_family(sol, paths[0], case_a, kappa=0.01)


def test_nc_case_a_possible(case_a):
    v = nc_verdict(case_a)
    assert v.status == NC_POSSIBLE
    assert v.basis == "sub-optimal"


def test_nc_minimal_impossible(minimal):
    v = nc_verdict(minimal)
    assert v.status == NC_IMPOSSIBLE
    assert v.basis == "no-zero-paths"


def test_nc_class_dependent_impossible(class_dependent_2x2):
    # the allocation is not unique here, but the rate structure decides it
    sol = solve_static_allocation(class_dependent_2x2)
    rep = check_assumptions(class_dependent_2x2, sol)
    assert not rep.unique
    v = nc_verdict(class_dependent_2x2, sol, rep)
    assert v.status == NC_IMPOSSIBLE
    assert v.basis == "dependence-route"


def test_nc_two_sided_optimal_impossible():
    out = None
    seed = 0
    while out is None:
        seed += 1
        out = tune_zero_path(seed * 23 + 11, 2, 2)
    model, sol, report, paths = out
    v = nc_verdict(model, sol, report, paths)
    assert v.status == NC_IMPOSSIBLE
    assert v.basis == "two-sided"


def test_nc_gap_instance_unknown():
    model = validate_model(GAP_3X3)
    v = nc_verdict(model)
    assert v.status == NC_UNKNOWN
    assert v.basis == "gap"
    assert v.throughput.optimal
    assert any(
        ev.dependence == "neither" and not (ev.check.satisfied and ev.check.strict)
        for ev in v.zero_path_evidence
    )


def test_nc_assumption_failure_unknown():
    m = validate_model(
        {"classes": 2, "stations": 2, "lambda": [3, 2], "nu": [1, 1], "mu": [[3, 0], [0, 2]]}
    )
    v = nc_verdict(m)
    assert v.status == NC_UNKNOWN
    assert v.basis == "assumptions"
    assert v.violations


def test_nc_non_unique_allocation_unknown():
    # critically loaded on a tree and optimal, but a second optimal allocation
    # exists and a zero path is neither class- nor pool-dependent
    m = validate_model(
        {"classes": 3, "stations": 3, "lambda": [1.25, 1, 1.5], "nu": [1, 1, 1],
         "mu": [[0, 1, 1], [1, 2, 2], [1, 2, 0]]}
    )
    v = nc_verdict(m)
    assert v.throughput.optimal
    assert (v.status, v.basis) == (NC_UNKNOWN, "assumptions")
    assert v.explanation == "the optimal allocation is not unique"
    assert any(ev.dependence == "neither" for ev in v.zero_path_evidence)


def test_nc_possible_iff_sub_optimal_under_assumptions():
    rng = np.random.default_rng(909)
    for _ in range(25):
        I, J = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        model, sol = generate_critical_instance(int(rng.integers(0, 99999)), I, J)
        rep = check_assumptions(model, sol)
        v = nc_verdict(model, sol, rep)
        sub_optimal = not v.throughput.optimal
        assert (v.status == NC_POSSIBLE) == sub_optimal
