from itertools import count, islice
from pathlib import Path

import numpy as np
import pytest

from fluidq import (
    NC_IMPOSSIBLE,
    NC_POSSIBLE,
    NC_UNKNOWN,
    FluidSolution,
    NumericalFailure,
    ThroughputVerdict,
    activity_set,
    check_assumptions,
    enumerate_simple_paths,
    generate_critical_instance,
    load_model,
    nc_verdict,
    solve_static_allocation,
    validate_model,
    zero_path_check,
)

import fluidq.optimality
import fluidq.static_fluid
from fluidq.analysis import run_analysis
from fluidq.linprog import solve_lp
from fluidq.optimality import max_throughput, throughput_verdict_lp, throughput_verdict_paths

from conftest import CASE_A, CASE_B, CLASS_DEPENDENT_2X2, MINIMAL
from support import (
    AllocationPolytope,
    gamma_family,
    max_throughput_flow,
    max_throughput_oracle,
    path_along,
    relabel_model,
    tune_zero_path,
)
from test_golden import CYCLE_4X4, ZERO_PATHS_3X3

MODELS = Path(__file__).resolve().parents[1] / "models"

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
    value, psi = max_throughput(sol.class_masses, case_a)
    assert value == pytest.approx(14.0, abs=1e-9)
    oracle = max_throughput_oracle(sol.class_masses, case_a.capacities, case_a)
    assert value == pytest.approx(oracle, abs=1e-7)
    assert AllocationPolytope(sol.class_masses, case_a.capacities).contains(psi)
    assert (case_a.service_rates * psi).sum() == pytest.approx(value, abs=1e-9)


def test_max_throughput_case_b_matches_oracle(case_b):
    sol = solve_static_allocation(case_b)
    value, _ = max_throughput(sol.class_masses, case_b)
    assert value == pytest.approx(13.5, abs=1e-9)
    oracle = max_throughput_oracle(sol.class_masses, case_b.capacities, case_b)
    assert value == pytest.approx(oracle, abs=1e-7)


def test_max_throughput_zero_mass(case_a):
    value, psi = max_throughput(np.zeros(2), case_a)
    assert value == pytest.approx(0.0, abs=1e-12)
    assert np.abs(psi).max() <= 1e-12


def test_max_throughput_random_against_oracle():
    rng = np.random.default_rng(77)
    for _ in range(20):
        I, J = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        model, sol = generate_critical_instance(int(rng.integers(0, 9999)), I, J)
        x_bar = rng.uniform(0.1, 2.0, I)
        value, psi = max_throughput(x_bar, model)
        oracle = max_throughput_oracle(x_bar, model.capacities, model)
        assert value == pytest.approx(oracle, abs=1e-7)
        assert AllocationPolytope(x_bar, model.capacities).contains(psi)


@pytest.mark.parametrize("unit", ["time", "capacity"])
@pytest.mark.parametrize("raw", [CASE_A, CASE_B], ids=["case_a", "case_b"])
def test_max_throughput_is_homogeneous_in_the_rates(raw, unit):
    # an absolute pivot tolerance on the raw rates stopped the simplex early:
    # at c = 1e-11 in time units case_a's value was 0
    model = validate_model(raw)
    sol = solve_static_allocation(model)
    expected, _ = max_throughput(sol.class_masses, model)
    rates = "mu" if unit == "time" else "nu"
    for c in (1e-11, 3e-11, 1e-10, 1e4, 1e8):
        scaled = dict(raw, **{"lambda": [c * v for v in raw["lambda"]]})
        scaled[rates] = (np.asarray(raw[rates], dtype=float) * c).tolist()
        scaled = validate_model(scaled)
        # class masses are invariant in time units and scale with capacity
        masses = sol.class_masses * (1.0 if unit == "time" else c)
        value, _ = max_throughput(masses, scaled)
        assert value == pytest.approx(c * expected, rel=1e-12, abs=0.0), c


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
        v_lo, _ = max_throughput(lo, case_a)
        v_hi, _ = max_throughput(hi, case_a)
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
    # the degenerate check is the one with an empty grid, at step 0
    assert chk.kappa == 0.0
    assert chk.grid == ()
    assert chk.perturbed_max == chk.baseline


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


def test_combined_zero_path_check(case_a):
    out = None
    seed = 0
    while out is None:
        seed += 1
        out = tune_zero_path(seed * 61 + 1, 2, 3)
    model, sol, report, paths = out
    zeros = [p for p in paths if p.sign_class == "zero"]
    # nc_verdict's combined probe: equal mass on every zero path at once
    chk = fluidq.optimality._run_perturbation(sol, model, [p.class_weights for p in zeros], None)
    assert chk.path is None
    assert chk.satisfied


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
    assert not polytope.contains(psi[:, :1])  # a matrix of the wrong shape
    for g in (-0.01, fam.gamma_max + 0.01):
        with pytest.raises(ValueError, match="outside"):
            fam.allocation(g)
    # delta = kappa * (-2) = 20 exceeds the mass 0.5 at (i0, j0): the family is empty
    with pytest.raises(ValueError, match="kappa too large"):
        gamma_family(sol, path, m, kappa=-10.0)


def test_gamma_family_needs_zero_path(case_a):
    sol = solve_static_allocation(case_a)
    paths = enumerate_simple_paths(sol, activity_set(case_a), case_a)
    with pytest.raises(ValueError, match="zero paths"):
        gamma_family(sol, paths[0], case_a, kappa=0.01)
    # a zero path, but an open one of six vertices: 1 - 2 + 1 - 1 + 1 = 0
    m = validate_model({"classes": 3, "stations": 3, "lambda": [1, 1, 1], "nu": [1, 1, 1],
                        "mu": [[1, 0, 0], [2, 1, 0], [0, 1, 1]]})
    six = path_along((1, 4, 2, 5, 3, 6), False, m)
    assert six.sign_class == "zero"
    with pytest.raises(ValueError, match="four-vertex"):
        gamma_family(solve_static_allocation(m), six, m, kappa=0.01)


def test_nc_case_a_possible(case_a):
    v = run_analysis(case_a).nc
    assert v.status == NC_POSSIBLE
    assert v.basis == "sub-optimal"


def test_nc_minimal_impossible(minimal):
    v = run_analysis(minimal).nc
    assert v.status == NC_IMPOSSIBLE
    assert v.basis == "no-zero-paths"


def test_nc_class_dependent_impossible(class_dependent_2x2):
    # the allocation is not unique here, but the rate structure decides it
    report = run_analysis(class_dependent_2x2)
    assert not report.assumptions.unique
    v = report.nc
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
    v = run_analysis(validate_model(GAP_3X3)).nc
    assert v.status == NC_UNKNOWN
    assert v.basis == "gap"
    assert v.throughput.optimal
    assert any(
        ev.path.dependence == "neither" and not (ev.satisfied and ev.strict)
        for ev in v.zero_path_evidence
    )


def test_nc_assumption_failure_unknown():
    m = validate_model(
        {"classes": 2, "stations": 2, "lambda": [3, 2], "nu": [1, 1], "mu": [[3, 0], [0, 2]]}
    )
    report = run_analysis(m)
    assert report.nc.status == NC_UNKNOWN
    assert report.nc.basis == "assumptions"
    assert report.assumptions.violations


def test_nc_tree_below_critical_load_unknown():
    # the basic graph is a tree, so paths exist, but the load is 0.5: the
    # critical-load guard decides before the path criterion is read
    report = run_analysis(validate_model(dict(CASE_A, **{"lambda": [4, 2]})))
    assert report.solution.load == pytest.approx(0.5)
    assert report.assumptions.is_tree and len(report.paths) == 2
    v = report.nc
    assert (v.status, v.basis) == (NC_UNKNOWN, "assumptions")
    assert v.path_verdict is None
    assert v.zero_path_evidence == () and v.combined_check is None
    assert v.throughput.max_throughput is not None
    assert report.defects == []


def test_nc_criterion_disagreement_unknown(monkeypatch):
    # a path criterion that contradicts the LP stops the chain before any
    # zero path is probed, and the report names the defect
    monkeypatch.setattr(
        fluidq.optimality, "throughput_verdict_paths", lambda paths: ThroughputVerdict(optimal=True)
    )
    report = run_analysis(validate_model(CASE_A))
    v = report.nc
    assert (v.status, v.basis) == (NC_UNKNOWN, "criterion-disagreement")
    assert not v.throughput.optimal and v.path_verdict.optimal
    assert v.zero_path_evidence == ()
    assert report.defects == [
        "LP and path optimality criteria disagree although the assumptions hold"
    ]


def test_nc_non_unique_allocation_unknown():
    # critically loaded on a tree and optimal, but a second optimal allocation
    # exists and a zero path is neither class- nor pool-dependent
    m = validate_model(
        {"classes": 3, "stations": 3, "lambda": [1.25, 1, 1.5], "nu": [1, 1, 1],
         "mu": [[0, 1, 1], [1, 2, 2], [1, 2, 0]]}
    )
    # the optimal vertex whose basic graph is a tree; the solver may return
    # another optimal vertex, which fails the tree assumption instead
    allocation = np.array([[0, 0.75, 0.5], [0, 0, 0.5], [1, 0.25, 0]])
    sol = FluidSolution(
        allocation, 1.0, allocation, allocation.sum(axis=1),
        frozenset({(1, 5), (1, 6), (2, 6), (3, 4), (3, 5)}),
    )
    paths = enumerate_simple_paths(sol, activity_set(m), m)
    v = nc_verdict(m, sol, check_assumptions(m, sol), paths)
    assert v.throughput.optimal
    assert (v.status, v.basis) == (NC_UNKNOWN, "assumptions")
    assert v.explanation == "the optimal allocation is not unique"
    assert any(ev.path.dependence == "neither" for ev in v.zero_path_evidence)


def test_nc_possible_iff_sub_optimal_under_assumptions():
    rng = np.random.default_rng(909)
    for _ in range(25):
        I, J = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        model, sol = generate_critical_instance(int(rng.integers(0, 99999)), I, J)
        paths = enumerate_simple_paths(sol, activity_set(model), model)
        v = nc_verdict(model, sol, check_assumptions(model, sol), paths)
        sub_optimal = not v.throughput.optimal
        assert (v.status == NC_POSSIBLE) == sub_optimal


SCALES = (1e-12, 1e-11, 3e-11, 1e-10, 3e-10, 1e-9, 1e-8, 1e-4, 1e4, 1e6, 1e8, 1e10)


@pytest.mark.parametrize("unit", ["time", "capacity"])
@pytest.mark.parametrize(
    "raw", [CASE_A, CASE_B, CLASS_DEPENDENT_2X2], ids=["case_a", "case_b", "class_dependent_2x2"]
)
def test_verdict_does_not_depend_on_units(raw, unit):
    # lambda and mu scale with time, lambda and nu with capacity; the verdict
    # may degrade to unknown or a numerical failure, never to a wrong one
    expected = run_analysis(validate_model(raw)).nc.status
    rates = "mu" if unit == "time" else "nu"
    for c in SCALES:
        scaled = dict(raw, **{"lambda": [c * v for v in raw["lambda"]]})
        scaled[rates] = (np.asarray(raw[rates], dtype=float) * c).tolist()
        try:
            status = run_analysis(validate_model(scaled)).nc.status
        except NumericalFailure:
            assert c not in (1e4, 1e6, 1e8), c
            continue
        if c in (1e4, 1e6, 1e8):
            assert status == expected, c
        assert status in (expected, NC_UNKNOWN), c


def _label_invariance_models():
    """The shipped models, three hand-written corners, 40 planted draws from
    2x2 to 7x7 and the first 30 tuned zero-path instances."""
    models = [load_model(str(p)) for p in sorted(MODELS.glob("*.json"))]
    models += [validate_model(raw) for raw in (MINIMAL, ZERO_PATHS_3X3, CYCLE_4X4)]
    models += [generate_critical_instance(seed, 2 + seed % 6, 2 + seed // 6 % 6)[0]
               for seed in range(40)]
    tuned = (tune_zero_path(seed * 37, 2 + seed % 3, 2 + seed // 3 % 3) for seed in count(1))
    return models + [out[0] for out in islice(filter(None, tuned), 30)]


def _verdict_in_labels_of(model, class_perm, station_perm):
    """What relabeling ``model`` must leave unchanged, in ``model``'s labels: the
    status, basis and assumption flags and, where the allocation is unique,
    the basic edges and each path's kind, sign class and dependence by leaf pair."""
    old = [*(model.class_labels[c] for c in class_perm),
           *(model.station_labels[s] for s in station_perm)]
    back = dict(zip([*model.class_labels, *model.station_labels], old))
    rep = run_analysis(relabel_model(model, class_perm, station_perm))
    flags = (rep.nc.status, rep.nc.basis, rep.assumptions.critically_loaded,
             rep.assumptions.unique, rep.assumptions.is_tree)
    if not rep.assumptions.unique:
        return flags
    edges = frozenset((back[i], back[j]) for i, j in rep.solution.basic_edges)
    paths = {(back[p.class_leaf], back[p.station_leaf]): (p.kind, p.sign_class, p.dependence)
             for p in rep.paths or ()}
    return flags, edges, paths


def test_verdict_does_not_depend_on_labels():
    # four seeded permutations of the classes and stations of each of 76 models
    rng = np.random.default_rng(27)
    relabeled = 0
    for model in _label_invariance_models():
        I, J = model.num_classes, model.num_stations
        expected = _verdict_in_labels_of(model, range(I), range(J))
        for _ in range(4):
            cp, sp = rng.permutation(I), rng.permutation(J)
            assert _verdict_in_labels_of(model, cp, sp) == expected, (model, cp, sp)
            relabeled += 1
    assert relabeled == 304


def _warm_or_cold(model):
    """What a warm start must leave unchanged: the verdict, its deciding
    rule, the assumption flags and every violation."""
    rep = run_analysis(model)
    flags = (rep.assumptions.critically_loaded, rep.assumptions.unique, rep.assumptions.is_tree)
    return (rep.nc.status, rep.nc.basis, flags, rep.assumptions.violations), rep


def test_warm_starts_agree_with_cold_starts(monkeypatch):
    # the face LP and max_throughput start at the allocation's vertex; the
    # same corpus solved with every basis ignored must give the same answers
    models = _label_invariance_models()
    warm = [_warm_or_cold(model) for model in models]
    with monkeypatch.context() as patch:
        for module in (fluidq.static_fluid, fluidq.optimality):
            patch.setattr(module, "solve_lp", lambda lp, basis=None: solve_lp(lp))
        cold = [_warm_or_cold(model)[0] for model in models]
    assert [w for w, _ in warm] == cold
    for model, (_, rep) in zip(models, warm):
        masses = rep.solution.class_masses
        # vertex enumeration runs up to 3x3; the flow oracle runs everywhere
        oracles = [max_throughput_flow(masses, model.capacities, model)]
        if model.num_classes * model.num_stations <= 9:
            oracles.append(max_throughput_oracle(masses, model.capacities, model))
        for oracle in oracles:
            assert rep.nc.throughput.max_throughput == pytest.approx(oracle, rel=1e-9, abs=0.0)
