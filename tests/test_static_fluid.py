import dataclasses
import itertools
import re
from pathlib import Path

import numpy as np
import pytest

import fluidq.static_fluid
from fluidq import (
    GenerationFailed,
    InfeasibleModel,
    NotATree,
    NumericalFailure,
    activity_set,
    check_assumptions,
    enumerate_simple_paths,
    generate_critical_instance,
    load_model,
    solve_static_allocation,
    validate_model,
)
from fluidq.paths import basic_cycle_weights

from support import allocation_unique_by_ranges, forest_oracle, relabel_model

MODELS = Path(__file__).resolve().parents[1] / "models"


def test_case_a_solution(case_a):
    sol = solve_static_allocation(case_a)
    assert np.abs(sol.allocation - [[1, 0.5, 0], [0, 0.5, 1]]).max() <= 1e-9
    assert sol.load == pytest.approx(1.0, abs=1e-9)
    assert np.abs(sol.class_masses - [1.5, 1.5]).max() <= 1e-9
    assert sol.basic_edges == {(1, 3), (1, 4), (2, 4), (2, 5)}
    # unit capacities make masses equal the fractions
    assert np.array_equal(sol.masses, sol.allocation)


def test_case_b_same_solution(case_b):
    sol = solve_static_allocation(case_b)
    assert np.abs(sol.allocation - [[1, 0.5, 0], [0, 0.5, 1]]).max() <= 1e-9


def test_minimal_forced_allocation(minimal):
    sol = solve_static_allocation(minimal)
    assert sol.allocation.tolist() == [[1.0]]
    assert sol.load == pytest.approx(1.0, abs=1e-9)
    assert sol.class_masses.tolist() == [1.0]


def test_allocation_lp_serves_at_rate_times_capacity():
    m = validate_model(
        {"classes": 1, "stations": 3, "lambda": [1], "nu": [1, 2, 3], "mu": [[3, 10, 0]]}
    )
    lp = fluidq.static_fluid._allocation_lp(m)
    # one variable per activity, then the load; the pair without service has
    # no variable and no pin row, so the only equality is the service row
    assert lp.objective.tolist() == [0.0, 0.0, 1.0]
    assert lp.a_eq.tolist() == [[3.0, 20.0, 0.0]]
    assert lp.b_eq.tolist() == [1.0]
    assert lp.a_ub.tolist() == [[1.0, 0.0, -1.0], [0.0, 1.0, -1.0], [0.0, 0.0, -1.0]]
    assert lp.b_ub.tolist() == [0.0, 0.0, 0.0]


def test_infeasible_when_class_has_no_activity():
    m = validate_model(
        {"classes": 2, "stations": 1, "lambda": [1, 1], "nu": [1], "mu": [[1], [0]]}
    )
    with pytest.raises(InfeasibleModel):
        solve_static_allocation(m)


def test_case_a_assumptions(case_a):
    sol = solve_static_allocation(case_a)
    rep = check_assumptions(case_a, sol)
    assert rep.critically_loaded and rep.unique and rep.is_tree
    assert rep.violations == ()


def test_minimal_is_tree(minimal):
    sol = solve_static_allocation(minimal)
    rep = check_assumptions(minimal, sol)
    assert rep.is_tree


def test_disconnected_blocks_flagged():
    m = validate_model(
        {"classes": 2, "stations": 2, "lambda": [3, 2], "nu": [1, 1], "mu": [[3, 0], [0, 2]]}
    )
    sol = solve_static_allocation(m)
    rep = check_assumptions(m, sol)
    assert not rep.is_tree
    assert any("disconnected" in v for v in rep.violations)


def test_underloaded_model_reported():
    # the 2x1 model tells a station label offset by the class count (3) from
    # one offset by the station count (2)
    for raw, station in [
        ({"classes": 1, "stations": 1, "lambda": [1], "nu": [1], "mu": [[2]]}, 2),
        ({"classes": 2, "stations": 1, "lambda": [0.5, 0.5], "nu": [1], "mu": [[2], [2]]}, 3),
    ]:
        m = validate_model(raw)
        sol = solve_static_allocation(m)
        assert sol.load == pytest.approx(0.5, abs=1e-9)
        rep = check_assumptions(m, sol)
        assert not rep.critically_loaded
        # plain floats, not the repr of a numpy scalar (np.float64(0.5))
        assert rep.violations == (
            "optimal load is 0.5, not 1",
            f"station {station} is allocated 0.5, not fully",
        )


def test_non_unique_allocation_flagged(class_dependent_2x2):
    sol = solve_static_allocation(class_dependent_2x2)
    rep = check_assumptions(class_dependent_2x2, sol)
    assert rep.critically_loaded
    assert rep.is_tree
    assert not rep.unique


def test_generator_recovers_planted_solution():
    # the construction plants the optimum; re-solving must reproduce it
    for seed, I, J in [(1, 2, 2), (7, 2, 3), (3, 3, 3), (9, 3, 2)]:
        model, sol = generate_critical_instance(seed, I, J)
        rep = check_assumptions(model, sol)
        assert rep.all_hold
        assert sol.load == pytest.approx(1.0, abs=1e-9)
        resolved = solve_static_allocation(model)
        assert np.abs(resolved.allocation - sol.allocation).max() <= 1e-6


def test_generator_minimal_shape():
    model, sol = generate_critical_instance(0, 1, 1)
    assert sol.allocation.shape == (1, 1)
    assert sol.allocation[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_generator_deterministic():
    cases = [(12, 2, 3)] + [(seed, n, n) for n in (5, 6, 8, 12, 16) for seed in (1, 2, 3)]
    for seed, I, J in cases:
        m1, s1 = generate_critical_instance(seed, I, J)
        m2, s2 = generate_critical_instance(seed, I, J)
        assert np.array_equal(m1.service_rates, m2.service_rates)
        assert np.array_equal(m1.arrival_rates, m2.arrival_rates)
        assert np.array_equal(m1.capacities, m2.capacities)
        assert np.array_equal(s1.allocation, s2.allocation)


def test_generator_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        generate_critical_instance(1, 0, 2)
    # refused, not drawn: with 2.5 classes the spanning-tree walk could never end
    for I, J in ((2.5, 2), (True, 2), (2, 2.0)):
        with pytest.raises(ValueError, match="must be an integer"):
            generate_critical_instance(1, I, J)


def test_generated_masses_fill_polytope():
    # row sums match class masses, column sums the capacities
    rng = np.random.default_rng(23)
    for _ in range(15):
        I = int(rng.integers(1, 4))
        J = int(rng.integers(1, 4))
        model, sol = generate_critical_instance(int(rng.integers(0, 10_000)), I, J)
        assert np.abs(sol.masses.sum(axis=1) - sol.class_masses).max() <= 1e-9
        assert np.abs(sol.masses.sum(axis=0) - model.capacities).max() <= 1e-9
        assert len(sol.basic_edges) == I + J - 1


@pytest.mark.parametrize(
    "violations", [(), ("station 5 is allocated 0.5, not fully",)], ids=["no-text", "text"]
)
def test_generator_failed_check_raises(monkeypatch, violations):
    # the message names the failed assumption, with or without violation text
    real = fluidq.static_fluid.check_assumptions

    def failing(model, sol):
        report = real(model, sol)
        return dataclasses.replace(report, critically_loaded=False, violations=violations)

    monkeypatch.setattr(fluidq.static_fluid, "check_assumptions", failing)
    with pytest.raises(GenerationFailed) as err:
        generate_critical_instance(5, 3, 3)
    assert str(err.value) == "instance from seed 5 fails its checks: " + "; ".join(
        ["critically_loaded is False", *violations]
    )


def test_generator_basic_edges_off_the_planted_tree_raise(monkeypatch):
    # on K_{2,2} any three of the four pairs form a spanning tree, so swapping
    # one planted edge for the fourth pair leaves every assumption holding
    planted = _planted_tree(5, 2, 2)
    (absent,) = {(i, j) for i in (1, 2) for j in (3, 4)} - planted
    dropped = min(planted)
    real = fluidq.static_fluid.solve_static_allocation
    monkeypatch.setattr(
        fluidq.static_fluid, "solve_static_allocation",
        lambda model: dataclasses.replace(real(model), basic_edges=planted - {dropped} | {absent}),
    )
    with pytest.raises(GenerationFailed) as err:
        generate_critical_instance(5, 2, 2)
    assert str(err.value) == (
        "instance from seed 5 fails its checks: "
        f"basic edges and planted tree differ at {sorted({dropped, absent})}"
    )


def test_uniqueness_probe_against_vertex_oracle(class_dependent_2x2):
    from support import allocation_unique_oracle

    # known non-unique and known unique instances
    sol = solve_static_allocation(class_dependent_2x2)
    assert not check_assumptions(class_dependent_2x2, sol).unique
    assert not allocation_unique_oracle(class_dependent_2x2)

    rng = np.random.default_rng(61)
    for _ in range(10):
        model, sol = generate_critical_instance(int(rng.integers(0, 9999)), 2, 2)
        rep = check_assumptions(model, sol)
        assert rep.unique
        assert allocation_unique_oracle(model)


def test_non_unique_witness_is_another_optimum(class_dependent_2x2):
    # each violation names a pair, its value at the optimum and at a witness;
    # the witness values must form a second optimal allocation
    model = class_dependent_2x2
    sol = solve_static_allocation(model)
    rep = check_assumptions(model, sol)
    witness = np.array(sol.allocation)
    pattern = re.compile(r"allocation \((\d+),(\d+)\) is (\S+) at the optimum but (\S+) at another")
    named = [pattern.match(v) for v in rep.violations]
    assert named and all(named)
    for m in named:
        i, j = int(m[1]) - 1, int(m[2]) - 1 - model.num_classes
        assert float(m[3]) == pytest.approx(sol.allocation[i, j], abs=1e-6)
        witness[i, j] = float(m[4])
    assert np.abs(witness - sol.allocation).max() > 0.1
    served = (model.service_rates * model.capacities[None, :] * witness).sum(axis=1)
    assert served == pytest.approx(model.arrival_rates, abs=1e-6)
    assert witness.sum(axis=0).max() <= sol.load + 1e-6
    assert witness.min() >= 0.0


def test_spare_capacity_non_uniqueness_needs_slacks():
    # class 2 splits 1.5 over stations 4 and 5, so station 5 has spare
    # capacity. The optimal vertices (1, 0.5) and (0.5, 1) share their zero
    # allocations and differ only in which station is full.
    m = validate_model(
        {"classes": 2, "stations": 3, "lambda": [1, 1.5], "nu": [1, 1, 1],
         "mu": [[1, 0, 0], [0, 1, 1]]}
    )
    sol = solve_static_allocation(m)
    assert sol.load == pytest.approx(1.0, abs=1e-9)
    rep = check_assumptions(m, sol)
    assert not rep.unique
    assert not allocation_unique_by_ranges(m, sol)


def test_empty_optimal_face_raises_numerical_failure(case_a):
    # a load below the true optimum pins the allocation program to nothing
    sol = dataclasses.replace(solve_static_allocation(case_a), load=0.5)
    with pytest.raises(NumericalFailure, match="optimal face is empty"):
        check_assumptions(case_a, sol)


def _random_model(rng, rank_one):
    I, J = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    if rank_one:
        # mu_ij = a_i * b_j: many allocations tie, so uniqueness often fails
        mu = np.outer(rng.integers(1, 4, I), rng.integers(1, 4, J))
        mu = mu * (rng.random((I, J)) < 0.8)
    else:
        mu = rng.integers(0, 5, (I, J))
    return validate_model(
        {"classes": I, "stations": J, "lambda": rng.integers(1, 6, I).tolist(),
         "nu": rng.integers(1, 4, J).tolist(), "mu": mu.tolist()}
    )


def _uniqueness_agrees(model):
    sol = solve_static_allocation(model)
    unique = check_assumptions(model, sol).unique
    assert unique == allocation_unique_by_ranges(model, sol), model
    return unique


def test_uniqueness_agrees_with_range_oracle():
    rng = np.random.default_rng(2024)
    models = [load_model(str(p)) for p in sorted(MODELS.glob("*.json"))]
    for rank_one in (False, True):
        for _ in range(150):
            try:
                model = _random_model(rng, rank_one)
                solve_static_allocation(model)
            except InfeasibleModel:
                continue
            models.append(model)
    verdicts = [_uniqueness_agrees(model) for model in models]
    # both answers occur, so agreement is not vacuous
    assert 0 < sum(verdicts) < len(verdicts)


def test_uniqueness_invariant_under_relabeling():
    rng = np.random.default_rng(5)
    models = [load_model(str(p)) for p in sorted(MODELS.glob("*.json"))]
    for model in models:
        unique = _uniqueness_agrees(model)
        for cp in itertools.permutations(range(model.num_classes)):
            for sp in itertools.permutations(range(model.num_stations)):
                assert _uniqueness_agrees(relabel_model(model, cp, sp)) == unique
    for _ in range(40):
        try:
            model = _random_model(rng, rank_one=bool(rng.integers(2)))
            unique = _uniqueness_agrees(model)
        except InfeasibleModel:
            continue
        cp = rng.permutation(model.num_classes)
        sp = rng.permutation(model.num_stations)
        assert _uniqueness_agrees(relabel_model(model, cp, sp)) == unique


def _planted_tree(seed, I, J):
    # the generator makes one draw from ``seed``, and it draws its tree first
    tree = fluidq.static_fluid._uniform_spanning_tree(np.random.default_rng(seed), I, J)
    return frozenset((i + 1, I + 1 + j) for i, j in tree)


def test_generator_accepts_its_first_draw(monkeypatch):
    calls = []
    for name in ("solve_static_allocation", "check_assumptions"):
        real = getattr(fluidq.static_fluid, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(fluidq.static_fluid, name, counting)
    shapes = [(1, 1), (1, 4), (4, 1), (2, 3), (3, 2)] + [(n, n) for n in (5, 6, 8, 12, 16)]
    for I, J in shapes:
        for seed in (1, 2, 3):
            calls.clear()
            model, sol = generate_critical_instance(seed, I, J)
            assert calls == ["solve_static_allocation", "check_assumptions"], (I, J, seed)
            assert sol.basic_edges == _planted_tree(seed, I, J)
            assert sol.load == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("size", [8, 12, 16, 24, 32, 50])
def test_generated_allocation_agrees_with_highs(size):
    # the allocation program solved independently, by HiGHS
    optimize = pytest.importorskip("scipy.optimize")
    for seed in (1, 2, 3):
        model, sol = generate_critical_instance(seed, size, size)
        n = size * size
        mubar = model.service_rates * model.capacities[None, :]
        cost = np.zeros(n + 1)
        cost[-1] = 1.0
        a_eq = np.zeros((size, n + 1))
        a_ub = np.zeros((size, n + 1))
        for k in range(size):
            a_eq[k, k * size:(k + 1) * size] = mubar[k]
            a_ub[k, k:n:size] = 1.0
        a_ub[:, -1] = -1.0
        bounds = [(0.0, None if rate > 0 else 0.0) for rate in mubar.ravel()] + [(0.0, None)]
        res = optimize.linprog(
            cost, A_ub=a_ub, b_ub=np.zeros(size), A_eq=a_eq, b_eq=model.arrival_rates,
            bounds=bounds, method="highs",
        )
        assert res.status == 0, res.message
        allocation = res.x[:n].reshape(size, size)
        assert abs(res.fun - sol.load) <= 1e-9
        assert np.abs(allocation - sol.allocation).max() <= 1e-9
        basic = {(i + 1, size + 1 + j) for i, j in np.argwhere(allocation > 1e-9)}
        assert basic == _planted_tree(seed, size, size)


def _edge_sets(rng, count):
    """Random edge sets of K_{I,J}: sparse and dense subsets, spanning trees,
    and trees with one edge added or removed."""
    for _ in range(count):
        I, J = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        pairs = [(i, I + j) for i in range(1, I + 1) for j in range(1, J + 1)]
        kind = int(rng.integers(5))
        if kind < 2:
            keep = rng.random(len(pairs)) < (0.3, 0.7)[kind]
            edges = {p for p, k in zip(pairs, keep) if k}
        else:
            tree = fluidq.static_fluid._uniform_spanning_tree(rng, I, J)
            edges = {(i + 1, I + 1 + j) for i, j in tree}
            if kind == 3:
                edges.add(pairs[int(rng.integers(len(pairs)))])
            elif kind == 4:
                edges.discard(sorted(edges)[int(rng.integers(len(edges)))])
        yield I, J, frozenset(edges)


def test_spanning_forest_agrees_with_graph_walks():
    from fluidq.static_fluid import spanning_forest

    rng = np.random.default_rng(23)
    seen_cycles = seen_trees = seen_split = 0
    for I, J, edges in _edge_sets(rng, 400):
        model = validate_model(
            {"classes": I, "stations": J, "lambda": [1] * I, "nu": [1] * J,
             "mu": [[1] * J] * I}
        )
        oracle = forest_oracle(I + J, edges)
        _, closing, messages = spanning_forest(model, edges)
        assert closing == oracle.closing
        assert (not messages) == oracle.spanning
        assert messages == oracle.messages
        zeros = np.zeros((I, J))
        sol = fluidq.static_fluid.FluidSolution(zeros, 1.0, zeros, zeros[:, 0], edges)
        if oracle.spanning:
            assert len(enumerate_simple_paths(sol, activity_set(model), model)) == (
                I * J - (I + J - 1))
        else:
            # the message is the tree test's violations, as the oracle words them
            with pytest.raises(NotATree) as raised:
                enumerate_simple_paths(sol, activity_set(model), model)
            assert str(raised.value) == "; ".join(oracle.messages)
        # each closing edge (i, j), then the forest path back from j to i
        cycles = [c for c, _ in basic_cycle_weights(sol, model)]
        assert cycles == [(i, *oracle.path(j, i)[:-1]) for i, j in closing]
        seen_cycles += bool(closing)
        seen_trees += oracle.spanning
        seen_split += "basic graph is disconnected" in messages
    # every case occurs often
    assert min(seen_cycles, seen_trees, seen_split) >= 50
