import json
import math
from dataclasses import fields, replace
from itertools import accumulate, chain
from operator import mul, sub
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from fluidq import (
    NEGATIVE,
    GreedyBasic,
    IdlePolicy,
    Policy,
    PolicyViolation,
    ScalingViolation,
    SimResult,
    SystemState,
    activity_set,
    build_system,
    derive_seed,
    enumerate_simple_paths,
    generate_critical_instance,
    load_model,
    make_policy,
    run_nc_experiment,
    simulate,
    solve_static_allocation,
    validate_model,
)
from fluidq import simulator
from fluidq.optimality import throughput_verdict_paths
from fluidq.simulator import _simulate_lockstep

from conftest import CASE_A, CASE_B, CLASS_DEPENDENT_2X2
from support import (
    _ref_clip_columns,
    _ref_initial_assignment,
    _ref_round_half_up,
    erlang_c,
    exact_transient,
    plain_fill,
    reference_policy,
    reference_simulate,
    relabel_model,
)

MODELS = Path(__file__).resolve().parents[1] / "models"


def _case_a_setup(case_a, n):
    sol = solve_static_allocation(case_a)
    return sol, build_system(case_a, sol, n)


def test_build_system_exact_multiples(case_a):
    sol, sys = _case_a_setup(case_a, 100)
    assert sys.arrival_rates.tolist() == [800.0, 400.0]
    assert sys.servers.tolist() == [100, 100, 100]
    assert sys.x0.tolist() == [150, 150]


def test_build_system_small_n(case_a):
    _, sys = _case_a_setup(case_a, 30)
    assert sys.x0.tolist() == [45, 45]
    assert sys.servers.tolist() == [30, 30, 30]


def test_build_system_half_integer_boundary():
    m = validate_model(
        {"classes": 1, "stations": 1, "lambda": [0.95], "nu": [0.95], "mu": [[1]]}
    )
    sol = solve_static_allocation(m)
    sys = build_system(m, sol, 10)
    # 9.5 rounds up at the tie; the drift 0.05 stays within 0.5/sqrt(10)
    assert sys.servers.tolist() == [10]
    assert abs(sys.servers[0] / 10 - 0.95) <= 0.5 / np.sqrt(10) + 1e-12


def test_build_system_scaling_violation():
    drifts = {"classes": 1, "stations": 4, "lambda": [1], "nu": [0.95] * 4, "mu": [[1, 1, 1, 1]]}
    # n * lambda overflows a float, and n * m past int64 would cast to negative heads
    overflows = {"classes": 1, "stations": 1, "lambda": [1e308], "nu": [1], "mu": [[1]]}
    for raw, message in ((drifts, "drifted"), (overflows, "overflows")):
        m = validate_model(raw)
        sol = solve_static_allocation(m)
        with pytest.raises(ScalingViolation, match=message):
            build_system(m, sol, 10)


@pytest.mark.parametrize("raw", [
    {"classes": 2, "stations": 1, "lambda": [1, 1], "nu": [5e18], "mu": [[1], [1]]},
    {"classes": 1, "stations": 2, "lambda": [1], "nu": [5e18, 5e18], "mu": [[1, 1]]},
], ids=["classes-times-largest", "server-total"])
def test_build_system_keeps_in_service_sums_in_int64(raw):
    # every server count fits in int64, but I times the largest one, or their total, does
    # not: a sum of in-service counts within the server counts could wrap
    m = validate_model(raw)
    with pytest.raises(ScalingViolation, match="overflows"):
        build_system(m, solve_static_allocation(m), 1)
    fits = validate_model({**raw, "nu": [4e18 / len(raw["nu"])] * len(raw["nu"])})
    assert build_system(fits, solve_static_allocation(fits), 1).servers.sum() == 4 * 10**18


def test_build_system_rejects_bad_n(case_a):
    sol = solve_static_allocation(case_a)
    for n in (0, 10.5, True):
        with pytest.raises(ValueError):
            build_system(case_a, sol, n)


def test_build_system_accepts_numpy_integer_n(case_a):
    sol = solve_static_allocation(case_a)
    sys = build_system(case_a, sol, np.int64(10))
    assert sys.servers.tolist() == build_system(case_a, sol, 10).servers.tolist()
    # a scale that is not an integer is refused before any replication seed is drawn
    with pytest.raises(ValueError):
        run_nc_experiment(case_a, sol, "greedy-basic", [10.5], T=0.1, reps=1, seed=1)


def _shipped_and_planted_4x4():
    for path in sorted(MODELS.glob("*.json")):
        model = load_model(str(path))
        yield model, solve_static_allocation(model)
    for seed in range(5):
        yield generate_critical_instance(seed, 4, 4)


def test_build_system_core_matches_reference():
    # the rounded split, then one customer off a column's largest entry until it fits;
    # the clip table sums each class's split at the pairs kept before each: the
    # faster ones, then those of equal rate at a higher station
    shaved = reordered = 0
    for model, sol in _shipped_and_planted_4x4():
        for n in (16, 25, 37, 100, 401, 1600):  # n >= J**2: the server counts round
            sys = build_system(model, sol, n)
            rounded = _ref_round_half_up(n * sol.masses)
            expected = rounded.copy()
            _ref_clip_columns(expected, sys.servers)
            ahead = np.zeros_like(expected)
            for i, row in enumerate(model.service_rates.tolist()):
                total = 0
                for j in sorted(range(len(row)), key=lambda j: (row[j], j), reverse=True):
                    ahead[i, j] = total
                    total += int(expected[i, j])
            assert sys.core.dtype == sys.ahead.dtype == np.int64
            assert np.array_equal(sys.core, expected), (model, n)
            assert np.array_equal(sys.ahead, ahead), (model, n)
            shaved += not np.array_equal(rounded, expected)
            reordered += not np.array_equal(ahead, expected[:, ::-1].cumsum(1)[:, ::-1] - expected)
            for table in (sys.core, sys.ahead):
                assert not table.flags.writeable
                with pytest.raises(ValueError):
                    table[0, 0] += 1
    assert shaved > 0 and reordered > 0


def test_system_arrays_are_read_only(case_a):
    # every replication and both engines share one system, so no policy may change it
    class Meddling(GreedyBasic):
        def prepare(self, sys):
            sys.servers[0] += 1

    sol, sys = _case_a_setup(case_a, 25)
    names = ("arrival_rates", "servers", "service_rates", "x0", "core", "ahead")
    before = {name: getattr(sys, name).copy() for name in names}
    with pytest.raises(ValueError):
        simulate(sys, Meddling(case_a, sol), 0.2, 1)
    for name in names:
        assert not getattr(sys, name).flags.writeable, name
        assert np.array_equal(getattr(sys, name), before[name]), name
    assert sys.service_rates is case_a.service_rates


def test_initial_state_is_the_reference_split():
    # the policy's first call sees the rounded split clipped to x0, slowest pairs first
    class Recording(Policy):
        name = "recording"

        def prepare(self, sys):
            self.first = None

        def assign(self, state, sys):
            if self.first is None:
                self.first = [row[:] for row in state.in_service]
            return [[0] * len(state.servers) for _ in state.heads]

    policy, clipped = Recording(), 0
    for model, sol in _shipped_and_planted_4x4():
        for n in (16, 25, 100):
            sys = build_system(model, sol, n)
            simulate(sys, policy, 0.01, 1)
            assert policy.first == _ref_initial_assignment(sys).tolist(), (model, n)
            clipped += policy.first != sys.core.tolist()
    assert clipped > 0


def test_poisson_arrival_totals(case_a):
    # under the idle policy only arrivals occur; their count is Poisson(1200)
    sol, sys = _case_a_setup(case_a, 100)
    totals = []
    for rep in range(100):
        res = simulate(sys, IdlePolicy(), T=1.0, seed=derive_seed(3, 100, rep), sample_points=3)
        totals.append(res.arrivals.sum())
    totals = np.array(totals, dtype=float)
    se = totals.std(ddof=1) / np.sqrt(len(totals))
    assert abs(totals.mean() - 1200.0) <= 3 * se


def test_idle_policy_monotone_heads(case_a):
    sol, sys = _case_a_setup(case_a, 50)
    res = simulate(sys, IdlePolicy(), T=0.5, seed=9)
    diffs = np.diff(res.sample_heads, axis=0)
    assert (diffs >= 0).all()
    assert res.completions.sum() == 0
    # initial heads equal total servers, so the congestion clock runs to T
    assert res.queue_occupancy == pytest.approx(0.5, abs=1e-9)


def test_occupancy_bounds(case_a):
    sol, sys = _case_a_setup(case_a, 25)
    for policy in (IdlePolicy(), GreedyBasic(case_a, sol)):
        res = simulate(sys, policy, T=0.4, seed=21)
        assert 0.0 <= res.queue_occupancy <= 0.4 + 1e-9


def test_counting_identity_and_conservation(case_a):
    sol, sys = _case_a_setup(case_a, 40)
    res = simulate(sys, GreedyBasic(case_a, sol), T=0.5, seed=11)
    assert res.invariants_checked
    assert np.array_equal(
        res.final_heads, res.x0 + res.arrivals - res.completions.sum(axis=1)
    )
    acts = sys.service_rates > 0
    for s in range(res.sample_times.size):
        psi = res.sample_in_service[s]
        heads = res.sample_heads[s]
        assert (psi >= 0).all()
        assert not psi[~acts].any()
        assert (psi.sum(axis=1) <= heads).all()
        assert (psi.sum(axis=0) <= sys.servers).all()


def test_determinism_bitwise(case_a):
    sol, sys = _case_a_setup(case_a, 30)
    r1 = simulate(sys, GreedyBasic(case_a, sol), T=0.5, seed=123)
    r2 = simulate(sys, GreedyBasic(case_a, sol), T=0.5, seed=123)
    assert r1.queue_occupancy == r2.queue_occupancy
    assert np.array_equal(r1.sample_heads, r2.sample_heads)
    assert np.array_equal(r1.sample_in_service, r2.sample_in_service)
    assert r1.events == r2.events


def test_derive_seed_stable():
    assert derive_seed(1, 25, 0) == derive_seed(1, 25, 0)
    assert derive_seed(1, 25, 0) != derive_seed(1, 25, 1)
    assert derive_seed(1, 25, 0) != derive_seed(2, 25, 0)
    # in-range inputs, the ends of every range included, keep their streams
    assert [derive_seed(*args) for args in [
        (0, 0, 0), (1, 25, 0), (1001, 400, 29), (2**63 - 1, 2**32 - 1, 2**32 - 1),
    ]] == [7070836379803831727, 2394611267605583499, 3200690543696581799, 1956407806741107679]


@pytest.mark.parametrize("args,alias,match", [
    ((1, 10.7, 0), (1, 10, 0), "n must be an integer"),
    ((1, 10, True), (1, 10, 1), "rep must be an integer"),
    ((1, 2**40, 0), (1, 0, 0), r"n and rep must be in 0 \.\.\. 2\*\*32 - 1"),
    ((1, 10, 2**32), (1, 10, 0), r"n and rep must be in 0 \.\.\. 2\*\*32 - 1"),
    ((1, 10, -1), (1, 10, 2**32 - 1), r"n and rep must be in 0 \.\.\. 2\*\*32 - 1"),
    ((-1, 10, 0), (2**63 - 1, 10, 0), r"seed must be in 0 \.\.\. 2\*\*63 - 1"),
], ids=["float-n", "bool-rep", "n-past-32-bits", "rep-past-32-bits", "negative-rep",
        "negative-base"])
def test_derive_seed_refuses_inputs_that_alias_another_stream(args, alias, match):
    # each refused input would otherwise draw the stream of ``alias``
    with pytest.raises(ValueError, match=match):
        derive_seed(*args)
    derive_seed(*alias)


@pytest.mark.parametrize("points", [2.5, True, np.float64(3.0), "3", -1, 0, 1],
                         ids=["2.5", "True", "np.float64", "str", "-1", "0", "1"])
def test_sample_points_must_be_an_integer_of_at_least_2(case_a, monkeypatch, points):
    """_Record samples at both ends, 0 and T; every entry refuses another
    count before any draw, on the loop and the lockstep routes alike."""
    sol = solve_static_allocation(case_a)
    sys = build_system(case_a, sol, 10)

    def no_draws(*args, **kwargs):
        raise AssertionError("a generator was made before sample_points was checked")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    entries = [
        lambda: simulate(sys, IdlePolicy(), 0.1, 1, sample_points=points),
        lambda: _simulate_lockstep(sys, IdlePolicy(), 0.1, [1, 2], 0.0, points),
        *(lambda reps=reps: run_nc_experiment(case_a, sol, "greedy-basic", [10], T=0.1,
                                              reps=reps, seed=1, sample_points=points)
          for reps in (2, simulator.LOCKSTEP_MIN_REPS)),
    ]
    for entry in entries:
        with pytest.raises(ValueError, match="sample_points must be"):
            entry()


def test_policy_violation_detected(case_a):
    class Rogue(Policy):
        name = "rogue"

        def assign(self, state, sys):
            psi = np.zeros_like(sys.service_rates, dtype=np.int64)
            psi[0, 0] = int(state.heads[0]) + 1
            return psi

    sol, sys = _case_a_setup(case_a, 10)
    with pytest.raises(PolicyViolation) as err:
        simulate(sys, Rogue(), T=0.2, seed=1)
    assert "rogue" in str(err.value)
    assert "event" in str(err.value)
    # the base class decides nothing
    with pytest.raises(NotImplementedError):
        simulate(sys, Policy(), T=0.2, seed=1)


def test_erlang_c_small_system():
    # M/M/10 offered load 6: long-run congested fraction matches the formula
    m = validate_model({"classes": 1, "stations": 1, "lambda": [0.6], "nu": [1], "mu": [[1]]})
    sol = solve_static_allocation(m)
    sys = build_system(m, sol, 10)
    pol = GreedyBasic(m, sol)
    T, warm = 100.0, 50.0
    fracs = []
    for rep in range(100):
        res = simulate(sys, pol, T=T, seed=derive_seed(17, 10, rep), warmup=warm, sample_points=3)
        fracs.append(res.queue_occupancy / (T - warm))
    fracs = np.array(fracs)
    se = fracs.std(ddof=1) / np.sqrt(len(fracs))
    assert abs(fracs.mean() - erlang_c(10, 6.0)) <= 3 * se


def test_relabeling_occupancy_distribution(case_a):
    # occupancy is label-free; compare means across a relabeled copy
    sol = solve_static_allocation(case_a)
    relabeled = relabel_model(case_a, [1, 0], [2, 0, 1])
    sol_r = solve_static_allocation(relabeled)
    reps = 40
    a_vals = []
    b_vals = []
    sys_a = build_system(case_a, sol, 16)
    sys_b = build_system(relabeled, sol_r, 16)
    for rep in range(reps):
        a_vals.append(
            simulate(sys_a, GreedyBasic(case_a, sol), 1.0, derive_seed(5, 16, rep), sample_points=3).queue_occupancy
        )
        b_vals.append(
            simulate(sys_b, GreedyBasic(relabeled, sol_r), 1.0, derive_seed(6, 16, rep), sample_points=3).queue_occupancy
        )
    a_vals, b_vals = np.array(a_vals), np.array(b_vals)
    spread = np.sqrt(a_vals.var(ddof=1) / reps + b_vals.var(ddof=1) / reps)
    assert abs(a_vals.mean() - b_vals.mean()) <= 3 * spread + 1e-12


def test_run_nc_experiment_reproducible(case_a):
    sol = solve_static_allocation(case_a)
    paths = enumerate_simple_paths(sol, activity_set(case_a), case_a)
    kwargs = dict(n_list=[10, 20], T=0.3, reps=2, seed=42, paths=paths, sample_points=5)
    e1 = run_nc_experiment(case_a, sol, "negative-path", **kwargs)
    e2 = run_nc_experiment(case_a, sol, "negative-path", **kwargs)
    assert e1.summary() == e2.summary()
    for r1, r2 in zip(e1.results, e2.results):
        assert r1.queue_occupancy == r2.queue_occupancy
        assert np.array_equal(r1.sample_heads, r2.sample_heads)


def test_run_nc_experiment_requires_ascending(case_a):
    sol = solve_static_allocation(case_a)
    with pytest.raises(ValueError):
        run_nc_experiment(case_a, sol, "idle", [100, 10], T=0.1, reps=1, seed=1)
    with pytest.raises(ValueError, match="strictly ascending"):
        run_nc_experiment(case_a, sol, "idle", [10, 10], T=0.1, reps=1, seed=1)
    with pytest.raises(ValueError):
        run_nc_experiment(case_a, sol, "idle", [10], T=0.1, reps=0, seed=1)


@pytest.mark.parametrize("bad", ["a", None, 20.5, True, 0, -5, 2**80, 2**32],
                         ids=["str", "None", "20.5", "True", "0", "-5", "overflow", "2**32"])
def test_run_nc_experiment_refuses_a_bad_scale_before_any_draw(case_a, monkeypatch, bad):
    """Every n is refused as build_system, then a replication's derive_seed,
    refuses it (a ScalingViolation too), before the ascending check and
    before any replication runs, on the loop and the lockstep routes alike;
    20.5 and 2**32 once ran every replication at n = 10 first."""
    sol = solve_static_allocation(case_a)

    def no_draws(*args, **kwargs):
        raise AssertionError("a generator was made before every n was checked")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    for reps in (2, simulator.LOCKSTEP_MIN_REPS):
        with pytest.raises(ValueError) as expected:
            derive_seed(1, build_system(case_a, sol, bad).n, reps - 1)
        with pytest.raises(ValueError) as raised:
            run_nc_experiment(case_a, sol, "greedy-basic", [10, bad], T=0.1, reps=reps, seed=1)
        assert str(raised.value) == str(expected.value)


def test_run_nc_experiment_rejects_seeds_outside_63_bits(case_a):
    """derive_seed keeps 63 bits of the base seed, so -1 and 2**63 - 1, or 5
    and 5 + 2**63, would run the same replications under different seeds;
    both refuse the first of each pair."""
    sol = solve_static_allocation(case_a)
    for seed, alias in ((-1, 2**63 - 1), (2**63, 0), (5 + 2**63, 5)):
        for entry in (lambda s: derive_seed(s, 10, 3),
                      lambda s: run_nc_experiment(case_a, sol, "idle", [10], T=0.1, reps=1,
                                                  seed=s)):
            with pytest.raises(ValueError, match=r"seed must be in 0 \.\.\. 2\*\*63 - 1"):
                entry(seed)
            entry(alias)


@pytest.mark.parametrize("bad", [1.9, 1.0, True, False, np.float64(1.0), "1"],
                         ids=["1.9", "1.0", "True", "False", "np.float64", "str"])
def test_non_integer_seeds_are_refused_at_every_entry(case_a, bad):
    """A bool or a float is refused, not truncated: int(1.9) and True would
    otherwise run seed 1's replications under another seed."""
    sol = solve_static_allocation(case_a)
    sys = build_system(case_a, sol, 10)
    entries = [
        lambda: simulate(sys, IdlePolicy(), 0.1, bad),
        lambda: run_nc_experiment(case_a, sol, "idle", [10], T=0.1, reps=1, seed=bad),
        lambda: derive_seed(bad, 10, 0),
        lambda: generate_critical_instance(bad, 2, 2),
    ]
    for entry in entries:
        with pytest.raises(ValueError, match="seed must be an integer"):
            entry()


@pytest.mark.parametrize("reps", [2, 16])
def test_numpy_integer_seeds_run_the_int_replications(case_a, reps):
    # two replications take the loop route, 16 the lockstep route
    sol = solve_static_allocation(case_a)
    runs = [run_nc_experiment(case_a, sol, "greedy-basic", [10], T=0.2, reps=reps, seed=seed,
                              sample_points=3) for seed in (7, np.int64(7), np.uint32(7))]
    for other in runs[1:]:
        assert other.summary() == runs[0].summary()
        assert [r.seed for r in other.results] == [r.seed for r in runs[0].results]
        assert all(type(r.seed) is int for r in other.results)
    assert derive_seed(np.int64(7), 10, 1) == derive_seed(7, 10, 1)
    sys = build_system(case_a, sol, 10)
    res = simulate(sys, GreedyBasic(case_a, sol), 0.2, np.int64(5), sample_points=3)
    assert type(res.seed) is int
    assert res.queue_occupancy == simulate(sys, GreedyBasic(case_a, sol), 0.2, 5,
                                           sample_points=3).queue_occupancy
    m1, _ = generate_critical_instance(np.int64(3), 2, 2)
    m2, _ = generate_critical_instance(3, 2, 2)
    assert np.array_equal(m1.service_rates, m2.service_rates)


def test_run_nc_experiment_refuses_bool_and_float_reps(case_a):
    sol = solve_static_allocation(case_a)
    for reps in (True, 2.5, 2.0, np.float64(2.0)):
        with pytest.raises(ValueError, match="reps must be an integer"):
            run_nc_experiment(case_a, sol, "idle", [10], T=0.1, reps=reps, seed=1)
    with pytest.raises(ValueError, match="need at least one replication"):
        run_nc_experiment(case_a, sol, "idle", [10], T=0.1, reps=0, seed=1)
    exp = run_nc_experiment(case_a, sol, "idle", [10], T=0.1, reps=np.int64(2), seed=1)
    assert type(exp.rows[0].reps) is int and len(exp.results) == 2


def test_numpy_integer_scales_give_int_n(case_a):
    sol = solve_static_allocation(case_a)
    assert type(build_system(case_a, sol, np.int64(10)).n) is int
    exp = run_nc_experiment(case_a, sol, "greedy-basic", [np.int64(10), np.int32(20)], T=0.1,
                            reps=2, seed=1, sample_points=3)
    assert [row.n for row in exp.rows] == [10, 20]
    assert all(type(row.n) is int for row in exp.rows)
    assert all(type(res.n) is int for res in exp.results)
    json.dumps(exp.summary())
    plain = run_nc_experiment(case_a, sol, "greedy-basic", [10, 20], T=0.1, reps=2, seed=1,
                              sample_points=3)
    assert exp.summary() == plain.summary()


def test_make_policy_names(case_a):
    sol = solve_static_allocation(case_a)
    paths = enumerate_simple_paths(sol, activity_set(case_a), case_a)
    for name in ("idle", "greedy-basic", "negative-path"):
        assert make_policy(name, case_a, sol, paths).name == name
    with pytest.raises(ValueError):
        make_policy("nope", case_a, sol, paths)
    # the pump displaces along the path criterion's witness, on the shipped
    # models and on planted instances
    shipped = [load_model(str(p)) for p in sorted(MODELS.glob("*.json"))]
    planted = [generate_critical_instance(seed, 3, 4)[0] for seed in (1, 2, 3)]
    for model in shipped + planted:
        sol = solve_static_allocation(model)
        paths = enumerate_simple_paths(sol, activity_set(model), model)
        pump = make_policy("negative-path", model, sol, paths)
        assert pump.path is throughput_verdict_paths(paths).witness_path


def test_pump_inert_without_negative_path(class_dependent_2x2):
    sol = solve_static_allocation(class_dependent_2x2)
    paths = enumerate_simple_paths(
        sol, activity_set(class_dependent_2x2), class_dependent_2x2
    )
    pump = make_policy("negative-path", class_dependent_2x2, sol, paths)
    assert pump.path is None
    sys = build_system(class_dependent_2x2, sol, 20)
    res = simulate(sys, pump, T=0.3, seed=77)
    assert res.events > 0


def test_pump_enumerates_paths_when_omitted(case_a):
    # without paths the pump finds the model's witness itself, so a run by name with
    # no paths is the pump's run, not the baseline's, on the loop and lockstep routes
    sol = solve_static_allocation(case_a)
    paths = enumerate_simple_paths(sol, activity_set(case_a), case_a)
    given = make_policy("negative-path", case_a, sol, paths)
    derived = make_policy("negative-path", case_a, sol)
    assert given.path is not None and derived.path is not None
    assert (derived.path.leaf_pair, derived.path.signed_edges, derived.path.weight) == (
        given.path.leaf_pair, given.path.signed_edges, given.path.weight)
    assert make_policy("negative-path", case_a, sol, []).path is None  # [] stays inert
    for reps in (3, simulator.LOCKSTEP_MIN_REPS):
        kwargs = dict(n_list=[10, 40], T=1.0, reps=reps, seed=5, sample_points=5)
        with_paths = run_nc_experiment(case_a, sol, "negative-path", paths=paths, **kwargs)
        without = run_nc_experiment(case_a, sol, "negative-path", **kwargs)
        inert = run_nc_experiment(case_a, sol, "negative-path", paths=[], **kwargs)
        for got, expected in zip(without.results, with_paths.results):
            _assert_same_result(got, expected)
        assert ([r.queue_occupancy for r in inert.results]
                != [r.queue_occupancy for r in with_paths.results])


@pytest.mark.parametrize("bad", [True, "1", None, 1j])
def test_horizon_and_warmup_must_be_real(case_a, monkeypatch, bad):
    """A bool or non-real T or warmup is a ValueError before any draw, on the loop
    and lockstep routes alike; ints and numpy floats pass."""
    sol = solve_static_allocation(case_a)
    sys = build_system(case_a, sol, 10)
    assert simulate(sys, IdlePolicy(), np.float64(0.1), 1, warmup=np.float32(0)).events > 0
    assert simulate(sys, IdlePolicy(), 1, 1, warmup=0).T == 1

    def no_draws(*args, **kwargs):
        raise AssertionError("a generator was made before the horizon was checked")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    for T, warmup, message in ((bad, 0.0, "horizon T must be positive, finite and a real"),
                               (0.1, bad, "warmup must be a real number in")):
        entries = [
            lambda: simulate(sys, IdlePolicy(), T, 1, warmup=warmup),
            lambda: _simulate_lockstep(sys, IdlePolicy(), T, [1, 2], warmup),
            *(lambda reps=reps: run_nc_experiment(case_a, sol, "greedy-basic", [10], T=T,
                                                  reps=reps, seed=1, warmup=warmup)
              for reps in (2, simulator.LOCKSTEP_MIN_REPS)),
        ]
        for entry in entries:
            with pytest.raises(ValueError, match=message):
                entry()


def test_warmup_validation(case_a):
    sol, sys = _case_a_setup(case_a, 10)
    with pytest.raises(ValueError):
        simulate(sys, IdlePolicy(), T=1.0, seed=1, warmup=1.0)
    for T in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="horizon T"):
            simulate(sys, IdlePolicy(), T=T, seed=1)


ERLANG_1X1 = {"classes": 1, "stations": 1, "lambda": [0.9], "nu": [1], "mu": [[1]]}
# critically loaded on the tree (1,3)-(1,4)-(2,4) with x = [[1, 0.4], [0, 0.6]];
# the path through the idle pair (2,3) has weight -0.1
NON_INTEGER_2X2 = {
    "classes": 2,
    "stations": 2,
    "lambda": [2.375, 1.35],
    "nu": [0.75, 1.25],
    "mu": [[1.5, 2.5], [0.9, 1.8]],
}
ORACLE_MODELS = {
    "case_a": CASE_A,
    "case_b": CASE_B,
    "class_dependent_2x2": CLASS_DEPENDENT_2X2,
    "erlang_1x1": ERLANG_1X1,
    "non_integer_2x2": NON_INTEGER_2X2,
}
POLICY_NAMES = ("greedy-basic", "negative-path", "idle")
ORACLE_CASES = (
    [(name, policy, 40, 1.0) for name in ("case_a", "case_b", "class_dependent_2x2")
     for policy in POLICY_NAMES]
    + [("erlang_1x1", "greedy-basic", 100, 5.0)]
    + [("non_integer_2x2", policy, 20, 1.0) for policy in POLICY_NAMES]
)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name,policy,n,T", ORACLE_CASES)
def test_simulate_matches_numpy_reference(name, policy, n, T, seed):
    model = validate_model(ORACLE_MODELS[name])
    sol = solve_static_allocation(model)
    paths = enumerate_simple_paths(sol, activity_set(model), model)
    sys = build_system(model, sol, n)
    new = simulate(sys, make_policy(policy, model, sol, paths), T, seed,
                   warmup=0.2 * T, sample_points=11)
    ref = reference_simulate(sys, reference_policy(policy, model, sol, paths), T, seed,
                             warmup=0.2 * T, sample_points=11)
    assert new.events > 0 and new.invariants_checked
    _assert_same_result(new, ref)


class Rogue(Policy):
    """Serves nobody at events 0 to 2, then returns ``bad(state)``."""

    name = "rogue"

    def __init__(self, bad):
        self.bad = bad

    def prepare(self, sys):
        self.calls = 0

    def assign(self, state, sys):
        self.calls += 1
        if self.calls <= 3:
            return [[0] * len(state.servers) for _ in state.heads]
        return self.bad(state)


def _over_heads(state):
    k = state.heads[0] + 1  # spread so no station exceeds its servers
    return [[k - 2 * (k // 3), k // 3, k // 3], [0, 0, 0]]


def _over_servers(state):
    k = state.servers[1] + 1  # split so no class exceeds its heads
    return [[0, k // 2, 0], [0, k - k // 2, 0]]


def _negative_over_servers(state):
    k = state.servers[1] + 1
    return [[-1, k // 2, 0], [0, k - k // 2, 0]]


def _zero_rate_over_heads(state):
    psi = _over_heads(state)
    psi[1][0] = 1
    return psi


def _over_heads_over_servers(state):
    return [[max(state.heads[0], state.servers[0]) + 1, 0, 0], [0, 0, 0]]


@pytest.mark.parametrize("bad,message", [
    (lambda state: [[0, 0, 0], [0, 0]], "assignment is ragged"),
    (lambda state: [[0, 0], [0, 0]], "assignment shape (2, 2) does not match the network"),
    (lambda state: np.zeros((2, 3)), "assignment is not integer-valued"),
    (lambda state: [[True, False, False], [False] * 3], "assignment is not integer-valued"),
    (lambda state: [[-1, 0, 0], [0, 0, 0]], "negative in-service count"),
    (lambda state: [[0, 0, 0], [1, 0, 0]], "in-service count on a pair with zero service rate"),
    (_over_heads, "class has more customers in service than in the system"),
    (_over_servers, "station has more customers in service than servers"),
    # each of these breaks two checks: the first in checking order is reported
    (_negative_over_servers, "negative in-service count"),
    (_zero_rate_over_heads, "in-service count on a pair with zero service rate"),
    (_over_heads_over_servers, "class has more customers in service than in the system"),
    # a row sum past the int64 range is still over the heads
    (lambda state: [[2**62, 2**62, 0], [0, 0, 0]],
     "class has more customers in service than in the system"),
], ids=["ragged", "shape", "float", "bool", "negative", "zero-rate", "over-heads",
        "over-servers", "negative+over-servers", "zero-rate+over-heads",
        "over-heads+over-servers", "over-heads-past-int64"])
def test_each_infeasibility_raises(case_b, bad, message):
    sol = solve_static_allocation(case_b)
    sys = build_system(case_b, sol, 10)
    with pytest.raises(PolicyViolation) as err:
        simulate(sys, Rogue(bad), T=1.0, seed=1)
    assert str(err.value) == f"policy 'rogue' at event 3: {message}"


def test_counting_identity_enforced(case_b):
    class Miscount(Rogue):
        def assign(self, state, sys):
            if self.calls == 3:
                state.heads[0] += 1  # a head that arrived in no event
            return super().assign(state, sys)

    policy = Miscount(lambda state: [[0, 0, 0], [0, 0, 0]])
    sol = solve_static_allocation(case_b)
    with pytest.raises(RuntimeError, match="event accounting broke the counting identity"):
        simulate(build_system(case_b, sol, 10), policy, T=1.0, seed=1)
    assert policy.calls == 4


# two identical classes at one station: greedy-basic often gives both the same row
SYMMETRIC_2X1 = {"classes": 2, "stations": 1, "lambda": [0.5, 0.5], "nu": [1], "mu": [[1], [1]]}


def _alias_equal_rows(psi):
    """One list object for every row, wherever the rows are equal."""
    return [psi[0]] * len(psi) if all(row == psi[0] for row in psi) else psi


@pytest.mark.parametrize("model,convert", [
    (CASE_A, lambda psi: psi),
    (CASE_A, lambda psi: np.array(psi, dtype=np.int64)),
    (CASE_A, lambda psi: np.array(psi, dtype=np.int32)),
    (CASE_A, lambda psi: [[np.int64(v) for v in row] for row in psi]),
    (CASE_A, lambda psi: tuple(tuple(row) for row in psi)),
    (CASE_A, lambda psi: [tuple(row) for row in psi]),
    (CASE_A, lambda psi: [[np.int64(psi[0][0]), *psi[0][1:]], *psi[1:]]),
    (SYMMETRIC_2X1, _alias_equal_rows),
], ids=["int-lists", "int64-array", "int32-array", "numpy-int-lists", "tuples",
        "tuple-rows", "one-numpy-int", "aliased-rows"])
def test_assignment_forms_accepted(model, convert):
    class Converted(GreedyBasic):
        def prepare(self, sys):
            self.last, self.aliased = None, 0

        def assign(self, state, sys):
            if self.last is not None:
                # the last assignment, less at most the one customer who completed
                drops = sorted(map(sub, chain(*self.last), chain(*state.in_service)))
                assert drops[:-1] == [0] * (len(drops) - 1) and drops[-1] in (0, 1)
            psi = super().assign(state, sys)
            self.last = [row[:] for row in psi]
            psi = convert(psi)
            self.aliased += len(psi) > 1 and psi[0] is psi[1] and any(psi[0])
            return psi

    model = validate_model(model)
    sol = solve_static_allocation(model)
    sys = build_system(model, sol, 20)
    expected = simulate(sys, GreedyBasic(model, sol), T=0.5, seed=4)
    policy = Converted(model, sol)
    got = simulate(sys, policy, T=0.5, seed=4)
    _assert_same_result(got, expected)
    assert (policy.aliased > 0) == (convert is _alias_equal_rows)


@pytest.mark.parametrize("I,J", [(1, 1), (2, 3), (3, 3), (4, 5)])
def test_checked_prices_like_accumulate(I, J):
    # the running sums are accumulate's, signed zeros included, from 8 pairs on too
    rng = np.random.default_rng(I * 10 + J)
    for _ in range(50):
        rates = rng.choice([0.0, -0.0, 0.1, 1.0, 2.7, 1e-9], size=I * J).tolist()
        psi = rng.integers(0, 4, size=(I, J)) * (np.array(rates).reshape(I, J) > 0)
        heads, servers = psi.sum(axis=1).tolist(), psi.sum(axis=0).tolist()
        inactive = [divmod(k, J) for k, rate in enumerate(rates) if not rate > 0]
        for form in (psi.tolist(), psi):
            rows, cum = simulator._checked(form, heads, servers, rates, inactive)
            assert rows == psi.tolist()
            expected = accumulate(map(mul, rates, chain(*rows)))
            assert [x.hex() for x in cum] == [x.hex() for x in expected]


@pytest.mark.parametrize("I,J", [(1, 1), (2, 3), (4, 5)])
def test_checked_agrees_with_violation(I, J):
    # the fast pass raises exactly when the rule list names a rule, and with its reason
    rng = np.random.default_rng(I * 10 + J)
    seen = set()
    for _ in range(400):
        rates = rng.choice([0.0, 1.0, 2.5], size=I * J, p=[0.2, 0.4, 0.4])
        zero_rate = np.flatnonzero(rates == 0)
        psi = rng.integers(0, 4, size=I * J) * (rates > 0)
        heads = psi.reshape(I, J).sum(axis=1) + rng.integers(0, 2, size=I)
        servers = psi.reshape(I, J).sum(axis=0) + rng.integers(0, 2, size=J)
        # each rule is broken on its own, or with others, or not at all
        if rng.random() < 0.25:
            psi[rng.integers(I * J)] = -1
        if rng.random() < 0.25 and zero_rate.size:
            psi[rng.choice(zero_rate)] = 1
        if rng.random() < 0.25:
            heads[rng.integers(I)] -= rng.integers(1, 3)
        if rng.random() < 0.25:
            servers[rng.integers(J)] -= rng.integers(1, 3)
        found = simulator._violation(psi[:, None], heads[:, None], servers, zero_rate)
        try:
            simulator._checked(psi.reshape(I, J).tolist(), heads.tolist(), servers.tolist(),
                               rates.tolist(), [divmod(k, J) for k in zero_rate.tolist()])
        except PolicyViolation as exc:
            assert found is not None and str(exc) == found[0]
        else:
            assert found is None
        seen.add(found and found[0])
    assert len(seen) == 5  # every rule, and none, came up


def test_returned_assignment_is_not_mutated(case_a):
    # the simulator decrements its own copy when a customer completes
    class Fixed(Policy):
        name = "fixed"

        def prepare(self, sys):
            self.psi = [[0, 1, 0], [0, 0, 0]]

        def assign(self, state, sys):
            return self.psi

    sol, sys = _case_a_setup(case_a, 10)
    policy = Fixed()
    res = simulate(sys, policy, T=2.0, seed=3)
    assert res.completions.sum() > 0
    assert policy.psi == [[0, 1, 0], [0, 0, 0]]


# (seed, size) of generated instances with a negative path; 9 and 16 pairs
GENERATED = {"generated_3x3": (1, 3), "generated_4x4": (4, 4)}
LOCKSTEP_CASES = (
    [(name, policy, 40, 0.2) for name in ("case_a", "case_b", "class_dependent_2x2")
     for policy in POLICY_NAMES]
    + [("erlang_1x1", "greedy-basic", 100, 0.0)]
    + [("non_integer_2x2", policy, 20, 0.0) for policy in POLICY_NAMES]
    + [(name, policy, 30, 0.0) for name in GENERATED for policy in POLICY_NAMES]
)


def _setup(name, n):
    if name in GENERATED:
        seed, size = GENERATED[name]
        model, sol = generate_critical_instance(seed, size, size)
    else:
        model = validate_model(ORACLE_MODELS[name])
        sol = solve_static_allocation(model)
    paths = enumerate_simple_paths(sol, activity_set(model), model)
    return model, sol, paths, build_system(model, sol, n)


def _assert_same_result(got, expected):
    for field in fields(SimResult):
        a, b = getattr(got, field.name), getattr(expected, field.name)
        assert np.array_equal(a, b), field.name
        assert np.asarray(a).dtype == np.asarray(b).dtype, field.name
    assert got.events == expected.events
    assert got.queue_occupancy == expected.queue_occupancy


# (model, policy, n, T) whose 5 replications run about 1,000 to 1,300 events
# each, some ending before a block boundary that the others cross
BLOCK_CASES = (
    [("case_a", policy, 400, T) for policy, T in zip(POLICY_NAMES, (0.13, 0.13, 0.27))]
    + [("erlang_1x1", "greedy-basic", 100, 5.6)]
)


@pytest.mark.parametrize("name,policy,n,warmup,sample_points,T,blocks,reps,tail", [
    *(pytest.param(*case, 11, 1.0, 0, 5, 0, id="-".join(map(str, case)))
      for case in LOCKSTEP_CASES),
    *(pytest.param("case_a", policy, 40, 0.2, points, 1.0, 0, 5, 0,
                   id=f"case_a-{policy}-40-0.2-{points}-points")
      for policy in POLICY_NAMES for points in (0, 1, 2)),
    *(pytest.param(name, policy, n, 0.0, 11, T, 4, 5, 0, id=f"{name}-{policy}-{n}-T{T}-blocks")
      for name, policy, n, T in BLOCK_CASES),
    *(pytest.param("case_a", policy, 2, 0.0, 11, 5.0, 0, 20, 20, id=f"case_a-{policy}-2-T5-tail")
      for policy in POLICY_NAMES),
])
def test_lockstep_equals_simulate(name, policy, n, warmup, sample_points, T, blocks, reps,
                                  tail):
    # both routes refuse fewer than 2 sample points alike, and the last of 2 or
    # more lies at exactly T; with ``blocks``, every replication reads from at
    # least that many blocks of draws and they end in different blocks; with
    # ``tail``, the last replication runs at least that many events past the
    # first one's end, while the ended columns keep stepping
    model, sol, paths, sys = _setup(name, n)
    pol = make_policy(policy, model, sol, paths)
    seeds = [derive_seed(8, n, rep) for rep in range(reps)]
    if sample_points < 2:
        with pytest.raises(ValueError, match="sample_points must be at least 2"):
            _simulate_lockstep(sys, pol, T, seeds, warmup, sample_points)
        with pytest.raises(ValueError, match="sample_points must be at least 2"):
            simulate(sys, pol, T, seeds[0], warmup=warmup, sample_points=sample_points)
        return
    batch = _simulate_lockstep(sys, pol, T, seeds, warmup, sample_points)
    assert len(batch) == len(seeds)
    for seed, got in zip(seeds, batch):
        expected = simulate(sys, pol, T, seed, warmup=warmup, sample_points=sample_points)
        assert expected.sample_times.size == sample_points
        assert expected.sample_times[-1] == T
        assert expected.events > 0
        _assert_same_result(got, expected)
    events = [res.events for res in batch]
    assert not blocks or (min(events) >= (blocks - 1) * simulator.DRAW_BLOCK
                          and len({e // simulator.DRAW_BLOCK for e in events}) > 1)
    assert max(events) - min(events) >= tail


# (model, policy, n, T) of the exact-oracle systems, a few thousand states each.
# At n <= 4 the pump's step is at least its cap, so its shift reaches the target
# in one step; at n = 9 (step 3, cap 5) it lags, so case_a runs there too,
# over a horizon short enough to keep the state space as small
EXACT_CASES = (
    [(name, policy, n, 1.0)
     for name, n in (("case_a", 2), ("case_b", 3), ("class_dependent_2x2", 4))
     for policy in POLICY_NAMES]
    + [("case_a", "negative-path", 9, 0.25)]
)


@pytest.mark.parametrize("name,policy,n,T", EXACT_CASES)
def test_simulation_matches_exact_transient(name, policy, n, T):
    # on each route, 300 replications' mean occupancy and mean final heads lie
    # within 4 standard errors of the exact means, and of the truncation's error
    model, sol, paths, sys = _setup(name, n)
    occupancy, final, _ = exact_transient(sys, reference_policy(policy, model, sol, paths), T,
                                          warmup=0.2 * T)
    pol = make_policy(policy, model, sol, paths)
    loop = [simulate(sys, pol, T, derive_seed(1, n, rep), warmup=0.2 * T) for rep in range(300)]
    lockstep = _simulate_lockstep(sys, pol, T, [derive_seed(2, n, rep) for rep in range(300)],
                                  warmup=0.2 * T)
    for batch in (loop, lockstep):
        heads = np.array([res.final_heads for res in batch]).T
        for got, exact in ((np.array([res.queue_occupancy for res in batch]), occupancy),
                           *zip(heads, final)):
            assert abs(got.mean() - exact) <= 4 * got.std(ddof=1) / math.sqrt(got.size) + 1e-9


@pytest.mark.parametrize("n", [4, 10, 100])
@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("name", ["case_a", "case_b", "non_integer_2x2", *GENERATED])
def test_fill_never_gets_a_negative_leftover(monkeypatch, name, policy, n):
    # the invariant that lets _fill add min(heads left, servers left) unguarded
    fill, minimums = simulator._fill, set()

    def checked(psi, heads_left, servers_left, order, minimum):
        assert np.min(heads_left) >= 0 and np.min(servers_left) >= 0
        minimums.add(minimum)
        return fill(psi, heads_left, servers_left, order, minimum)

    monkeypatch.setattr(simulator, "_fill", checked)
    model, sol, paths, sys = _setup(name, n)
    assert any(p.sign_class == NEGATIVE for p in paths)
    pol = make_policy(policy, model, sol, paths)
    seeds = [derive_seed(9, n, rep) for rep in range(4)]
    for seed in seeds:
        simulate(sys, pol, 1.0, seed)
    _simulate_lockstep(sys, pol, 1.0, seeds)
    assert minimums == {min, np.minimum}


@pytest.mark.parametrize("reps", [0, 7], ids=["ints", "columns"])
def test_flagged_fill_matches_plain_fill(reps):
    # _by_decreasing_rate marks whether each pair's class and station come again, and _fill
    # skips the leftover updates that nothing reads: on random orders (random rates with
    # ties, over random sets of pairs) and random leftovers it fills as the plain fill does
    rng = np.random.default_rng(31)
    for _ in range(300):
        I, J = map(int, rng.integers(1, 6, size=2))
        rates = rng.choice([0.5, 1.0, 2.0, 3.0], size=(I, J))
        pairs = [divmod(int(k), J) for k in rng.permutation(I * J)[:rng.integers(I * J + 1)]]
        order = simulator._by_decreasing_rate(pairs, SimpleNamespace(service_rates=rates))
        plain = [(i, j) for i, j, *_ in order]
        assert plain == sorted(pairs, key=lambda pos: (-rates[pos], pos))
        for k, (i, j, class_again, station_again) in enumerate(order):
            assert class_again == any(a == i for a, _ in plain[k + 1:])
            assert station_again == any(b == j for _, b in plain[k + 1:])
        columns = (reps,) if reps else ()
        start = rng.integers(0, 4, size=(I, J, *columns))
        heads, servers = (rng.integers(0, 9, size=(size, *columns)) for size in (I, J))
        if reps:
            got, want = start.copy(), start.copy()
            simulator._fill([list(row) for row in got], list(heads.copy()), list(servers.copy()),
                            order, np.minimum)
            plain_fill([list(row) for row in want], list(heads), list(servers), plain, np.minimum)
        else:
            got = simulator._fill(start.tolist(), heads.tolist(), servers.tolist(), order, min)
            want = plain_fill(start.tolist(), heads.tolist(), servers.tolist(), plain, min)
        assert np.array_equal(got, want), (order, start, heads, servers)


@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("name", ["case_a", "case_b", "class_dependent_2x2", "generated_4x4"])
def test_lockstep_assign_matches_scalar_assign(name, policy):
    # assign(heads) overwrites the same buffers on every call. Along a random walk of
    # head counts, with columns sent to no heads and far above the servers, each column
    # equals the scalar assign of a policy prepared for that column and stepped along
    # the same heads, so the pump's per-column shift is compared too
    model, sol, paths, sys = _setup(name, 100)
    assert name != "generated_4x4" or any(p.sign_class == NEGATIVE for p in paths)
    reps, rng = 12, np.random.default_rng(28)
    assign = make_policy(policy, model, sol, paths)._lockstep(sys, reps)
    scalars = [make_policy(policy, model, sol, paths) for _ in range(reps)]
    for pol in scalars:
        pol.prepare(sys)
    servers, far = sys.servers.tolist(), 10 * int(sys.servers.sum())
    heads = sys.x0[:, None].repeat(reps, 1)  # changed in place, as the engine does
    seen = set()
    for step in range(300):
        psi = assign(heads, heads.sum(axis=0) >= sys.servers.sum())
        assert psi.shape == (sys.service_rates.size, reps)
        for c, pol in enumerate(scalars):
            state = SystemState(0.0, heads[:, c].tolist(), [], servers)
            assert psi[:, c].tolist() == [*chain(*pol.assign(state, sys))], (step, c)
        seen.update(map(int, heads.sum(axis=0) >= sum(servers)))
        np.maximum(heads + rng.integers(-4, 5, heads.shape), 0, out=heads)
        zero, high, back = rng.choice(reps, 3, replace=False)
        heads[:, zero], heads[:, high], heads[:, back] = 0, far, sys.x0
    assert seen == {0, 1}  # columns below and at or above the servers came up


def _lockstep_rogue(corrupt):
    """A ``_lockstep`` that serves nobody at events 0 to 2, then returns
    ``corrupt(psi, heads, 2, sys)``: column 2 is replication 2."""
    def factory(self, sys, reps):
        events = []

        def assign(heads, busy):
            psi = np.zeros((sys.service_rates.size, heads.shape[1]), dtype=np.int64)
            events.append(len(events))
            if events[-1] < 3:
                return psi
            return corrupt(psi, heads, 2, sys)
        return assign
    return factory


def _in_column(bad):
    def corrupt(psi, heads, col, sys):
        state = SystemState(0.0, heads[:, col].tolist(), [], sys.servers.tolist())
        psi[:, col] = np.ravel(bad(state))
        return psi
    return corrupt


@pytest.mark.parametrize("corrupt,rep,message", [
    (lambda psi, heads, col, sys: [*psi[:-1], psi[-1][:-1]], 0, "assignment is ragged"),
    (lambda psi, heads, col, sys: psi[:4], 0,
     "assignment shape (4, 5) does not match the network"),
    (lambda psi, heads, col, sys: psi.astype(float), 0, "assignment is not integer-valued"),
    (lambda psi, heads, col, sys: psi > 0, 0, "assignment is not integer-valued"),
    (_in_column(lambda state: [[-1, 0, 0], [0, 0, 0]]), 2, "negative in-service count"),
    (_in_column(lambda state: [[0, 0, 0], [1, 0, 0]]), 2,
     "in-service count on a pair with zero service rate"),
    (_in_column(_over_heads), 2, "class has more customers in service than in the system"),
    (_in_column(_over_servers), 2, "station has more customers in service than servers"),
    (_in_column(_negative_over_servers), 2, "negative in-service count"),
    (_in_column(_zero_rate_over_heads), 2, "in-service count on a pair with zero service rate"),
    (_in_column(_over_heads_over_servers), 2,
     "class has more customers in service than in the system"),
], ids=["ragged", "shape", "float", "bool", "negative", "zero-rate", "over-heads",
        "over-servers", "negative+over-servers", "zero-rate+over-heads",
        "over-heads+over-servers"])
def test_lockstep_infeasibility_raises(case_b, monkeypatch, corrupt, rep, message):
    monkeypatch.setattr(GreedyBasic, "_lockstep", _lockstep_rogue(corrupt))
    sol = solve_static_allocation(case_b)
    sys = build_system(case_b, sol, 10)
    with pytest.raises(PolicyViolation) as err:
        _simulate_lockstep(sys, GreedyBasic(case_b, sol), 1.0, [1, 2, 3, 4, 5])
    assert str(err.value) == f"policy 'greedy-basic' in replication {rep} at event 3: {message}"


def test_lockstep_policy_sees_every_column_to_the_last_step(monkeypatch):
    # column c is replication c for the whole call: every assign call, those after
    # the first replication has ended included, gets the head counts of all R
    lockstep, shapes = GreedyBasic._lockstep, []

    def recording(self, sys, reps):
        assign = lockstep(self, sys, reps)
        return lambda heads, busy: shapes.append(heads.shape) or assign(heads, busy)

    monkeypatch.setattr(GreedyBasic, "_lockstep", recording)
    model, sol, paths, sys = _setup("case_a", 2)
    pol = make_policy("greedy-basic", model, sol, paths)
    seeds = [derive_seed(8, 2, rep) for rep in range(20)]
    batch = _simulate_lockstep(sys, pol, 5.0, seeds)
    events = [res.events for res in batch]
    assert max(events) - min(events) >= 20
    assert shapes == [(model.num_classes, len(seeds))] * (max(events) + 1)
    for seed, got in zip(seeds, batch):
        _assert_same_result(got, simulate(sys, pol, 5.0, seed))


def test_lockstep_records_a_replication_once_when_holding_times_overflow():
    # at an arrival rate of 1e-310 an empty system's holding time is inf; a column
    # that ended at T busy and then empties must not be recorded a second time
    model = validate_model({"classes": 1, "stations": 1, "lambda": [5], "nu": [5],
                            "mu": [[1]]})
    sol = solve_static_allocation(model)
    sys = replace(build_system(model, sol, 1), arrival_rates=np.array([1e-310]))
    pol, seeds = GreedyBasic(model, sol), list(range(8))
    batch = _simulate_lockstep(sys, pol, 1.0, seeds)
    assert len({res.events for res in batch}) > 1
    for seed, got in zip(seeds, batch):
        _assert_same_result(got, simulate(sys, pol, 1.0, seed))


class _FixedOnce(Policy):
    """Answers ``psi`` (one column) at event 0 of a lockstep run, then serves nobody."""

    name = "fixed"

    def __init__(self, psi):
        self.psi = psi

    def _lockstep(self, sys, reps):
        first = iter([self.psi[:, None]])
        return lambda heads, busy: next(first, np.zeros((self.psi.size, heads.shape[1]),
                                                        np.int64))


@pytest.mark.parametrize("I,J", [(1, 1), (2, 3), (4, 5)])
def test_lockstep_feasibility_agrees_with_violation(monkeypatch, I, J):
    # the step's product test fires, and so calls the rule list, exactly when the
    # rule list names a rule; the step then raises with that rule's reason
    violation, calls = simulator._violation, []
    monkeypatch.setattr(simulator, "_violation",
                        lambda *args: calls.append(args) or violation(*args))
    rng = np.random.default_rng(I * 10 + J)
    seen = set()
    for _ in range(150):
        rates = rng.choice([0.0, 1.0, 2.5], size=I * J, p=[0.2, 0.4, 0.4])
        zero_rate = np.flatnonzero(rates == 0)
        psi = rng.integers(0, 4, size=I * J) * (rates > 0)
        heads = psi.reshape(I, J).sum(axis=1) + rng.integers(0, 2, size=I)
        servers = psi.reshape(I, J).sum(axis=0) + rng.integers(0, 2, size=J)
        # each rule is broken on its own, or with others, or not at all
        if rng.random() < 0.25:
            psi[rng.integers(I * J)] = -1
        if rng.random() < 0.25 and zero_rate.size:
            psi[rng.choice(zero_rate)] = 1
        if rng.random() < 0.25:
            heads[rng.integers(I)] -= rng.integers(1, 3)
        if rng.random() < 0.25:
            servers[rng.integers(J)] -= rng.integers(1, 3)
        found = violation(psi[:, None], heads[:, None], servers, zero_rate)
        model = validate_model({"classes": I, "stations": J, "lambda": [1.0] * I,
                                "nu": [1.0] * J, "mu": rates.reshape(I, J).tolist()})
        empty = np.zeros((I, J), dtype=np.int64)
        sys = simulator.SystemInstance(
            n=1, arrival_rates=model.arrival_rates, servers=servers,
            service_rates=model.service_rates, x0=heads, core=empty, ahead=empty, model=model,
            solution=None)
        calls.clear()
        try:
            _simulate_lockstep(sys, _FixedOnce(psi), 1e-9, [1])
        except PolicyViolation as exc:
            assert found is not None
            assert str(exc) == f"policy 'fixed' in replication 0 at event 0: {found[0]}"
        else:
            assert found is None
        assert bool(calls) == (found is not None)
        seen.add(found and found[0])
    assert len(seen) == 5  # every rule, and none, came up


class _Huge(Policy):
    """Puts 2**62 customers in service at every pair; in lockstep, in column 1 only,
    and at event 0 only, so that a run that accepts it still ends."""

    name = "huge"

    def assign(self, state, sys):
        return [[2**62] * len(state.servers) for _ in state.heads]

    def _lockstep(self, sys, reps):
        psi = np.zeros((sys.service_rates.size, reps), dtype=np.int64)
        psi[:, 1] = 2**62
        first = iter([psi])
        return lambda heads, busy: next(first, np.zeros_like(psi))


def test_lockstep_feasibility_does_not_wrap():
    # a class's or station's 2 * 2**62 wraps to a negative int64, under every bound: both
    # engines must still name the class over its heads, as the sum over Python ints does
    model = validate_model({"classes": 2, "stations": 2, "lambda": [1.0, 1.0],
                            "nu": [1.0, 1.0], "mu": [[1.0, 1.0], [1.0, 1.0]]})
    empty = np.zeros((2, 2), dtype=np.int64)
    sys = simulator.SystemInstance(
        n=1, arrival_rates=model.arrival_rates, servers=np.array([5, 5]),
        service_rates=model.service_rates, x0=np.array([3, 3]), core=empty, ahead=empty,
        model=model, solution=None)
    reason = "class has more customers in service than in the system"
    with pytest.raises(PolicyViolation) as loop:
        simulate(sys, _Huge(), 1.0, 1)
    assert str(loop.value) == f"policy 'huge' at event 0: {reason}"
    with pytest.raises(PolicyViolation) as lockstep:
        _simulate_lockstep(sys, _Huge(), 1.0, [1, 2, 3])
    assert str(lockstep.value) == f"policy 'huge' in replication 1 at event 0: {reason}"


def test_lockstep_counting_identity_enforced(case_a, monkeypatch):
    # the event step's head table forgets that a completion at class 0 leaves
    def miscount(I, J):
        table = event_heads(I, J)
        table[0, I:] = 0
        return table

    event_heads = simulator._event_heads
    monkeypatch.setattr(simulator, "_event_heads", miscount)
    sol, sys = _case_a_setup(case_a, 10)
    with pytest.raises(RuntimeError, match="event accounting broke the counting identity"):
        _simulate_lockstep(sys, GreedyBasic(case_a, sol), 1.0, [1, 2, 3])
    monkeypatch.undo()

    # the heads stay right, and the event table forgets to count a completion at pair k,
    # one that replication 1 completes
    pair = int(simulate(sys, GreedyBasic(case_a, sol), 1.0, 1).completions.argmax())

    def uncounted(I, J):
        table = event_table(I, J)
        assert table[2 * I + pair, I + pair] == 1
        table[2 * I + pair, I + pair] = 0
        return table

    event_table = simulator._event_table
    monkeypatch.setattr(simulator, "_event_table", uncounted)
    with pytest.raises(RuntimeError, match="event accounting broke the counting identity"):
        _simulate_lockstep(sys, GreedyBasic(case_a, sol), 1.0, [1, 2, 3])


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_lockstep_flag_is_head_total_at_server_total(monkeypatch, policy):
    # the flag the engine passes on every step is, in every column, whether the heads
    # total at least the servers
    model, sol, paths, sys = _setup("case_a", 25)
    pol = make_policy(policy, model, sol, paths)
    lockstep, flags, servers_total = type(pol)._lockstep, [], sys.servers.sum()

    def recording(self, sys, reps):
        assign = lockstep(self, sys, reps)

        def checked(heads, busy):
            assert busy.dtype == bool
            assert np.array_equal(busy, heads.sum(axis=0) >= servers_total)
            flags.extend(busy.tolist())
            return assign(heads, busy)
        return checked

    monkeypatch.setattr(type(pol), "_lockstep", recording)
    seeds = [derive_seed(6, 25, rep) for rep in range(20)]
    batch = _simulate_lockstep(sys, pol, 1.0, seeds)
    assert len(flags) == len(seeds) * (max(res.events for res in batch) + 1)
    # idle serves nobody, so its heads start and stay at or above the servers
    assert set(flags) == ({True} if policy == "idle" else {False, True})


def test_lockstep_leaves_no_state_on_the_policy(case_a):
    sol = solve_static_allocation(case_a)
    paths = enumerate_simple_paths(sol, activity_set(case_a), case_a)
    used = make_policy("negative-path", case_a, sol, paths)
    for n in (25, 100):
        _simulate_lockstep(build_system(case_a, sol, n), used, 0.5, [1, 2, 3])
    sys = build_system(case_a, sol, 25)
    fresh = make_policy("negative-path", case_a, sol, paths)
    _assert_same_result(simulate(sys, used, 0.5, 7), simulate(sys, fresh, 0.5, 7))


def test_only_built_in_policies_run_in_lockstep(case_a, monkeypatch):
    class Counting(GreedyBasic):
        calls = 0

        def assign(self, state, sys):
            Counting.calls += 1
            return super().assign(state, sys)

    batches = []
    lockstep = simulator._simulate_lockstep
    monkeypatch.setattr(simulator, "_simulate_lockstep",
                        lambda *args: batches.append(args[1]) or lockstep(*args))
    sol = solve_static_allocation(case_a)
    reps = simulator.LOCKSTEP_MIN_REPS
    for policy in (GreedyBasic(case_a, sol), Counting(case_a, sol)):
        for count in (reps - 1, reps):
            run_nc_experiment(case_a, sol, policy, [5], T=0.1, reps=count, seed=3)
    assert [type(p) for p in batches] == [GreedyBasic]
    assert Counting.calls > 0


@pytest.mark.parametrize("T,warmup", [(0.0, 0.0), (math.inf, 0.0), (math.nan, 0.0),
                                      (1.0, 1.0), (1.0, 2.0)])
@pytest.mark.parametrize("lockstep", [False, True], ids=["loop", "lockstep"])
def test_run_nc_experiment_rejects_horizon_before_drawing(case_a, monkeypatch, T, warmup,
                                                         lockstep):
    sol, sys = _case_a_setup(case_a, 10)
    with pytest.raises(ValueError) as expected:
        simulate(sys, GreedyBasic(case_a, sol), T, 1, warmup=warmup)

    def never(*args, **kwargs):
        raise AssertionError("drew a replication")

    monkeypatch.setattr(simulator, "simulate", never)
    monkeypatch.setattr(simulator, "_simulate_lockstep", never)
    reps = simulator.LOCKSTEP_MIN_REPS if lockstep else 1
    with pytest.raises(ValueError) as err:
        run_nc_experiment(case_a, sol, "greedy-basic", [10], T=T, reps=reps, seed=1,
                          warmup=warmup)
    assert str(err.value) == str(expected.value)
