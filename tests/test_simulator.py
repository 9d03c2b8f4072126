import math
from dataclasses import fields

import numpy as np
import pytest

from fluidq import (
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
    make_policy,
    run_nc_experiment,
    scale_result,
    simulate,
    solve_static_allocation,
    validate_model,
)
from fluidq import simulator
from fluidq.simulator import _simulate_lockstep

from conftest import CASE_A, CASE_B, CLASS_DEPENDENT_2X2
from support import erlang_c, reference_policy, reference_simulate, relabel_model


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
    m = validate_model(
        {
            "classes": 1,
            "stations": 4,
            "lambda": [1],
            "nu": [0.95] * 4,
            "mu": [[1, 1, 1, 1]],
        }
    )
    sol = solve_static_allocation(m)
    with pytest.raises(ScalingViolation):
        build_system(m, sol, 10)


def test_build_system_rejects_bad_n(case_a):
    sol = solve_static_allocation(case_a)
    with pytest.raises(ValueError):
        build_system(case_a, sol, 0)


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


def test_scale_result_identities(case_a):
    sol, sys = _case_a_setup(case_a, 100)
    res = simulate(sys, GreedyBasic(case_a, sol), T=0.3, seed=2)
    sc = scale_result(res, sys, sol)
    # centering: heads 165 for class 1 scales to 1.5 at n = 100
    expect = (res.sample_heads - 100 * sol.class_masses[None, :]) / 10.0
    assert np.allclose(sc.heads, expect, atol=1e-12)
    assert np.allclose(sc.queued, sc.heads - sc.in_service.sum(axis=2), atol=1e-12)
    assert np.allclose(
        sc.idle, sc.servers[None, :] - sc.in_service.sum(axis=1), atol=1e-12
    )
    assert np.allclose(sc.servers, 0.0, atol=1e-12)


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


def test_make_policy_names(case_a):
    sol = solve_static_allocation(case_a)
    paths = enumerate_simple_paths(sol, activity_set(case_a), case_a)
    for name in ("idle", "greedy-basic", "negative-path"):
        assert make_policy(name, case_a, sol, paths).name == name
    with pytest.raises(ValueError):
        make_policy("nope", case_a, sol, paths)


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


@pytest.mark.parametrize("bad,message", [
    (lambda state: [[0, 0], [0, 0]], "assignment shape (2, 2) does not match the network"),
    (lambda state: np.zeros((2, 3)), "assignment is not integer-valued"),
    (lambda state: [[True, False, False], [False] * 3], "assignment is not integer-valued"),
    (lambda state: [[-1, 0, 0], [0, 0, 0]], "negative in-service count"),
    (lambda state: [[0, 0, 0], [1, 0, 0]], "in-service count on a pair with zero service rate"),
    (_over_heads, "class has more customers in service than in the system"),
    (_over_servers, "station has more customers in service than servers"),
], ids=["shape", "float", "bool", "negative", "zero-rate", "over-heads", "over-servers"])
def test_each_infeasibility_raises(case_b, bad, message):
    sol = solve_static_allocation(case_b)
    sys = build_system(case_b, sol, 10)
    with pytest.raises(PolicyViolation) as err:
        simulate(sys, Rogue(bad), T=1.0, seed=1)
    assert str(err.value) == f"policy 'rogue' at event 3: {message}"


@pytest.mark.parametrize("convert", [
    lambda psi: psi,
    lambda psi: np.array(psi, dtype=np.int64),
    lambda psi: np.array(psi, dtype=np.int32),
    lambda psi: [[np.int64(v) for v in row] for row in psi],
    lambda psi: tuple(tuple(row) for row in psi),
], ids=["int-lists", "int64-array", "int32-array", "numpy-int-lists", "tuples"])
def test_assignment_forms_accepted(case_a, convert):
    class Converted(GreedyBasic):
        def assign(self, state, sys):
            return convert(super().assign(state, sys))

    sol, sys = _case_a_setup(case_a, 20)
    expected = simulate(sys, GreedyBasic(case_a, sol), T=0.5, seed=4)
    got = simulate(sys, Converted(case_a, sol), T=0.5, seed=4)
    assert got.events == expected.events
    assert np.array_equal(got.sample_in_service, expected.sample_in_service)
    assert got.queue_occupancy == expected.queue_occupancy


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


@pytest.mark.parametrize("name,policy,n,warmup", LOCKSTEP_CASES)
def test_lockstep_equals_simulate(name, policy, n, warmup):
    # the last of the 11 sample points lies at exactly T
    model, sol, paths, sys = _setup(name, n)
    pol = make_policy(policy, model, sol, paths)
    seeds = [derive_seed(8, n, rep) for rep in range(5)]
    batch = _simulate_lockstep(sys, pol, 1.0, seeds, warmup, 11)
    assert len(batch) == len(seeds)
    for seed, got in zip(seeds, batch):
        expected = simulate(sys, pol, 1.0, seed, warmup=warmup, sample_points=11)
        assert expected.events > 0
        _assert_same_result(got, expected)


def _lockstep_rogue(corrupt):
    """A ``_lockstep`` that serves nobody at events 0 to 2, then returns
    ``corrupt(psi, heads, col, sys)`` for the column of replication 2."""
    def factory(self, sys, reps):
        events = []

        def assign(heads, live):
            psi = np.zeros((sys.service_rates.size, heads.shape[1]), dtype=np.int64)
            events.append(len(events))
            if events[-1] < 3:
                return psi
            return corrupt(psi, heads, int(np.flatnonzero(live == 2)[0]), sys)
        return assign
    return factory


def _in_column(bad):
    def corrupt(psi, heads, col, sys):
        state = SystemState(0.0, heads[:, col].tolist(), [], sys.servers.tolist())
        psi[:, col] = np.ravel(bad(state))
        return psi
    return corrupt


@pytest.mark.parametrize("corrupt,rep,message", [
    (lambda psi, heads, col, sys: psi[:4], 0,
     "assignment shape (4, 5) does not match the network"),
    (lambda psi, heads, col, sys: psi.astype(float), 0, "assignment is not integer-valued"),
    (lambda psi, heads, col, sys: psi > 0, 0, "assignment is not integer-valued"),
    (_in_column(lambda state: [[-1, 0, 0], [0, 0, 0]]), 2, "negative in-service count"),
    (_in_column(lambda state: [[0, 0, 0], [1, 0, 0]]), 2,
     "in-service count on a pair with zero service rate"),
    (_in_column(_over_heads), 2, "class has more customers in service than in the system"),
    (_in_column(_over_servers), 2, "station has more customers in service than servers"),
], ids=["shape", "float", "bool", "negative", "zero-rate", "over-heads", "over-servers"])
def test_lockstep_infeasibility_raises(case_b, monkeypatch, corrupt, rep, message):
    monkeypatch.setattr(GreedyBasic, "_lockstep", _lockstep_rogue(corrupt))
    sol = solve_static_allocation(case_b)
    sys = build_system(case_b, sol, 10)
    with pytest.raises(PolicyViolation) as err:
        _simulate_lockstep(sys, GreedyBasic(case_b, sol), 1.0, [1, 2, 3, 4, 5])
    assert str(err.value) == f"policy 'greedy-basic' in replication {rep} at event 3: {message}"


def test_lockstep_counting_identity_enforced(case_a, monkeypatch):
    def miscount(u, lam_total, lam_cum, svc_cum, heads, psi, arrivals, completions):
        apply_events(u, lam_total, lam_cum, svc_cum, heads, psi, arrivals, completions)
        completions[0, -1] += 1

    apply_events = simulator._apply_events
    monkeypatch.setattr(simulator, "_apply_events", miscount)
    sol, sys = _case_a_setup(case_a, 10)
    with pytest.raises(RuntimeError, match="event accounting broke the counting identity"):
        _simulate_lockstep(sys, GreedyBasic(case_a, sol), 1.0, [1, 2, 3])


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
