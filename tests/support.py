"""Shared test oracles and instance factories.

The LP oracles here are deliberately independent of the package's simplex:
they enumerate basic solutions of the constraint system directly with dense
linear algebra, which is exact on the tiny instances used in tests.
"""

from __future__ import annotations

import itertools

import numpy as np

from fluidq import (
    INFEASIBLE,
    UNBOUNDED,
    GenerationFailed,
    InfeasibleModel,
    LinearProgram,
    NumericalFailure,
    activity_set,
    check_assumptions,
    enumerate_simple_paths,
    generate_critical_instance,
    solve_lp,
    solve_static_allocation,
    validate_model,
)

ORACLE_TOL = 1e-7


def vertex_optimum(objective, a_eq, b_eq, a_ub, b_ub, maximize=False):
    """Optimum of a bounded LP by enumerating vertices of the feasible set.

    Constraints: a_eq x = b_eq, a_ub x <= b_ub, x >= 0. Every vertex lies on
    n linearly independent tight constraints; equalities are always tight, so
    the enumeration chooses the remainder among inequality rows and
    nonnegativity bounds. Returns (value, x) or None if no feasible vertex.
    """
    objective = np.asarray(objective, dtype=float)
    n = objective.size
    a_eq = np.asarray(a_eq, dtype=float).reshape(-1, n)
    b_eq = np.asarray(b_eq, dtype=float).ravel()
    a_ub = np.asarray(a_ub, dtype=float).reshape(-1, n)
    b_ub = np.asarray(b_ub, dtype=float).ravel()

    candidates = [(a_ub[r], b_ub[r]) for r in range(a_ub.shape[0])]
    for i in range(n):
        row = np.zeros(n)
        row[i] = -1.0
        candidates.append((row, 0.0))

    need = n - a_eq.shape[0]
    if need < 0:
        return None
    best_val = None
    best_x = None
    for combo in itertools.combinations(range(len(candidates)), need):
        rows = [a_eq] if a_eq.size else []
        rhs = [b_eq] if b_eq.size else []
        for c in combo:
            rows.append(candidates[c][0][None, :])
            rhs.append(np.array([candidates[c][1]]))
        M = np.vstack(rows) if rows else np.zeros((0, n))
        v = np.concatenate(rhs) if rhs else np.zeros(0)
        if M.shape[0] != n:
            continue
        try:
            x = np.linalg.solve(M, v)
        except np.linalg.LinAlgError:
            continue
        if (x < -ORACLE_TOL).any():
            continue
        if a_eq.size and np.abs(a_eq @ x - b_eq).max() > ORACLE_TOL:
            continue
        if a_ub.size and (a_ub @ x - b_ub).max() > ORACLE_TOL:
            continue
        val = float(objective @ x)
        if best_val is None or (val > best_val if maximize else val < best_val):
            best_val, best_x = val, x
    if best_val is None:
        return None
    return best_val, best_x


def max_throughput_oracle(class_masses, capacities, model):
    """Maximum service rate over the mass polytope, by vertex enumeration."""
    I, J = model.num_classes, model.num_stations
    n = I * J
    rows = []
    rhs = []
    for i in range(I):
        coef = np.zeros(n)
        coef[i * J:(i + 1) * J] = 1.0
        rows.append(coef)
        rhs.append(float(class_masses[i]))
    for j in range(J):
        coef = np.zeros(n)
        coef[np.arange(I) * J + j] = 1.0
        rows.append(coef)
        rhs.append(float(capacities[j]))
    out = vertex_optimum(
        model.service_rates.ravel(), np.zeros((0, n)), np.zeros(0),
        np.vstack(rows), np.array(rhs), maximize=True,
    )
    assert out is not None
    return out[0]


def allocation_unique_oracle(model):
    """Uniqueness of the allocation optimum, by optimal-face vertex counting.

    Enumerates vertices of the allocation program directly (equalities plus
    chosen tight rows), keeps those attaining the optimal load, and reports
    whether the allocation part is unique across them.
    """
    from fluidq.static_fluid import _allocation_lp

    lp = _allocation_lp(model)
    n = lp.n_vars
    a_eq = np.vstack([c for c, _ in lp.eq])
    b_eq = np.array([r for _, r in lp.eq])
    a_ub = np.vstack([c for c, _ in lp.ub])
    b_ub = np.array([r for _, r in lp.ub])

    candidates = [(a_ub[r], b_ub[r]) for r in range(a_ub.shape[0])]
    for i in range(n):
        row = np.zeros(n)
        row[i] = -1.0
        candidates.append((row, 0.0))

    need = n - a_eq.shape[0]
    best = None
    solutions = []
    for combo in itertools.combinations(range(len(candidates)), max(need, 0)):
        rows = [a_eq] + [candidates[c][0][None, :] for c in combo]
        rhs = [b_eq] + [np.array([candidates[c][1]]) for c in combo]
        M = np.vstack(rows)
        v = np.concatenate(rhs)
        if M.shape[0] != n:
            continue
        try:
            x = np.linalg.solve(M, v)
        except np.linalg.LinAlgError:
            continue
        if (x < -ORACLE_TOL).any():
            continue
        if np.abs(a_eq @ x - b_eq).max() > ORACLE_TOL:
            continue
        if (a_ub @ x - b_ub).max() > ORACLE_TOL:
            continue
        val = float(lp.objective @ x)
        if best is None or val < best - ORACLE_TOL:
            best = val
            solutions = [x]
        elif val <= best + ORACLE_TOL:
            solutions.append(x)
    assert solutions, "allocation program should be feasible here"
    base = solutions[0][:-1]  # drop the load variable
    return all(np.abs(s[:-1] - base).max() <= 1e-6 for s in solutions)


def optimal_range(lp, var, opt_value):
    """Min and max of ``x[var]`` over the optimal face of a solved program.

    The face is carved out by pinning the objective to ``opt_value`` with an
    added equality, then minimizing and maximizing the single coordinate. An
    unbounded direction maps to +/- inf.
    """
    pinned = lp.eq + ((lp.objective, float(opt_value)),)
    unit = np.zeros(lp.n_vars)
    unit[var] = 1.0
    lo_res = solve_lp(LinearProgram(lp.n_vars, unit, pinned, lp.ub))
    hi_res = solve_lp(LinearProgram(lp.n_vars, -unit, pinned, lp.ub))
    if lo_res.status == INFEASIBLE or hi_res.status == INFEASIBLE:
        raise NumericalFailure("optimal face is empty at the pinned objective value")
    lo = -np.inf if lo_res.status == UNBOUNDED else float(lo_res.value)
    hi = np.inf if hi_res.status == UNBOUNDED else float(-hi_res.value)
    return lo, hi


def allocation_unique_by_ranges(model, sol, tol=1e-9):
    """Uniqueness of the allocation optimum, by probing every allocation
    variable's range over the optimal face: 2 * I * J LP solves.

    The reference for the one-LP test in ``check_assumptions``: the same
    allocation program and simplex, a different uniqueness argument.
    """
    from fluidq.static_fluid import _allocation_lp

    lp = _allocation_lp(model)
    for var in range(model.num_classes * model.num_stations):
        lo, hi = optimal_range(lp, var, sol.load)
        if hi - lo > 2 * tol:
            return False
    return True


def erlang_c(servers: int, offered_load: float) -> float:
    """Steady-state probability that all servers are busy in an M/M/c queue."""
    b = 1.0
    for k in range(1, servers + 1):
        b = offered_load * b / (k + offered_load * b)
    rho = offered_load / servers
    return b / (1.0 - rho * (1.0 - b))


def tune_zero_path(seed: int, num_classes: int, num_stations: int):
    """Instance with at least one zero path, throughput optimal, assumptions ok.

    Starts from a generated instance and retunes a single rate on one simple
    path so that path's weight vanishes, then re-solves and re-checks
    everything. Returns (model, sol, report, paths) or None if this seed
    yields nothing usable.
    """
    try:
        model, sol = generate_critical_instance(seed, num_classes, num_stations)
    except GenerationFailed:
        return None
    paths = enumerate_simple_paths(sol, activity_set(model), model)
    planted = sol.allocation
    for path in paths:
        for edge, sign in path.signed_edges:
            i, j = model.edge_positions(edge)
            rest = path.weight - sign * model.service_rates[i, j]
            needed = -rest / sign
            if not 0.5 <= needed <= 10.0:
                continue
            mu2 = np.array(model.service_rates)
            mu2[i, j] = needed
            lam2 = (mu2 * model.capacities[None, :] * planted).sum(axis=1)
            if (lam2 <= 0).any():
                continue
            candidate = validate_model(
                {
                    "classes": num_classes,
                    "stations": num_stations,
                    "lambda": lam2.tolist(),
                    "nu": model.capacities.tolist(),
                    "mu": mu2.tolist(),
                }
            )
            try:
                sol2 = solve_static_allocation(candidate)
            except InfeasibleModel:
                continue
            report2 = check_assumptions(candidate, sol2)
            if not report2.all_hold:
                continue
            if np.abs(sol2.allocation - planted).max() > 1e-6:
                continue
            paths2 = enumerate_simple_paths(sol2, activity_set(candidate), candidate)
            if any(p.sign_class == "negative" for p in paths2):
                continue
            if not any(p.sign_class == "zero" for p in paths2):
                continue
            return candidate, sol2, report2, paths2
    return None


def relabel_model(model, class_perm, station_perm):
    """Model with permuted labels: new position k holds old position perm[k]."""
    lam = model.arrival_rates[list(class_perm)]
    nu = model.capacities[list(station_perm)]
    mu = model.service_rates[np.ix_(list(class_perm), list(station_perm))]
    return validate_model(
        {
            "classes": model.num_classes,
            "stations": model.num_stations,
            "lambda": lam.tolist(),
            "nu": nu.tolist(),
            "mu": mu.tolist(),
        }
    )
