"""Shared test oracles and instance factories.

The LP oracles here are deliberately independent of the package's simplex:
they enumerate basic solutions of the constraint system directly with dense
linear algebra, which is exact on the tiny instances used in tests.
"""

from __future__ import annotations

import itertools
import math
import types

import numpy as np

from fluidq import (
    CLASS_DEPENDENT,
    DEFAULT_TOL,
    INFEASIBLE,
    NEGATIVE,
    NEITHER,
    POOL_DEPENDENT,
    POSITIVE,
    UNBOUNDED,
    ZERO,
    GenerationFailed,
    InfeasibleModel,
    LinearProgram,
    NumericalFailure,
    PolicyViolation,
    SimResult,
    SystemState,
    activity_set,
    check_assumptions,
    enumerate_simple_paths,
    generate_critical_instance,
    solve_lp,
    solve_static_allocation,
    validate_model,
)

ORACLE_TOL = 1e-7


def feasible_vertices(n, a_eq, b_eq, a_ub, b_ub):
    """Yield every feasible vertex of {x in R^n, x >= 0 : a_eq x = b_eq, a_ub x <= b_ub}.

    Every vertex lies on n linearly independent tight constraints; equalities
    are always tight, so the enumeration chooses the remainder among
    inequality rows and nonnegativity bounds, solves, and keeps the solutions
    that satisfy every constraint. A vertex on more than n tight constraints
    comes back once per choice that reaches it.
    """
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
        return
    for combo in itertools.combinations(range(len(candidates)), need):
        M = np.vstack([a_eq] + [candidates[c][0][None, :] for c in combo])
        v = np.concatenate([b_eq, [candidates[c][1] for c in combo]])
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
        yield x


def vertex_optimum(objective, a_eq, b_eq, a_ub, b_ub, maximize=False):
    """Optimum of a bounded LP over ``feasible_vertices``: (value, x), the
    first vertex attaining it, or None if no vertex is feasible."""
    objective = np.asarray(objective, dtype=float)
    best_val = None
    best_x = None
    for x in feasible_vertices(objective.size, a_eq, b_eq, a_ub, b_ub):
        val = float(objective @ x)
        if best_val is None or (val > best_val if maximize else val < best_val):
            best_val, best_x = val, x
    if best_val is None:
        return None
    return best_val, best_x


def max_throughput_oracle(class_masses, capacities, model):
    """Maximum service rate over the mass polytope, by vertex enumeration."""
    I, J = model.num_classes, model.num_stations
    row_sums = np.kron(np.eye(I), np.ones(J))
    column_sums = np.tile(np.eye(J), I)
    out = vertex_optimum(
        model.service_rates.ravel(), np.zeros((0, I * J)), np.zeros(0),
        np.vstack([row_sums, column_sums]), np.concatenate([class_masses, capacities]),
        maximize=True,
    )
    assert out is not None
    return out[0]


def full_allocation_lp(model):
    """The allocation program over every (class, station) pair: I*J
    allocation fractions flattened row-major, then the load, with each pair
    without service pinned to zero by an equality row. The package's own
    program carries only the activities; the oracles use this one so they
    do not share its builder.
    """
    I, J = model.num_classes, model.num_stations
    mubar = (model.service_rates * model.capacities[None, :]).ravel()
    pins = np.flatnonzero(mubar == 0.0)

    objective = np.zeros(I * J + 1)
    objective[-1] = 1.0
    a_eq = np.zeros((I + pins.size, I * J + 1))
    a_eq[:I, :-1] = np.kron(np.eye(I), np.ones(J)) * mubar
    a_eq[I + np.arange(pins.size), pins] = 1.0
    b_eq = np.append(model.arrival_rates, np.zeros(pins.size))
    a_ub = np.hstack([np.tile(np.eye(J), I), -np.ones((J, 1))])
    return LinearProgram(objective, a_eq, b_eq, a_ub, np.zeros(J))


def allocation_unique_oracle(model):
    """Uniqueness of the allocation optimum, by optimal-face vertex counting.

    Enumerates the feasible vertices of the allocation program, keeps those
    attaining the optimal load, and reports whether the allocation part is
    unique across them.
    """
    lp = full_allocation_lp(model)
    best = None
    solutions = []
    for x in feasible_vertices(lp.objective.size, lp.a_eq, lp.b_eq, lp.a_ub, lp.b_ub):
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
    a_eq = np.vstack([lp.a_eq, lp.objective])
    b_eq = np.append(lp.b_eq, opt_value)
    unit = np.zeros(lp.objective.size)
    unit[var] = 1.0
    lo_res = solve_lp(LinearProgram(unit, a_eq, b_eq, lp.a_ub, lp.b_ub))
    hi_res = solve_lp(LinearProgram(-unit, a_eq, b_eq, lp.a_ub, lp.b_ub))
    if lo_res.status == INFEASIBLE or hi_res.status == INFEASIBLE:
        raise NumericalFailure("optimal face is empty at the pinned objective value")
    lo = -np.inf if lo_res.status == UNBOUNDED else float(lo_res.value)
    hi = np.inf if hi_res.status == UNBOUNDED else float(-hi_res.value)
    return lo, hi


def allocation_unique_by_ranges(model, sol, tol=1e-9):
    """Uniqueness of the allocation optimum, by probing every allocation
    variable's range over the optimal face: 2 * I * J LP solves.

    The reference for the one-LP test in ``check_assumptions``: the same
    simplex, a different uniqueness argument, and its own allocation program.
    """
    lp = full_allocation_lp(model)
    for var in range(model.num_classes * model.num_stations):
        lo, hi = optimal_range(lp, var, sol.load)
        if hi - lo > 2 * tol:
            return False
    return True


def _reachable(adj, start):
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adj.get(v, ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _tree_path(adj, src, dst):
    parent = {src: src}
    stack = [src]
    while stack:
        v = stack.pop()
        if v == dst:
            break
        for w in adj.get(v, ()):
            if w not in parent:
                parent[w] = v
                stack.append(w)
    path = [dst]
    while path[-1] != src:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def forest_oracle(n_vertices, edges):
    """The graph walks the package used before its single spanning-forest
    helper, by depth-first search over adjacency lists.

    Returns ``closing``, the cycle-closing edges (each sorted edge whose ends
    the forest so far already connects); ``spanning``, whether ``edges`` form
    a spanning tree; ``messages``, the tree-check violations; and the
    functions ``connected(u, v)`` and ``path(src, dst)`` over the forest.
    """
    forest: dict[int, list[int]] = {}
    closing = []
    for i, j in sorted(edges):
        if i in forest and j in forest and j in _reachable(forest, i):
            closing.append((i, j))
            continue
        forest.setdefault(i, []).append(j)
        forest.setdefault(j, []).append(i)

    adj: dict[int, list[int]] = {}
    for i, j in edges:
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)
    spanning = len(adj) == n_vertices and len(edges) == n_vertices - 1
    spanning = spanning and len(_reachable(adj, next(iter(adj)))) == n_vertices

    messages = []
    if len(edges) != n_vertices - 1:
        messages.append(
            f"basic graph has {len(edges)} edges, a spanning tree needs {n_vertices - 1}"
        )
    if len(_reachable(adj, 1)) != n_vertices:
        messages.append("basic graph is disconnected")
    return types.SimpleNamespace(
        closing=closing,
        spanning=spanning,
        messages=messages,
        connected=lambda u, v: v in _reachable(forest, u),
        path=lambda src, dst: _tree_path(forest, src, dst),
    )


# The per-path passes the package made before its single signed walk
# (``signed_path``): signs, weights, sign class and dependence, each its own
# walk over the path. Kept as the oracle for ``signed_path``.


def assign_signs(vertices, closed):
    """Sign the edges of an oriented simple path.

    ``vertices`` alternates class, station, class, ... station. Edges at even
    offsets pair a class with its own station and get +1; odd offsets hand
    over to the next class and get -1. The closing leaf-pair edge, present
    only on closed paths, gets -1.
    """
    if len(vertices) < 4 or len(vertices) % 2:
        raise ValueError("a simple path has an even vertex count of at least 4")
    signed = []
    for idx in range(len(vertices) - 1):
        u, v = vertices[idx], vertices[idx + 1]
        if idx % 2 == 0:
            signed.append(((u, v), +1))
        else:
            signed.append(((v, u), -1))
    if closed:
        signed.append(((vertices[0], vertices[-1]), -1))
    return tuple(signed)


def path_weights(signed_edges, model):
    """Per-class signed rate sums and their total along signed edges."""
    m = np.zeros(model.num_classes)
    for (i, j), s in signed_edges:
        m[model.class_pos(i)] += s * model.rate(i, j)
    m.setflags(write=False)
    return m, float(m.sum())


def classify_dependence(signed_edges, model):
    """Class-dependent if every class's signed sum along the path vanishes,
    pool-dependent if every station's does; class-dependence wins."""
    per_class: dict[int, float] = {}
    per_station: dict[int, float] = {}
    for (i, j), s in signed_edges:
        term = s * model.rate(i, j)
        per_class[i] = per_class.get(i, 0.0) + term
        per_station[j] = per_station.get(j, 0.0) + term
    if all(abs(v) <= DEFAULT_TOL for v in per_class.values()):
        return CLASS_DEPENDENT
    if all(abs(v) <= DEFAULT_TOL for v in per_station.values()):
        return POOL_DEPENDENT
    return NEITHER


def sign_class(weight):
    if abs(weight) <= DEFAULT_TOL:
        return ZERO
    return NEGATIVE if weight < 0 else POSITIVE


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


# The simulator's earlier event loop and policies, on numpy arrays, kept as the
# reference for the list-based ones: same draws, so the same trajectories.

def _ref_round_half_up(values) -> np.ndarray:
    return np.floor(np.asarray(values, dtype=float) + 0.5).astype(np.int64)


def _ref_clip_columns(core, servers):
    for j in range(core.shape[1]):
        while core[:, j].sum() > servers[j]:
            core[int(np.argmax(core[:, j])), j] -= 1


def _ref_initial_assignment(sys):
    psi = _ref_round_half_up(sys.n * sys.solution.masses)
    _ref_clip_columns(psi, sys.servers)
    rates = sys.service_rates
    for i in range(psi.shape[0]):
        excess = int(psi[i].sum()) - int(sys.x0[i])
        if excess <= 0:
            continue
        for j in sorted(range(psi.shape[1]), key=lambda jj: (rates[i, jj], jj)):
            take = min(excess, int(psi[i, j]))
            psi[i, j] -= take
            excess -= take
            if excess <= 0:
                break
    return psi


def _ref_infeasibility(psi, heads, sys, act_mask):
    if psi.shape != sys.service_rates.shape:
        return f"assignment shape {psi.shape} does not match the network"
    if not np.issubdtype(psi.dtype, np.integer):
        return "assignment is not integer-valued"
    if (psi < 0).any():
        return "negative in-service count"
    if psi[~act_mask].any():
        return "in-service count on a pair with zero service rate"
    if (psi.sum(axis=1) > heads).any():
        return "class has more customers in service than in the system"
    if (psi.sum(axis=0) > sys.servers).any():
        return "station has more customers in service than servers"
    return None


class RefIdle:
    name = "idle"

    def prepare(self, sys):
        pass

    def assign(self, state, sys):
        return np.zeros_like(sys.service_rates, dtype=np.int64)


class RefGreedyBasic(RefIdle):
    name = "greedy-basic"

    def __init__(self, model, sol):
        self._order = sorted(
            (model.edge_positions(e) for e in sol.basic_pairs),
            key=lambda pos: (-model.service_rates[pos], pos),
        )

    def assign(self, state, sys):
        psi = np.zeros_like(sys.service_rates, dtype=np.int64)
        rem_heads = state.heads.copy()
        rem_servers = sys.servers.copy()
        for i, j in self._order:
            k = min(rem_heads[i], rem_servers[j])
            if k > 0:
                psi[i, j] = k
                rem_heads[i] -= k
                rem_servers[j] -= k
        return psi


class RefNegativePathPump(RefIdle):
    name = "negative-path"

    def __init__(self, model, sol, paths=()):
        negative = [p for p in paths if p.sign_class == NEGATIVE]
        self.path = min(negative, key=lambda p: p.weight) if negative else None
        self._model = model
        self._sol = sol

    def prepare(self, sys):
        model, sol = self._model, self._sol
        core = _ref_round_half_up(sys.n * sol.masses)
        _ref_clip_columns(core, sys.servers)
        self._core = core
        self._servers_total = int(sys.servers.sum())
        self._step = math.ceil(math.sqrt(sys.n))
        self._shift = 0
        self._desc_active = sorted(
            (
                (i, j)
                for i in range(model.num_classes)
                for j in range(model.num_stations)
                if model.service_rates[i, j] > 0
            ),
            key=lambda pos: (-model.service_rates[pos], pos),
        )
        self._asc_by_class = [
            sorted(range(model.num_stations), key=lambda j: (model.service_rates[i, j], j))
            for i in range(model.num_classes)
        ]
        if self.path is not None:
            self._dec = [model.edge_positions(e) for e, s in self.path.signed_edges if s > 0]
            self._inc = [model.edge_positions(e) for e, s in self.path.signed_edges if s < 0]
            self._max_shift = int(min(core[pos] for pos in self._dec))
        else:
            self._max_shift = 0

    def assign(self, state, sys):
        psi = self._core.copy()
        for i in range(psi.shape[0]):
            excess = int(psi[i].sum()) - int(state.heads[i])
            for j in self._asc_by_class[i]:
                if excess <= 0:
                    break
                take = min(excess, int(psi[i, j]))
                psi[i, j] -= take
                excess -= take
        if self.path is not None:
            surplus = int(state.heads.sum()) - self._servers_total
            headroom = min(int(psi[pos]) for pos in self._dec)
            target = self._max_shift if surplus >= 0 else 0
            if target > self._shift:
                self._shift = min(self._shift + self._step, target)
            else:
                self._shift = max(self._shift - self._step, target)
            applied = min(self._shift, headroom)
            if applied:
                for pos in self._dec:
                    psi[pos] -= applied
                for pos in self._inc:
                    psi[pos] += applied
        rem_heads = state.heads - psi.sum(axis=1)
        rem_servers = sys.servers - psi.sum(axis=0)
        for i, j in self._desc_active:
            k = min(rem_heads[i], rem_servers[j])
            if k > 0:
                psi[i, j] += k
                rem_heads[i] -= k
                rem_servers[j] -= k
        return psi


def reference_policy(name, model, sol, paths=None):
    """The numpy version of the built-in policy ``name``."""
    if name == "idle":
        return RefIdle()
    if name == "greedy-basic":
        return RefGreedyBasic(model, sol)
    return RefNegativePathPump(model, sol, paths or ())


def reference_simulate(sys, policy, T, seed, warmup=0.0, sample_points=101):
    """The numpy event loop: one replication of ``fluidq.simulate``, whose
    trajectories must match it exactly."""
    rng = np.random.default_rng(seed)
    I, J = sys.model.num_classes, sys.model.num_stations
    act_mask = sys.service_rates > 0

    heads = sys.x0.astype(np.int64).copy()
    state = SystemState(0.0, heads, _ref_initial_assignment(sys), sys.servers)
    policy.prepare(sys)
    psi = np.asarray(policy.assign(state, sys))
    problem = _ref_infeasibility(psi, heads, sys, act_mask)
    if problem is not None:
        raise PolicyViolation(f"policy {policy.name!r} at event 0: {problem}")
    state.in_service = psi

    arrivals = np.zeros(I, dtype=np.int64)
    completions = np.zeros((I, J), dtype=np.int64)
    lam = sys.arrival_rates
    lam_total = float(lam.sum())
    lam_cum = np.cumsum(lam)
    servers_total = int(sys.servers.sum())

    sample_ts = np.linspace(0.0, T, sample_points)
    s_heads = np.empty((sample_points, I), dtype=np.int64)
    s_psi = np.empty((sample_points, I, J), dtype=np.int64)
    s_occ = np.empty(sample_points)
    si = 0
    t = 0.0
    occupancy = 0.0
    events = 0

    def occ_piece(t0, t1):
        lo = max(t0, warmup)
        return t1 - lo if t1 > lo else 0.0

    while True:
        busy = int(heads.sum()) >= servers_total
        svc = sys.service_rates * state.in_service
        total_rate = lam_total + float(svc.sum())
        t_next = t + rng.exponential() / total_rate
        final = t_next >= T
        seg_end = T if final else t_next

        while si < sample_points and (
            sample_ts[si] < seg_end or (final and sample_ts[si] <= seg_end)
        ):
            ts = float(sample_ts[si])
            s_heads[si] = heads
            s_psi[si] = state.in_service
            s_occ[si] = occupancy + (occ_piece(t, ts) if busy else 0.0)
            si += 1
        if busy:
            occupancy += occ_piece(t, seg_end)
        if final:
            break

        t = t_next
        u = rng.random() * total_rate
        if u < lam_total:
            i = min(int(np.searchsorted(lam_cum, u, side="right")), I - 1)
            heads[i] += 1
            arrivals[i] += 1
        else:
            flat = np.cumsum(svc.ravel())
            k = min(int(np.searchsorted(flat, u - lam_total, side="right")), I * J - 1)
            i, j = divmod(k, J)
            heads[i] -= 1
            state.in_service[i, j] -= 1
            completions[i, j] += 1
        events += 1

        state.t = t
        psi = np.asarray(policy.assign(state, sys))
        problem = _ref_infeasibility(psi, heads, sys, act_mask)
        if problem is not None:
            raise PolicyViolation(f"policy {policy.name!r} at event {events}: {problem}")
        state.in_service = psi
        if not np.array_equal(heads, sys.x0 + arrivals - completions.sum(axis=1)):
            raise RuntimeError("event accounting broke the counting identity")

    return SimResult(
        n=sys.n, rep=0, seed=seed, policy=policy.name, T=T, warmup=warmup,
        queue_occupancy=occupancy, sample_times=sample_ts, sample_heads=s_heads,
        sample_in_service=s_psi, sample_occupancy=s_occ, arrivals=arrivals,
        completions=completions, x0=sys.x0.copy(), final_heads=heads.copy(),
        events=events, invariants_checked=True,
    )
