"""Static allocation problem: solve, verify the standing assumptions, generate.

The allocation program picks station fractions so every class's arrival rate
is served exactly while the worst station load is minimized. A solution is
the root object of all later analysis: its positive entries define the basic
activities, its masses define the class head-count targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linprog import INFEASIBLE, OPTIMAL, LinearProgram, NumericalFailure, solve_lp
from .model import DEFAULT_TOL, NetworkModel, validate_model


class InfeasibleModel(RuntimeError):
    """No allocation can serve all arrival rates."""


class GenerationFailed(RuntimeError):
    """The randomized instance generator exhausted its retry budget."""


@dataclass(frozen=True)
class FluidSolution:
    """Optimal static allocation and the quantities derived from it.

    ``allocation[i, j]`` is the fraction of station j's capacity devoted to
    class i; ``masses = allocation * capacity`` is fluid mass per pair;
    ``class_masses[i]`` is the total mass of class i in service.
    """

    allocation: np.ndarray          # (I, J) fractions, >= 0
    load: float                     # optimal worst-station load
    masses: np.ndarray              # (I, J) fluid masses
    class_masses: np.ndarray        # (I,)
    basic_edges: frozenset[tuple[int, int]]  # vertex-labeled pairs with allocation > tol

    @property
    def basic_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.basic_edges))


@dataclass(frozen=True)
class AssumptionReport:
    critically_loaded: bool
    unique: bool
    is_tree: bool
    violations: tuple[str, ...]

    @property
    def all_hold(self) -> bool:
        return self.critically_loaded and self.unique and self.is_tree


def _allocation_lp(model: NetworkModel) -> LinearProgram:
    """Variables: allocation fractions flattened row-major, then the load."""
    I, J = model.num_classes, model.num_stations
    n = I * J + 1
    load_idx = I * J
    mubar = model.service_rates * model.capacities[None, :]

    objective = np.zeros(n)
    objective[load_idx] = 1.0

    eq = []
    for i in range(I):
        coef = np.zeros(n)
        coef[i * J:(i + 1) * J] = mubar[i]
        eq.append((coef, float(model.arrival_rates[i])))
    # pairs without service are pinned to zero allocation
    for i in range(I):
        for j in range(J):
            if mubar[i, j] == 0.0:
                coef = np.zeros(n)
                coef[i * J + j] = 1.0
                eq.append((coef, 0.0))

    ub = []
    for j in range(J):
        coef = np.zeros(n)
        coef[np.arange(I) * J + j] = 1.0
        coef[load_idx] = -1.0
        ub.append((coef, 0.0))

    return LinearProgram(n_vars=n, objective=objective, eq=tuple(eq), ub=tuple(ub))


def solve_static_allocation(model: NetworkModel, tol: float = DEFAULT_TOL) -> FluidSolution:
    """Solve the static allocation program for ``model``.

    Raises:
        InfeasibleModel: some class's rate cannot be served at any load
            (typically a class with no activity at all).
    """
    I, J = model.num_classes, model.num_stations
    res = solve_lp(_allocation_lp(model))
    if res.status == INFEASIBLE:
        raise InfeasibleModel("arrival rates cannot be served by any allocation")

    allocation = np.clip(res.x[: I * J].reshape(I, J), 0.0, None)
    load = float(res.value)
    masses = allocation * model.capacities[None, :]
    class_masses = masses.sum(axis=1)
    basic = frozenset(
        (i + 1, model.num_classes + 1 + j)
        for i in range(I)
        for j in range(J)
        if allocation[i, j] > tol
    )
    for arr in (allocation, masses, class_masses):
        arr.setflags(write=False)
    return FluidSolution(
        allocation=allocation,
        load=load,
        masses=masses,
        class_masses=class_masses,
        basic_edges=basic,
    )


def spanning_forest(
    model: NetworkModel, edges: frozenset[tuple[int, int]]
) -> tuple[dict[int, int], list[tuple[int, int]]]:
    """Spanning forest of the class-station graph with edge set ``edges``.

    Edges are taken in sorted order: each either joins two trees, which hangs
    the re-rooted tree of its station below its class, or closes a cycle.
    Returns parent pointers over every vertex label (a root is its own
    parent) and the cycle-closing edges, in order.
    """
    parent = {v: v for v in range(1, model.num_classes + model.num_stations + 1)}
    closing = []
    for i, j in sorted(edges):
        if _to_root(parent, i)[-1] == _to_root(parent, j)[-1]:
            closing.append((i, j))
            continue
        above, v = i, j
        while parent[v] != v:
            parent[v], above, v = above, v, parent[v]
        parent[v] = above
    return parent, closing


def _to_root(parent: dict[int, int], v: int) -> list[int]:
    """``v`` and its ancestors, up to the root of its tree."""
    chain = [v]
    while parent[chain[-1]] != chain[-1]:
        chain.append(parent[chain[-1]])
    return chain


def tree_path(parent: dict[int, int], src: int, dst: int) -> list[int]:
    """Vertices of the forest path from ``src`` to ``dst``.

    Raises:
        ValueError: the two vertices lie in different trees.
    """
    up, down = _to_root(parent, src), _to_root(parent, dst)
    if up[-1] != down[-1]:
        raise ValueError(f"vertices {src} and {dst} lie in different trees")
    # drop the ancestors above the lowest common one
    while len(up) > 1 and len(down) > 1 and up[-2] == down[-2]:
        up.pop()
        down.pop()
    return up + down[-2::-1]


def _tree_check(model: NetworkModel, edges: frozenset[tuple[int, int]]) -> tuple[bool, list[str]]:
    parent, closing = spanning_forest(model, edges)
    violations = []
    expected = len(parent) - 1
    if len(edges) != expected:
        violations.append(
            f"basic graph has {len(edges)} edges, a spanning tree needs {expected}"
        )
    # the forest connects all I+J vertices iff it has I+J-1 edges
    if len(edges) - len(closing) < expected:
        violations.append("basic graph is disconnected")
    return not violations, violations


def _uniqueness_check(
    model: NetworkModel, sol: FluidSolution, tol: float
) -> tuple[bool, list[str]]:
    """Decide whether ``sol.allocation`` is the only optimal allocation.

    The solver's optimum x* is a vertex, and a vertex is the only point of a
    polyhedron with its zero coordinates at zero (Mangasarian 1979; Appa
    2002). So pin the load, which carves out the optimal face, and maximize
    over that face the sum of the coordinates that vanish at x*: the zero
    allocations and the slack ``load - sum_i x_ij`` of every station filled
    to the load. The optimum is unique iff the maximum does not exceed its
    value at x*; otherwise the maximizer is a second optimal allocation.

    Raises:
        NumericalFailure: the pinned optimal face is empty.
    """
    I, J = model.num_classes, model.num_stations
    x_star = sol.allocation
    zero = (x_star <= tol).astype(float)
    full = sol.load - x_star.sum(axis=0) <= tol
    # d/dx of sum_Z x_ij + sum_{j full} (load - sum_i x_ij); constants drop out
    gain = zero - full[None, :]

    lp = _allocation_lp(model)
    objective = np.zeros(lp.n_vars)
    objective[: I * J] = -gain.ravel()
    pinned = lp.eq + ((lp.objective, sol.load),)
    res = solve_lp(LinearProgram(lp.n_vars, objective, pinned, lp.ub))
    if res.status != OPTIMAL:
        raise NumericalFailure("optimal face is empty at the pinned objective value")

    witness = res.x[: I * J].reshape(I, J)
    if float((gain * (witness - x_star)).sum()) <= tol:
        return True, []
    moved = np.abs(witness - x_star)
    # every pair that moved, or the one that moved most if none moved by tol
    named = np.argwhere(moved >= min(tol, moved.max()))
    return False, [
        f"allocation ({i + 1},{model.num_classes + 1 + j}) is {x_star[i, j]:.6g} at the "
        f"optimum but {witness[i, j]:.6g} at another optimal allocation"
        for i, j in named
    ]


def check_assumptions(
    model: NetworkModel, sol: FluidSolution, tol: float = DEFAULT_TOL
) -> AssumptionReport:
    """Test critical load, uniqueness of the optimum, and the tree property.

    Findings are reported, never raised: downstream verdicts decide what a
    violation means for them.

    Raises:
        NumericalFailure: the solver finds the optimal face empty at
            ``sol.load``, as happens on rates in extreme units.
    """
    J = model.num_stations
    violations: list[str] = []

    critically_loaded = True
    if abs(sol.load - 1.0) > tol:
        critically_loaded = False
        violations.append(f"optimal load is {sol.load!r}, not 1")
    col_sums = sol.allocation.sum(axis=0)
    for j in range(J):
        if abs(col_sums[j] - 1.0) > tol:
            critically_loaded = False
            violations.append(
                f"station {model.num_classes + 1 + j} is allocated {col_sums[j]!r}, not fully"
            )

    unique, uniqueness_violations = _uniqueness_check(model, sol, tol)
    violations.extend(uniqueness_violations)

    is_tree, tree_violations = _tree_check(model, sol.basic_edges)
    violations.extend(tree_violations)

    return AssumptionReport(
        critically_loaded=critically_loaded,
        unique=unique,
        is_tree=is_tree,
        violations=tuple(violations),
    )


def _uniform_spanning_tree(rng: np.random.Generator, I: int, J: int) -> list[tuple[int, int]]:
    """Uniform spanning tree of the complete bipartite graph, by random walk.

    First-entry edges of a simple random walk form a uniformly distributed
    spanning tree (Aldous-Broder). Vertices 0..I-1 are classes, I..I+J-1
    stations; returned edges are (class position, station position).
    """
    total = I + J
    current = int(rng.integers(total))
    visited = {current}
    edges: list[tuple[int, int]] = []
    while len(visited) < total:
        if current < I:
            nxt = I + int(rng.integers(J))
        else:
            nxt = int(rng.integers(I))
        if nxt not in visited:
            visited.add(nxt)
            a, b = (current, nxt) if current < I else (nxt, current)
            edges.append((a, b - I))
        current = nxt
    return edges


def generate_critical_instance(
    seed: int, num_classes: int, num_stations: int, max_retries: int = 100
) -> tuple[NetworkModel, FluidSolution]:
    """Draw a random instance that passes every assumption check.

    The construction plants a dual certificate, so the optimum is known
    before the solve (the basic-activity tree of Harrison & Lopez 1999):

    - a uniform spanning tree of the class-station graph;
    - station prices w_j > 0 with sum 1 and class prices y_i > 0, a feasible
      dual solution of the allocation program when y_i mu_ij nu_j <= w_j;
    - tree pairs get mu_ij = w_j / (y_i nu_j), so their dual constraints are
      tight; each non-tree pair gets, with probability 1/2, a rate strictly
      below that bound and otherwise none, so its constraint is slack;
    - a positive allocation on the tree whose columns each sum to 1 fixes
      lambda.

    That allocation has load 1, and the dual objective sum_i y_i lambda_i
    equals sum_j w_j = 1, so both are optimal. By complementary slackness
    every optimal allocation vanishes off the tree and fills every station,
    since every w_j > 0; a spanning tree carries only one such allocation.
    The planted tree is therefore the unique optimum at load 1, at any size,
    and the first draw is accepted. Price and share ranges keep most rates
    within [0.5, 10].

    Each returned instance is still solved and checked: load 1, the planted
    allocation recovered, and every assumption. A draw that fails, which
    only numerical trouble can cause, retries with ``seed + 1``.
    Deterministic in ``seed``.

    Raises:
        GenerationFailed: no draw within ``max_retries`` passed the checks.
    """
    I, J = num_classes, num_stations
    if I < 1 or J < 1 or I + J < 2:
        raise ValueError("need at least one class and one station")

    for attempt in range(max_retries):
        rng = np.random.default_rng(seed + attempt)
        classes, stations = zip(*_uniform_spanning_tree(rng, I, J))
        on_tree = np.zeros((I, J), dtype=bool)
        on_tree[classes, stations] = True

        station_price = rng.uniform(0.5, 1.5, size=J)
        station_price /= station_price.sum()
        class_price = rng.uniform(0.1, 1.0, size=I) / J
        nu = rng.uniform(0.5, 2.0, size=J)
        bound = station_price[None, :] / (class_price[:, None] * nu[None, :])
        extra = ~on_tree & (rng.random((I, J)) < 0.5)
        share = rng.uniform(0.1, 0.9, size=(I, J))
        mu = np.where(on_tree, bound, np.where(extra, share * bound, 0.0))

        planted = np.where(on_tree, rng.uniform(0.1, 1.0, size=(I, J)), 0.0)
        planted /= planted.sum(axis=0, keepdims=True)
        lam = (mu * nu[None, :] * planted).sum(axis=1)

        model = validate_model(
            {
                "classes": I,
                "stations": J,
                "lambda": lam.tolist(),
                "nu": nu.tolist(),
                "mu": mu.tolist(),
            }
        )
        try:
            sol = solve_static_allocation(model)
        except InfeasibleModel:
            continue
        if abs(sol.load - 1.0) > DEFAULT_TOL:
            continue
        if np.abs(sol.allocation - planted).max() > 1e-6:
            continue
        if not check_assumptions(model, sol).all_hold:
            continue
        return model, sol

    raise GenerationFailed(
        f"no assumption-satisfying instance in {max_retries} draws from seed {seed}"
    )
