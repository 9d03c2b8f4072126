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
from .model import DEFAULT_TOL, ModelError, NetworkModel, _as_int, lp_columns, validate_model


class InfeasibleModel(ModelError):
    """No allocation can serve all arrival rates."""


class GenerationFailed(ValueError):
    """A generated instance is infeasible or fails a check."""


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
    basic_edges: frozenset[tuple[int, int]]  # vertex-labeled pairs with allocation > DEFAULT_TOL


@dataclass(frozen=True)
class AssumptionReport:
    """Each flag holds iff its check found no violation; ``violations`` lists
    the critical-load, uniqueness and tree findings, in that order."""

    critically_loaded: bool
    unique: bool
    is_tree: bool
    violations: tuple[str, ...]

    @property
    def all_hold(self) -> bool:
        return self.critically_loaded and self.unique and self.is_tree


def _allocation_lp(model: NetworkModel) -> LinearProgram:
    """Variables: allocation fractions on the ``lp_columns``, then the load."""
    rows, cols = lp_columns(model)
    n = rows.size + 1
    k = np.arange(rows.size)
    objective = np.zeros(n)
    objective[-1] = 1.0
    a_eq = np.zeros((model.num_classes, n))
    # rates in extreme units may overflow to inf here; solve_lp refuses the program
    with np.errstate(over="ignore"):
        a_eq[rows, k] = model.service_rates[rows, cols] * model.capacities[cols]
    a_ub = np.zeros((model.num_stations, n))
    a_ub[cols, k] = 1.0
    a_ub[:, -1] = -1.0
    return LinearProgram(objective, a_eq, model.arrival_rates, a_ub, np.zeros(model.num_stations))


def solve_static_allocation(model: NetworkModel) -> FluidSolution:
    """Solve the static allocation program for ``model``.

    Raises:
        InfeasibleModel: some class's rate cannot be served at any load
            (typically a class with no activity at all).
    """
    res = solve_lp(_allocation_lp(model))
    if res.status == INFEASIBLE:
        raise InfeasibleModel("arrival rates cannot be served by any allocation")

    allocation = np.zeros(model.service_rates.shape)
    allocation[lp_columns(model)] = np.clip(res.x[:-1], 0.0, None)
    load = float(res.value)
    masses = allocation * model.capacities[None, :]
    class_masses = masses.sum(axis=1)
    ci, sj = model.class_labels, model.station_labels
    basic = frozenset((ci[i], sj[j]) for i, j in np.argwhere(allocation > DEFAULT_TOL).tolist())
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
) -> tuple[dict[int, int], list[tuple[int, int]], list[str]]:
    """Spanning forest of the class-station graph with edge set ``edges``,
    and the spanning-tree test, the only one: ``check_assumptions``,
    ``paths.enumerate_simple_paths`` and ``paths.basic_cycle_weights`` each
    make this one call.

    Edges are taken in sorted order: each either joins two trees, which hangs
    the re-rooted tree of its station below its class, or closes a cycle.
    Returns parent pointers over every vertex label (a root is its own
    parent), the cycle-closing edges, in order, and the violations, which
    are empty iff ``edges`` form a spanning tree.
    """
    parent = {v: v for v in (*model.class_labels, *model.station_labels)}
    closing = []
    for i, j in sorted(edges):
        if _to_root(parent, i)[-1] == _to_root(parent, j)[-1]:
            closing.append((i, j))
            continue
        above, v = i, j
        while parent[v] != v:
            parent[v], above, v = above, v, parent[v]
        parent[v] = above
    violations = []
    expected = len(parent) - 1
    if len(edges) != expected:
        violations.append(
            f"basic graph has {len(edges)} edges, a spanning tree needs {expected}"
        )
    # the forest connects all I+J vertices iff it has I+J-1 edges
    if len(edges) - len(closing) < expected:
        violations.append("basic graph is disconnected")
    return parent, closing, violations


def _to_root(parent: dict[int, int], v: int) -> list[int]:
    """``v`` and its ancestors, up to the root of its tree."""
    chain = [v]
    while (v := parent[v]) != chain[-1]:
        chain.append(v)
    return chain


def _uniqueness_check(model: NetworkModel, sol: FluidSolution) -> list[str]:
    """Decide whether ``sol.allocation`` is the only optimal allocation.

    The solver's optimum x* is a vertex, and a vertex is the only point of a
    polyhedron with its zero coordinates at zero (Mangasarian 1979; Appa
    2002). So pin the load, which carves out the optimal face, and maximize
    over that face the sum of the coordinates that vanish at x*: the zero
    allocations and the slack ``load - sum_i x_ij`` of every station filled
    to the load. The optimum is unique iff the maximum does not exceed its
    value at x*; otherwise the maximizer is a second optimal allocation, and
    the pairs where it differs are the violations. The solve starts at x*,
    which lies on the face: one pivot on planted instances up to 50x50,
    where the cold start took 20 at 8x8 and 108 at 30x30.

    Raises:
        NumericalFailure: the pinned optimal face is empty.
    """
    x_star = sol.allocation
    zero = (x_star <= DEFAULT_TOL).astype(float)
    full = sol.load - x_star.sum(axis=0) <= DEFAULT_TOL
    # d/dx of sum_Z x_ij + sum_{j full} (load - sum_i x_ij); constants drop out
    gain = zero - full[None, :]

    lp = _allocation_lp(model)
    columns = lp_columns(model)
    n = lp.objective.size
    # x*'s basis: its positive allocations, the load, the slack of every
    # station not full and, for the pinned row, one full station's slack
    basis = np.concatenate([
        np.flatnonzero(x_star[columns] > DEFAULT_TOL), [n - 1],
        n + np.flatnonzero(~full), n + np.flatnonzero(full)[:1],
    ])
    res = solve_lp(LinearProgram(
        np.append(-gain[columns], 0.0),
        np.vstack([lp.a_eq, lp.objective]), np.append(lp.b_eq, sol.load),
        lp.a_ub, lp.b_ub,
    ), basis)
    if res.status != OPTIMAL:
        raise NumericalFailure("optimal face is empty at the pinned objective value")

    witness = np.zeros_like(x_star)
    witness[columns] = res.x[:-1]
    if float((gain * (witness - x_star)).sum()) <= DEFAULT_TOL:
        return []
    moved = np.abs(witness - x_star)
    # every pair that moved, or the one that moved most if none moved by DEFAULT_TOL
    named = np.argwhere(moved >= min(DEFAULT_TOL, moved.max()))
    return [
        f"allocation ({model.class_labels[i]},{model.station_labels[j]}) is {x_star[i, j]:.6g}"
        f" at the optimum but {witness[i, j]:.6g} at another optimal allocation"
        for i, j in named
    ]


def check_assumptions(model: NetworkModel, sol: FluidSolution) -> AssumptionReport:
    """Test critical load, uniqueness of the optimum, and the tree property.

    Findings are reported, never raised: downstream verdicts decide what a
    violation means for them.

    Raises:
        NumericalFailure: the solver finds the optimal face empty at
            ``sol.load``, as happens on rates in extreme units.
    """
    load = [f"optimal load is {sol.load!r}, not 1"] if abs(sol.load - 1.0) > DEFAULT_TOL else []
    # plain floats: a numpy scalar's repr would print as np.float64(...)
    load += [
        f"station {j} is allocated {total!r}, not fully"
        for j, total in zip(model.station_labels, sol.allocation.sum(axis=0).tolist())
        if abs(total - 1.0) > DEFAULT_TOL
    ]
    uniqueness = _uniqueness_check(model, sol)
    *_, tree = spanning_forest(model, sol.basic_edges)
    return AssumptionReport(
        critically_loaded=not load,
        unique=not uniqueness,
        is_tree=not tree,
        violations=(*load, *uniqueness, *tree),
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
    seed: int, num_classes: int, num_stations: int
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
    The planted tree is therefore the unique optimum at load 1, at any size.
    Price and share ranges keep most rates within [0.5, 10]. The one draw
    from ``seed`` is solved and checked once: every assumption must hold,
    and the basic edges must be the planted tree, which fixes the planted
    allocation. Deterministic in ``seed``.

    Raises:
        ValueError: a size or a seed that is a bool or not an integer, a size
            below 1 or a negative seed.
        GenerationFailed: the draw fails a check, which only numerical trouble can cause.
    """
    I, J = _as_int(num_classes, "num_classes"), _as_int(num_stations, "num_stations")
    if I < 1 or J < 1:
        raise ValueError("need at least one class and one station")
    if _as_int(seed, "seed") < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")

    rng = np.random.default_rng(seed)
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
    except InfeasibleModel as exc:
        raise GenerationFailed(f"instance from seed {seed}: {exc}") from exc
    report = check_assumptions(model, sol)
    failed = [f"{k} is False" for k, v in vars(report).items() if v is False]
    tree = {(model.class_labels[i], model.station_labels[j]) for i, j in zip(classes, stations)}
    off_tree = sorted(sol.basic_edges ^ tree)
    if off_tree:
        failed.append(f"basic edges and planted tree differ at {off_tree}")
    if failed:
        detail = "; ".join([*failed, *report.violations])
        raise GenerationFailed(f"instance from seed {seed} fails its checks: {detail}")
    return model, sol
