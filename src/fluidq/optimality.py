"""Throughput optimality and the null-controllability verdict.

Two independent routes decide throughput optimality: a direct LP maximizing
total service rate over the mass polytope, and the path criterion (a negative
simple path exists iff the model is sub-optimal). Zero paths are probed by
perturbing the class masses along the path's signed rate vector and asking
whether the achievable throughput can rise; those probes, together with the
class/pool dependence structure, drive the null-controllability verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linprog import LinearProgram, solve_lp
from .model import DEFAULT_TOL, NetworkModel, activity_set
from .paths import (
    CLASS_DEPENDENT,
    POOL_DEPENDENT,
    ZERO,
    SimplePath,
    enumerate_simple_paths,
)
from .static_fluid import AssumptionReport, FluidSolution, check_assumptions, solve_static_allocation

NC_POSSIBLE = "possible"
NC_IMPOSSIBLE = "impossible"
NC_UNKNOWN = "unknown"

# grid divisors guarding against a perturbation step that is not small enough
KAPPA_GRID = (1.0, 0.5, 0.25)


@dataclass(frozen=True)
class AllocationPolytope:
    """Nonnegative matrices with row sums <= class masses and column sums
    <= capacities."""

    class_masses: np.ndarray
    capacities: np.ndarray

    def contains(self, psi: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
        psi = np.asarray(psi, dtype=float)
        if psi.shape != (self.class_masses.size, self.capacities.size):
            return False
        return bool(
            (psi >= -tol).all()
            and (psi.sum(axis=1) <= self.class_masses + tol).all()
            and (psi.sum(axis=0) <= self.capacities + tol).all()
        )


@dataclass(frozen=True)
class ThroughputVerdict:
    optimal: bool
    method: str                                 # "lp" or "paths"
    arrival_total: float | None = None
    max_throughput: float | None = None
    witness_allocation: np.ndarray | None = None
    witness_path: SimplePath | None = None

    @property
    def text(self) -> str:
        return "throughput optimal" if self.optimal else "throughput sub-optimal"


@dataclass(frozen=True)
class PerturbationCheck:
    """Outcome of one mass perturbation along zero paths.

    ``satisfied`` means the perturbed maximum never exceeded the baseline on
    the whole step grid; ``strict`` means it dropped strictly below at the
    largest step. A degenerate check (zero direction vector) is vacuously
    satisfied and never strict.
    """

    path: SimplePath | None         # None for the combined multi-path check
    kappa: float
    perturbed_x: np.ndarray
    perturbed_max: float
    baseline: float
    satisfied: bool
    strict: bool
    degenerate: bool = False
    grid: tuple[tuple[float, float, bool], ...] = field(default=())


@dataclass(frozen=True)
class ZeroPathEvidence:
    path: SimplePath
    dependence: str
    check: PerturbationCheck


@dataclass(frozen=True)
class NCVerdict:
    status: str                     # NC_POSSIBLE, NC_IMPOSSIBLE or NC_UNKNOWN
    basis: str                      # machine-readable key for the deciding rule
    explanation: str
    throughput: ThroughputVerdict | None
    path_verdict: ThroughputVerdict | None
    zero_path_evidence: tuple[ZeroPathEvidence, ...] = ()
    combined_check: PerturbationCheck | None = None
    violations: tuple[str, ...] = ()


def max_throughput(
    class_masses: np.ndarray, capacities: np.ndarray, model: NetworkModel
) -> tuple[float, np.ndarray]:
    """Maximum total service rate over the mass polytope, with a maximizer.

    The polytope is never empty (the zero matrix is feasible), so this always
    succeeds.
    """
    I, J = model.num_classes, model.num_stations
    x_bar = np.asarray(class_masses, dtype=float)
    nu_bar = np.asarray(capacities, dtype=float)
    n = I * J
    ub = []
    for i in range(I):
        coef = np.zeros(n)
        coef[i * J:(i + 1) * J] = 1.0
        ub.append((coef, float(x_bar[i])))
    for j in range(J):
        coef = np.zeros(n)
        coef[np.arange(I) * J + j] = 1.0
        ub.append((coef, float(nu_bar[j])))
    res = solve_lp(
        LinearProgram(n_vars=n, objective=-model.service_rates.ravel(), ub=tuple(ub))
    )
    psi = np.clip(res.x.reshape(I, J), 0.0, None)
    return -float(res.value), psi


def throughput_verdict_lp(
    model: NetworkModel, sol: FluidSolution, tol: float = DEFAULT_TOL
) -> ThroughputVerdict:
    """Optimal iff no feasible mass rearrangement serves faster than arrivals."""
    value, psi = max_throughput(sol.class_masses, model.capacities, model)
    arrivals = float(model.arrival_rates.sum())
    optimal = value <= arrivals + tol
    return ThroughputVerdict(
        optimal=optimal,
        method="lp",
        arrival_total=arrivals,
        max_throughput=value,
        witness_allocation=None if optimal else psi,
    )


def throughput_verdict_paths(
    paths: list[SimplePath], tol: float = DEFAULT_TOL
) -> ThroughputVerdict:
    """Optimal iff no simple path has weight below -tol."""
    witness = None
    for p in paths:
        if p.weight < -tol and (witness is None or p.weight < witness.weight):
            witness = p
    return ThroughputVerdict(
        optimal=witness is None,
        method="paths",
        witness_path=witness,
    )


def _run_perturbation(
    sol: FluidSolution,
    model: NetworkModel,
    directions: list[np.ndarray],
    path: SimplePath | None,
    tol: float,
) -> PerturbationCheck:
    """Put equal mass on every direction at once and re-maximize throughput.

    Each direction's step is 1e-3 of the smallest basic mass, normalized by
    its sup norm; the smallest step is shared out equally among the
    directions. The check is repeated at half and quarter steps, and all
    three must agree for ``satisfied``; ``strict`` is judged at the largest
    step. When every direction vanishes the perturbation is the identity and
    the check is degenerate.
    """
    baseline = float((model.service_rates * sol.masses).sum())
    sups = [float(np.abs(d).max()) for d in directions]
    if max(sups) <= tol:
        return PerturbationCheck(
            path=path,
            kappa=0.0,
            perturbed_x=sol.class_masses,
            perturbed_max=baseline,
            baseline=baseline,
            satisfied=True,
            strict=False,
            degenerate=True,
        )
    min_mass = min(float(sol.masses[model.edge_positions(e)]) for e in sol.basic_pairs)
    kappa = min(1e-3 * min_mass / max(1.0, sup) for sup in sups if sup > tol)
    kappa /= len(directions)
    direction = np.sum(directions, axis=0)
    grid = []
    for factor in KAPPA_GRID:
        step = kappa * factor
        x_pert = sol.class_masses + direction * step
        value, _ = max_throughput(np.clip(x_pert, 0.0, None), model.capacities, model)
        grid.append((step, value, value <= baseline + tol))
    top_step, top_value, _ = grid[0]
    return PerturbationCheck(
        path=path,
        kappa=top_step,
        perturbed_x=sol.class_masses + direction * top_step,
        perturbed_max=top_value,
        baseline=baseline,
        satisfied=all(ok for (_, _, ok) in grid),
        strict=top_value < baseline - tol,
        grid=tuple(grid),
    )


def zero_path_check(
    sol: FluidSolution, path: SimplePath, model: NetworkModel, tol: float = DEFAULT_TOL
) -> PerturbationCheck:
    """Perturb the class masses along one zero path and re-maximize throughput."""
    if path.sign_class != ZERO:
        raise ValueError("perturbation checks apply to zero paths only")
    return _run_perturbation(sol, model, [path.class_weights], path, tol)


def combined_zero_path_check(
    sol: FluidSolution,
    zero_paths: list[SimplePath],
    model: NetworkModel,
    tol: float = DEFAULT_TOL,
) -> PerturbationCheck | None:
    """Single check with equal mass placed on every zero path at once."""
    if not zero_paths:
        return None
    return _run_perturbation(sol, model, [p.class_weights for p in zero_paths], None, tol)


@dataclass(frozen=True)
class GammaFamily:
    """One-parameter family of throughput-maximizing allocations on a
    four-vertex zero path with perturbed class masses.

    With the interior class i1, interior station j0, leaf class i0 and leaf
    station j1, mass ``delta`` flows from class i0 to i1 while ``gamma``
    shuttles capacity between the two stations; the total service rate is
    constant in gamma exactly because the path weight vanishes.
    """

    sol: FluidSolution
    model: NetworkModel
    path: SimplePath
    kappa: float
    delta: float
    perturbed_x: np.ndarray
    gamma_max: float

    def allocation(self, gamma: float) -> np.ndarray:
        if gamma < -DEFAULT_TOL or gamma > self.gamma_max + DEFAULT_TOL:
            raise ValueError(f"gamma {gamma} outside [0, {self.gamma_max}]")
        model = self.model
        i0, j0, i1, j1 = self.path.vertices
        psi = np.array(self.sol.masses)
        psi[model.edge_positions((i1, j1))] -= gamma
        psi[model.edge_positions((i1, j0))] += self.delta + gamma
        psi[model.edge_positions((i0, j1))] = gamma
        psi[model.edge_positions((i0, j0))] -= self.delta + gamma
        return psi

    def throughput(self, gamma: float) -> float:
        return float((self.model.service_rates * self.allocation(gamma)).sum())


def gamma_family(
    sol: FluidSolution,
    path: SimplePath,
    model: NetworkModel,
    kappa: float,
    tol: float = DEFAULT_TOL,
) -> GammaFamily:
    """Build the constant-throughput family for a four-vertex zero path."""
    if path.sign_class != ZERO:
        raise ValueError("the family is defined along zero paths")
    if len(path.vertices) != 4:
        raise ValueError("the family needs a four-vertex path")
    i0, j0, i1, j1 = path.vertices
    delta = kappa * float(path.class_weights[model.class_pos(i1)])
    perturbed_x = sol.class_masses + path.class_weights * kappa
    gamma_max = min(
        float(sol.masses[model.edge_positions((i1, j1))]),
        float(sol.masses[model.edge_positions((i0, j0))]) - delta,
    )
    if gamma_max < 0:
        raise ValueError("kappa too large: the family is empty")
    return GammaFamily(
        sol=sol,
        model=model,
        path=path,
        kappa=kappa,
        delta=delta,
        perturbed_x=perturbed_x,
        gamma_max=gamma_max,
    )


def nc_verdict(
    model: NetworkModel,
    sol: FluidSolution | None = None,
    report: AssumptionReport | None = None,
    paths: list[SimplePath] | None = None,
    tol: float = DEFAULT_TOL,
) -> NCVerdict:
    """Decide whether queueing time can vanish in the many-server limit.

    Sub-optimal models admit draining policies (verdict "possible", resting
    on the known constructions for such models). For optimal models the
    verdict is "impossible" when the structure rules draining out: two
    classes or two pools, no zero paths at all, or every zero path either
    class-/pool-dependent or strictly throughput-contracting under mass
    perturbation. Anything else is "unknown".

    Assumption failures normally force "unknown"; the single exception is an
    optimal model whose zero paths are all class- or pool-dependent, where the
    rate structure alone settles the question and uniqueness of the
    allocation is not needed.
    """
    if sol is None:
        sol = solve_static_allocation(model, tol)
    if report is None:
        report = check_assumptions(model, sol, tol)

    lp_v = throughput_verdict_lp(model, sol, tol)

    if not (report.critically_loaded and report.is_tree):
        return NCVerdict(
            status=NC_UNKNOWN,
            basis="assumptions",
            explanation="critical-load or tree assumption fails; verdict machinery does not apply",
            throughput=lp_v,
            path_verdict=None,
            violations=report.violations,
        )

    if paths is None:
        paths = enumerate_simple_paths(sol, activity_set(model), model, tol)
    path_v = throughput_verdict_paths(paths, tol)

    if lp_v.optimal != path_v.optimal:
        return NCVerdict(
            status=NC_UNKNOWN,
            basis="criterion-disagreement",
            explanation="LP and path criteria disagree; treating the analysis as defective",
            throughput=lp_v,
            path_verdict=path_v,
            violations=report.violations,
        )

    zero_paths = [p for p in paths if p.sign_class == ZERO]
    evidence = tuple(
        ZeroPathEvidence(p, p.dependence, zero_path_check(sol, p, model, tol))
        for p in zero_paths
    )
    combined = (
        combined_zero_path_check(sol, zero_paths, model, tol)
        if len(zero_paths) > 1
        else None
    )
    all_dependent = bool(zero_paths) and all(
        ev.dependence in (CLASS_DEPENDENT, POOL_DEPENDENT) for ev in evidence
    )
    neutralized = all(
        ev.dependence in (CLASS_DEPENDENT, POOL_DEPENDENT)
        or (ev.check.satisfied and ev.check.strict)
        for ev in evidence
    )
    # the rule chain, in order: (holds, status, basis, explanation); the first that holds decides
    rules = [
        (not report.unique and lp_v.optimal and all_dependent, NC_IMPOSSIBLE, "dependence-route",
         "optimal with every zero path class- or pool-dependent; the rate structure rules out "
         "draining regardless of allocation uniqueness"),
        (not report.unique, NC_UNKNOWN, "assumptions", "the optimal allocation is not unique"),
        (not lp_v.optimal, NC_POSSIBLE, "sub-optimal",
         "throughput sub-optimal: known policy constructions drain the queues over any finite "
         "horizon (supported here empirically by simulation)"),
        (model.num_classes == 2 or model.num_stations == 2, NC_IMPOSSIBLE, "two-sided",
         "optimal with two classes or two pools: queueing time cannot vanish"),
        (not zero_paths, NC_IMPOSSIBLE, "no-zero-paths", "optimal and no zero paths exist"),
        (neutralized, NC_IMPOSSIBLE, "zero-paths-neutralized",
         "optimal and every zero path is class-/pool-dependent or strictly "
         "throughput-contracting under mass perturbation"),
        (True, NC_UNKNOWN, "gap",
         "optimal, but some zero path is neither class- nor pool-dependent and its "
         "perturbation check is not strict; the question is open here"),
    ]
    status, basis, explanation = next(rule[1:] for rule in rules if rule[0])
    return NCVerdict(
        status=status,
        basis=basis,
        explanation=explanation,
        throughput=lp_v,
        path_verdict=path_v,
        zero_path_evidence=evidence,
        combined_check=combined,
        violations=report.violations,
    )
