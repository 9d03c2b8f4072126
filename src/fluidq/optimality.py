"""Throughput optimality and the null-controllability verdict.

Two independent routes decide throughput optimality: a direct LP maximizing
total service rate over the mass polytope, and the path criterion (a negative
simple path exists iff the model is sub-optimal). Zero paths are probed by
perturbing the class masses along the path's signed rate vector and asking
whether the achievable throughput can rise; those probes, together with the
class/pool dependence structure, drive the null-controllability verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linprog import LinearProgram, solve_lp
from .model import DEFAULT_TOL, NetworkModel, lp_columns
from .paths import CLASS_DEPENDENT, NEGATIVE, POOL_DEPENDENT, ZERO, SimplePath
from .static_fluid import AssumptionReport, FluidSolution

NC_POSSIBLE = "possible"
NC_IMPOSSIBLE = "impossible"
NC_UNKNOWN = "unknown"

# grid divisors guarding against a perturbation step that is not small enough
KAPPA_GRID = (1.0, 0.5, 0.25)


@dataclass(frozen=True)
class ThroughputVerdict:
    optimal: bool
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
    largest step. A degenerate check (zero direction vector) has an empty
    grid: its step is 0, so it is vacuously satisfied and never strict.
    """

    path: SimplePath | None         # None for the combined multi-path check
    kappa: float
    perturbed_x: np.ndarray
    perturbed_max: float
    baseline: float
    satisfied: bool
    strict: bool
    grid: tuple[tuple[float, float, bool], ...]   # (step, perturbed max, within baseline)

    @property
    def degenerate(self) -> bool:
        return not self.grid


@dataclass(frozen=True)
class NCVerdict:
    status: str                     # NC_POSSIBLE, NC_IMPOSSIBLE or NC_UNKNOWN
    basis: str                      # machine-readable key for the deciding rule
    explanation: str
    throughput: ThroughputVerdict
    path_verdict: ThroughputVerdict | None
    zero_path_evidence: tuple[PerturbationCheck, ...]
    combined_check: PerturbationCheck | None


def max_throughput(
    class_masses: np.ndarray, model: NetworkModel, basic: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Maximum total service rate over the mass polytope, with a maximizer.

    The polytope, masses >= 0 on the activities with row sums at most
    ``class_masses`` and column sums at most ``model.capacities``, is never
    empty (the zero matrix is feasible), so this always succeeds. The
    objective is divided by its largest rate, so the solver's absolute pivot
    tolerance meets reduced costs of order 1 in any time unit; the value is
    ``rates @ x``, in the model's units.

    ``basic``, an (I, J) mask of pairs, warm-starts the solve at the vertex
    whose basic variables are those pairs and the slack of the first class
    row: at the fluid masses of a basic tree that is the tree's allocation,
    with every slack at 0. A mask that gives no feasible, nonsingular basis
    (not a tree, or masses off its vertex) falls back to the cold start,
    with the same result (see ``linprog.solve_lp``).
    """
    rows, cols = lp_columns(model)
    rates = model.service_rates[rows, cols]
    incidence = np.vstack([
        rows == np.arange(model.num_classes)[:, None],
        cols == np.arange(model.num_stations)[:, None],
    ])
    basis = None if basic is None else np.append(np.flatnonzero(basic[rows, cols]), rows.size)
    res = solve_lp(LinearProgram(
        -rates / rates.max(initial=0.0),
        a_ub=incidence, b_ub=np.concatenate([class_masses, model.capacities]),
    ), basis)
    psi = np.zeros(model.service_rates.shape)
    psi[rows, cols] = np.clip(res.x, 0.0, None)
    return float(rates @ res.x), psi


def throughput_verdict_lp(model: NetworkModel, sol: FluidSolution) -> ThroughputVerdict:
    """Optimal iff no feasible mass rearrangement serves faster than arrivals."""
    value, psi = max_throughput(sol.class_masses, model, basic=sol.allocation > DEFAULT_TOL)
    arrivals = float(model.arrival_rates.sum())
    optimal = value <= arrivals * (1.0 + DEFAULT_TOL)
    return ThroughputVerdict(
        optimal=optimal,
        arrival_total=arrivals,
        max_throughput=value,
        witness_allocation=None if optimal else psi,
    )


def throughput_verdict_paths(paths: list[SimplePath]) -> ThroughputVerdict:
    """Optimal iff no simple path is NEGATIVE; the witness is the first
    negative path of least weight. The one reading of the path criterion."""
    witness = min((p for p in paths if p.sign_class == NEGATIVE),
                  key=lambda p: p.weight, default=None)
    return ThroughputVerdict(optimal=witness is None, witness_path=witness)


def _run_perturbation(
    sol: FluidSolution,
    model: NetworkModel,
    directions: list[np.ndarray],
    path: SimplePath | None,
) -> PerturbationCheck:
    """Put equal mass on every direction at once and re-maximize throughput.

    Each direction's step is 1e-3 of the smallest basic mass, normalized by
    its sup norm; the smallest step is shared out equally among the
    directions. The check is repeated at half and quarter steps, and all
    three must agree for ``satisfied``; ``strict`` is judged at the largest
    step. When every direction vanishes the perturbation is the identity: the
    grid stays empty and the check is degenerate, at step 0.
    """
    baseline = float((model.service_rates * sol.masses).sum())
    sups = [float(np.abs(d).max()) for d in directions]
    direction = np.sum(directions, axis=0)
    grid = []
    if max(sups) > DEFAULT_TOL:
        min_mass = min(float(sol.masses[model.edge_positions(e)]) for e in sol.basic_edges)
        kappa = min(1e-3 * min_mass / max(1.0, sup) for sup in sups if sup > DEFAULT_TOL)
        kappa /= len(directions)
        for factor in KAPPA_GRID:
            step = kappa * factor
            x_pert = sol.class_masses + direction * step
            value, _ = max_throughput(np.clip(x_pert, 0.0, None), model)
            grid.append((step, value, value <= baseline + DEFAULT_TOL))
    top_step, top_value, _ = grid[0] if grid else (0.0, baseline, True)
    return PerturbationCheck(
        path=path,
        kappa=top_step,
        perturbed_x=sol.class_masses + direction * top_step,
        perturbed_max=top_value,
        baseline=baseline,
        satisfied=all(ok for (_, _, ok) in grid),
        strict=top_value < baseline - DEFAULT_TOL,
        grid=tuple(grid),
    )


def zero_path_check(
    sol: FluidSolution, path: SimplePath, model: NetworkModel
) -> PerturbationCheck:
    """Perturb the class masses along one zero path and re-maximize throughput."""
    if path.sign_class != ZERO:
        raise ValueError("perturbation checks apply to zero paths only")
    return _run_perturbation(sol, model, [path.class_weights], path)


def nc_verdict(
    model: NetworkModel,
    sol: FluidSolution,
    report: AssumptionReport,
    paths: list[SimplePath] | None,
) -> NCVerdict:
    """Decide whether queueing time can vanish in the many-server limit.

    The first rule that holds decides, in this order:

    1. ``assumptions``: critical load or the tree fails -> unknown;
    2. ``criterion-disagreement``: the LP and path criteria disagree -> unknown;
    3. ``dependence-route``: not unique, but optimal with every zero path
       class- or pool-dependent, so the rates alone decide -> impossible;
    4. ``assumptions``: the allocation is not unique -> unknown;
    5. ``sub-optimal``: known policy constructions drain -> possible;
    6. ``two-sided``: optimal with two classes or two pools -> impossible;
    7. ``no-zero-paths``: optimal with no zero path -> impossible;
    8. ``zero-paths-neutralized``: every zero path is class-/pool-dependent
       or strictly throughput-contracting under mass perturbation -> impossible;
    9. ``gap``: anything else -> unknown.

    ``sol``, ``report`` and ``paths`` are the pipeline's results (see
    ``analysis.run_analysis``); ``paths`` is None only off a tree. The path
    verdict is formed only past rule 1, the zero-path probes only past rule 2.
    """
    lp_v = throughput_verdict_lp(model, sol)
    critical_tree = report.critically_loaded and report.is_tree
    path_v = throughput_verdict_paths(paths) if critical_tree else None
    agree = critical_tree and lp_v.optimal == path_v.optimal
    zero_paths = [p for p in paths if p.sign_class == ZERO] if agree else []
    evidence = tuple(zero_path_check(sol, p, model) for p in zero_paths)
    combined = (_run_perturbation(sol, model, [p.class_weights for p in zero_paths], None)
                if len(zero_paths) > 1 else None)
    all_dependent = bool(zero_paths) and all(
        p.dependence in (CLASS_DEPENDENT, POOL_DEPENDENT) for p in zero_paths
    )
    neutralized = all(
        ev.path.dependence in (CLASS_DEPENDENT, POOL_DEPENDENT) or (ev.satisfied and ev.strict)
        for ev in evidence
    )
    # the rule chain, in order: (holds, status, basis, explanation); the first that holds decides
    rules = [
        (not critical_tree, NC_UNKNOWN, "assumptions",
         "critical-load or tree assumption fails; verdict machinery does not apply"),
        (not agree, NC_UNKNOWN, "criterion-disagreement",
         "LP and path criteria disagree; treating the analysis as defective"),
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
    )
