"""The analysis pipeline: solve, check assumptions, enumerate paths, verdicts.

``run_analysis`` gathers everything known about one model into an
:class:`AnalysisReport`; ``render_report`` prints it and
``AnalysisReport.to_dict`` is its JSON form, the only one: the simple paths,
verdicts and probes are laid out there, not by their own types.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .model import DEFAULT_TOL, NetworkModel, activity_set, model_to_dict
from .optimality import KAPPA_GRID, NCVerdict, nc_verdict
from .paths import SimplePath, basic_cycle_weights, enumerate_simple_paths
from .static_fluid import AssumptionReport, FluidSolution, check_assumptions, solve_static_allocation


def _json(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, frozenset):
        value = sorted(value)
    if isinstance(value, (list, tuple)):
        return [_json(v) for v in value]
    return value


def _fields(obj, *names: str, **extra) -> dict | None:
    """The named dataclass fields of ``obj`` (all, if none are named) in JSON
    form, followed by ``extra``; None for None."""
    if obj is None:
        return None
    names = names or tuple(f.name for f in fields(obj))
    return {name: _json(getattr(obj, name)) for name in names} | extra


@dataclass
class AnalysisReport:
    """Everything the analyze command knows about one model."""

    model: NetworkModel
    solution: FluidSolution
    assumptions: AssumptionReport
    paths: list[SimplePath] | None          # None when the basic graph is not a tree
    cycles: list[tuple[tuple[int, ...], float]]
    nc: NCVerdict
    defects: list[str]

    def to_dict(self) -> dict:
        nc = self.nc
        lp_v, path_v = nc.throughput, nc.path_verdict
        witness = path_v.witness_path if path_v is not None else None
        check = ("kappa", "perturbed_max", "baseline", "satisfied", "strict")
        return {
            "model": model_to_dict(self.model),
            "tolerance": DEFAULT_TOL,
            "fluid": _fields(self.solution),
            "assumptions": _fields(self.assumptions),
            "paths": None if self.paths is None else [{
                "kind": p.kind, "class_leaf": p.class_leaf, "station_leaf": p.station_leaf,
                "vertices": list(p.vertices),
                "edges": [{"class": i, "station": j, "sign": s} for (i, j), s in p.signed_edges],
                "class_weights": p.class_weights.tolist(), "weight": p.weight,
                "sign_class": p.sign_class, "dependence": p.dependence,
            } for p in self.paths],
            "basic_cycles": [{"vertices": list(v), "weight": w} for v, w in self.cycles],
            "throughput": {
                "lp": _fields(
                    lp_v, "optimal", "max_throughput", "arrival_total",
                    "witness_allocation", verdict=lp_v.text,
                ),
                "paths": _fields(
                    path_v, "optimal",
                    witness_weight=witness and witness.weight,
                    witness_leaves=witness and list(witness.leaf_pair),
                    verdict=path_v and path_v.text,
                ),
                "defects": self.defects,
            },
            "perturbation": {
                "kappa_grid_divisors": list(KAPPA_GRID),
                "zero_paths": [
                    {"leaves": list(ev.path.leaf_pair), "dependence": ev.path.dependence}
                    | _fields(ev, *check, "degenerate", "grid")
                    for ev in nc.zero_path_evidence
                ],
                "combined": _fields(nc.combined_check, *check),
            },
            "null_controllability": _fields(
                nc, "status", "basis", "explanation",
                violations=_json(self.assumptions.violations),
            ),
        }


def run_analysis(model: NetworkModel) -> AnalysisReport:
    """Full pipeline: solve, check assumptions, enumerate paths, all verdicts."""
    sol = solve_static_allocation(model)
    report = check_assumptions(model, sol)
    # the assumption report's tree test is the condition enumeration needs
    if report.is_tree:
        paths, cycles = enumerate_simple_paths(sol, activity_set(model), model), []
    else:
        paths, cycles = None, basic_cycle_weights(sol, model)
    verdict = nc_verdict(model, sol, report, paths)

    defects = []
    if verdict.basis == "criterion-disagreement":
        defects.append("LP and path optimality criteria disagree although the assumptions hold")
    return AnalysisReport(
        model=model,
        solution=sol,
        assumptions=report,
        paths=paths,
        cycles=cycles,
        nc=verdict,
        defects=defects,
    )


def _fmt_matrix(mat: np.ndarray) -> str:
    return "\n".join("    [" + "  ".join(f"{v:.6g}" for v in row) + "]" for row in mat)


def render_report(rep: AnalysisReport) -> str:
    sol = rep.solution
    nc = rep.nc
    lines = [
        f"model: {rep.model.num_classes} classes, {rep.model.num_stations} stations"
        f" (tolerance {DEFAULT_TOL:g})",
        f"optimal load: {sol.load:.9g}",
        "allocation fractions:",
        _fmt_matrix(sol.allocation),
        f"class masses: [{'  '.join(f'{v:.6g}' for v in sol.class_masses)}]",
        "basic activities: " + " ".join(f"({i},{j})" for i, j in sorted(sol.basic_edges)),
        f"assumptions: critically_loaded={rep.assumptions.critically_loaded}"
        f" unique={rep.assumptions.unique} tree={rep.assumptions.is_tree}",
    ]
    for v in rep.assumptions.violations:
        lines.append(f"  violation: {v}")
    if rep.paths is None:
        lines.append("simple paths: unavailable (basic graph is not a tree)")
        for verts, w in rep.cycles:
            lines.append(f"  basic cycle {verts}: weight {w:.6g}")
    elif not rep.paths:
        lines.append("simple paths: none")
    else:
        lines.append(f"simple paths ({len(rep.paths)}):")
        row = "[" + "  ".join(["%.6g"] * rep.model.num_classes) + "]"  # one format per path
        for p in rep.paths:
            lines.append(
                f"  {p.kind:6s} leaves ({p.class_leaf},{p.station_leaf})"
                f"  class sums {row % tuple(p.class_weights.tolist())}  weight {p.weight:.6g}"
                f"  {p.sign_class}  dependence={p.dependence}"
            )
    lines.append(
        f"throughput LP: max {nc.throughput.max_throughput:.9g} vs arrivals"
        f" {nc.throughput.arrival_total:.9g} -> {nc.throughput.text}"
    )
    if nc.path_verdict is not None:
        if nc.path_verdict.witness_path is None:
            lines.append(f"path criterion: no negative path -> {nc.path_verdict.text}")
        else:
            lines.append(
                f"path criterion: most negative weight"
                f" {nc.path_verdict.witness_path.weight:.6g} -> {nc.path_verdict.text}"
            )
    for d in rep.defects:
        lines.append(f"DEFECT: {d}")
    for ev in nc.zero_path_evidence:
        lines.append(
            f"zero-path check ({ev.path.class_leaf},{ev.path.station_leaf}):"
            f" dependence={ev.path.dependence} satisfied={ev.satisfied} strict={ev.strict}"
        )
    lines.append(
        f"null controllability: {nc.status.upper()} (basis: {nc.basis}) - {nc.explanation}"
    )
    return "\n".join(lines)
