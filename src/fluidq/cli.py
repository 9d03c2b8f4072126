"""Command-line front end: analyze a model, run experiments, generate instances.

Exit codes: 0 success, 2 model validation failure (including an infeasible
allocation problem), 3 assumption failure under --strict, 4 policy/model
mismatch for simulation, 5 numerical failure of the LP solver.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .linprog import NumericalFailure
from .model import (
    DEFAULT_TOL,
    ModelError,
    NetworkModel,
    activity_set,
    load_model,
    model_to_dict,
    save_model,
)
from .optimality import KAPPA_GRID, NCVerdict, nc_verdict
from .paths import NotATree, SimplePath, basic_cycle_weights, enumerate_simple_paths
from .simulator import ExperimentResult, make_policy, run_nc_experiment
from .static_fluid import (
    AssumptionReport,
    FluidSolution,
    GenerationFailed,
    InfeasibleModel,
    check_assumptions,
    generate_critical_instance,
    solve_static_allocation,
)

EXIT_OK = 0
EXIT_INVALID_MODEL = 2
EXIT_ASSUMPTIONS = 3
EXIT_POLICY_MISMATCH = 4
EXIT_NUMERICAL = 5


@dataclass
class AnalysisReport:
    """Everything the analyze command knows about one model."""

    model: NetworkModel
    tol: float
    solution: FluidSolution
    assumptions: AssumptionReport
    paths: list[SimplePath] | None          # None when the basic graph is not a tree
    cycles: list[tuple[tuple[int, ...], float]]
    nc: NCVerdict
    defects: list[str]

    def to_dict(self) -> dict:
        sol = self.solution
        nc = self.nc
        lp_v = nc.throughput
        path_v = nc.path_verdict
        return {
            "model": model_to_dict(self.model),
            "tolerance": self.tol,
            "fluid": {
                "allocation": sol.allocation.tolist(),
                "load": sol.load,
                "masses": sol.masses.tolist(),
                "class_masses": sol.class_masses.tolist(),
                "basic_edges": [list(e) for e in sol.basic_pairs],
            },
            "assumptions": {
                "critically_loaded": self.assumptions.critically_loaded,
                "unique": self.assumptions.unique,
                "is_tree": self.assumptions.is_tree,
                "violations": list(self.assumptions.violations),
            },
            "paths": [p.to_dict() for p in self.paths] if self.paths is not None else None,
            "basic_cycles": [
                {"vertices": list(v), "weight": w} for v, w in self.cycles
            ],
            "throughput": {
                "lp": None
                if lp_v is None
                else {
                    "optimal": lp_v.optimal,
                    "max_throughput": lp_v.max_throughput,
                    "arrival_total": lp_v.arrival_total,
                    "witness_allocation": None
                    if lp_v.witness_allocation is None
                    else lp_v.witness_allocation.tolist(),
                    "verdict": lp_v.text,
                },
                "paths": None
                if path_v is None
                else {
                    "optimal": path_v.optimal,
                    "witness_weight": None
                    if path_v.witness_path is None
                    else path_v.witness_path.weight,
                    "witness_leaves": None
                    if path_v.witness_path is None
                    else list(path_v.witness_path.leaf_pair),
                    "verdict": path_v.text,
                },
                "defects": self.defects,
            },
            "perturbation": {
                "kappa_grid_divisors": list(KAPPA_GRID),
                "zero_paths": [
                    {
                        "leaves": list(ev.path.leaf_pair),
                        "dependence": ev.dependence,
                        "kappa": ev.check.kappa,
                        "perturbed_max": ev.check.perturbed_max,
                        "baseline": ev.check.baseline,
                        "satisfied": ev.check.satisfied,
                        "strict": ev.check.strict,
                        "degenerate": ev.check.degenerate,
                        "grid": [list(g) for g in ev.check.grid],
                    }
                    for ev in nc.zero_path_evidence
                ],
                "combined": None
                if nc.combined_check is None
                else {
                    "kappa": nc.combined_check.kappa,
                    "perturbed_max": nc.combined_check.perturbed_max,
                    "baseline": nc.combined_check.baseline,
                    "satisfied": nc.combined_check.satisfied,
                    "strict": nc.combined_check.strict,
                },
            },
            "null_controllability": {
                "status": nc.status,
                "basis": nc.basis,
                "explanation": nc.explanation,
                "violations": list(nc.violations),
            },
        }


def run_analysis(model: NetworkModel, tol: float = DEFAULT_TOL) -> AnalysisReport:
    """Full pipeline: solve, check assumptions, enumerate paths, all verdicts."""
    sol = solve_static_allocation(model, tol)
    report = check_assumptions(model, sol, tol)
    acts = activity_set(model)
    paths: list[SimplePath] | None
    cycles: list[tuple[tuple[int, ...], float]] = []
    try:
        paths = enumerate_simple_paths(sol, acts, model, tol)
    except NotATree:
        paths = None
        cycles = basic_cycle_weights(sol, model)
    verdict = nc_verdict(model, sol, report, paths, tol)

    defects: list[str] = []
    if (
        verdict.throughput is not None
        and verdict.path_verdict is not None
        and verdict.throughput.optimal != verdict.path_verdict.optimal
    ):
        defects.append(
            "LP and path optimality criteria disagree although the assumptions hold"
        )
    return AnalysisReport(
        model=model,
        tol=tol,
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
        f" (tolerance {rep.tol:g})",
        f"optimal load: {sol.load:.9g}",
        "allocation fractions:",
        _fmt_matrix(sol.allocation),
        f"class masses: [{'  '.join(f'{v:.6g}' for v in sol.class_masses)}]",
        "basic activities: " + " ".join(f"({i},{j})" for i, j in sol.basic_pairs),
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
        for p in rep.paths:
            m_str = "[" + "  ".join(f"{v:.6g}" for v in p.class_weights) + "]"
            lines.append(
                f"  {p.kind:6s} leaves ({p.class_leaf},{p.station_leaf})"
                f"  class sums {m_str}  weight {p.weight:.6g}"
                f"  {p.sign_class}  dependence={p.dependence}"
            )
    if nc.throughput is not None:
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
            f" dependence={ev.dependence} satisfied={ev.check.satisfied}"
            f" strict={ev.check.strict}"
        )
    lines.append(
        f"null controllability: {nc.status.upper()} (basis: {nc.basis}) - {nc.explanation}"
    )
    return "\n".join(lines)


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        model = load_model(args.model)
    except (ModelError, OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot load model: {exc}", file=sys.stderr)
        return EXIT_INVALID_MODEL
    try:
        report = run_analysis(model, tol=args.tol)
    except InfeasibleModel as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_MODEL
    print(render_report(report))
    if args.json:
        Path(args.json).write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    if args.strict and not report.assumptions.all_hold:
        print("error: assumption checks failed (--strict)", file=sys.stderr)
        return EXIT_ASSUMPTIONS
    return EXIT_OK


def _write_trajectories(path: Path, result: ExperimentResult, model: NetworkModel) -> None:
    I, J = model.num_classes, model.num_stations
    header = (
        ["n", "rep", "t"]
        + [f"X_{i + 1}" for i in range(I)]
        + [f"Psi_{i + 1}_{model.num_classes + 1 + j}" for i in range(I) for j in range(J)]
        + ["occupancy_running"]
    )
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for res in result.results:
            for s in range(res.sample_times.size):
                row = [res.n, res.rep, f"{res.sample_times[s]:.10g}"]
                row += [int(v) for v in res.sample_heads[s]]
                row += [int(v) for v in res.sample_in_service[s].ravel()]
                row += [f"{res.sample_occupancy[s]:.10g}"]
                writer.writerow(row)


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        model = load_model(args.model)
        sol = solve_static_allocation(model, args.tol)
        # the one-LP uniqueness check is what finds an optimum the solver cannot
        # confirm, as with rates in extreme units: NumericalFailure, exit 5
        check_assumptions(model, sol, args.tol)
    except (ModelError, OSError, json.JSONDecodeError, InfeasibleModel) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_MODEL
    try:
        paths = enumerate_simple_paths(sol, activity_set(model), model, args.tol)
    except NotATree:
        paths = []
    if args.policy == "negative-path" and not any(p.sign_class == "negative" for p in paths):
        print("error: policy 'negative-path' needs a negative simple path", file=sys.stderr)
        return EXIT_POLICY_MISMATCH

    n_list = [int(v) for v in args.n.split(",")]
    policy = make_policy(args.policy, model, sol, paths)
    result = run_nc_experiment(
        model, sol, policy, n_list, args.T, args.reps, args.seed, paths=paths,
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_trajectories(out / "trajectories.csv", result, model)
    summary = {
        "policy": args.policy,
        "policy_note": (
            "heuristic drain policy; stands in for the exact constructions"
            if args.policy == "negative-path"
            else None
        ),
        "T": args.T,
        "reps": args.reps,
        "seed": args.seed,
        "per_n": result.summary(),
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")

    print(f"{'n':>8s} {'mean':>12s} {'median':>12s} {'q10':>12s} {'q90':>12s}")
    for row in result.rows:
        print(
            f"{row.n:8d} {row.mean:12.6f} {row.median:12.6f} {row.q10:12.6f} {row.q90:12.6f}"
        )
    print(f"wrote {out / 'trajectories.csv'} and {out / 'summary.json'}")
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    try:
        model, sol = generate_critical_instance(args.seed, args.classes, args.stations)
    except (GenerationFailed, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_MODEL
    out = Path(args.out)
    save_model(model, str(out))
    sidecar = out.with_suffix(".solution.json")
    sidecar.write_text(
        json.dumps(
            {
                "allocation": sol.allocation.tolist(),
                "load": sol.load,
                "class_masses": sol.class_masses.tolist(),
                "basic_edges": [list(e) for e in sol.basic_pairs],
            },
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {out} (solution sidecar: {sidecar})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluidq",
        description="Static fluid analysis and many-server simulation for "
        "multiclass parallel-server networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="solve, check assumptions, all verdicts")
    p_an.add_argument("model", help="model JSON file")
    p_an.add_argument("--json", help="write the full report to this file")
    p_an.add_argument("--strict", action="store_true", help="exit 3 if assumptions fail")
    p_an.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_an.set_defaults(func=cmd_analyze)

    p_sim = sub.add_parser("simulate", help="occupancy experiment across scales")
    p_sim.add_argument("model")
    p_sim.add_argument("--n", required=True, help="comma-separated scales, ascending")
    p_sim.add_argument("--T", type=float, required=True)
    p_sim.add_argument("--reps", type=int, required=True)
    p_sim.add_argument(
        "--policy", required=True, choices=["greedy-basic", "negative-path", "idle"]
    )
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_sim.set_defaults(func=cmd_simulate)

    p_gen = sub.add_parser("generate", help="random instance satisfying the assumptions")
    p_gen.add_argument("--I", dest="classes", type=int, required=True)
    p_gen.add_argument("--J", dest="stations", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_generate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericalFailure as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
