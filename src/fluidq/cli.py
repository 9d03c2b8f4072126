"""Command-line front end: analyze a model, run experiments, generate instances.

Exit codes: 0 success, 2 model validation failure (including an infeasible
allocation problem), an invalid simulation request (malformed or not
strictly ascending --n, a scale, horizon or replication count below 1, or a
scale too small to round the server counts) or an output path that cannot be
written (simulate checks --out before it runs), 3 assumption failure under
--strict, 4 policy/model mismatch for simulation, 5 numerical failure of the
LP solver.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .analysis import _fields, render_report, run_analysis
from .linprog import NumericalFailure
from .model import ModelError, NetworkModel, load_model, save_model
from .paths import NEGATIVE
from .simulator import POLICIES, ExperimentResult, ScalingViolation, make_policy, run_nc_experiment
from .static_fluid import GenerationFailed, InfeasibleModel, generate_critical_instance

EXIT_OK = 0
EXIT_INVALID_MODEL = 2
EXIT_ASSUMPTIONS = 3
EXIT_POLICY_MISMATCH = 4
EXIT_NUMERICAL = 5


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        model = load_model(args.model)
    except (ModelError, OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot load model: {exc}", file=sys.stderr)
        return EXIT_INVALID_MODEL
    try:
        report = run_analysis(model)
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
        report = run_analysis(load_model(args.model))
    except (ModelError, OSError, json.JSONDecodeError, InfeasibleModel) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_MODEL
    model, sol, paths = report.model, report.solution, report.paths or []
    if args.policy == "negative-path" and not any(p.sign_class == NEGATIVE for p in paths):
        print("error: policy 'negative-path' needs a negative simple path", file=sys.stderr)
        return EXIT_POLICY_MISMATCH
    out = Path(args.out)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        print(f"error: --out: {existing} is not a directory", file=sys.stderr)
        return EXIT_INVALID_MODEL

    try:
        n_list = [int(v) for v in args.n.split(",")]
        policy = make_policy(args.policy, model, sol, paths)
        result = run_nc_experiment(
            model, sol, policy, n_list, args.T, args.reps, args.seed, paths=paths,
        )
    except (ValueError, ScalingViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_MODEL

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
        json.dumps(_fields(sol, "allocation", "load", "class_masses", "basic_edges"), indent=2)
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
    p_an.set_defaults(func=cmd_analyze)

    p_sim = sub.add_parser("simulate", help="occupancy experiment across scales")
    p_sim.add_argument("model")
    p_sim.add_argument("--n", required=True, help="comma-separated scales, strictly ascending")
    p_sim.add_argument("--T", type=float, required=True)
    p_sim.add_argument("--reps", type=int, required=True)
    p_sim.add_argument("--policy", required=True, choices=list(POLICIES))
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out", required=True, help="output directory")
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
    except OSError as exc:
        # models are read inside the commands, so what reaches here is an output write
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_INVALID_MODEL


if __name__ == "__main__":
    raise SystemExit(main())
