"""Command-line front end: analyze a model, run experiments, generate instances.

Exit codes: 0 success, 2 an invalid model or request (a model file that
cannot be read or decoded, an invalid or infeasible model, an invalid
simulation request, an output path that cannot be written, or a generated
instance that fails its checks), 3 assumption failure under --strict, 4
policy/model mismatch for simulation, 5 numerical failure of the LP solver.
``main`` maps every failure of a command to its code and prints it as one
``error:`` line, so the commands return only 0, 3 and 4. A command line that
argparse rejects never reaches a command: argparse prints its usage and its
own error line and raises ``SystemExit(2)``.

Errors: the library raises ``ModelError``, a ``ValueError``, for model data,
and its subclass ``InfeasibleModel`` for a model that no allocation serves;
other ``ValueError``s for invalid requests, ``ScalingViolation``,
``GenerationFailed`` and ``NotATree`` among them; ``NumericalFailure`` for
solver trouble; and ``PolicyViolation`` for an infeasible assignment. ``main``
maps ``NumericalFailure`` to 5 and every ``ValueError`` or ``OSError`` to 2.
A ``PolicyViolation`` reports a bug in a policy, not bad input, and ``main``
does not catch it.

Every command writes its output files through ``_write``. A failure while
writing removes every output file the command created, the partly written one
included, and leaves a file that was already there whole; ``simulate`` then
removes the ``--out`` directories it created too.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import shutil
import sys
from pathlib import Path

from .analysis import _fields, render_report, run_analysis
from .linprog import NumericalFailure
from .model import NetworkModel, load_model, model_to_dict
from .optimality import throughput_verdict_paths
from .simulator import POLICIES, ExperimentResult, make_policy, run_nc_experiment
from .static_fluid import generate_critical_instance

EXIT_OK = 0
EXIT_INVALID_MODEL = 2
EXIT_ASSUMPTIONS = 3
EXIT_POLICY_MISMATCH = 4
EXIT_NUMERICAL = 5


def _write(files: dict[Path, object]) -> None:
    """Write a command's output files in order: a str as is, anything else as
    compact JSON, unchecked for cycles: every payload is built fresh. The file
    open on fd 1 (/dev/stdout, say) is written through fd 1, after ``sys.stdout``;
    a regular file already there, symlinked or not, is replaced from a temporary
    file beside it once every file is written. On an OSError, remove the
    temporary files and each path that did not exist."""
    created = [path for path in files if not os.path.lexists(path)]
    staged: dict[Path, Path] = {}  # temporary file -> the file it replaces
    try:
        stdout = os.fstat(1)
    except OSError:  # fd 1 is closed, so no path is it
        stdout = None
    try:
        for path, content in files.items():
            text = (content if isinstance(content, str)
                    else json.dumps(content, check_circular=False) + "\n")
            if stdout is not None and path.exists() and os.path.samestat(path.stat(), stdout):
                sys.stdout.flush()
                with open(1, "w", encoding="utf-8", newline="", closefd=False) as fh:
                    fh.write(text)
                continue
            target = Path(os.path.realpath(path))  # Path.resolve raises on a link loop
            replace = target.is_file()
            temp = target.with_name(f".{target.name}.{os.getpid()}.tmp") if replace else path
            with temp.open("x" if replace else "w", encoding="utf-8", newline="") as fh:
                if replace:
                    staged[temp] = target
                fh.write(text)
        for temp, target in staged.items():
            shutil.copymode(target, temp)
            os.replace(temp, target)
    except OSError:
        for path in [*created, *staged]:
            path.unlink(missing_ok=True)
        raise


def cmd_analyze(args: argparse.Namespace) -> int:
    report = run_analysis(load_model(args.model))
    if args.json:
        _write({Path(args.json): report.to_dict()})
    print(render_report(report))
    if args.strict and not report.assumptions.all_hold:
        print("error: assumption checks failed (--strict)", file=sys.stderr)
        return EXIT_ASSUMPTIONS
    return EXIT_OK


def _trajectories_csv(result: ExperimentResult, model: NetworkModel) -> str:
    header = (
        ["n", "rep", "t"]
        + [f"X_{i}" for i in model.class_labels]
        + [f"Psi_{i}_{j}" for i in model.class_labels for j in model.station_labels]
        + ["occupancy_running"]
    )
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for res in result.results:
        for s in range(res.sample_times.size):
            row = [res.n, res.rep, f"{res.sample_times[s]:.10g}"]
            row += [int(v) for v in res.sample_heads[s]]
            row += [int(v) for v in res.sample_in_service[s].ravel()]
            row += [f"{res.sample_occupancy[s]:.10g}"]
            writer.writerow(row)
    return buf.getvalue()


def cmd_simulate(args: argparse.Namespace) -> int:
    report = run_analysis(load_model(args.model))
    model, sol, paths = report.model, report.solution, report.paths or []
    if args.policy == "negative-path" and throughput_verdict_paths(paths).optimal:
        print("error: policy 'negative-path' needs a negative simple path", file=sys.stderr)
        return EXIT_POLICY_MISMATCH
    out = Path(args.out)
    chain = (out, *out.parents)
    existing = next(p for p in chain if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(f"--out: {existing} is not a directory")
    n_list = [int(v) for v in args.n.split(",")]
    policy = make_policy(args.policy, model, sol, paths)
    result = run_nc_experiment(model, sol, policy, n_list, args.T, args.reps, args.seed)

    out.mkdir(parents=True, exist_ok=True)
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
    try:
        _write({out / "trajectories.csv": _trajectories_csv(result, model),
                out / "summary.json": summary})
    except OSError:
        for made in chain[:chain.index(existing)]:  # the directories made above, deepest first
            made.rmdir()
        raise

    print(f"{'n':>8s} {'mean':>12s} {'median':>12s} {'q10':>12s} {'q90':>12s}")
    for row in result.rows:
        print(
            f"{row.n:8d} {row.mean:12.6f} {row.median:12.6f} {row.q10:12.6f} {row.q90:12.6f}"
        )
    print(f"wrote {out / 'trajectories.csv'} and {out / 'summary.json'}")
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    model, sol = generate_critical_instance(args.seed, args.classes, args.stations)
    out = Path(args.out)
    sidecar = out.with_suffix(".solution.json")
    _write({out: model_to_dict(model),
            sidecar: _fields(sol, "allocation", "load", "class_masses", "basic_edges")})
    print(f"wrote {out} (solution sidecar: {sidecar})")
    return EXIT_OK


@functools.cache
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_MODEL


if __name__ == "__main__":
    raise SystemExit(main())
