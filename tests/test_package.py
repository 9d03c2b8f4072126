import importlib
import importlib.util
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import fluidq

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"


def test_public_names_resolve():
    assert len(set(fluidq.__all__)) == len(fluidq.__all__)
    for name in fluidq.__all__:
        value = getattr(fluidq, name)
        # submodules are reachable as attributes but are not the public API
        assert not isinstance(value, types.ModuleType), name


def test_public_names_are_the_imported_ones():
    # __all__ is derived from the package's imports: the names of the
    # hand-written list it replaced, less three dropped on purpose with the code
    # they named (save_model, scale_result, ScaledTrajectories), three moved to
    # tests/support.py (AllocationPolytope, GammaFamily, gamma_family) and ten
    # left to their modules as internals: the LP solver (LinearProgram, LPResult,
    # solve_lp, OPTIMAL, INFEASIBLE, UNBOUNDED in fluidq.linprog) and the
    # verdict's building blocks (max_throughput, throughput_verdict_lp and
    # throughput_verdict_paths in fluidq.optimality, basic_cycle_weights in
    # fluidq.paths), and three subclasses folded into ModelError, which now
    # raises their messages (DimensionMismatch, NonPositiveRate and
    # NegativeServiceRate); none added: 53 names
    assert len(fluidq.__all__) == 53
    assert sorted(fluidq.__all__) == sorted([
        "DEFAULT_TOL", "ModelError", "NetworkModel", "activity_set", "load_model",
        "model_to_dict", "validate_model",
        "NumericalFailure",
        "AssumptionReport", "FluidSolution", "GenerationFailed", "InfeasibleModel",
        "check_assumptions", "generate_critical_instance", "solve_static_allocation",
        "CLASS_DEPENDENT", "CLOSED", "NEGATIVE", "NEITHER", "NotATree", "OPEN",
        "POOL_DEPENDENT", "POSITIVE", "SimplePath", "ZERO", "enumerate_simple_paths",
        "NC_IMPOSSIBLE", "NC_POSSIBLE", "NC_UNKNOWN",
        "NCVerdict", "PerturbationCheck", "ThroughputVerdict", "nc_verdict",
        "zero_path_check",
        "ExperimentResult", "ExperimentRow", "GreedyBasic", "IdlePolicy",
        "NegativePathPump", "Policy", "PolicyViolation",
        "ScalingViolation", "SimResult", "SystemInstance", "SystemState", "build_system",
        "derive_seed", "make_policy", "run_nc_experiment", "simulate",
        "AnalysisReport", "render_report", "run_analysis",
    ])


def test_benchmark_entry_points_resolve(case_a):
    # bench/run.py drives the CLI through fluidq.cli.main and builds paths in
    # this call form; bench/spans.py traces run_analysis under fluidq.cli
    assert callable(fluidq.cli.main)
    assert fluidq.cli.run_analysis is fluidq.run_analysis
    sol = fluidq.solve_static_allocation(case_a)
    paths = fluidq.enumerate_simple_paths(sol, fluidq.activity_set(case_a), case_a)
    assert [p.leaf_pair for p in paths] == [(1, 5), (2, 3)]

    # bench/spans.py rebinds each (module, attribute) of TRACED when tracing
    # starts, and a name that no longer resolves fails the traced run there
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for _, module, attr in spans.TRACED:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)

    # the keyword forms in which bench/run.py calls the simulator
    policy = fluidq.make_policy("negative-path", case_a, sol, paths)
    result = fluidq.run_nc_experiment(
        case_a, sol, policy, [25], 1.0, 2, 1, paths=paths, sample_points=5)
    assert [r.n for r in result.results] == [25, 25]
    system = fluidq.build_system(case_a, sol, 25)
    res = fluidq.simulate(
        system, fluidq.make_policy("greedy-basic", case_a, sol), 1.0,
        fluidq.derive_seed(1, 25, 0), warmup=0.5, sample_points=6)
    assert res.events > 0


def test_readme_library_example_runs_under_warnings_as_errors():
    # the example is read from the README, so the two cannot drift
    readme = (ROOT / "README.md").read_text()
    example = re.search(r"^```python\n(.*?)^```", readme, re.S | re.M).group(1)
    src = str(Path(fluidq.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", example], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "possible sub-optimal\n"
