import errno
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import fluidq.cli
import fluidq.simulator
import fluidq.static_fluid
from fluidq import (
    GenerationFailed,
    InfeasibleModel,
    ModelError,
    NotATree,
    NumericalFailure,
    ScalingViolation,
    generate_critical_instance,
    load_model,
    make_policy,
    model_to_dict,
    run_nc_experiment,
    validate_model,
)
from fluidq.analysis import _fields, render_report, run_analysis
from fluidq.cli import main

from conftest import CASE_A, CASE_B, CLASS_DEPENDENT_2X2, MINIMAL


def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


# valid models in extreme units: the LP's product mu * nu overflows a float,
# and scaling by n overflows lambda and the int64 head counts
LP_OVERFLOW = {"classes": 1, "stations": 1, "lambda": [1], "nu": [1e200], "mu": [[1e200]]}
SCALE_OVERFLOW = {"classes": 1, "stations": 1, "lambda": [1e308], "nu": [1], "mu": [[1]]}

REPORT_KEYS = [
    "model",
    "tolerance",
    "fluid",
    "assumptions",
    "paths",
    "basic_cycles",
    "throughput",
    "perturbation",
    "null_controllability",
]


def test_analyze_case_a(tmp_path, capsys):
    model = _write(tmp_path, "a.json", CASE_A)
    out_json = tmp_path / "report.json"
    assert main(["analyze", model, "--json", str(out_json)]) == 0
    text = capsys.readouterr().out
    assert "throughput sub-optimal" in text
    assert "POSSIBLE" in text
    report = json.loads(out_json.read_text())
    assert list(report) == REPORT_KEYS
    assert report["fluid"]["load"] == pytest.approx(1.0, abs=1e-9)
    weights = sorted(p["weight"] for p in report["paths"])
    assert weights == pytest.approx([-4.0, 7.0], abs=1e-9)
    assert report["null_controllability"]["status"] == "possible"


def test_analyze_case_b(tmp_path):
    model = _write(tmp_path, "b.json", CASE_B)
    out_json = tmp_path / "report.json"
    assert main(["analyze", model, "--json", str(out_json)]) == 0
    report = json.loads(out_json.read_text())
    kinds = {tuple(p["vertices"][:1] + p["vertices"][-1:]): p["kind"] for p in report["paths"]}
    assert kinds[(2, 3)] == "open"
    weights = sorted(p["weight"] for p in report["paths"])
    assert weights == pytest.approx([-3.0, 7.0], abs=1e-9)


def test_analyze_minimal(tmp_path, capsys):
    model = _write(tmp_path, "m.json", MINIMAL)
    assert main(["analyze", model]) == 0
    text = capsys.readouterr().out
    assert "throughput optimal" in text
    assert "simple paths: none" in text
    assert "IMPOSSIBLE" in text


def test_analyze_report_schema_stable(tmp_path):
    model = _write(tmp_path, "a.json", CASE_A)
    j1, j2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["analyze", model, "--json", str(j1)])
    main(["analyze", model, "--json", str(j2)])
    assert j1.read_text() == j2.read_text()


def test_analyze_invalid_model_exit_2(tmp_path, capsys):
    model = _write(
        tmp_path, "bad.json",
        {"classes": 2, "stations": 1, "lambda": [8, -4], "nu": [1], "mu": [[1], [1]]},
    )
    assert main(["analyze", model]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_non_integer_count_exit_2(tmp_path, capsys, command):
    model = _write(tmp_path, "frac.json", CASE_A | {"classes": 2.5})
    extra = [] if command == "analyze" else [
        "--n", "10", "--T", "0.1", "--reps", "1", "--policy", "greedy-basic", "--seed", "1",
        "--out", str(tmp_path / "out"),
    ]
    assert main([command, model, *extra]) == 2
    assert "must be integers" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_non_numeric_rate_exit_2(tmp_path, capsys, command):
    model = _write(tmp_path, "str.json", CASE_A | {"lambda": ["8", True]})
    extra = [] if command == "analyze" else [
        "--n", "10", "--T", "0.1", "--reps", "1", "--policy", "greedy-basic", "--seed", "1",
        "--out", str(tmp_path / "out"),
    ]
    assert main([command, model, *extra]) == 2
    assert "lambda entries must be ints or floats" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_analyze_unparseable_exit_2(tmp_path, capsys):
    # invalid JSON, a file that is not UTF-8, JSON nested too deep to decode,
    # JSON that is not an object, a missing path and a directory: each prints
    # the same one error line under both commands
    contents = {"garbage.json": b"{not json", "not_utf8.json": b"\xff\xfe{}",
                "deep.json": b"[" * 10_000 + b"]" * 10_000, "list.json": b"[1, 2]"}
    for name, content in contents.items():
        (tmp_path / name).write_bytes(content)
    (tmp_path / "dir.json").mkdir()
    for name in [*contents, "missing.json", "dir.json"]:
        errs = []
        for command, extra in (("analyze", []), ("simulate", [
                "--n", "10", "--T", "0.1", "--reps", "1", "--policy", "greedy-basic",
                "--seed", "1", "--out", str(tmp_path / "out")])):
            assert main([command, str(tmp_path / name), *extra]) == 2, (name, command)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert not (tmp_path / "out").exists()
            errs.append(captured.err)
        assert errs[0] == errs[1], name


def test_analyze_infeasible_exit_2(tmp_path):
    model = _write(
        tmp_path, "inf.json",
        {"classes": 2, "stations": 1, "lambda": [1, 1], "nu": [1], "mu": [[1], [0]]},
    )
    assert main(["analyze", model]) == 2


# feasible, but its activity graph is disconnected, so the assumptions fail
DISCONNECTED = {
    "classes": 2, "stations": 2, "lambda": [3, 2], "nu": [1, 1], "mu": [[3, 0], [0, 2]]
}


def test_analyze_strict_exit_3(tmp_path):
    model = _write(tmp_path, "disc.json", DISCONNECTED)
    assert main(["analyze", model]) == 0
    assert main(["analyze", model, "--strict"]) == 3


def test_main_reuses_one_parser_without_carrying_options(tmp_path, capsys):
    # the parser is built once per process, so no option may outlive its call
    assert fluidq.cli.build_parser() is fluidq.cli.build_parser()
    disconnected = _write(tmp_path, "disc.json", DISCONNECTED)
    assert main(["analyze", disconnected, "--strict"]) == 3
    assert main(["analyze", disconnected]) == 0
    model = _write(tmp_path, "a.json", CASE_A)
    report = tmp_path / "report.json"
    assert main(["analyze", model, "--json", str(report)]) == 0
    written = report.read_bytes()
    # another model's report, so a --json carried over would change the file
    assert main(["analyze", _write(tmp_path, "b.json", CASE_B)]) == 0
    assert report.read_bytes() == written
    with pytest.raises(SystemExit) as raised:
        main(["analyze", model, "--tol", "1"])
    assert raised.value.code == 2
    assert main(["analyze", model]) == 0


def test_generate_then_analyze_round_trip(tmp_path):
    out = tmp_path / "gen.json"
    assert main(["generate", "--I", "2", "--J", "3", "--seed", "9", "--out", str(out)]) == 0
    sidecar = tmp_path / "gen.solution.json"
    assert sidecar.exists()
    report_path = tmp_path / "rep.json"
    assert main(["analyze", str(out), "--json", str(report_path), "--strict"]) == 0
    report = json.loads(report_path.read_text())
    assert report["fluid"]["load"] == pytest.approx(1.0, abs=1e-9)
    assert report["assumptions"]["critically_loaded"]
    # 2x3 trees leave exactly two non-basic pairs
    assert len(report["paths"]) == 2
    planted = json.loads(sidecar.read_text())
    assert planted["allocation"] == report["fluid"]["allocation"]


def test_generate_minimal_has_no_paths(tmp_path):
    out = tmp_path / "one.json"
    assert main(["generate", "--I", "1", "--J", "1", "--seed", "0", "--out", str(out)]) == 0
    rep = tmp_path / "rep.json"
    assert main(["analyze", str(out), "--json", str(rep)]) == 0
    assert json.loads(rep.read_text())["paths"] == []


@pytest.mark.parametrize("flag, value, err", [
    ("--I", "0", "error: need at least one class and one station\n"),
    ("--J", "0", "error: need at least one class and one station\n"),
    ("--seed", "-1", "error: seed must be non-negative, got -1\n"),
], ids=["--I", "--J", "--seed"])
def test_generate_bad_size_exit_2(tmp_path, capsys, flag, value, err):
    out = tmp_path / "g.json"
    args = {"--I": "2", "--J": "2", "--seed": "1", flag: value}
    argv = ["generate", *[a for kv in args.items() for a in kv], "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == err
    assert not out.exists()


def _infeasible(model):
    raise InfeasibleModel("arrival rates cannot be served by any allocation")


def _not_unique(model, sol):
    return fluidq.static_fluid.AssumptionReport(True, False, True, ("allocation moved",))


@pytest.mark.parametrize("name, fake, err", [
    ("solve_static_allocation", _infeasible,
     "error: instance from seed 4: arrival rates cannot be served by any allocation\n"),
    ("check_assumptions", _not_unique,
     "error: instance from seed 4 fails its checks: unique is False; allocation moved\n"),
], ids=["infeasible", "not-unique"])
def test_generate_failed_check_exit_2(tmp_path, capsys, monkeypatch, name, fake, err):
    # one error line, no traceback and no files: neither the model nor its sidecar
    monkeypatch.setattr(fluidq.static_fluid, name, fake)
    out = tmp_path / "g.json"
    assert main(["generate", "--I", "3", "--J", "3", "--seed", "4", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", err)
    assert list(tmp_path.iterdir()) == []


def test_python_m_fluidq_runs_without_warnings():
    root = Path(__file__).resolve().parents[1]
    src = str(Path(fluidq.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "fluidq", "analyze", "models/case_a.json"],
        cwd=root, env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == render_report(run_analysis(load_model(root / "models/case_a.json"))) + "\n"


def test_generate_6x6_round_trip(tmp_path):
    out = tmp_path / "gen6.json"
    assert main(["generate", "--I", "6", "--J", "6", "--seed", "1", "--out", str(out)]) == 0
    planted = json.loads((tmp_path / "gen6.solution.json").read_text())
    assert abs(planted["load"] - 1.0) <= 1e-9
    assert len(planted["basic_edges"]) == 11
    report_path = tmp_path / "rep.json"
    assert main(["analyze", str(out), "--json", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assumptions = report["assumptions"]
    assert assumptions["critically_loaded"] and assumptions["unique"] and assumptions["is_tree"]
    assert report["fluid"]["basic_edges"] == planted["basic_edges"]


def test_numerical_failure_exit_5(tmp_path, capsys, monkeypatch):
    # a solver that cannot confirm its optimum, as absolute tolerances once
    # made it on rates in extreme units
    def failing(lp):
        raise NumericalFailure("simplex exceeded 0 pivots")

    monkeypatch.setattr(fluidq.static_fluid, "solve_lp", failing)
    model = _write(tmp_path, "a.json", CASE_A)
    runs = {
        "analyze": ["analyze", model],
        "simulate": ["simulate", model, "--n", "10", "--T", "0.1", "--reps", "1",
                     "--policy", "greedy-basic", "--seed", "1", "--out", str(tmp_path / "out")],
        "generate": ["generate", "--I", "3", "--J", "3", "--seed", "1",
                     "--out", str(tmp_path / "g.json")],
    }
    for command, argv in runs.items():
        assert main(argv) == 5, command
        assert "numerical failure" in capsys.readouterr().err, command
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json"]


@pytest.mark.parametrize("error, code, err", [
    (ModelError("service rates must be nonnegative"), 2, "error: service rates must be nonnegative"),
    (InfeasibleModel("no allocation"), 2, "error: no allocation"),
    (ScalingViolation("overflow"), 2, "error: overflow"),
    (GenerationFailed("bad draw"), 2, "error: bad draw"),
    (NotATree("a cycle"), 2, "error: a cycle"),
    (OSError("disk"), 2, "error: disk"),
    (NumericalFailure("stalled"), 5, "error: numerical failure: stalled"),
], ids=["ModelError", "InfeasibleModel", "ScalingViolation", "GenerationFailed", "NotATree",
        "OSError", "NumericalFailure"])
def test_main_maps_each_error_family_to_its_exit_code(tmp_path, capsys, monkeypatch,
                                                      error, code, err):
    # main catches families, not a list of types: every library error for bad
    # input is a ValueError (exit 2), as is an OSError, and solver trouble exits 5
    def fail(*args):
        raise error

    monkeypatch.setattr(fluidq.cli, "load_model", fail)
    monkeypatch.setattr(fluidq.cli, "generate_critical_instance", fail)
    runs = [
        ["analyze", "a.json"],
        ["simulate", "a.json", "--n", "10", "--T", "0.1", "--reps", "1",
         "--policy", "greedy-basic", "--seed", "1", "--out", str(tmp_path / "out")],
        ["generate", "--I", "2", "--J", "2", "--seed", "1", "--out", str(tmp_path / "g.json")],
    ]
    for argv in runs:
        assert main(argv) == code, argv[0]
        assert capsys.readouterr() == ("", err + "\n"), argv[0]
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "payload, command, code",
    [(LP_OVERFLOW, "analyze", 5), (LP_OVERFLOW, "simulate", 5), (SCALE_OVERFLOW, "simulate", 2)],
    ids=["lp-analyze", "lp-simulate", "scale-simulate"],
)
def test_overflow_models_exit_cleanly_under_warnings_as_errors(tmp_path, payload, command, code):
    # no numpy RuntimeWarning on the way to the error line
    model = _write(tmp_path, "m.json", payload)
    argv = [command, model] + (["--n", "10", "--T", "0.1", "--reps", "1", "--policy",
                                "greedy-basic", "--seed", "1", "--out", str(tmp_path / "out")]
                               if command == "simulate" else [])
    src = str(Path(fluidq.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "fluidq", *argv],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True)
    assert proc.returncode == code
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert ("non-finite" in proc.stderr) == (code == 5)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["analyze-json", "generate-out", "simulate-out-file"])
def test_unwritable_output_exit_2(tmp_path, capsys, monkeypatch, case):
    model = _write(tmp_path, "a.json", CASE_A)
    missing = str(tmp_path / "missing" / "x.json")
    taken = tmp_path / "taken"
    taken.write_text("keep")

    def never(*args, **kwargs):
        raise AssertionError("simulated before checking --out")

    monkeypatch.setattr(fluidq.cli, "run_nc_experiment", never)
    argv = {
        "analyze-json": ["analyze", model, "--json", missing],
        "generate-out": ["generate", "--I", "2", "--J", "2", "--seed", "1", "--out", missing],
        "simulate-out-file": ["simulate", model, "--n", "10", "--T", "0.1", "--reps", "1",
                              "--policy", "greedy-basic", "--seed", "1", "--out", str(taken)],
    }[case]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""  # no report before the error line
    assert err.startswith("error: ") and "Traceback" not in err and err.count("\n") == 1
    assert (str(taken) if case == "simulate-out-file" else missing) in err
    assert taken.read_text() == "keep"
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("case", ["generate-sidecar", "simulate-summary"])
def test_failed_later_write_leaves_no_output(tmp_path, capsys, case):
    # the command's first file is written, then a directory blocks the second:
    # the first is removed before the error line
    model = _write(tmp_path, "a.json", CASE_A)
    out = tmp_path / "out"
    argv, blocker = {
        "generate-sidecar": (["generate", "--I", "3", "--J", "3", "--seed", "1",
                              "--out", str(out / "x.json")], out / "x.solution.json"),
        "simulate-summary": (["simulate", model, "--n", "10", "--T", "0.2", "--reps", "2",
                              "--policy", "greedy-basic", "--seed", "1", "--out", str(out)],
                             out / "summary.json"),
    }[case]
    blocker.mkdir(parents=True)
    assert main(argv) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and str(blocker) in err
    assert list(out.iterdir()) == [blocker]


@pytest.mark.parametrize("case", ["analyze-json", "analyze-json-existing", "analyze-json-symlink",
                                  "generate", "simulate", "simulate-new-dirs"])
def test_write_cut_by_file_size_limit_leaves_no_output(tmp_path, case):
    # the child may write at most 1 KiB to a file, and Python ignores SIGXFSZ, so
    # the first output file fails partway with [Errno 27]: every file the command
    # created goes, the partly written one included, and so does every directory
    # simulate made for --out; a file already there stays whole, with its old
    # bytes, and so do a symlink and the file it points to, and an --out directory
    # that was already there
    resource = pytest.importorskip("resource")
    model = _write(tmp_path, "a.json", CASE_A)
    out = tmp_path / "out"
    out.mkdir()
    simulate = ["simulate", model, "--n", "10", "--T", "0.2", "--reps", "2",
                "--policy", "greedy-basic", "--seed", "1", "--out"]
    argv = {
        "analyze-json": ["analyze", model, "--json", str(out / "r.json")],
        "analyze-json-existing": ["analyze", model, "--json", str(out / "r.json")],
        "analyze-json-symlink": ["analyze", model, "--json", str(out / "link.json")],
        "generate": ["generate", "--I", "8", "--J", "8", "--seed", "1",
                     "--out", str(out / "g.json")],
        "simulate": [*simulate, str(out)],
        "simulate-new-dirs": [*simulate, str(out / "sim" / "x")],
    }[case]
    existing = {"analyze-json-existing": ["r.json"],
                "analyze-json-symlink": ["link.json", "r.json"]}.get(case, [])
    if existing:
        (out / "r.json").write_text("keep")
    if case == "analyze-json-symlink":
        (out / "link.json").symlink_to(out / "r.json")

    def limit_file_size():
        hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
        resource.setrlimit(resource.RLIMIT_FSIZE, (1024, hard))

    src = str(Path(fluidq.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "fluidq", *argv],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                          text=True, preexec_fn=limit_file_size)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: [Errno 27] ") and proc.stderr.count("\n") == 1
    assert out.is_dir()
    assert sorted(p.name for p in out.iterdir()) == existing
    assert all((out / name).read_text() == "keep" for name in existing)
    assert (out / "link.json").is_symlink() == (case == "analyze-json-symlink")


class _HalfWritten:
    """An output file whose write stores half its text, then fails as a full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("case, existing", [
    ("generate", []), ("simulate", []), ("simulate-new-dirs", []), ("generate", ["x.json"]),
    ("simulate", ["trajectories.csv"]),
], ids=["generate-sidecar", "simulate-summary", "simulate-summary-new-dirs",
        "generate-existing-model", "simulate-existing-trajectories"])
def test_write_failing_halfway_removes_only_created_files(tmp_path, capsys, monkeypatch,
                                                          case, existing):
    # the second file stops after half its text: the first goes too, unless it
    # was there before the command, and then it keeps its old bytes; the
    # directories simulate made for --out go, and one already there stays
    model = _write(tmp_path, "a.json", CASE_A)
    out = tmp_path / "out"
    out.mkdir()
    simulate = ["simulate", model, "--n", "10", "--T", "0.2", "--reps", "2",
                "--policy", "greedy-basic", "--seed", "1", "--out"]
    argv, failing = {
        "generate": (["generate", "--I", "3", "--J", "3", "--seed", "1",
                      "--out", str(out / "x.json")], "x.solution.json"),
        "simulate": ([*simulate, str(out)], "summary.json"),
        "simulate-new-dirs": ([*simulate, str(out / "sim" / "x")], "summary.json"),
    }[case]
    for name in existing:
        (out / name).write_text("keep")
    real_open = Path.open

    def open_failing_halfway(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        return _HalfWritten(fh) if path.name == failing else fh

    monkeypatch.setattr(Path, "open", open_failing_halfway)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: [Errno 28] No space left on device\n")
    assert out.is_dir()
    assert sorted(p.name for p in out.iterdir()) == existing
    assert all((out / name).read_text() == "keep" for name in existing)


@pytest.mark.parametrize("link", [False, True], ids=["file", "symlink"])
def test_write_replaces_an_existing_file_whole(tmp_path, capsys, link):
    # a regular file is replaced through a temporary file that leaves nothing
    # behind and keeps the old mode; a symlink stays, and its target is written
    model = _write(tmp_path, "a.json", CASE_A)
    out = tmp_path / "out"
    out.mkdir()
    target = out / "r.json"
    target.write_text("keep")
    target.chmod(0o640)
    path = out / "link.json" if link else target
    if link:
        path.symlink_to(target)
    assert main(["analyze", model, "--json", str(path)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in out.iterdir()) == sorted({"r.json", path.name})
    assert path.is_symlink() == link
    assert list(json.loads(target.read_text())) == REPORT_KEYS
    assert target.stat().st_mode & 0o777 == 0o640


def test_json_to_a_symlink_loop_exits_2(tmp_path, capsys):
    # the writer resolves a symlink to replace the file it points to; a link
    # that points to itself is an unwritable path like any other
    model = _write(tmp_path, "a.json", CASE_A)
    loop = tmp_path / "loop.json"
    loop.symlink_to(loop)
    assert main(["analyze", model, "--json", str(loop)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert loop.is_symlink()


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_json_to_stdout_redirected_to_a_file_comes_before_the_report(tmp_path, capsys):
    # --json /dev/stdout names the file the shell redirected stdout into: the
    # JSON goes through fd 1 first and the text report follows it, rather than
    # a second open of the file writing the JSON from offset 0 under the report
    model = _write(tmp_path, "a.json", CASE_A)
    assert main(["analyze", model]) == 0
    report = capsys.readouterr().out
    src = str(Path(fluidq.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    both = tmp_path / "both.txt"
    argv = ["analyze", model, "--json", "/dev/stdout"]
    with both.open("w") as fh:
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "fluidq", *argv],
                              env={**os.environ, "PYTHONPATH": path}, stdout=fh,
                              stderr=subprocess.PIPE, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    text = both.read_text()
    value, end = json.JSONDecoder().raw_decode(text)
    assert list(value) == REPORT_KEYS
    assert text[end:] == "\n" + report


@pytest.mark.parametrize("argv, last", [
    (["analyze", "models/case_a.json", "--tol", "1e-6"],
     "fluidq: error: unrecognized arguments: --tol 1e-6"),
    (["simulate", "models/case_a.json", "--n", "10", "--T", "x", "--reps", "1", "--policy",
      "greedy-basic", "--seed", "1", "--out", "never"],
     "fluidq simulate: error: argument --T: invalid float value: 'x'"),
], ids=["analyze-tol", "simulate-T"])
def test_rejected_command_line_exits_2_through_argparse(capsys, argv, last):
    # argparse rejects the line before any command runs: usage, then its own
    # error line, and SystemExit(2) rather than a return value from main
    with pytest.raises(SystemExit) as raised:
        main(argv)
    assert raised.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == last


def test_simulate_policy_mismatch_exit_4(tmp_path, capsys):
    model = _write(tmp_path, "cd.json", CLASS_DEPENDENT_2X2)
    code = main([
        "simulate", model, "--n", "10", "--T", "0.1", "--reps", "1",
        "--policy", "negative-path", "--seed", "1", "--out", str(tmp_path / "out"),
    ])
    assert code == 4
    assert "negative" in capsys.readouterr().err


def test_simulate_negative_path_below_critical_load(tmp_path):
    # at lambda = [4, 2] case_a has load 0.5, so the NC verdict forms no path
    # verdict, yet the path (2,3) is negative and the pump has a path to drive
    payload = dict(CASE_A, **{"lambda": [4, 2]})
    report = run_analysis(validate_model(payload))
    assert report.nc.path_verdict is None
    assert [p.leaf_pair for p in report.paths if p.sign_class == "negative"] == [(2, 3)]
    model = _write(tmp_path, "half.json", payload)
    assert main([
        "simulate", model, "--n", "10", "--T", "0.1", "--reps", "1",
        "--policy", "negative-path", "--seed", "1", "--out", str(tmp_path / "out"),
    ]) == 0


# a valid 1x2 model whose capacities 1.4 round to 1 server each at n = 1
ROUNDS_BADLY = {"classes": 1, "stations": 2, "lambda": [2.8], "nu": [1.4, 1.4], "mu": [[1, 1]]}


@pytest.mark.parametrize(
    "payload, flag, value, message",
    [
        (CASE_A, "--n", "10,x", "invalid literal"),
        (CASE_A, "--n", "40,10", "ascending"),
        (CASE_A, "--n", "10,10", "strictly ascending"),
        (CASE_A, "--n", "0", "at least 1"),
        (CASE_A, "--reps", "0", "at least one replication"),
        (CASE_A, "--T", "0", "must be positive"),
        (CASE_A, "--T", "inf", "horizon T"),
        (CASE_A, "--T", "nan", "horizon T"),
        (ROUNDS_BADLY, "--n", "1", "drifted"),
        (SCALE_OVERFLOW, "--n", "10", "overflows"),
        (CASE_A, "--seed", "-1", "seed must be in 0 ... 2**63 - 1, got -1"),
        (CASE_A, "--seed", str(2**63), f"seed must be in 0 ... 2**63 - 1, got {2**63}"),
    ],
    ids=["malformed-n", "descending-n", "repeated-n", "n-zero", "reps-zero", "T-zero", "T-inf",
         "T-nan", "scaling", "scaling-overflow", "seed-negative", "seed-past-63-bits"],
)
def test_simulate_invalid_request_exit_2(tmp_path, capsys, payload, flag, value, message):
    model = _write(tmp_path, "m.json", payload)
    args = {"--n": "10", "--T": "0.1", "--reps": "1", "--seed": "1", flag: value}
    code = main([
        "simulate", model, *[a for kv in args.items() for a in kv],
        "--policy", "greedy-basic", "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_simulate_writes_outputs(tmp_path):
    model = _write(tmp_path, "a.json", CASE_A)
    out = tmp_path / "exp"
    args = [
        "simulate", model, "--n", "10,20", "--T", "0.2", "--reps", "2",
        "--policy", "greedy-basic", "--seed", "42", "--out", str(out),
    ]
    assert main(args) == 0
    csv_path = out / "trajectories.csv"
    summary_path = out / "summary.json"
    assert csv_path.exists() and summary_path.exists()
    header = csv_path.read_text().splitlines()[0].split(",")
    assert header[:3] == ["n", "rep", "t"]
    assert header[3:5] == ["X_1", "X_2"]
    assert header[-1] == "occupancy_running"
    assert len(header) == 3 + 2 + 6 + 1
    summary = json.loads(summary_path.read_text())
    assert [row["n"] for row in summary["per_n"]] == [10, 20]
    for row in summary["per_n"]:
        assert set(row) == {"n", "reps", "mean", "median", "q10", "q90"}


def _one_line_json(path):
    text = path.read_text(encoding="utf-8")
    assert text.count("\n") == 1 and text.endswith("\n"), path.name
    return json.loads(text)


def _round_trip(obj):
    return json.loads(json.dumps(obj))


def test_json_outputs_are_one_line_and_round_trip(tmp_path):
    model = _write(tmp_path, "a.json", CASE_A)
    analysis = run_analysis(load_model(model))
    report = tmp_path / "report.json"
    assert main(["analyze", model, "--json", str(report)]) == 0
    assert _one_line_json(report) == _round_trip(analysis.to_dict())

    gen = tmp_path / "gen.json"
    assert main(["generate", "--I", "4", "--J", "5", "--seed", "3", "--out", str(gen)]) == 0
    planted, sol = generate_critical_instance(3, 4, 5)
    assert _one_line_json(gen) == _round_trip(model_to_dict(planted))
    assert _one_line_json(tmp_path / "gen.solution.json") == _round_trip(
        _fields(sol, "allocation", "load", "class_masses", "basic_edges"))

    out = tmp_path / "exp"
    assert main(["simulate", model, "--n", "10,20", "--T", "0.2", "--reps", "2",
                 "--policy", "greedy-basic", "--seed", "42", "--out", str(out)]) == 0
    policy = make_policy("greedy-basic", analysis.model, analysis.solution, analysis.paths)
    result = run_nc_experiment(analysis.model, analysis.solution, policy, [10, 20], 0.2, 2, 42)
    assert _one_line_json(out / "summary.json") == _round_trip({
        "policy": "greedy-basic", "policy_note": None, "T": 0.2, "reps": 2, "seed": 42,
        "per_n": result.summary(),
    })


def test_simulate_deterministic_outputs(tmp_path):
    model = _write(tmp_path, "a.json", CASE_A)
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        main([
            "simulate", model, "--n", "10", "--T", "0.2", "--reps", "1",
            "--policy", "negative-path", "--seed", "42", "--out", str(out),
        ])
        outs.append((out / "trajectories.csv").read_bytes())
    assert outs[0] == outs[1]


def test_simulate_same_bytes_on_both_routes(tmp_path, capsys, monkeypatch):
    model = _write(tmp_path, "a.json", CASE_A)
    batches = []
    lockstep = fluidq.simulator._simulate_lockstep
    monkeypatch.setattr(fluidq.simulator, "_simulate_lockstep",
                        lambda *args: batches.append(args) or lockstep(*args))
    outputs = []
    for name, min_reps in (("lockstep", fluidq.simulator.LOCKSTEP_MIN_REPS), ("loop", 21)):
        monkeypatch.setattr(fluidq.simulator, "LOCKSTEP_MIN_REPS", min_reps)
        out = tmp_path / name
        assert main([
            "simulate", model, "--n", "10,20", "--T", "0.3", "--reps", "20",
            "--policy", "negative-path", "--seed", "5", "--out", str(out),
        ]) == 0
        stdout = capsys.readouterr().out.replace(str(out), "OUT")
        outputs.append([(out / "trajectories.csv").read_bytes(),
                        (out / "summary.json").read_bytes(), stdout])
    assert len(batches) == 2  # one per scale, on the first run only
    assert outputs[0] == outputs[1]


def test_run_analysis_defect_free_on_case_a(case_a):
    report = run_analysis(case_a)
    assert report.defects == []
    assert report.assumptions.all_hold


def test_basic_cycles_and_defects_reported():
    # the square of test_paths' forced cycle, reported as a non-tree basic graph
    model = validate_model(
        {"classes": 2, "stations": 2, "lambda": [5, 5], "nu": [1, 1], "mu": [[2, 3], [3, 2]]}
    )
    defect = "LP and path optimality criteria disagree although the assumptions hold"
    report = replace(
        run_analysis(model), paths=None, cycles=[((2, 4, 1, 3), 2.0)], defects=[defect]
    )
    lines = render_report(report).splitlines()
    at = lines.index("simple paths: unavailable (basic graph is not a tree)")
    assert lines[at + 1] == "  basic cycle (2, 4, 1, 3): weight 2"
    assert f"DEFECT: {defect}" in lines
    data = json.loads(json.dumps(report.to_dict()))
    assert data["paths"] is None
    assert data["basic_cycles"] == [{"vertices": [2, 4, 1, 3], "weight": 2.0}]
    assert data["throughput"]["defects"] == [defect]


def test_analyze_unknown_verdict_rendered(tmp_path, capsys):
    from test_optimality import GAP_3X3

    model = _write(tmp_path, "gap.json", GAP_3X3)
    assert main(["analyze", model]) == 0
    text = capsys.readouterr().out
    assert "UNKNOWN" in text
    assert "zero-path check" in text
