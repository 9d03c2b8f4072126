import json
from dataclasses import replace

import pytest

import fluidq.cli
import fluidq.simulator
import fluidq.static_fluid
from fluidq import NumericalFailure, validate_model
from fluidq.analysis import render_report, run_analysis
from fluidq.cli import main

from conftest import CASE_A, CASE_B, CLASS_DEPENDENT_2X2, MINIMAL


def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


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


def test_analyze_unparseable_exit_2(tmp_path, capsys):
    p = tmp_path / "garbage.json"
    p.write_text("{not json")
    assert main(["analyze", str(p)]) == 2


def test_analyze_infeasible_exit_2(tmp_path):
    model = _write(
        tmp_path, "inf.json",
        {"classes": 2, "stations": 1, "lambda": [1, 1], "nu": [1], "mu": [[1], [0]]},
    )
    assert main(["analyze", model]) == 2


def test_analyze_strict_exit_3(tmp_path):
    disconnected = {
        "classes": 2, "stations": 2, "lambda": [3, 2], "nu": [1, 1], "mu": [[3, 0], [0, 2]]
    }
    model = _write(tmp_path, "disc.json", disconnected)
    assert main(["analyze", model]) == 0
    assert main(["analyze", model, "--strict"]) == 3


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
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert taken.read_text() == "keep"
    assert not (tmp_path / "missing").exists()


def test_simulate_policy_mismatch_exit_4(tmp_path, capsys):
    model = _write(tmp_path, "cd.json", CLASS_DEPENDENT_2X2)
    code = main([
        "simulate", model, "--n", "10", "--T", "0.1", "--reps", "1",
        "--policy", "negative-path", "--seed", "1", "--out", str(tmp_path / "out"),
    ])
    assert code == 4
    assert "negative" in capsys.readouterr().err


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
    ],
    ids=["malformed-n", "descending-n", "repeated-n", "n-zero", "reps-zero", "T-zero", "T-inf",
         "T-nan", "scaling"],
)
def test_simulate_invalid_request_exit_2(tmp_path, capsys, payload, flag, value, message):
    model = _write(tmp_path, "m.json", payload)
    args = {"--n": "10", "--T": "0.1", "--reps": "1", flag: value}
    code = main([
        "simulate", model, *[a for kv in args.items() for a in kv],
        "--policy", "greedy-basic", "--seed", "1", "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
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
