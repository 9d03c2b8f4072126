import json

import pytest

from fluidq.cli import main, run_analysis

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


def test_numerical_failure_exit_5(tmp_path, capsys):
    # the same network with time measured in microseconds: the solver's
    # absolute tolerances then find the pinned optimal face empty
    scaled = dict(
        CASE_A,
        **{"lambda": [1e6 * v for v in CASE_A["lambda"]],
           "mu": [[1e6 * v for v in row] for row in CASE_A["mu"]]},
    )
    model = _write(tmp_path, "a_1e6.json", scaled)
    assert main(["analyze", model]) == 5
    assert "numerical failure" in capsys.readouterr().err
    code = main([
        "simulate", model, "--n", "10", "--T", "0.1", "--reps", "1",
        "--policy", "greedy-basic", "--seed", "1", "--out", str(tmp_path / "out"),
    ])
    assert code == 5


def test_simulate_policy_mismatch_exit_4(tmp_path, capsys):
    model = _write(tmp_path, "cd.json", CLASS_DEPENDENT_2X2)
    code = main([
        "simulate", model, "--n", "10", "--T", "0.1", "--reps", "1",
        "--policy", "negative-path", "--seed", "1", "--out", str(tmp_path / "out"),
    ])
    assert code == 4
    assert "negative" in capsys.readouterr().err


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


def test_run_analysis_defect_free_on_case_a(case_a):
    report = run_analysis(case_a)
    assert report.defects == []
    assert report.assumptions.all_hold


def test_analyze_unknown_verdict_rendered(tmp_path, capsys):
    from test_optimality import GAP_3X3

    model = _write(tmp_path, "gap.json", GAP_3X3)
    assert main(["analyze", model]) == 0
    text = capsys.readouterr().out
    assert "UNKNOWN" in text
    assert "zero-path check" in text
