"""Byte-for-byte regression of the command-line outputs.

The files under ``tests/golden/`` were captured from the CLI before the
package was cut down to its core; the analysis must reproduce them exactly.
Regenerate them (only when an output is meant to change) with

    PYTHONPATH=src:tests python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from fluidq.cli import main

from conftest import MINIMAL

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

# two zero paths, so the combined check is filled; basis dependence-route
ZERO_PATHS_3X3 = {
    "classes": 3,
    "stations": 3,
    "lambda": [2 / 3, 2, 4 / 3],
    "nu": [1, 1, 1],
    "mu": [[1, 0, 1], [1, 2, 1], [1, 2, 0]],
}
# a basic cycle and a disconnected basic graph
CYCLE_4X4 = {
    "classes": 4,
    "stations": 4,
    "lambda": [3, 2, 4, 2],
    "nu": [2, 2, 2, 2],
    "mu": [[1, 1, 3, 2], [0, 0, 1, 0], [2, 1, 0, 2], [1, 1, 3, 2]],
}
SIM_ARGS = ["--n", "10,40", "--T", "0.5", "--reps", "3", "--seed", "7"]
POLICIES = ("greedy-basic", "negative-path", "idle")


def _run(argv: list[str], work: Path) -> bytes:
    """Exit code, stdout and stderr of one CLI call, with ``work`` masked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    return text.replace(str(work), "<work>").encode()


def _models(work: Path) -> dict[str, Path]:
    models = {name: ROOT / "models" / f"{name}.json"
              for name in ("case_a", "case_b", "class_dependent_2x2")}
    for name, raw in (("minimal", MINIMAL), ("zero_paths_3x3", ZERO_PATHS_3X3),
                      ("cycle_4x4", CYCLE_4X4)):
        models[name] = work / f"{name}.json"
        models[name].write_text(json.dumps(raw))
    return models


def outputs(work: Path) -> dict[str, bytes]:
    """Every golden output, keyed by its file name under ``tests/golden``."""
    got: dict[str, bytes] = {}
    models = _models(work)
    gen = work / "generated_8x8.json"
    got["generate_8x8.out"] = _run(
        ["generate", "--I", "8", "--J", "8", "--seed", "1", "--out", str(gen)], work)
    got["generate_8x8.model.json"] = gen.read_bytes()
    got["generate_8x8.solution.json"] = gen.with_suffix(".solution.json").read_bytes()
    models["generated_8x8"] = gen
    for name, path in models.items():
        report = work / f"{name}.report.json"
        got[f"analyze_{name}.out"] = _run(["analyze", str(path), "--json", str(report)], work)
        got[f"analyze_{name}.json"] = report.read_bytes()
    for policy in POLICIES:
        out = work / f"sim_{policy}"
        got[f"simulate_case_a_{policy}.out"] = _run(
            ["simulate", str(models["case_a"]), *SIM_ARGS, "--policy", policy,
             "--out", str(out)], work)
        for name in ("trajectories.csv", "summary.json"):
            if (out / name).exists():
                got[f"simulate_case_a_{policy}.{name}"] = (out / name).read_bytes()
    return got


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return outputs(tmp_path_factory.mktemp("golden"))


def test_golden_file_set(produced):
    assert sorted(produced) == sorted(p.name for p in GOLDEN.iterdir())


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.iterdir()))
def test_golden_output(produced, name):
    assert produced[name] == (GOLDEN / name).read_bytes(), name


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, data in outputs(Path(tmp)).items():
            (GOLDEN / name).write_bytes(data)
