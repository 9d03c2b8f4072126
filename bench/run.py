"""fluidq benchmark: one workload per call, in one process on one thread.

    python3 bench/run.py --workload static|nc-ladder|erlang-c \
        --seed N --seconds S --trace 0|1

The harness is a closed loop with one caller: it makes one call into fluidq
at a time and starts the next when the previous one returns. A *pass* is the
workload's fixed list of calls. Passes repeat until ``--seconds`` have
elapsed, and there is always at least one. Every output is checked. A raise,
a nonzero exit code or a failed output check counts as one failed operation.

Times are reported in reference seconds (see ``clock.py``): the time spent
in fluidq, scaled by how fast a fixed calibration loop, sampled four times a
second throughout the run, ran around it. On a shared host the speed of one
core drifts so far (identical erlang-c passes measured 2.7 s to 5.3 s) that
raw wall times of two runs of the same code differ more than any bound worth
setting. The measured times are kept as ``setup_raw_s`` and ``wall_raw_s``.

``setup_s`` is the median of SETUP_REPEATS set-ups: a fresh import of fluidq
from this checkout's ``src/``, building or loading the inputs, the static
solve and the policy. ``wall_s`` is the median over passes of a pass's time
in fluidq calls.

With ``--trace 1`` the harness also sets up once more and runs pass 0 again,
both with spans recorded around calls into fluidq's public functions (see
``spans.py``). It prints per-layer figures from those spans and the tracing
overhead: the traced pass 0 time minus the untraced one.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Lines above it print every figure by name with its
unit. The full record, with the environment and sample counts, is written to
``bench/results/<workload>-seed<N>-trace<T>.json``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse
import contextlib
import importlib
import io
import json
import math
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from clock import Clock
from planted import planted_instance
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORK = BENCH / "work"

SETUP_REPEATS = 40   # about 2 s, so that several calibration samples fall among them

SHIPPED_VERDICTS = {
    "case_a": "possible",
    "case_b": "possible",
    "class_dependent_2x2": "impossible",
}
SMALL_REPEATS = 5     # analyses of each shipped model per pass
PLANTED = (8, 8, 8, 12, 12)  # sizes I = J of the planted instances
# generate_critical_instance retries with seed + 1 and accepts about one 5x5
# draw in a hundred; a seed picked at random fails outright about a third of
# the time. Each of these starts roughly 50 draws below a different accepted
# draw (53, 354), so every call does distinct work of similar size.
GENERATE_5X5_SEEDS = (1, 300)
# Every 6x6 draw is rejected today: the call spends its 100 draws (about 15 s)
# and exits 2. It stays in the pass and is counted as a failed operation until
# the generator scales.
GENERATE_6X6_SEED = 1

LADDER_N = [25, 100, 400]
LADDER_T = 1.0
LADDER_REPS = 30
# Criterion 8's seed. The strict-decrease check compares medians of 30
# replications that differ by 0.05-0.1, so some seeds fail it by chance;
# this workload repeats the acceptance criterion's own experiment.
LADDER_SEED = 1

ERLANG_N = 100
ERLANG_LAMBDA = 0.9
ERLANG_T = 50.0
ERLANG_WARMUP = 25.0
ERLANG_REPS = 10      # per pass


def import_fluidq():
    """Import fluidq afresh from this checkout, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "fluidq" / "__init__.py").is_file():
        raise SystemExit(f"error: no fluidq sources under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n.split(".")[0] == "fluidq"]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return importlib.import_module("fluidq")


class Recorder:
    """Times each operation of one pass and keeps its outcome."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops: list[dict] = []

    def close(self, clock):
        """Adds each operation's time in fluidq, measured and in reference
        seconds; returns the pass's totals of both."""
        for op in self.ops:
            op["raw_s"], op["ref_s"] = clock.split(op["start"], op["end"])
        return (sum(op["raw_s"] for op in self.ops),
                sum(op["ref_s"] for op in self.ops))

    def call(self, kind, fn, *args, **kwargs):
        """Run one operation; returns (result or None, error text or None, op)."""
        start = time.perf_counter()
        result, error = None, None
        try:
            if self.tracer is None:
                result = fn(*args, **kwargs)
            else:
                result = self.tracer.call(kind, fn, *args, **kwargs)
        except (Exception, SystemExit) as exc:  # argparse exits with SystemExit
            error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        op = {"kind": kind, "start": start, "end": end, "ok": error is None, "note": error}
        self.ops.append(op)
        return result, error, op

    @staticmethod
    def fail(op, note, wrong=True):
        """Mark op failed; ``wrong`` when it returned an output that is incorrect."""
        op["ok"] = False
        op["wrong"] = wrong
        op["note"] = note

    def check(self, kind, problem):
        """An output check on the pass as a whole; counted as one operation."""
        now = time.perf_counter()
        self.ops.append({"kind": kind, "start": now, "end": now,
                         "ok": problem is None, "wrong": problem is not None,
                         "note": problem})


def quiet(fn, *args):
    """Call fn with the program's own stdout and stderr captured."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return fn(*args)


class Workload:
    """Inputs built in ``setup``; ``run_pass(fq, rec, k)`` makes the calls of pass k."""

    policies = ()  # policy objects whose ``assign`` the tracer wraps

    def finish(self, rec):
        """Output checks over every pass of the run."""


# --------------------------------------------------------------------- static

class Static(Workload):
    """``fluidq analyze`` and ``fluidq generate``, in-process through cli.main.

    A pass analyses every shipped model SMALL_REPEATS times and every planted
    instance once, then generates a 5x5 instance from each seed and tries
    one 6x6 instance.
    """

    name = "static"

    def setup(self, fq, seed, work):
        rng = np.random.default_rng(seed)
        self.analyses = []
        for name, verdict in SHIPPED_VERDICTS.items():
            path = ROOT / "models" / f"{name}.json"
            self.analyses += [("analyze_small", path, ("verdict", verdict))] * SMALL_REPEATS
        for k, size in enumerate(PLANTED):
            raw, tree = planted_instance(rng, size, size)
            path = work / f"planted_{k}.json"
            path.write_text(json.dumps(raw))
            self.analyses.append((f"analyze_{size}x{size}", path, ("tree", tree)))
        self.work = work

    def run_pass(self, fq, rec, k):
        out = self.work / "report.json"
        for kind, path, expect in self.analyses:
            out.unlink(missing_ok=True)
            code, error, op = rec.call(
                "cli.main", quiet, fq.cli.main, ["analyze", str(path), "--json", str(out)])
            op["kind"] = kind
            if error is None:
                if code != 0:
                    rec.fail(op, f"{path.name}: exit code {code}", wrong=False)
                    continue
                problem = self._check_analysis(json.loads(out.read_text()), expect)
                if problem:
                    rec.fail(op, f"{path.name}: {problem}")
        for seed in GENERATE_5X5_SEEDS:
            self._generate(fq, rec, "generate_5x5", 5, seed)
        self._generate(fq, rec, "generate_6x6", 6, GENERATE_6X6_SEED)

    def _generate(self, fq, rec, kind, size, seed):
        target = self.work / f"generated_{size}x{size}.json"
        code, error, op = rec.call(
            "cli.main", quiet, fq.cli.main,
            ["generate", "--I", str(size), "--J", str(size), "--seed", str(seed),
             "--out", str(target)])
        op["kind"] = kind
        if error is None:
            if code != 0:
                rec.fail(op, f"generate {size}x{size} seed {seed}: exit code {code}",
                         wrong=False)
                return
            problem = self._check_generated(target, size)
            if problem:
                rec.fail(op, f"generate {size}x{size} seed {seed}: {problem}")

    @staticmethod
    def _check_analysis(report, expect):
        what, value = expect
        if what == "verdict":
            got = report["null_controllability"]["status"]
            return None if got == value else f"verdict {got}, expected {value}"
        a = report["assumptions"]
        if not (a["critically_loaded"] and a["unique"] and a["is_tree"]):
            return f"assumptions fail: {a['violations']}"
        basic = {tuple(e) for e in report["fluid"]["basic_edges"]}
        if basic != value:
            return f"basic edges {sorted(basic)} differ from the planted tree"
        if report["throughput"]["defects"]:
            return f"defects: {report['throughput']['defects']}"
        return None

    @staticmethod
    def _check_generated(target, size):
        sidecar = json.loads(target.with_suffix(".solution.json").read_text())
        if abs(sidecar["load"] - 1.0) > 1e-9:
            return f"load {sidecar['load']}"
        if len(sidecar["basic_edges"]) != 2 * size - 1:
            return f"{len(sidecar['basic_edges'])} basic edges"
        return None

    def figures(self, ops):
        def p50(kind, scale):
            values = [scale * o["ref_s"] for o in ops if o["kind"] == kind]
            return statistics.median(values), len(values)

        out = {}
        for key, kind, scale, unit in (
            ("analyze_small_ms_p50", "analyze_small", 1e3, "ms"),
            ("analyze_8x8_ms_p50", "analyze_8x8", 1e3, "ms"),
            ("analyze_12x12_ms_p50", "analyze_12x12", 1e3, "ms"),
            ("generate_5x5_s_p50", "generate_5x5", 1.0, "s"),
            ("generate_6x6_s", "generate_6x6", 1.0, "s"),
        ):
            value, count = p50(kind, scale)
            out[key] = {"value": value, "unit": unit, "samples": count}
        return out


# ----------------------------------------------------------------- simulators

class NCLadder(Workload):
    """The README simulate ladder through run_nc_experiment (criterion 8)."""

    name = "nc-ladder"

    def setup(self, fq, seed, work):
        self.runs = []
        for model_name, policy_name, check in (
            ("case_a", "negative-path", self._check_drains),
            ("class_dependent_2x2", "greedy-basic", self._check_persists),
        ):
            model = fq.load_model(str(ROOT / "models" / f"{model_name}.json"))
            sol = fq.solve_static_allocation(model)
            paths = fq.enumerate_simple_paths(sol, fq.activity_set(model), model)
            policy = fq.make_policy(policy_name, model, sol, paths)
            self.runs.append((model_name, model, sol, paths, policy, check))

    @property
    def policies(self):
        return [run[4] for run in self.runs]

    def run_pass(self, fq, rec, k):
        """One run_nc_experiment call per model and scale; the replication
        seeds depend only on (seed, n, rep), so this is criterion 8's ladder."""
        for model_name, model, sol, paths, policy, check in self.runs:
            medians = {}
            for n in LADDER_N:
                result, error, op = rec.call(
                    "simulator.run_nc_experiment", fq.run_nc_experiment,
                    model, sol, policy, [n], LADDER_T, LADDER_REPS, LADDER_SEED,
                    paths=paths, sample_points=5)
                op["kind"] = f"ladder.{model_name}"
                if error is None:
                    op["events"] = sum(r.events for r in result.results)
                    medians[n] = result.rows[0].median
                    problem = _invariants(result.results)
                    if problem:
                        rec.fail(op, f"{model_name} n={n}: {problem}")
            rec.check(f"ladder.{model_name}.trend",
                      check(medians) if len(medians) == len(LADDER_N) else "ladder incomplete")

    @staticmethod
    def _check_drains(medians):
        values = [medians[n] for n in LADDER_N]
        if all(a > b for a, b in zip(values, values[1:])):
            return None
        return f"case_a medians over n={LADDER_N} do not strictly decrease: {values}"

    @staticmethod
    def _check_persists(medians):
        if medians[LADDER_N[-1]] >= 0.5 * medians[LADDER_N[0]]:
            return None
        return f"median at n={LADDER_N[-1]} fell below half of n={LADDER_N[0]}: {medians}"

    def figures(self, ops):
        return {"events_per_s": _events_per_s(ops)}


def erlang_c(servers: int, offered: float) -> float:
    """Probability that an arrival waits in M/M/c (Erlang C), via Erlang B."""
    b = 1.0
    for k in range(1, servers + 1):
        b = offered * b / (k + offered * b)
    rho = offered / servers
    return b / (1.0 - rho + rho * b)


class ErlangC(Workload):
    """One class, one station, 100 servers at load 0.9 (criterion 7)."""

    name = "erlang-c"

    def setup(self, fq, seed, work):
        model = fq.validate_model({"classes": 1, "stations": 1, "lambda": [ERLANG_LAMBDA],
                                   "nu": [1], "mu": [[1]]})
        sol = fq.solve_static_allocation(model)
        self.sys = fq.build_system(model, sol, ERLANG_N)
        self.policy = fq.make_policy("greedy-basic", model, sol)
        self.seed = seed
        self.fractions = {}  # pass index -> delay fractions of its replications

    @property
    def policies(self):
        return [self.policy]

    def run_pass(self, fq, rec, k):
        """Replications k*ERLANG_REPS onwards, so passes draw distinct streams."""
        fractions = []
        for rep in range(k * ERLANG_REPS, (k + 1) * ERLANG_REPS):
            res, error, op = rec.call(
                "erlang.replication", fq.simulate, self.sys, self.policy, ERLANG_T,
                fq.derive_seed(self.seed, ERLANG_N, rep),
                warmup=ERLANG_WARMUP, sample_points=6)
            if error is None:
                op["events"] = res.events
                problem = _invariants([res])
                if problem:
                    rec.fail(op, problem)
                fractions.append(res.queue_occupancy / (ERLANG_T - ERLANG_WARMUP))
        self.fractions[k] = fractions

    def finish(self, rec):
        pooled = [f for fractions in self.fractions.values() for f in fractions]
        rec.check("erlang.delay_check", self._check_delay(pooled))

    @staticmethod
    def _check_delay(fractions):
        if len(fractions) < 2:
            return "fewer than two replications finished"
        arr = np.array(fractions)
        target = erlang_c(ERLANG_N, ERLANG_N * ERLANG_LAMBDA)
        se = arr.std(ddof=1) / math.sqrt(arr.size)
        if abs(arr.mean() - target) <= 3 * se:
            return None
        return f"delay fraction {arr.mean():.4f} vs Erlang-C {target:.4f} (3 SE {3 * se:.4f})"

    def figures(self, ops):
        reps = sorted(1e3 * o["ref_s"] for o in ops
                      if o["kind"] == "erlang.replication" and o["ok"])
        out = {"events_per_s": _events_per_s(ops),
               "rep_ms_p50": {"value": statistics.median(reps), "unit": "ms",
                              "samples": len(reps)}}
        tail = _tail(reps)
        if tail is not None:
            out["rep_ms_tail"] = tail
        return out


def _invariants(results):
    bad = [r.rep for r in results if not r.invariants_checked]
    return f"invariants not checked in replications {bad}" if bad else None


def _events_per_s(ops):
    sim = [o for o in ops if "events" in o]
    seconds = sum(o["ref_s"] for o in sim)
    events = sum(o["events"] for o in sim)
    return {"value": events / seconds, "unit": "1/s", "samples": events}


def _tail(sorted_values):
    """Highest percentile with at least ten samples beyond it."""
    n = len(sorted_values)
    if n < 11:
        return None
    return {"value": sorted_values[n - 11], "unit": "ms",
            "percentile": round(100.0 * (n - 10) / n, 1), "samples": n}


WORKLOADS = {w.name: w for w in (Static, NCLadder, ErlangC)}


# ----------------------------------------------------------------- measurement

def environment(args):
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def timed_setups(workload, seed, work, clock):
    """Set up SETUP_REPEATS times; returns the last fluidq module and each
    set-up's time, measured and in reference seconds."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        fq = import_fluidq()
        workload.setup(fq, seed, work)
        samples.append(clock.split(start, time.perf_counter()))
    return fq, samples


def run(args):
    workload = WORKLOADS[args.workload]()
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        with Clock() as clock:
            return measure(workload, args, work, clock)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(workload, args, work, clock):
    record = {"environment": environment(args)}
    fq, setups = timed_setups(workload, args.seed, work, clock)
    record["setups_s"] = setups

    tracer = Tracer() if args.trace else None
    if tracer:
        fq = import_fluidq()  # one more set-up, traced
        with tracer.installed():
            workload.setup(fq, args.seed, work)
    ops = []

    def one_pass(k, tracer=None):
        rec = Recorder(tracer)
        workload.run_pass(fq, rec, k)
        ops.extend(rec.ops)
        return rec.close(clock)

    walls = []
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < args.seconds:
        walls.append(one_pass(len(walls)))
        if tracer and len(walls) == 1:
            # pass 0 again, traced
            with tracer.installed(workload.policies):
                traced_wall = one_pass(0, tracer)
    rec = Recorder()
    workload.finish(rec)
    rec.close(clock)
    ops += rec.ops
    record["pass_walls_s"] = walls

    cal_q = statistics.quantiles(clock.durations, n=4)
    figures = {
        "setup_raw_s": {"value": statistics.median(raw for raw, _ in setups), "unit": "s"},
        "wall_raw_s": {"value": statistics.median(raw for raw, _ in walls), "unit": "s"},
        "calibration_ms": {"value": 1e3 * cal_q[1], "unit": "ms",
                           "q1": 1e3 * cal_q[0], "q3": 1e3 * cal_q[2],
                           "samples": len(clock.durations)},
    }
    if not tracer:
        metrics = {"setup_s": {"value": statistics.median(ref for _, ref in setups), "unit": "s"},
                   "wall_s": {"value": statistics.median(ref for _, ref in walls), "unit": "s"}}
        figures.update(workload.figures(ops))
    else:
        # one set-up and one pass
        layers = tracer.summary(clock)
        untraced, traced = walls[0][1], traced_wall[1]
        layers["trace.overhead_s"] = traced - untraced
        layers["trace.overhead_share"] = (traced - untraced) / untraced
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in UNITS.items()}
        figures.update({"untraced_pass_s": {"value": untraced, "unit": "s"},
                        "traced_pass_s": {"value": traced, "unit": "s"}})
        record["traced_pass_wall_s"] = traced_wall

    failures = [o for o in ops if not o["ok"]]
    attempted, failed = len(ops), len(failures)
    figures["failed_share"] = {"value": failed / attempted, "unit": "share"}
    record.update({
        "passes": len(walls),
        "samples": _counts(ops),
        "failures": [f"{o['kind']}: {o['note']}" for o in failures],
        "figures": figures,
        "metrics": metrics,
    })
    # a raise or an error exit is a failed operation; an output that fails its
    # check is that and also incorrect
    result = {"correct": not any(o.get("wrong") for o in failures),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return record, result


def _counts(ops):
    counts: dict[str, int] = {}
    for o in ops:
        counts[o["kind"]] = counts.get(o["kind"], 0) + 1
    return counts


UNITS = {
    "linprog.solve_lp.calls": "count",
    "linprog.solve_lp.self_ms": "ms",
    "linprog.solve_lp.us_p50": "us",
    "static_fluid.check_assumptions.self_ms": "ms",
    "static_fluid.check_assumptions.lp_calls": "count",
    "static_fluid.generate.accept_ratio": "ratio",
    "static_fluid.generate_critical_instance.ms": "ms",
    "paths.enumerate_simple_paths.ms": "ms",
    "paths.count": "count",
    "optimality.nc_verdict.self_ms": "ms",
    "optimality.lp_calls": "count",
    "cli.run_analysis.ms": "ms",
    "cli.io_ms": "ms",
    "simulator.policy_assign.calls": "count",
    "simulator.policy_assign.us_p50": "us",
    "simulator.policy_share": "ratio",
    "simulator.us_per_event": "us",
    "simulator.events": "count",
    "simulator.build_system.ms": "ms",
    "simulator.simulate.calls": "count",
    "model.load_model.ms": "ms",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    record, result = run(args)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {record['passes']} passes,"
          f" samples {record['samples']}")
    for name, fig in {**record["figures"], **record["metrics"]}.items():
        extra = {k: v for k, v in fig.items() if k not in ("value", "unit")}
        print(f"{name} = {fig['value']:.6g} {fig['unit']}" + (f"  {extra}" if extra else ""))
    for line in record["failures"]:
        print(f"FAILED {line}")
    print(f"wrote {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
