"""Run the benchmark once per seed on each workload; summarize each figure.

    python3 bench/spread.py --seeds 1-10 [--workloads static,erlang-c] [--trace 0|1]
        [--out bench/baseline.json]

Each run is a separate process, one at a time. The summary is read back from
the runs' files in ``bench/results``. For every workload and figure it gives
the median over seeds, the quartiles as ``statistics.quantiles(values, n=4)``
gives them, and the spread: the distance between the quartiles as a share of
the median. It prints one line per figure and, with ``--out``, writes the
summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(workload, seeds, trace):
    runs = []
    for seed in seeds:
        record = json.loads((BENCH / "results" / f"{workload}-seed{seed}-trace{trace}.json")
                            .read_text())
        runs.append({"seed": seed, "samples": record["samples"],
                     "failures": record["failures"],
                     "figures": {**record["figures"], **record["metrics"]}})
    environment = {k: v for k, v in record["environment"].items() if k != "seed"}
    figures = {}
    for name, first in runs[0]["figures"].items():
        values = [r["figures"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        figures[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else None}
    return {"environment": environment, "seeds": seeds, "figures": figures, "runs": runs}


def main(argv=None):
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, required=True, help="e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    summary = {}
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(config["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            print(workload, seed, out.stdout.strip().splitlines()[-1][:120], flush=True)
        summary[workload] = summarize(workload, args.seeds, args.trace)
        for name, fig in summary[workload]["figures"].items():
            spread = "n/a" if fig["spread"] is None else f"{fig['spread']:.3f}"
            print(f"{workload} {name}: median {fig['median']:.6g} {fig['unit']} spread {spread}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
