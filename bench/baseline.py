"""Runs every workload on several seeds and records medians and quartiles.

Run from the repository root:

    python3 bench/baseline.py --runs 10 --out bench/baseline.json

Each workload runs ``--runs`` times untraced, on seeds 1..runs, through
``run.py`` (one fresh subprocess per run, one run at a time), then once
traced on the default seed.  For every end-to-end metric the output holds
the ten values, their median, their quartiles as ``statistics.quantiles(v,
n=4)`` gives them, and the spread: the distance between the quartiles as a
share of the median.  The spreads are compared against the bounds in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=True, timeout=180)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %d: %d of %d operations failed"
                         % (workload, seed, result["failed"], result["attempted"]))
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", help="comma-separated subset of the workloads")
    p.add_argument("--out", help="write the summary here as JSON")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, BENCH_DIR)
    from workloads import DEFAULT_SEED

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    rows = {}
    for name in names:
        values = {}
        for seed in range(1, args.runs + 1):
            result = run(name, seed, spec["run_seconds"], 0)
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print("%s seed %d: %s" % (name, seed, ", ".join(
                "%s=%.5g" % (k, v["value"]) for k, v in result["metrics"].items())),
                file=sys.stderr, flush=True)
        end_to_end = {}
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            end_to_end[metric] = {"median": med, "q1": q1, "q3": q3,
                                  "spread": spread, "bound": bounds[metric],
                                  "values": vals}
            print("  %-12s median %-12.5g spread %.3f (bound %.2f)"
                  % (metric, med, spread, bounds[metric]), file=sys.stderr, flush=True)
        traced = run(name, DEFAULT_SEED, spec["run_seconds"], 1)
        rows[name] = {
            "why": why[name],
            "seeds": list(range(1, args.runs + 1)),
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    summary = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "implementation": platform.python_implementation()},
        "default_seed": DEFAULT_SEED,
        "run_seconds": spec["run_seconds"],
        "workloads": rows,
    }
    text = json.dumps(summary, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
