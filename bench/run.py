"""The fedosov-lab benchmark: one workload per call, in a fresh subprocess.

Run from the repository root:

    python3 bench/run.py --workload verify-curved4 --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``verify-curved4``, ``star-fresh-curved2``,
``star-pool-flat4``.  ``--trace 0`` prints the end-to-end metrics, measured
with tracing off and scaled to a fixed machine speed (``speed.py``);
``--trace 1`` prints the per-layer metrics of a separate
traced run.  ``--smoke`` shrinks every workload to a few seconds (for the
benchmark's own tests).  The program under test is imported from ``src/``
of the current directory.

Output: a table of metrics by name and unit, then, as the last line, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit status is 0 when the workload ran, whether or not its
outputs passed their checks, and non-zero when it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

TIMEOUT_S = 170
REQUIRED = (os.path.join("src", "fedosov_lab", "__init__.py"),
            os.path.join("scenarios", "curved_r4_k1_poly.json"),
            os.path.join("scenarios", "flat_r4_formal.json"))


def user_metrics(workload, result):
    """The end-to-end metrics under the names a user of each workload reads:
    ``verify_s`` for the verify command, ``products_per_s`` and the product
    latencies for the star workloads, and set-up, memory and failures for all."""
    m = {k: v["value"] for k, v in result["metrics"].items()}
    rows = []
    if workload == "verify-curved4":
        rows.append(("verify_s", m["op_p50_ms"] / 1e3, "s"))
    else:
        rows += [("products_per_s", m["ops_per_s"], "1/s"),
                 ("product_p50_ms", m["op_p50_ms"], "ms"),
                 ("product_p90_ms", result["info"]["op_p90_ms"], "ms")]
    rows += [("setup_s", m["setup_s"], "s"),
             ("peak_rss_mb", m["peak_rss_mb"], "MB"),
             ("fail_ratio", result["failed"] / result["attempted"], "ratio")]
    return rows


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    root = os.getcwd()
    missing = [f for f in REQUIRED if not os.path.isfile(os.path.join(root, f))]
    if missing:
        print("error: run from the repository root; missing %s" % ", ".join(missing),
              file=sys.stderr)
        return 2

    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, PYTHONHASHSEED="0")  # same set order, same counts
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("error: %s did not finish within %d s" % (args.workload, TIMEOUT_S),
              file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("error: %s worker exited with status %d"
              % (args.workload, proc.returncode), file=sys.stderr)
        return 1
    result = json.loads(lines[-1])

    print("workload %s  seed %d  trace %d%s  operations %d  %s%s"
          % (args.workload, args.seed, args.trace, "  smoke" if args.smoke else "",
             result["attempted"],
             " ".join("%s=%s" % kv for kv in sorted(result["info"].items())),
             "" if args.trace else "  (times at reference speed)"))
    rows = [(k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
    if not args.trace:
        user = user_metrics(args.workload, result)
        shown = {name for name, _v, _u in user}
        rows = user + [r for r in rows if r[0] not in shown]
    for name, value, unit in rows:
        print("  %-34s %16.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
