"""Paired parent/change runs of a ``fedosov-lab`` command at order 3.

Standard library only.  Run from anywhere, with two checkouts of the
repository (for example a ``git archive`` of the parent commit and the
working tree):

    python3 tools/order3_pairs.py PARENT CHANGE --pairs 2 --json pairs.json
    python3 tools/order3_pairs.py PARENT CHANGE --command star --order 4

``--command`` picks the command both sides run: ``verify`` (the default),
``star`` or ``compare``.  Each side runs ``python3 -m fedosov_lab.cli
COMMAND --scenario <checkout>/scenarios/<name>.json --order N --out
<report>`` in a fresh process that imports the package from
``<checkout>/src``.  For every
scenario and pair the two sides run back to back, one at a time, and the
side that goes first alternates (the parent first in even pairs), so slow
spells of a shared machine fall on both.  Each run records its wall time,
its CPU time and max RSS (both from ``os.wait4``) and the sha256 of its
report.

Per scenario it reports the median wall time, CPU time and max RSS of each
side and two verdicts, one from wall time and one from CPU time.  Each
rests on the pairs whose change ran faster than its parent and on the
spread of the parent's times (upper minus lower quartile).  A verdict is
``faster`` when the change's median is lower than the parent's by more than
that spread and the change won at least nine tenths of the pairs, ``slower``
when it is higher by more than the spread and lost at least nine tenths,
and ``unresolved`` otherwise (always so with one pair).  On a shared
machine the CPU time of a run swings less than its wall time, so the CPU
verdict can resolve smaller changes.

With ``--in-process`` it also copies both checkouts' packages into a
temporary directory under distinct names, imports both into this one
interpreter, and, after every separate process has run, runs the same
number of pairs there, alternating the two sides' ``cli.run(COMMAND,
...)`` calls as above.  Each in-process run records its CPU time
(``time.process_time``) and the sha256 of its report; per scenario the
tool reports the median of the pairs' CPU ratios (change over parent) and
the pairs the change won, next to the verdicts.  Process start-up and
imports stay out of these times.

The default scenarios are the four bundled ``curved_r4_*`` ones;
``compare`` needs a perturbed one, so it exits 2 on ``curved_r4_plain``.
The exit status is 1 when a run fails or when the two sides' reports
differ in any pair, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

SCENARIOS = ("curved_r4_k1_poly", "curved_r4_k1_const", "curved_r4_k2_const",
             "curved_r4_plain")
SIDES = ("parent", "change")
COMMANDS = ("verify", "star", "compare")


def run_command(checkout, scenario, order, out, command="verify"):
    """One ``COMMAND --out`` in a fresh process: (exit code, wall s, CPU s
    (user + system), max RSS MB, report sha256 or None)."""
    checkout = os.path.abspath(checkout)
    cmd = [sys.executable, "-m", "fedosov_lab.cli", command,
           "--scenario", os.path.join(checkout, "scenarios", scenario + ".json"),
           "--order", str(order), "--out", out]
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
    _pid, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    sha = None
    if code == 0:
        with open(out, "rb") as fh:
            sha = hashlib.sha256(fh.read()).hexdigest()
        os.remove(out)
    return code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, sha


def load_packages(paths, tmp):
    """Each side's package, copied from its checkout into ``tmp`` and
    imported under the name ``fedosov_lab_<side>``, as {side: (cli, io)}."""
    out = {}
    sys.path.insert(0, tmp)
    try:
        for side in SIDES:
            name = "fedosov_lab_" + side
            shutil.copytree(os.path.join(os.path.abspath(paths[side]), "src", "fedosov_lab"),
                            os.path.join(tmp, name),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out[side] = tuple(importlib.import_module("%s.%s" % (name, mod))
                              for mod in ("cli", "io"))
    finally:
        sys.path.remove(tmp)
    return out


def run_in_process(package, checkout, scenario, order, command="verify"):
    """One in-process ``COMMAND``: (CPU s, report sha256)."""
    cli, io = package
    spec = io.load_scenario(os.path.join(os.path.abspath(checkout), "scenarios",
                                         scenario + ".json"))
    gc.collect()
    t0 = time.process_time()
    report = cli.run(command, spec, order=order)
    cpu = time.process_time() - t0
    return cpu, hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()


def in_process_pairs(packages, paths, name, order, pairs, log=print, command="verify"):
    """The alternating in-process runs of one scenario, the median paired
    CPU ratio (change over parent), the pairs won, and whether every pair's
    reports agreed."""
    rows = {side: {"cpu_s": [], "sha256": []} for side in SIDES}
    ok = True
    for i in range(pairs):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            cpu, sha = run_in_process(packages[side], paths[side], name, order, command)
            rows[side]["cpu_s"].append(round(cpu, 6))
            rows[side]["sha256"].append(sha)
            log("%-20s pair %d %-6s in process  %8.2f s CPU  %s" % (name, i, side, cpu, sha[:8]))
        ok = ok and rows["parent"]["sha256"][-1] == rows["change"]["sha256"][-1]
    parent, change = rows["parent"]["cpu_s"], rows["change"]["cpu_s"]
    for side in SIDES:
        rows[side]["median_cpu_s"] = round(statistics.median(rows[side]["cpu_s"]), 6)
    rows["cpu_ratio"] = round(statistics.median(c / p for p, c in zip(parent, change)), 4)
    rows["pairs_won"] = sum(c < p for p, c in zip(parent, change))
    return rows, ok


def compare(rows, metric="wall"):
    """Pairs won by the change, the parent's quartile spread and the
    verdict on ``metric`` ("wall" or "cpu" time), from one scenario's runs;
    the CPU keys are prefixed ``cpu_``."""
    key = metric + "_s"
    parent, change = rows["parent"][key], rows["change"][key]
    won = sum(c < p for p, c in zip(parent, change))
    lost = sum(c > p for p, c in zip(parent, change))
    spread = 0.0
    if len(parent) > 1:
        q1, _, q3 = statistics.quantiles(parent, n=4)
        spread = q3 - q1
    diff = rows["change"]["median_" + key] - rows["parent"]["median_" + key]
    verdict = "unresolved"
    if len(parent) > 1 and abs(diff) > spread:
        if diff < 0 and won >= 0.9 * len(parent):
            verdict = "faster"
        elif diff > 0 and lost >= 0.9 * len(parent):
            verdict = "slower"
    prefix = "" if metric == "wall" else metric + "_"
    return {prefix + "pairs_won": won, "parent_%s_iqr_s" % metric: round(spread, 3),
            prefix + "verdict": verdict}


def run_pairs(paths, scenarios, order, pairs, log=print, in_process=False,
              command="verify"):
    """Every run, per scenario and side, and whether every pair agreed;
    with ``in_process`` each scenario also holds its in-process pairs.
    Those run after every separate process: a child's max RSS counts the
    memory of this process when it starts the child."""
    results = {}
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        for name in scenarios:
            rows = results[name] = {side: {"wall_s": [], "cpu_s": [], "max_rss_mb": [],
                                           "sha256": [], "exit": []} for side in SIDES}
            for i in range(pairs):
                order_in_pair = SIDES if i % 2 == 0 else SIDES[::-1]
                shas = {}
                for side in order_in_pair:
                    code, wall, cpu, rss, sha = run_command(paths[side], name, order, out,
                                                            command)
                    row = rows[side]
                    row["exit"].append(code)
                    row["wall_s"].append(round(wall, 3))
                    row["cpu_s"].append(round(cpu, 3))
                    row["max_rss_mb"].append(round(rss, 2))
                    row["sha256"].append(sha)
                    shas[side] = sha
                    log("%-20s pair %d %-6s exit %d  %8.2f s  %8.2f s CPU  %7.2f MB  %s"
                        % (name, i, side, code, wall, cpu, rss, (sha or "-")[:8]))
                if shas["parent"] is None or shas["parent"] != shas["change"]:
                    ok = False
            for side in SIDES:
                rows[side]["median_wall_s"] = round(statistics.median(rows[side]["wall_s"]), 3)
                rows[side]["median_cpu_s"] = round(statistics.median(rows[side]["cpu_s"]), 3)
                rows[side]["median_max_rss_mb"] = round(
                    statistics.median(rows[side]["max_rss_mb"]), 2)
            rows.update(compare(rows))
            rows.update(compare(rows, "cpu"))
        if in_process:
            packages = load_packages(paths, tmp)
            for name in scenarios:
                results[name]["in_process"], agreed = in_process_pairs(
                    packages, paths, name, order, pairs, log, command)
                ok = ok and agreed
    return results, ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=1, help="pairs per scenario")
    parser.add_argument("--command", choices=COMMANDS, default="verify",
                        help="the command both sides run (default: verify)")
    parser.add_argument("--order", type=int, default=3, help="the command's --order")
    parser.add_argument("--scenario", action="append",
                        help="a bundled scenario name (repeatable); default: the "
                        "four curved_r4_* scenarios")
    parser.add_argument("--in-process", action="store_true",
                        help="also pair both packages' runs inside this process")
    parser.add_argument("--json", help="write every run, the medians and the "
                        "per-scenario comparison to this file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    results, ok = run_pairs({"parent": args.parent, "change": args.change},
                            args.scenario or SCENARIOS, args.order, args.pairs,
                            in_process=args.in_process, command=args.command)
    for name, rows in results.items():
        line = ("%-20s median wall %8.2f -> %8.2f s (won %d/%d, parent IQR %.2f s, %s)"
                "   CPU %8.2f -> %8.2f s (won %d/%d, parent IQR %.2f s, %s)"
                "   max RSS %7.2f -> %7.2f MB"
                % (name, rows["parent"]["median_wall_s"], rows["change"]["median_wall_s"],
                   rows["pairs_won"], args.pairs, rows["parent_wall_iqr_s"], rows["verdict"],
                   rows["parent"]["median_cpu_s"], rows["change"]["median_cpu_s"],
                   rows["cpu_pairs_won"], args.pairs, rows["parent_cpu_iqr_s"],
                   rows["cpu_verdict"],
                   rows["parent"]["median_max_rss_mb"], rows["change"]["median_max_rss_mb"]))
        if args.in_process:
            inner = rows["in_process"]
            line += ("   in-process CPU %8.2f -> %8.2f s (ratio %.3f, won %d/%d)"
                     % (inner["parent"]["median_cpu_s"], inner["change"]["median_cpu_s"],
                        inner["cpu_ratio"], inner["pairs_won"], args.pairs))
        print(line)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"command": args.command, "order": args.order, "pairs": args.pairs,
                       "in_process": args.in_process,
                       "first_in_pair": [SIDES[i % 2] for i in range(args.pairs)],
                       "reports_match": ok, "scenarios": results}, fh, indent=1)
            fh.write("\n")
    if not ok:
        print("error: a run failed or the parent and change reports differ",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
