"""Runs one workload in this process and prints its result as one JSON line.

``run.py`` starts this file in a fresh subprocess, from the root of a
checkout, so that every workload gets its own interpreter:

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Untraced (``--trace 0``) it times the set-up ``setup_repeats`` times, runs
operations in a closed loop with one caller for ``--seconds``, then checks
every output; every time it reports is scaled to a fixed machine speed
(``speed.py``).  Traced (``--trace 1``) it runs a fixed amount of work -- the
set-up and the workload's first ``trace_ops`` operations -- once plainly and
once under the tracer, so every count repeats exactly for a given seed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from speed import SpeedProbe  # noqa: E402
from tracer import PACKAGE, TraceError, Tracer, layer_metrics, unit_of  # noqa: E402
from workloads import EXPECTED_CALLS, WORKLOADS  # noqa: E402


def import_package():
    """A fresh import of the package from the checkout's ``src``."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    fl = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    return fl


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed(probe, fn, *args):
    """Run ``fn``; return its result, wall interval and time net of sampling."""
    spent = probe.spent
    t0 = perf_counter()
    out = fn(*args)
    t1 = perf_counter()
    return out, (t0, t1, t1 - t0 - (probe.spent - spent))


def timed_loop(wl, probe, state, xs, seconds):
    """Closed loop, one caller: run operations until ``seconds`` have passed
    (always at least one).  A raising operation is recorded as None.

    Also returns the peak resident set size once ``wl.rss_ops`` operations
    are done, so that it measures the same work however fast they ran."""
    spans, outs = [], []
    rss = None
    deadline = perf_counter() + seconds
    for x in xs:
        if outs and perf_counter() >= deadline:
            break
        out, span = timed(probe, _op_or_none, wl, state, x)
        spans.append(span)
        outs.append(out)
        if len(outs) == wl.rss_ops:
            rss = peak_rss_mb()
    return spans, outs, peak_rss_mb() if rss is None else rss


def run_timed(wl, seconds):
    """End-to-end metrics, every time scaled to reference speed (speed.py)."""
    with SpeedProbe() as probe:
        setups = []
        for _ in range(wl.setup_repeats):
            gc.collect()
            (fl, state), span = timed(probe, _setup, wl)
            setups.append(span)
        xs = wl.inputs(fl)
        gc.collect()
        spans, outs, rss = timed_loop(wl, probe, state, xs, seconds)
        ok = wl.check(fl, state, xs[:len(outs)], outs)
    lat = sorted(net * probe.scale(t0, t1) for t0, t1, net in spans)
    n = len(lat)
    metrics = {
        "ops_per_s": (n / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "setup_s": (statistics.median(net * probe.scale(t0, t1)
                                      for t0, t1, net in setups), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    wall = spans[-1][1] - spans[0][0]
    # p90 is printed but not gated: with three verify runs it is their maximum.
    info = {"ops": n, "op_p90_ms": percentile(lat, 90) * 1e3,
            "beyond_p90": n - math.ceil(0.9 * n),
            "measured_ops_per_s": n / wall,
            "speed": probe.scale(spans[0][0], spans[-1][1])}
    return metrics, n, ok.count(False), info


def _op_or_none(wl, state, x):
    try:
        return wl.op(state, x)
    except Exception:
        traceback.print_exc()
        return None


def _setup(wl):
    fl = import_package()
    return fl, wl.setup(fl)


def run_traced(wl):
    def one_pass(tracer):
        gc.collect()
        fl = import_package()
        xs = wl.inputs(fl)[:wl.trace_ops]
        if tracer is not None:
            tracer.install()
        try:
            t0 = perf_counter()
            state = wl.setup(fl)
            outs = [wl.op(state, x) for x in xs]
            wall = perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.remove()
        return fl, state, xs, outs, wall

    plain = one_pass(None)[-1]
    tracer = Tracer()
    fl, state, xs, outs, traced = one_pass(tracer)
    calls = tracer.calls_by_label()
    silent = [label for label in EXPECTED_CALLS[wl.name] if not calls[label]]
    if silent:
        raise TraceError("wrapped functions recorded no calls on %s: %s"
                         % (wl.name, ", ".join(silent)))
    ok = wl.check(fl, state, xs, outs)
    values = layer_metrics(tracer, traced - plain)
    metrics = {name: (v, unit_of(name)) for name, v in values.items()}
    info = {"ops": len(outs), "spans": len(tracer.start), "plain_s": plain,
            "traced_s": traced}
    return metrics, len(outs), ok.count(False), info


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import_package()  # compile bytecode, if needed, before anything is timed
    wl = WORKLOADS[args.workload](args.seed, args.smoke, root)
    if args.trace:
        metrics, attempted, failed, info = run_traced(wl)
    else:
        metrics, attempted, failed, info = run_timed(wl, args.seconds)
    print(json.dumps({
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
