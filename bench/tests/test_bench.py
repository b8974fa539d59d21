"""Tests of the benchmark itself, on tiny (``--smoke``) sizes of each workload.

Run from the repository root:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

NAMES = [w["name"] for w in SPEC["workloads"]]
USER_METRICS = {
    "verify-curved4": [("verify_s", "s")],
    "star-fresh-curved2": [("products_per_s", "1/s"), ("product_p50_ms", "ms"),
                           ("product_p90_ms", "ms")],
    "star-pool-flat4": [("products_per_s", "1/s"), ("product_p50_ms", "ms"),
                        ("product_p90_ms", "ms")],
}
COMMON = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("fail_ratio", "ratio")]


def run_bench(workload, trace, seed=workloads.DEFAULT_SEED, cwd=ROOT):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def table(stdout):
    rows = {}
    for line in stdout.splitlines()[1:-1]:
        name, _value, unit = line.split()
        rows[name] = unit
    return rows


def test_workloads_match_benchmark_json():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracer.LAYER_METRICS)
    for m in SPEC["per_layer"]:
        assert m["unit"] == tracer.unit_of(m["name"])


@pytest.mark.parametrize("workload", NAMES)
def test_smoke_prints_every_metric_with_its_unit(workload):
    proc = run_bench(workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    rows = table(proc.stdout)
    for name, unit in USER_METRICS[workload] + COMMON:
        assert rows[name] == unit


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat_exactly(workload):
    runs = []
    for _ in range(2):
        proc = run_bench(workload, trace=1)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC["per_layer"]}
        runs.append({k: v["value"] for k, v in result["metrics"].items()})
    counters = [k for k in runs[0]
                if k.endswith((".calls", "_terms", ".terms_out", "_bits", "_bytes"))]
    assert counters
    assert {k: runs[0][k] for k in counters} == {k: runs[1][k] for k in counters}
    assert runs[0]["algebra.scalar_mul.calls"] > 0


def _corrupt_op(wl, index, corrupt):
    """Make the operation at position ``index`` return a corrupted output."""
    op = wl.op
    calls = []

    def bad_op(state, x):
        out = op(state, x)
        calls.append(x)
        return corrupt(out) if len(calls) == index + 1 else out

    wl.op = bad_op


def _shift_coeff(n):
    def corrupt(res):
        coeffs = dict(res.coeffs)
        coeffs[n] = res.coeff(n) + 1
        return type(res)(res.f, res.g, res.order, coeffs)
    return corrupt


@pytest.mark.parametrize("workload,seed,n,failures", [
    ("star-fresh-curved2", workloads.DEFAULT_SEED, 2, 1),  # only the digest sees hbar^2
    ("star-fresh-curved2", 7, 0, 1),                       # C_0 = f g fails on any seed
    ("star-fresh-curved2", 7, 1, 1),                       # so does C_1 antisymmetry
    ("star-pool-flat4", workloads.DEFAULT_SEED, 3, 1),
    ("star-pool-flat4", 7, 0, 1),
    # the mirror product (g, f) of the same pass is checked against it too
    ("star-pool-flat4", 7, 1, 2),
])
def test_corrupted_product_counts_as_failure(workload, seed, n, failures):
    wl = workloads.WORKLOADS[workload](seed, True, ROOT)
    _metrics, attempted, failed, _info = worker.run_timed(wl, 60)
    assert attempted == wl.limit and failed == 0
    _corrupt_op(wl, 1, _shift_coeff(n))
    _metrics, attempted, failed, _info = worker.run_timed(wl, 60)
    assert attempted == wl.limit and failed == failures


def test_corrupted_report_counts_as_failure():
    wl = workloads.VerifyCurved4(workloads.DEFAULT_SEED, True, ROOT)
    _corrupt_op(wl, 0, lambda out: (out[0], out[1].replace(b'"pass":true', b'"pass":1')))
    _metrics, attempted, failed, _info = worker.run_timed(wl, 0.01)
    assert attempted == 1 and failed == 1


def test_tracer_patches_every_binding_and_restores_it():
    fl = worker.import_package()
    from fedosov_lab import analysis, cli, fedosov, geometry, weyl
    moyal = weyl.moyal
    odd = weyl.odd_bracket
    mul = fl.Polynomial.__mul__
    radd = fl.Polynomial.__radd__
    with tracer.Tracer() as tr:
        for mod in (fl, weyl, fedosov, analysis):
            assert mod.moyal is weyl.moyal is not moyal
        assert geometry.odd_bracket is odd  # not wrapped, so left alone
        assert cli.delta_inv is weyl.delta_inv
        assert fl.Polynomial.__radd__ is fl.Polynomial.__add__
        x = fl.Polynomial.variable(2, 0)
        (x + x) * x
    for mod in (fl, weyl, fedosov, analysis):
        assert mod.moyal is moyal
    assert fl.Polynomial.__mul__ is mul and fl.Polynomial.__radd__ is radd
    calls = tr.calls_by_label()
    assert calls["algebra.Polynomial.__add__"] == 1
    assert calls["algebra.Polynomial.__mul__"] == 1
    assert calls["weyl.moyal"] == 0


def test_self_time_excludes_child_spans():
    fl = worker.import_package()
    x = fl.Polynomial.variable(2, 0)
    with tracer.Tracer() as tr:
        x * fl.GaussianRational(3)  # __mul__ calls scale for a scalar
    spans = tr.spans()
    assert [s[0] for s in spans] == ["algebra.Polynomial.__mul__",
                                     "algebra.Polynomial.scale"]
    assert spans[1][1] == 0 and spans[0][1] == -1
    summary = tr.summary()
    outer = spans[0][3] - spans[0][2]
    inner = spans[1][3] - spans[1][2]
    # the tracer's own work on scale's output is kept out of __mul__'s time
    hidden = tr.hidden[0]
    assert 0 < hidden < outer - inner
    assert summary["algebra.poly_mul"]["self_s"] == pytest.approx(outer - inner - hidden)
    assert summary["algebra.poly_mul"]["s"] == pytest.approx(outer)


def test_unmeasured_layer_fails_loudly(monkeypatch):
    name = "star-pool-flat4"
    monkeypatch.setitem(workloads.EXPECTED_CALLS, name,
                        workloads.EXPECTED_CALLS[name] + ("analysis.compare_onediff",))
    wl = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, True, ROOT)
    with pytest.raises(tracer.TraceError, match="compare_onediff"):
        worker.run_traced(wl)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".out"))
    proc = run_bench(NAMES[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
