"""The paired order-3 runner in ``tools/``."""

import hashlib
import importlib.util
import json
import os
import statistics
import subprocess
import sys

from fedosov_lab import cli, io

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
RUNNER = os.path.join(ROOT, "tools", "order3_pairs.py")


def _load_runner():
    spec = importlib.util.spec_from_file_location("order3_pairs", RUNNER)
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    return runner


def _run(*args):
    return subprocess.run([sys.executable, RUNNER, *args], capture_output=True,
                          text=True, timeout=120)


def test_order3_runner_pairs_a_checkout_with_itself(tmp_path):
    out = tmp_path / "pairs.json"
    proc = _run(ROOT, ROOT, "--order", "1", "--scenario", "flat_r2_plain",
                "--pairs", "2", "--json", str(out))
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    assert data["reports_match"] and data["first_in_pair"] == ["parent", "change"]
    rows = data["scenarios"]["flat_r2_plain"]
    shas = rows["parent"]["sha256"] + rows["change"]["sha256"]
    assert len(shas) == 4 and len(set(shas)) == 1 and len(shas[0]) == 64
    for side in ("parent", "change"):
        assert rows[side]["exit"] == [0, 0]
        assert rows[side]["median_wall_s"] > 0 and rows[side]["median_max_rss_mb"] > 0
        cpu = rows[side]["cpu_s"]
        assert len(cpu) == 2 and all(t > 0 for t in cpu)
        assert rows[side]["median_cpu_s"] == round(statistics.median(cpu), 3)
    assert rows["pairs_won"] in (0, 1, 2) and rows["parent_wall_iqr_s"] >= 0
    assert rows["verdict"] in ("faster", "slower", "unresolved")
    assert "won %d/2" % rows["pairs_won"] in proc.stdout
    assert "CPU %8.2f -> %8.2f s" % (rows["parent"]["median_cpu_s"],
                                     rows["change"]["median_cpu_s"]) in proc.stdout
    assert proc.stdout.count(" s CPU ") == 4
    assert rows["cpu_pairs_won"] in (0, 1, 2) and rows["parent_cpu_iqr_s"] >= 0
    assert rows["cpu_verdict"] in ("faster", "slower", "unresolved")
    assert "won %d/2, parent IQR %.2f s, %s)   max RSS" % (
        rows["cpu_pairs_won"], rows["parent_cpu_iqr_s"], rows["cpu_verdict"]) in proc.stdout


def test_order3_runner_pairs_a_checkout_with_itself_in_process(tmp_path):
    out = tmp_path / "pairs.json"
    proc = _run(ROOT, ROOT, "--order", "1", "--scenario", "flat_r2_plain",
                "--scenario", "flat_r2_k1_const", "--pairs", "2", "--in-process",
                "--json", str(out))
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    assert data["reports_match"] and data["in_process"]
    rows = data["scenarios"]["flat_r2_plain"]
    inner = rows["in_process"]
    shas = inner["parent"]["sha256"] + inner["change"]["sha256"]
    assert len(shas) == 4 and set(shas) == set(rows["parent"]["sha256"])
    for side in ("parent", "change"):
        cpu = inner[side]["cpu_s"]
        assert len(cpu) == 2 and all(t > 0 for t in cpu)
        assert inner[side]["median_cpu_s"] == round(statistics.median(cpu), 6)
    ratios = [c / p for p, c in zip(inner["parent"]["cpu_s"], inner["change"]["cpu_s"])]
    assert inner["cpu_ratio"] == round(statistics.median(ratios), 4)
    assert inner["pairs_won"] == sum(r < 1 for r in ratios)
    # every in-process run comes after every separate process, whose max
    # RSS would otherwise count this process's grown memory
    lines = proc.stdout.splitlines()
    inner_lines = [i for i, line in enumerate(lines) if " in process " in line]
    assert len(inner_lines) == 8
    assert max(i for i, line in enumerate(lines) if " exit " in line) < min(inner_lines)
    assert "in-process CPU %8.2f -> %8.2f s (ratio %.3f, won %d/2)" % (
        inner["parent"]["median_cpu_s"], inner["change"]["median_cpu_s"],
        inner["cpu_ratio"], inner["pairs_won"]) in proc.stdout


def test_order3_runner_runs_the_command_it_is_given(tmp_path):
    """``--command star`` runs ``star`` on both sides, out of process and in
    process, and records it; without the flag the runs are ``verify``."""
    spec = io.load_scenario(os.path.join(ROOT, "scenarios", "flat_r2_k1_const.json"))
    want = {command: hashlib.sha256(cli.run(command, spec, order=2).to_json()
                                    .encode("utf-8")).hexdigest()
            for command in ("verify", "star")}
    assert want["star"] != want["verify"]
    out = tmp_path / "pairs.json"
    proc = _run(ROOT, ROOT, "--command", "star", "--order", "2", "--scenario",
                "flat_r2_k1_const", "--in-process", "--json", str(out))
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    assert data["command"] == "star" and data["reports_match"]
    rows = data["scenarios"]["flat_r2_k1_const"]
    for side in ("parent", "change"):
        assert rows[side]["sha256"] == [want["star"]]
        assert rows["in_process"][side]["sha256"] == [want["star"]]
    proc = _run(ROOT, ROOT, "--order", "2", "--scenario", "flat_r2_k1_const",
                "--json", str(out))
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    assert data["command"] == "verify"
    assert data["scenarios"]["flat_r2_k1_const"]["parent"]["sha256"] == [want["verify"]]


def test_order3_runner_verdict_needs_more_than_the_parent_spread():
    runner = _load_runner()

    def rows(parent, change):
        return {"parent": {"wall_s": parent, "median_wall_s": statistics.median(parent)},
                "change": {"wall_s": change, "median_wall_s": statistics.median(change)}}

    # parent quartiles 9 and 12 (exclusive method): a 3 s spread
    assert runner.compare(rows([9, 10, 12], [7, 8, 9])) == {
        "pairs_won": 3, "parent_wall_iqr_s": 3, "verdict": "unresolved"}
    # a gap past the spread counts only with nine tenths of the pairs
    assert runner.compare(rows([9, 10, 12], [5, 6, 13]))["verdict"] == "unresolved"
    assert runner.compare(rows([9, 10, 12], [5, 6, 11]))["verdict"] == "faster"
    assert runner.compare(rows([9, 10, 12], [14, 15, 11]))["verdict"] == "unresolved"
    assert runner.compare(rows([9, 10, 12], [14, 15, 16]))["verdict"] == "slower"
    assert runner.compare(rows([10], [1]))["verdict"] == "unresolved"


def test_order3_runner_cpu_verdict_follows_the_same_rule():
    runner = _load_runner()

    def rows(wall, cpu):
        return {side: {"wall_s": w, "median_wall_s": statistics.median(w),
                       "cpu_s": c, "median_cpu_s": statistics.median(c)}
                for side, w, c in zip(("parent", "change"), wall, cpu)}

    # wall times too noisy to tell, CPU times that resolve the change
    runs = rows(([9, 10, 14], [8, 11, 9]), ([8.0, 8.1, 8.2], [7.0, 7.1, 7.2]))
    assert runner.compare(runs)["verdict"] == "unresolved"
    assert runner.compare(runs, "cpu") == {
        "cpu_pairs_won": 3, "parent_cpu_iqr_s": 0.2, "cpu_verdict": "faster"}
    runs = rows(([9, 10, 14], [8, 11, 9]), ([7.0, 7.1, 7.2], [8.0, 8.1, 8.2]))
    assert runner.compare(runs, "cpu")["cpu_verdict"] == "slower"
    # a CPU gap inside the parent's spread stays unresolved
    runs = rows(([9, 10, 14], [8, 11, 9]), ([7.0, 8.0, 9.0], [6.5, 7.5, 8.5]))
    assert runner.compare(runs, "cpu")["cpu_verdict"] == "unresolved"


def test_order3_runner_fails_when_reports_differ(tmp_path):
    # a checkout whose verify writes other report bytes
    fake = tmp_path / "other"
    (fake / "src" / "fedosov_lab").mkdir(parents=True)
    (fake / "scenarios").mkdir()
    (fake / "scenarios" / "flat_r2_plain.json").write_text("{}")
    (fake / "src" / "fedosov_lab" / "__init__.py").write_text("")
    (fake / "src" / "fedosov_lab" / "cli.py").write_text(
        "import sys\nopen(sys.argv[sys.argv.index('--out') + 1], 'w').write('{}')\n")
    proc = _run(ROOT, str(fake), "--order", "1", "--scenario", "flat_r2_plain")
    assert proc.returncode == 1
    assert "differ" in proc.stderr
