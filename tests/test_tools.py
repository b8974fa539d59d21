"""The paired order-3 runner in ``tools/``."""

import json
import os
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
RUNNER = os.path.join(ROOT, "tools", "order3_pairs.py")


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
