"""Byte-exact output of the bundled demos.

Each demo runs in its own interpreter, with the package taken from ``src``,
and the sha256 of its stdout is pinned.  The demos print exact coefficients
only (no timings), so a change that keeps every output unchanged leaves all
five digests equal; a change that means to alter one re-records it and says
why.  The five runs take about a second together.
"""

import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
DEMOS = os.path.join(ROOT, "demos")

DIGESTS = {
    "01_star_product_tour": "8c9673c48e6df11fce0fbc1c7ef2c58af390f2707cc226f36a25ea4beb217abc",
    "02_deformed_bivector": "8d4b427aafe3c7bf78c519aabb3ce96a9c6c28d30175f0aaa91c10f3ba6634e8",
    "03_curvature_identities": "a6d9d83649f6c7b9858d1944564000981ab889dfaf778d925628fa2724d4392c",
    "04_propagation_forms": "b6a0a1db93ffc47a442aae3ecd8d83dd3f11c21f83bbe0dcb62dedd8f652e0a8",
    "05_coefficient_tables": "545b4bb38e22ffc6eddef1aab4f9d043d60c7341f39a6e4c80d1591124f90949",
}


def test_every_demo_is_pinned():
    bundled = sorted(name[:-3] for name in os.listdir(DEMOS) if name.endswith(".py"))
    assert bundled == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output_is_unchanged(name):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, os.path.join(DEMOS, name + ".py")],
                          env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode("utf-8", "replace")
    assert hashlib.sha256(done.stdout).hexdigest() == DIGESTS[name]
