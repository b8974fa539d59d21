"""Every name the benchmark reaches in the package resolves.

The benchmark under ``bench/`` names package functions in three places: the
tracer's ``SPANS`` and ``COUNTS`` (module or class, then attribute), the
workloads' ``EXPECTED_CALLS`` (labels of wrapped functions) and the
attribute chains the workloads call on the package module ``fl``.  A renamed
function would otherwise pass this suite and fail only in a benchmark run,
with a ``TraceError`` or an ``AttributeError`` in set-up.  The bench files
are read, never changed.
"""

import ast
import importlib
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")
sys.path.insert(0, BENCH)

import tracer  # noqa: E402
import workloads  # noqa: E402

WRAPPED = ([(owner, attr) for _group, owner, attrs, _obs in tracer.SPANS for attr in attrs]
           + [(owner, attr) for _group, owner, attrs in tracer.COUNTS for attr in attrs])


def _fl_chains():
    """Each attribute chain rooted at the package module in workloads.py:
    ``fl.X.Y`` and ``state["fl"].X.Y``, as tuples of attribute names."""
    with open(workloads.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    chains = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        names = []
        root = node
        while isinstance(root, ast.Attribute):
            names.append(root.attr)
            root = root.value
        is_fl = ((isinstance(root, ast.Name) and root.id == "fl")
                 or (isinstance(root, ast.Subscript)
                     and isinstance(root.slice, ast.Constant) and root.slice.value == "fl"))
        if is_fl:
            chains.add(tuple(reversed(names)))
    # keep only the longest chains: fl.X.Y covers fl.X
    return sorted(c for c in chains if not any(d != c and d[:len(c)] == c for d in chains))


@pytest.mark.parametrize("owner,attr", WRAPPED, ids=["%s.%s" % w for w in WRAPPED])
def test_traced_names_resolve(owner, attr):
    _holder, label, fn = tracer._resolve(owner, attr)
    assert callable(fn), label


def test_expected_calls_are_wrapped_labels():
    labels = {tracer._resolve(owner, attr)[1] for owner, attr in WRAPPED}
    for name, expected in workloads.EXPECTED_CALLS.items():
        assert set(expected) <= labels, (name, sorted(set(expected) - labels))


def test_workload_package_calls_resolve():
    fl = importlib.import_module(tracer.PACKAGE)
    importlib.import_module(tracer.PACKAGE + ".cli")
    chains = _fl_chains()
    assert ("TensorSeries", "from_terms") in chains and ("cli", "main") in chains
    for chain in chains:
        obj = fl
        for name in chain:
            assert hasattr(obj, name), "fl." + ".".join(chain)
            obj = getattr(obj, name)
