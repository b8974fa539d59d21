"""Every name a module imports is used in that module.

A stdlib-only scan of the source: for each module of ``fedosov_lab`` other
than ``__init__.py`` (which imports to re-export), and for each Python file
in ``tests/`` and ``demos/``, collect the names bound by ``import`` and
``from ... import`` statements and the names the file reads.
``from __future__`` imports are compiler switches, not bindings, and a name
listed in the module's ``__all__`` counts as used.

The same scan keeps ``Polynomial``'s stored format (its ``_num``/``_den``
numerators and its ``_reduced`` constructor) inside ``algebra``: no other
package module reads it, so sums of polynomials go through ``algebra._Sum``.
It also keeps the walk over the chart's contraction rows in one function of
``weyl``, and the building of rank-3 tensors in one function of ``tensors``.
"""

import ast
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "fedosov_lab")
MODULES = sorted(name for name in os.listdir(PACKAGE)
                 if name.endswith(".py") and name != "__init__.py")
SCRIPTS = sorted("%s/%s" % (folder, name) for folder in ("tests", "demos")
                 for name in os.listdir(os.path.join(ROOT, folder))
                 if name.endswith(".py"))


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_import():
    source = "from fractions import Fraction\nimport os, sys as _sys\nos.sep\n"
    assert unused_imports(source) == [(1, "Fraction"), (2, "_sys")]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_uses_every_import(script):
    with open(os.path.join(ROOT, script), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


FORMAT = {"_num", "_den", "_reduced"}


def format_accesses(source):
    """(line, attribute) of each access to Polynomial's stored format."""
    return sorted((node.lineno, node.attr) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in FORMAT)


def test_scan_finds_a_format_access():
    source = "p = a * b\nn, d = p._num, p._den\nPolynomial._reduced(2, n, d, d)\n"
    assert format_accesses(source) == [(2, "_den"), (2, "_num"), (3, "_reduced")]
    assert format_accesses("self._numerators = {}\n") == []


@pytest.mark.parametrize("module", [m for m in MODULES if m != "algebra.py"])
def test_only_algebra_reads_the_polynomial_format(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        assert format_accesses(fh.read()) == []


def functions_reading(source, attr):
    """Names of the functions whose bodies read the attribute ``attr``."""
    return sorted(fn.name for fn in ast.walk(ast.parse(source))
                  if isinstance(fn, ast.FunctionDef)
                  and any(isinstance(node, ast.Attribute) and node.attr == attr
                          for node in ast.walk(fn)))


def test_one_weyl_function_walks_the_contraction_rows():
    with open(os.path.join(PACKAGE, "weyl.py"), encoding="utf-8") as fh:
        assert functions_reading(fh.read(), "contraction_numerators") == ["_contracted"]


def functions_calling(source, name, outside):
    """Names of the functions, outside the class ``outside``, whose bodies
    call ``name``."""
    tops = [node for node in ast.parse(source).body
            if not (isinstance(node, ast.ClassDef) and node.name == outside)]
    return sorted(fn.name for top in tops for fn in ast.walk(top)
                  if isinstance(fn, ast.FunctionDef)
                  and any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                          and node.func.id == name for node in ast.walk(fn)))


def test_one_tensors_function_builds_rank3_tensors():
    with open(os.path.join(PACKAGE, "tensors.py"), encoding="utf-8") as fh:
        assert functions_calling(fh.read(), "Tensor3", "Tensor3") == ["_triples"]
