"""Every function, method and class of the package is referenced somewhere.

A stdlib-only scan, the companion of ``test_imports.py``.  It collects each
definition in ``src/fedosov_lab`` and each reference in the Python files of
``src/``, ``tests/``, ``demos/`` and ``bench/``.  A reference is an
attribute, an imported name or its alias, a string constant naming a dotted
path (the bench tracer wraps functions it names by string, such as
``"weyl.WeylForm.__sub__"``), or, for a function or class that is not a
method, a bare name.  A method is only ever reached through an attribute,
so a local variable that shares its name does not count.  Docstrings and
``__all__`` lists declare names rather than use them, so they do not count;
nor does a use inside the body of a definition of the same name.  Dunder
methods are exempt: Python calls them.
"""

import ast
import os
import re

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "fedosov_lab")
SEARCHED = ("src", "tests", "demos", "bench")
_PATH = re.compile(r"^[A-Za-z_]\w*(?:[.:][A-Za-z_]\w*)*$")


def _docstrings(tree):
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                out.add(id(body[0].value))
    return out


def _export_lists(tree):
    out = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            out.update(id(n) for n in ast.walk(node.value))
    return out


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(source):
    """(line, name, is_method) of every function, method and class, dunders
    excluded."""
    tree = ast.parse(source)
    methods = {id(child) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for child in node.body if isinstance(child, _DEFS)}
    return sorted((node.lineno, node.name, id(node) in methods)
                  for node in ast.walk(tree) if isinstance(node, _DEFS)
                  and not (node.name.startswith("__") and node.name.endswith("__")))


def references(source):
    """The names the source refers to, outside a definition of that name:
    (bare names, names reached through an attribute, alias or dotted path)."""
    tree = ast.parse(source)
    skip = _docstrings(tree) | _export_lists(tree)
    bare, qualified = set(), set()

    def visit(node, inside):
        if isinstance(node, _DEFS):
            inside = inside | {node.name}
        found, names = qualified, []
        if isinstance(node, ast.Name):
            found, names = bare, [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias):
            names = [node.name.rpartition(".")[2], node.asname]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip and _PATH.match(node.value)):
            names = re.split(r"[.:]", node.value)
        found.update(n for n in names if n and n not in inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return bare, qualified


def unreferenced(source, bare, qualified):
    """(line, name) of each definition in ``source`` that no reference
    reaches: a method only through a qualified reference."""
    return [(line, name) for line, name, is_method in definitions(source)
            if name not in qualified and (is_method or name not in bare)]


def _sources(top):
    for base, dirs, files in os.walk(top):
        dirs[:] = sorted(d for d in dirs if not d.startswith("."))
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), encoding="utf-8") as fh:
                    yield os.path.relpath(os.path.join(base, name), ROOT), fh.read()


def test_scan_finds_an_unreferenced_definition():
    source = '''
__all__ = ["dead"]


class Box:
    """Holds used and dead."""

    def __init__(self):
        self.used()

    def used(self):
        """dead"""

    def dead(self):
        return self.dead()

    def shadowed(self):
        pass

    def listed(self):
        pass


def traced():
    pass


def helper():
    pass


BOX = Box()
TRACED = ("mod.traced", "mod.Box.listed", "not a path: dead")
shadowed = helper()
'''
    bare, qualified = references(source)
    assert [name for _line, name in unreferenced(source, bare, qualified)] == \
        ["dead", "shadowed"]
    assert "traced" in qualified and "helper" in bare


def test_every_package_definition_is_referenced():
    bare, qualified = set(), set()
    for top in SEARCHED:
        for _path, source in _sources(os.path.join(ROOT, top)):
            b, q = references(source)
            bare |= b
            qualified |= q
    dead = []
    for path, source in _sources(PACKAGE):
        dead.extend("%s:%d %s" % (path, line, name)
                    for line, name in unreferenced(source, bare, qualified))
    assert dead == []
