"""Scenario files, the polynomial expression grammar, and check reports.

Scenario files are JSON with every number carried as an exact string —
rationals like ``"-3/2"`` and polynomials like ``"3/2*x1^2*x2-i"`` — so a
scenario never passes through floating point.  The polynomial grammar
matches the canonical printing of Polynomial:

    expr    := ['+'|'-'] term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := rational | 'i' | var
    rational:= digits ['/' digits]
    var     := 'x' index ['^' exponent]     (index is 1-based)

These productions are the parser: they are compiled once into regular
expressions, and ``parse_poly`` matches the whole text against ``expr``,
then walks its terms and their factors.  Spaces and tabs are removed first;
any other character outside the grammar, a newline included, is a
``ParseError``.  ``parse_rational`` reads ``['+'|'-'] rational`` with the
same production, ignoring whitespace around it and spaces within it.
Parsing the printed form of any polynomial returns an equal polynomial.

A check is one record, ``Check(anchor, residual, passed)``; the identity
suites of ``analysis`` and the commands of ``cli`` all return it.  A
``Report`` holds the checks one command ran in one scenario, and it is the
only code that knows their JSON form, in which each check carries the
report's scenario id.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .algebra import MAX_PACKED_EXPONENT, GaussianRational, I, Polynomial
from .tensors import Tensor2, TensorSeries
from .geometry import Geometry
from .fedosov import WeylCurvatureSpec

__all__ = [
    "ParseError",
    "ScenarioError",
    "MAX_DIM", "MAX_ORDER", "MAX_K", "MAX_EXPONENT", "MAX_COEFF_LIMIT",
    "parse_rational",
    "parse_poly",
    "Scenario",
    "load_scenario",
    "Check",
    "Report",
]


class ParseError(ValueError):
    pass


class ScenarioError(ValueError):
    pass


# Size limits, checked when a scenario loads, before any chart is built: the
# exact recursions grow fast in each (curved 4D verify took 7-15 s at order
# 3 on 2 shared vCPUs, CPython 3.11), so a value past one is a ScenarioError,
# not a run without end.  MAX_ORDER also bounds ``--order``;
# a perturbation power k above it never reaches a computed coefficient;
# MAX_EXPONENT bounds each variable's exponent in a scenario polynomial;
# parse_poly itself rejects one past algebra.MAX_PACKED_EXPONENT (32767), the
# largest exponent a Polynomial stores.
# MAX_COEFF_LIMIT bounds ``coeff_limit`` and ``coeffs --order``: the exact
# scalar tables grow about as N^2.3, 0.1 s at 64.  Bundled scenarios fit.
MAX_DIM = 6
MAX_ORDER = 8
MAX_K = MAX_ORDER
MAX_EXPONENT = 8
MAX_COEFF_LIMIT = 64
DEFAULT_COEFF_LIMIT = 8

# ``_EXPR`` is expr, ``_PRODUCT`` term, ``_FACTOR`` factor and ``_NUMBER``
# rational; ``_TERM`` finds one signed term of an expr that matched.
_NUMBER = r"(\d+)(?:/(\d+))?"
_FACTOR = re.compile(_NUMBER + r"|(i)|x(\d+)(?:\^(\d+))?")
_PRODUCT = r"(?:{0})(?:\*(?:{0}))*".format(_FACTOR.pattern)
_TERM = re.compile(r"([+-]?)(%s)" % _PRODUCT)
_EXPR = re.compile(r"[+-]?{0}(?:[+-]{0})*".format(_PRODUCT))
_RATIONAL = re.compile(r"([+-]?)" + _NUMBER)


def _fraction(num, den, text):
    """The Fraction of a matched ``_NUMBER``; a zero denominator raises."""
    den = int(den or 1)
    if not den:
        raise ParseError("zero denominator in %r" % text)
    return Fraction(int(num), den)


def parse_rational(text):
    """Parse ``a`` or ``a/b`` (optional leading sign) into a Fraction;
    whitespace around it and spaces within it are ignored."""
    m = _RATIONAL.fullmatch(text.strip().replace(" ", ""))
    if not m:
        raise ParseError("malformed rational %r" % text)
    q = _fraction(m[2], m[3], text)
    return -q if m[1] == "-" else q


def parse_poly(text, dim):
    """Parse the polynomial grammar above into a Polynomial over ``dim`` vars."""
    s = text.replace(" ", "").replace("\t", "")
    if not _EXPR.fullmatch(s):
        raise ParseError("malformed polynomial %r" % text)
    out = Polynomial.zero(dim)
    for term in _TERM.finditer(s):
        coeff = GaussianRational(-1 if term[1] == "-" else 1)
        exps = [0] * dim
        for factor in _FACTOR.finditer(term[2]):
            num, den, imag, var, power = factor.groups()
            if imag:
                coeff = coeff * I
            elif var:
                j = int(var)
                if not 1 <= j <= dim:
                    raise ParseError("variable x%d outside 1..%d in %r" % (j, dim, text))
                exps[j - 1] += int(power or 1)
            else:
                coeff = coeff * GaussianRational(_fraction(num, den, factor[0]))
        if max(exps, default=0) > MAX_PACKED_EXPONENT:
            raise ParseError("exponent past %d in %r" % (MAX_PACKED_EXPONENT, text))
        out = out + Polynomial(dim, {tuple(exps): coeff})
    return out


# -- scenarios -------------------------------------------------------------------


class Scenario:
    """A chart, an optional perturbation, an order, and observables.

    The spec is built here, so a perturbation that is not skew and closed
    fails when the scenario is made, not at its first use.
    """

    def __init__(self, scenario_id, geometry, perturbation=None, order=4,
                 observables=None, coeff_limit=DEFAULT_COEFF_LIMIT):
        self.scenario_id = scenario_id
        self.geometry = geometry
        self.perturbation = perturbation
        self.order = order
        self.observables = observables or {}
        self.coeff_limit = coeff_limit
        self._spec = WeylCurvatureSpec(geometry, perturbation)

    def build_spec(self):
        return self._spec


def _poly(text, dim, what):
    """Parse a scenario polynomial, bounding its exponents by MAX_EXPONENT."""
    p = parse_poly(str(text), dim)
    _integer(max((max(e) for e in p.terms), default=0), what + " exponent", MAX_EXPONENT)
    return p


def _parse_matrix(rows, dim, what):
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise ScenarioError("%s must be a %dx%d matrix" % (what, dim, dim))
    return [[_poly(v, dim, what) for v in row] for row in rows]


def load_scenario(source):
    """Load a Scenario from a JSON file path, file object, or dict."""
    try:
        if isinstance(source, dict):
            data = source
        elif hasattr(source, "read"):
            data = json.load(source)
        else:
            with open(source, "r", encoding="utf-8") as fh:
                data = json.load(fh)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, a non-UTF-8 byte, an integer past the digit
        # limit of int(), or arrays nested past the recursion limit
        raise ScenarioError("scenario is not valid JSON: %s" % exc) from exc
    try:
        return _scenario_from_dict(data)
    except (ParseError, ScenarioError):
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError("malformed scenario: %s" % exc) from exc


def _integer(value, what, limit=None):
    """A JSON integer as is; a bool, a float or a string is a ScenarioError,
    and so is a value above ``limit``."""
    if type(value) is not int:
        raise ScenarioError("%s must be an integer, got %s" % (what, json.dumps(value)))
    if limit is not None and value > limit:
        raise ScenarioError("%s must be at most %d, got %d" % (what, limit, value))
    return value


def _size(value, what, top):
    """An integer in 1..top, else a ScenarioError: the bound of every run
    size, from a scenario or from the command line."""
    _integer(value, what, top)
    if value < 1:
        raise ScenarioError("%s must be at least 1, got %d" % (what, value))
    return value


def _scenario_from_dict(data):
    gdata = data["geometry"]
    dim = _integer(gdata["dim"], "dim", MAX_DIM)
    omega = None
    if "omega" in gdata:
        omega = [[parse_rational(str(v)) for v in row] for row in gdata["omega"]]
    gamma = {}
    for entry in gdata.get("gamma", []):
        idx, value = entry
        if len(idx) != 3:
            raise ScenarioError("gamma entries need three indices")
        key = tuple(_integer(j, "gamma index") - 1 for j in idx)
        if not all(0 <= j < dim for j in key):
            raise ScenarioError("gamma index outside 1..%d" % dim)
        p = _poly(value, dim, "gamma")
        if gamma.setdefault(key, p) != p:
            raise ScenarioError("gamma entry %s is listed twice with different "
                                "values" % list(idx))
    geometry = Geometry(dim, omega=omega, gamma=gamma or None)
    order = _size(data.get("order", 4), "order", MAX_ORDER)
    coeff_limit = _size(data.get("coeff_limit", DEFAULT_COEFF_LIMIT), "coeff_limit",
                        MAX_COEFF_LIMIT)

    perturbation = None
    plist = data.get("perturbation", [])
    if plist:
        terms = []
        top = 0
        for entry in plist:
            k = _size(entry["k"], "perturbation power k", MAX_K)
            rows = _parse_matrix(entry["alpha"], dim, "alpha")
            terms.append((k, Tensor2(dim, "lower", rows)))
            top = max(top, k)
        perturbation = TensorSeries.from_terms(dim, "lower",
                                               max(order, top), terms)

    observables = {}
    named = data.get("observables", {})
    if not isinstance(named, dict):
        raise ScenarioError("observables must map names to polynomials, got %s"
                            % json.dumps(named))
    for name, text in named.items():
        observables[name] = _poly(text, dim, "observable %r" % name)

    return Scenario(
        scenario_id=str(data.get("id", "unnamed")),
        geometry=geometry,
        perturbation=perturbation,
        order=order,
        observables=observables,
        coeff_limit=coeff_limit,
    )


# -- reports ---------------------------------------------------------------------


class Check:
    """One named exact check: an anchor, a residual string, a pass flag."""

    __slots__ = ("anchor", "residual", "passed")

    def __init__(self, anchor, residual, passed):
        self.anchor = anchor
        self.residual = residual
        self.passed = bool(passed)


class Report:
    """An ordered list of checks run in one scenario, with a deterministic
    serialized form.  Each serialized check carries the report's scenario id."""

    def __init__(self, command, scenario_id, checks):
        self.command = command
        self.scenario_id = scenario_id
        self.checks = list(checks)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def summary(self):
        total = len(self.checks)
        good = sum(1 for c in self.checks if c.passed)
        return {"total": total, "passed": good, "failed": total - good}

    def as_dict(self):
        return {
            "command": self.command,
            "scenario_id": self.scenario_id,
            "checks": [{"anchor": c.anchor, "scenario_id": self.scenario_id,
                        "residual": c.residual, "pass": c.passed}
                       for c in self.checks],
            "summary": self.summary(),
        }

    def to_json(self):
        return json.dumps(self.as_dict(), sort_keys=True,
                          separators=(",", ":")) + "\n"

    def table(self):
        lines = []
        width = max([len(c.anchor) for c in self.checks] + [24])
        for c in self.checks:
            flag = "PASS" if c.passed else "FAIL"
            res = c.residual if len(c.residual) <= 48 else c.residual[:45] + "..."
            lines.append("%-*s  %-4s  %s" % (width, c.anchor, flag, res))
        s = self.summary()
        lines.append("%d checks, %d passed, %d failed"
                     % (s["total"], s["passed"], s["failed"]))
        return "\n".join(lines)
