"""Command-line front end.

    fedosov-lab <command> --scenario <file> [--order N] [--out report.json]

Commands:
    verify   run the identity suite for the scenario's chart and perturbation
    star     print the product coefficient table for the scenario observables
    compare  probe the perturbed product against its predicted bivector series
    coeffs   print the scalar coefficient table with its cross-checks
    poisson  print the deformed bivector series and its Schouten residual

Exit status: 0 when every check passes, 1 when a check fails (the failing
anchors are named), 2 for usage or scenario errors, among them a scenario
or an ``--order`` past the size limits of ``io`` and an unwritable ``--out``.
"""

from __future__ import annotations

import argparse
import os
import sys

from .algebra import GaussianRational, HbarSeries, Polynomial
from .tensors import Tensor2, formal_poisson, series_inverse, series_schouten
from .weyl import WeylForm, delta, delta_inv, index_form, sigma
from .geometry import validate_geometry
from .fedosov import StarEngine, coeff_sequences, curvature_residual, \
    abelian_residual, flat_section, solve_r
from .analysis import compare_onediff, curvature_onediff_identities
from .io import (DEFAULT_COEFF_LIMIT, MAX_COEFF_LIMIT, MAX_ORDER, Check, ParseError,
                 Report, ScenarioError, _size, load_scenario)

__all__ = ["main", "run"]


def _tensor_str(t):
    return str(t.to_strs())


def _default_observables(scenario):
    dim = scenario.geometry.dim
    f = scenario.observables.get("f")
    g = scenario.observables.get("g")
    if f is None:
        f = Polynomial.variable(dim, 0)
    if g is None:
        g = Polynomial.variable(dim, 1 % dim)
    return f, g


def _verify_checks(scenario, order):
    geom = scenario.geometry
    spec = scenario.build_spec()
    checks = []

    for anchor, ok in validate_geometry(geom):
        checks.append(Check(anchor, "0" if ok else "violated", ok))

    # structural operator checks on a deterministic probe form
    dim = geom.dim
    probe = index_form(dim, [(0, (0, 0), (0,), Polynomial.variable(dim, dim - 1)),
                             (1, (dim - 1,), (), Polynomial.one(dim))])
    dd = delta(delta(probe))
    checks.append(Check("weyl.delta-squared", str(dd), dd.is_zero()))
    kk = delta_inv(delta_inv(probe))
    checks.append(Check("weyl.delta-inv-squared", str(kk), kk.is_zero()))
    hod = probe - (WeylForm.from_series(sigma(probe), dim)
                   + delta(delta_inv(probe)) + delta_inv(delta(probe)))
    checks.append(Check("weyl.hodge-decomposition", str(hod), hod.is_zero()))

    # the residuals read degree engine.cap, one past what the engine stores:
    # they check the engine's own r and sections, extended by that degree
    engine = StarEngine(spec, order)
    cap = engine.cap + 1
    r = solve_r(spec, cap, below=engine.r())
    resid = curvature_residual(r, spec, cap)
    checks.append(Check("connection.flatness-residual", str(resid), resid.is_zero()))

    f, g = _default_observables(scenario)
    for name, obs in (("f", f), ("g", g)):
        a = flat_section(obs, spec, r, cap, below=engine.section(obs))
        da = abelian_residual(a, spec, r, cap)
        checks.append(Check("section.abelian-residual-%s" % name, str(da), da.is_zero()))
        del a, da  # g's extension runs without f's section and residual

    one = Polynomial.one(dim)
    unit = engine.star(one, f)
    left = unit.as_series() - engine.star(f, one).as_series()
    unit_ok = unit.coeff(0) == f and all(
        unit.coeff(n).is_zero() for n in range(1, order + 1)) and left.is_zero()
    checks.append(Check("star.unit-neutral",
                        "0" if unit_ok else str(unit.as_series()), unit_ok))

    sk_ok = True
    detail = "0"
    min_k = spec.min_k()
    grid = engine.coordinate_products()
    for i in range(dim):
        for j in range(dim):
            comm1 = grid[i][j].coeff(1) - grid[j][i].coeff(1)
            wbar = geom.omega_bar.entry(i, j).scale(GaussianRational(0, -1))
            if comm1 != wbar:
                sk_ok = False
                detail = "coordinates %d,%d: %s" % (i + 1, j + 1, comm1 - wbar)
    checks.append(Check("star.first-order-bracket", detail, sk_ok))

    checks.append(_recursions_check(scenario.coeff_limit)[0])

    if not geom.is_flat():
        checks.extend(curvature_onediff_identities(geom, f, g))

    if spec.is_perturbed:
        rep = compare_onediff(engine)
        bad = rep.failures()
        checks.append(Check(
            "onediff.guaranteed-orders",
            "0" if not bad else "orders %s" % [c.n for c in bad], rep.passed))
        if min_k is not None and min_k + 1 <= order:
            first = rep.orders[min_k + 1]
            checks.append(Check(
                "onediff.first-shift",
                str(first.residual.to_strs()) if not first.ok else "0", first.ok))
    return checks


def _star_checks(scenario, order):
    spec = scenario.build_spec()
    engine = StarEngine(spec, order)
    f, g = _default_observables(scenario)
    res = engine.star(f, g)
    checks = []
    for n in range(order + 1):
        checks.append(Check("star.coefficient.h%d" % n, str(res.coeff(n)), True))
    return checks


def _compare_checks(scenario, order):
    spec = scenario.build_spec()
    if not spec.is_perturbed:
        raise ScenarioError("compare needs a perturbation block")
    rep = compare_onediff(StarEngine(spec, order))
    checks = []
    for c in rep.orders:
        base = "onediff.order-%d" % c.n
        if c.guaranteed:
            checks.append(Check(base, str(c.residual.to_strs())
                                if not c.ok else "0", c.ok))
        else:
            checks.append(Check(base + ".informational",
                                str(c.residual.to_strs()), True))
        checks.append(Check(base + ".probe", _tensor_str(c.probe), True))
        checks.append(Check(base + ".predicted", _tensor_str(c.predicted), True))
    return checks


def _recursions_check(limit):
    """The ``coeffs.recursions-vs-taylor`` check and the table it built
    (None when the cross-check failed)."""
    try:
        table = coeff_sequences(limit)
    except ArithmeticError as exc:
        return Check("coeffs.recursions-vs-taylor", str(exc), False), None
    return Check("coeffs.recursions-vs-taylor", "0", True), table


def _coeffs_checks(limit):
    check, table = _recursions_check(limit)
    checks = [check]
    if table is None:
        return checks
    half_ok = all(v == table.c[0] for v in table.c.values()) and str(table.c[1]) == "1/2"
    checks.append(Check("coeffs.c-constant-half", "0" if half_ok else "drift", half_ok))
    for n in range(limit + 1):
        checks.append(Check("coeffs.row-%d" % n,
                            "sigma=%s kappa=%s c=%s" % (
                                table.sigma.get(n, 0), table.kappa[n], table.c[n]),
                            True))
    return checks


def _poisson_checks(scenario, order):
    spec = scenario.build_spec()
    if not spec.is_perturbed:
        raise ScenarioError("poisson needs a perturbation block")
    geom = scenario.geometry
    alpha = spec.alpha_series(order)
    obar = formal_poisson(alpha, geom, order)
    zero = Tensor2.zeros(geom.dim, "upper")
    checks = []
    for n in range(order + 1):
        checks.append(Check("poisson.series.h%d" % n, _tensor_str(obar.coeff(n, zero)), True))
    inv = series_inverse(alpha + HbarSeries(order, {0: geom.omega}), order)
    agree = obar == inv
    checks.append(Check("poisson.inverse-cross-check", "0" if agree else "mismatch", agree))
    sch_zero = series_schouten(obar, obar).is_zero()
    checks.append(Check("poisson.schouten-residual",
                        "0" if sch_zero else "nonzero", sch_zero))
    return checks


def run(command, scenario, order=None, coeff_limit=None):
    """Run one command against a loaded Scenario and return a Report.

    ``order`` and ``coeff_limit`` override the scenario's values for this
    call only, within the size limits of ``io``; the scenario is not changed.
    """
    if order is not None:
        _size(order, "order", MAX_ORDER)
    elif scenario is not None:
        order = scenario.order
    if coeff_limit is not None:
        _size(coeff_limit, "coeff_limit", MAX_COEFF_LIMIT)
    if scenario is None and command in ("verify", "star", "compare", "poisson"):
        raise ScenarioError("command %r requires a scenario" % command)
    if command == "verify":
        checks = _verify_checks(scenario, order)
    elif command == "star":
        checks = _star_checks(scenario, order)
    elif command == "compare":
        checks = _compare_checks(scenario, order)
    elif command == "coeffs":
        limit = coeff_limit
        if limit is None:
            limit = scenario.coeff_limit if scenario else DEFAULT_COEFF_LIMIT
        checks = _coeffs_checks(limit)
    elif command == "poisson":
        checks = _poisson_checks(scenario, order)
    else:
        raise ScenarioError("unknown command %r" % command)
    return Report(command, scenario.scenario_id if scenario else "none", checks)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fedosov-lab",
        description="Exact star-product construction and identity checking.")
    parser.add_argument("command",
                        choices=["verify", "star", "compare", "coeffs", "poisson"])
    parser.add_argument("--scenario", help="scenario JSON file")
    parser.add_argument("--order", type=int, default=None,
                        help="expansion order, at most %d (coeffs: table limit, "
                        "at most %d)" % (MAX_ORDER, MAX_COEFF_LIMIT))
    parser.add_argument("--out", help="write the JSON report to this path")
    args = parser.parse_args(argv)

    try:
        if args.order is not None:
            # checked before the scenario loads, so a bad flag costs nothing
            _size(args.order, "--order",
                  MAX_COEFF_LIMIT if args.command == "coeffs" else MAX_ORDER)
        scenario = None
        if args.scenario is not None:
            scenario = load_scenario(args.scenario)
        elif args.command != "coeffs":
            parser.error("command %r requires --scenario" % args.command)
        if args.out and (os.path.isdir(args.out)
                         or not os.path.isdir(os.path.dirname(args.out) or ".")):
            raise OSError("--out %s is not a file in an existing directory" % args.out)
        report = run(args.command, scenario,
                     order=None if args.command == "coeffs" else args.order,
                     coeff_limit=args.order if args.command == "coeffs" else None)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(report.to_json())
    except (ParseError, ScenarioError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    print(report.table())
    if report.passed:
        return 0
    failing = [c.anchor for c in report.checks if not c.passed]
    print("failing: %s" % ", ".join(failing), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
