"""Curvature pair tensor, propagation two-forms, and bivector probes."""

import os
from fractions import Fraction

import pytest

from fedosov_lab.algebra import GaussianRational, Polynomial
from fedosov_lab.analysis import (beta_form, bivector_probe, cal_r,
                                  compare_onediff, curvature_onediff_identities,
                                  gamma_form, OrderComparison, predicted_onediff)
from fedosov_lab.fedosov import StarEngine, WeylCurvatureSpec
from fedosov_lab.geometry import Geometry, GeometryError
from fedosov_lab.io import Check, load_scenario
from fedosov_lab.tensors import Tensor2, TensorSeries, diamond, diamond_power, mu

from conftest import rand_curved_geometry, rand_quadratic, rand_skew_constant, rand_skew_poly

F = Fraction
HALF_I = GaussianRational(0, F(1, 2))
SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


# -- curvature pair tensor ---------------------------------------------------------


def test_cal_r_flat_is_zero():
    calr = cal_r(Geometry(4))
    assert calr.is_zero()
    assert calr.lower == Tensor2.zeros(4, "lower")


def test_cal_r_hand_checked_plane_chart():
    # Gamma_{000} = x2 gives R_{0001} = -1, R_{0010} = 1 and cubic forms
    # A_0 = y1^2 y2, A_1 = -y1^3; every triple contraction pairs a
    # d^3/dy1^3 with a mixed derivative that vanishes, so the tensor is zero
    x2 = Polynomial.variable(2, 1)
    geom = Geometry(2, gamma={(0, 0, 0): x2})
    curv = geom.curvature()
    assert curv.entry(0, 0, 0, 1).constant_value() == GaussianRational(-1)
    assert curv.entry(0, 0, 1, 0).constant_value() == GaussianRational(1)
    assert not geom.is_flat()
    assert cal_r(geom).is_zero()


def test_cal_r_skew_and_seen_nonzero(rng):
    found = False
    for _ in range(4):
        geom = rand_curved_geometry(rng, 4)
        calr = cal_r(geom)
        assert calr.lower.is_skew()
        assert mu(calr.lower, geom) == calr.upper
        found = found or not calr.is_zero()
    assert found


# -- propagation two-forms ---------------------------------------------------------


def test_beta_forms(rng):
    geom = rand_curved_geometry(rng, 4)
    p_lower = cal_r(geom).lower
    assert beta_form(0, geom) == p_lower.scale(F(-1, 32))
    assert beta_form(1, geom).is_zero()
    assert beta_form(3, geom).is_zero()
    b2 = beta_form(2, geom)
    assert b2.is_skew()
    assert not b2.is_zero()
    assert beta_form(0, Geometry(4)).is_zero()
    with pytest.raises(ValueError):
        beta_form(-1, geom)


def test_gamma_forms_polynomial_alpha(rng):
    # alpha = d(x1^2 dx2) has entries alpha_{01} = 2 x1
    x1 = Polynomial.variable(2, 0)
    z = Polynomial.zero(2)
    alpha = Tensor2(2, "lower", [[z, x1.scale(2)], [x1.scale(-2), z]])
    geom = rand_curved_geometry(rng, 2)
    for k in (1, 2):
        g0 = gamma_form(0, alpha, k, geom)
        assert g0 == diamond_power(alpha, 2, geom).scale(GaussianRational(F(1, 4)))
        assert gamma_form(1, alpha, k, geom).is_zero()
        g2 = gamma_form(2, alpha, k, geom)
        assert g2.is_skew()
        assert not g2.is_zero()


def test_gamma_forms_constant_alpha(rng):
    alpha = rand_skew_constant(rng, 4)
    curved = rand_curved_geometry(rng, 4)
    flat = Geometry(4)
    for geom in (curved, flat):
        assert gamma_form(0, alpha, 1, geom) == diamond_power(
            alpha, 2, geom).scale(GaussianRational(F(1, 4)))
    # on a flat chart a constant perturbation transports to zero in one step
    assert gamma_form(2, alpha, 1, flat).is_zero()
    assert gamma_form(4, alpha, 1, flat).is_zero()
    # on a curved chart the connection keeps transporting it
    assert not gamma_form(2, alpha, 1, curved).is_zero()


def test_gamma_form_validation(rng):
    geom = Geometry(2)
    alpha = rand_skew_constant(rng, 2)
    notskew = Tensor2(2, "lower", [[0, 1], [1, 0]])
    x2 = Polynomial.variable(4, 1)
    z = Polynomial.zero(4)
    x3 = Polynomial.variable(4, 2)
    notclosed = Tensor2(4, "lower",
                        [[z, x3, z, z], [-x3, z, z, z],
                         [z, z, z, z], [z, z, z, z]])
    with pytest.raises(ValueError):
        gamma_form(-1, alpha, 1, geom)
    with pytest.raises(ValueError):
        gamma_form(0, alpha, 0, geom)
    with pytest.raises(ValueError):
        gamma_form(0, notskew, 1, geom)
    with pytest.raises(ValueError):
        gamma_form(0, notclosed, 1, Geometry(4))


# -- bivector probes against the diamond series -------------------------------------


@pytest.mark.parametrize("dim,k", [(2, 1), (2, 2), (4, 1)])
def test_flat_constant_probe_hits_diamond_powers(rng, dim, k):
    geom = Geometry(dim)
    alpha = rand_skew_constant(rng, dim)
    order = 6 if dim == 2 else 4
    spec = WeylCurvatureSpec(
        geom, TensorSeries.from_terms(dim, "lower", order, {k: alpha}.items()))
    base = WeylCurvatureSpec(geom)
    engines = (StarEngine(spec, order), StarEngine(base, order))
    abar = mu(alpha, geom)
    for n in range(order + 1):
        probe = bivector_probe(*engines, n)
        if n >= 1 and (n - 1) % k == 0 and n > k:
            p = (n - 1) // k
            want = diamond_power(abar, p, geom).scale(HALF_I)
        else:
            want = Tensor2.zeros(dim, "upper")
        assert probe == want, n


def test_probe_first_shift_curved_polynomial(rng):
    # the first perturbed order carries exactly (i/2) mu(alpha), even on a
    # curved chart with a non-constant closed perturbation
    from conftest import rand_closed_skew_poly
    geom = rand_curved_geometry(rng, 2)
    alpha = rand_closed_skew_poly(rng, 2, deg=2)
    if alpha.is_zero():
        alpha = Tensor2(2, "lower", [[0, 1], [-1, 0]])
    k = 1
    order = k + 1
    spec = WeylCurvatureSpec(
        geom, TensorSeries.from_terms(2, "lower", order, {k: alpha}.items()))
    base = WeylCurvatureSpec(geom)
    probe = bivector_probe(StarEngine(spec, order), StarEngine(base, order), k + 1)
    assert probe == mu(alpha, geom).scale(HALF_I)


def test_probe_validation(rng):
    g2 = Geometry(2)
    g4 = Geometry(4)
    a2 = rand_skew_constant(rng, 2)
    a4 = rand_skew_constant(rng, 4)
    s2 = WeylCurvatureSpec(g2, TensorSeries.from_terms(2, "lower", 3, {1: a2}.items()))
    s4 = WeylCurvatureSpec(g4, TensorSeries.from_terms(4, "lower", 3, {1: a4}.items()))
    with pytest.raises(GeometryError):
        bivector_probe(StarEngine(s2, 3), StarEngine(WeylCurvatureSpec(g4), 3), 2)
    with pytest.raises(GeometryError):
        bivector_probe(StarEngine(s2, 3), StarEngine(s4, 3), 2)
    with pytest.raises(ValueError):
        bivector_probe(StarEngine(s2, 3), StarEngine(WeylCurvatureSpec(g2), 3), 5)


# -- predicted series ---------------------------------------------------------------


def test_predicted_onediff_matches_hand_convolution(rng):
    geom = Geometry(2)
    a1 = rand_skew_constant(rng, 2)
    a2 = rand_skew_constant(rng, 2)
    order = 5
    series = TensorSeries.from_terms(2, "lower", order - 1, {1: a1, 2: a2}.items())
    pred = predicted_onediff(series, geom, order)
    ab1 = mu(a1, geom)
    ab2 = mu(a2, geom)
    # diamond powers of  hbar ab1 + hbar^2 ab2, collected by hand
    by_order = {1: ab1, 2: ab2}
    powers = {1: dict(by_order)}
    for p in range(2, order):
        prev = powers[p - 1]
        cur = {}
        for m1, t1 in by_order.items():
            for m2, t2 in prev.items():
                if m1 + m2 > order - 1:
                    continue
                d = diamond(t1, t2, geom)
                cur[m1 + m2] = cur.get(m1 + m2, Tensor2.zeros(2, "upper")) + d
        powers[p] = cur
    zero = Tensor2.zeros(2, "upper")
    for n in range(order + 1):
        want = zero
        for p, tbl in powers.items():
            want = want + tbl.get(n - 1, zero)
        want = want.scale(HALF_I)
        assert pred.coeff(n, zero) == want, n


def test_predicted_onediff_validation(rng):
    geom = Geometry(2)
    a = rand_skew_constant(rng, 2)
    upper = TensorSeries.from_terms(2, "upper", 3, {1: mu(a, geom)}.items())
    with pytest.raises(ValueError):
        predicted_onediff(upper, geom, 3)
    wrong_dim = TensorSeries.from_terms(4, "lower", 3,
                                        {1: rand_skew_constant(rng, 4)}.items())
    with pytest.raises(ValueError):
        predicted_onediff(wrong_dim, geom, 3)


# -- full comparisons ---------------------------------------------------------------


def test_compare_onediff_two_term_flat(rng):
    geom = Geometry(2)
    a1 = rand_skew_constant(rng, 2)
    a2 = rand_skew_constant(rng, 2)
    order = 5
    spec = WeylCurvatureSpec(
        geom, TensorSeries.from_terms(2, "lower", order, {1: a1, 2: a2}.items()))
    report = compare_onediff(StarEngine(spec, order))
    assert report.passed
    assert not report.failures()
    assert [c.guaranteed for c in report.orders] == [True] * (order + 1)
    assert all(c.ok for c in report.orders)
    ab1, ab2 = mu(a1, geom), mu(a2, geom)
    assert report.orders[2].probe == ab1.scale(HALF_I)
    assert report.orders[3].probe == (ab2 + diamond(ab1, ab1, geom)).scale(HALF_I)
    assert "passed=True" in repr(report)


def test_compare_onediff_curved_guaranteed_window(rng):
    geom = rand_curved_geometry(rng, 2)
    alpha = rand_skew_constant(rng, 2)
    order = 3
    spec = WeylCurvatureSpec(
        geom, TensorSeries.from_terms(2, "lower", order, {1: alpha}.items()))
    report = compare_onediff(StarEngine(spec, order))
    assert [c.guaranteed for c in report.orders] == [True, True, True, False]
    assert report.passed
    assert not report.failures()


def _bundled_engine(name, order):
    scenario = load_scenario(os.path.join(SCENARIOS, name + ".json"))
    return StarEngine(scenario.build_spec(), order)


def test_compare_onediff_builds_each_grid_once(monkeypatch):
    # one 4 x 4 coordinate grid on the engine and one on the unperturbed
    # base, however many orders are compared
    engine = _bundled_engine("curved_r4_k1_poly", 2)
    engine.coordinate_products()  # warm
    calls = []
    star = StarEngine.star

    def counted(self, f, g):
        calls.append(self)
        return star(self, f, g)

    monkeypatch.setattr(StarEngine, "star", counted)
    report = compare_onediff(engine)
    assert len(calls) == 32
    assert sum(e is engine for e in calls) == 16
    assert len(report.orders) == 3 and report.passed


@pytest.mark.parametrize("name", ["curved_r4_k1_const", "curved_r4_k1_poly"])
def test_commutator_probe_matches_one_order_past_the_guarantee(name):
    # On these curved charts the probe residual at order min_k + 2 is not
    # guaranteed and is not zero, but its skew part -- the residual of the
    # commutator C_n(x^i, x^j) - C_n(x^j, x^i) -- is.
    engine = _bundled_engine(name, 3)
    report = compare_onediff(engine)
    n = engine.spec.min_k() + 2
    row = report.orders[n]
    assert row.n == n == 3 and not row.guaranteed
    assert row.skew.is_zero()
    assert not row.ok
    for c in report.orders[:n]:
        assert c.ok and c.skew.is_zero()


def test_commutator_probe_matches_one_order_past_the_guarantee_on_random_charts(rng):
    # the same on seeded random curved 2D charts with an hbar^1 perturbation
    # (every 2D two-form is closed)
    for _ in range(4):
        alpha = rand_skew_poly(rng, 2, deg=1)
        while alpha.is_zero():
            alpha = rand_skew_poly(rng, 2, deg=1)
        spec = WeylCurvatureSpec(rand_curved_geometry(rng, 2),
                                 TensorSeries.from_terms(2, "lower", 3, [(1, alpha)]))
        row = compare_onediff(StarEngine(spec, 3)).orders[3]
        assert not row.guaranteed and not row.ok
        assert row.skew.is_zero()


def test_order_comparison_skew_is_the_skew_part_of_the_residual():
    probe = Tensor2(2, "upper", [[1, 3], [1, 0]])
    predicted = Tensor2(2, "upper", [[0, 1], [0, 0]])
    row = OrderComparison(2, probe, predicted, False)
    assert row.residual == Tensor2(2, "upper", [[1, 2], [1, 0]])
    assert row.skew == Tensor2(2, "upper", [[0, F(1, 2)], [F(-1, 2), 0]])


def test_compare_onediff_needs_perturbation():
    with pytest.raises(ValueError):
        compare_onediff(StarEngine(WeylCurvatureSpec(Geometry(2)), 3))


# -- curvature identity suite --------------------------------------------------------


def test_curvature_identities_flat_chart_rejected(rng):
    f = rand_quadratic(rng, 2)
    with pytest.raises(GeometryError):
        curvature_onediff_identities(Geometry(2), f, f)


@pytest.mark.parametrize("dim", [2, 4])
def test_curvature_identities_pass(rng, dim):
    geom = rand_curved_geometry(rng, dim)
    f = rand_quadratic(rng, dim)
    g = rand_quadratic(rng, dim)
    checks = curvature_onediff_identities(geom, f, g)
    assert all(type(c) is Check for c in checks)
    assert all(c.passed for c in checks), [c.anchor for c in checks if not c.passed]
    anchors = {c.anchor for c in checks}
    assert {"curvature-pair.skew", "transport.cubic-curvature-term",
            "transport.central-curvature-form",
            "propagation.curvature-square-bridge",
            "onediff.transport-pair-product",
            "onediff.double-transport",
            "onediff.central-form-transport"} <= anchors
    assert ("onediff.ratio-double-over-pair" in anchors
            or "onediff.ratio-checks" in anchors)
