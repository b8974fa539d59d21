"""One-differentiable content of perturbed star products.

Perturbing the curvature input of the product by a central two-form series
alpha^hbar shifts the product coefficients; on linear coordinate observables
every higher-derivative contribution vanishes, so probing with coordinates
extracts the constant bivector part of each order exactly.  A probe reads
the coordinate grids of two StarEngines, and each engine fixes its
spec and its order.  This module computes those probes, the predicted
bivector series

    T_n = (i/2) [ sum_{p >= 1} (mu alpha^hbar)^{<> p} ]_{n-1},

a shift of the formal Poisson bivector, their comparison, and a family of
curvature identities that pin the constant prefactors of the first
curvature-dependent corrections.  Each identity is returned as an
``io.Check``, the one check record of the package.

Curvature bookkeeping.  With A_l = R_{ijkl} y^i y^j y^k, the triple
contraction A_{l1} o_3 A_{l2} is i hbar^3 times a real polynomial matrix;
``CalR`` stores that pure polynomial P ("lower"), so the two-form actually
appearing in the identities is i hbar^3 P_{l1 l2} and the raised version is
i hbar^3 mu(P).  Identity right-hand sides below quote their constants
against that convention.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .algebra import GaussianRational, HbarSeries, Polynomial, I
from .tensors import Tensor2, formal_poisson, matmul, mu, two_form_d
from .weyl import (central_two_form, delta_inv, i_over_hbar, index_form, moyal,
                   moyal_sigma, odd_bracket, two_form_to_tensor, y_dx_form,
                   y_gradient)
from .geometry import GeometryError, cov_ext_deriv
from .fedosov import StarEngine
from .io import Check

__all__ = [
    "CalR",
    "cal_r",
    "beta_form",
    "gamma_form",
    "bivector_probe",
    "predicted_onediff",
    "OrderComparison",
    "ComparisonReport",
    "compare_onediff",
    "curvature_onediff_identities",
]

_HALF = GaussianRational(Fraction(1, 2))
_MINUS_HALF_I = GaussianRational(0, Fraction(-1, 2))
_MINUS_I = GaussianRational(0, -1)


def _same_chart(g1, g2):
    return g1 is g2 or (g1.dim == g2.dim and g1.omega == g2.omega
                        and g1.gamma == g2.gamma)


# -- curvature pair tensor -------------------------------------------------------


class CalR:
    """The curvature pair contraction, stored prefactor-free.

    ``lower`` is the real polynomial matrix P with
    A_{l1} o_3 A_{l2} = i hbar^3 P_{l1 l2}, for the cubic curvature forms
    A_l = R_{ijkl} y^i y^j y^k; ``upper`` raises both indices,
    upper = -wbar wbar P.  P is skew.
    """

    __slots__ = ("geometry", "lower", "upper")

    def __init__(self, geometry, lower):
        self.geometry = geometry
        self.lower = lower
        self.upper = mu(lower, geometry)

    def is_zero(self):
        return self.lower.is_zero()


def cal_r(geom):
    """Contract the cubic curvature forms A_l = R_{ijkl} y^i y^j y^k pairwise.

    A_{l1} o_3 A_{l2} is the only fully contracted piece of the product, so
    it is the hbar^3 coefficient of its scalar projection.  Flat charts give
    the zero tensor (not an error).
    """
    dim = geom.dim
    curv = geom.curvature()
    cubes = list(itertools.product(range(dim), repeat=3))
    forms = [index_form(dim, ((0, ijk, (), curv.entry(*ijk, l)) for ijk in cubes))
             for l in range(dim)]
    zero = Polynomial.zero(dim)
    rows = [[moyal_sigma(a1, a2, geom).coeff(3, zero).scale(_MINUS_I)
             for a2 in forms] for a1 in forms]
    return CalR(geom, Tensor2(dim, "lower", rows))


# -- propagation two-forms -------------------------------------------------------


def _transported(seed, n, geom):
    """Apply (delta_inv . covariant-derivative) n times to delta_inv(seed)."""
    u = delta_inv(seed)
    for _ in range(n):
        u = delta_inv(cov_ext_deriv(u, geom))
    return u


def _square_two_form(yfree, hbar_power):
    """i * yfree / hbar^{hbar_power+1}, as a lower tensor, for ``yfree`` the
    y-free part of a square u o u."""
    return two_form_to_tensor(yfree, hbar_power + 1).scale(I)


def beta_form(n, geom):
    """Two-form of the n-step curvature transport square.

    (i/hbar) ((delta_inv par)^n delta_inv R)^2 at y = 0 is a single power
    hbar^{n+2} times this tensor; it vanishes for odd n and for flat charts.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if geom.is_flat():
        return Tensor2.zeros(geom.dim, "lower")
    u = _transported(geom.curvature().weyl_two_form, n, geom)
    return _square_two_form(moyal(u, u, geom).y_free(), n + 2)


def gamma_form(n, alpha, k, geom):
    """Two-form of the n-step transport square of a central perturbation.

    (i/hbar) ((delta_inv par)^n delta_inv(hbar^k alpha))^2 at y = 0 is
    hbar^{2k+n} times this tensor; zero for odd n, and on a flat chart zero
    for every n >= 1 whenever alpha is constant (the transport is then pure
    exterior derivative and kills constants in one step).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 1:
        raise ValueError("k must be at least 1")
    if not alpha.is_skew():
        raise ValueError("alpha must be skew")
    if not two_form_d(alpha).is_zero():
        raise ValueError("alpha must be closed")
    u = _transported(central_two_form(alpha, hpow=k), n, geom)
    return _square_two_form(moyal(u, u, geom).y_free(), 2 * k + n)


# -- coordinate bivector probes --------------------------------------------------


def bivector_probe(engine, base, n):
    """Matrix of order-n product coefficients on coordinates, differenced.

    Entry (i, j) is  C~_n(x^i, x^j) - C_n(x^i, x^j), with C~ read off the
    coordinate grid of ``engine`` and C off that of ``base``.  Both engines
    must share the chart, and n may exceed neither engine's order.
    """
    if not _same_chart(engine.spec.geometry, base.spec.geometry):
        raise GeometryError("bivector probes need a shared chart")
    if n > min(engine.order, base.order):
        raise ValueError("probe order exceeds the expansion order")
    return _grid_difference(engine.coordinate_products(), base.coordinate_products(), n)


def _grid_difference(g1, g2, n):
    """The order-n coefficients of two coordinate grids, differenced."""
    dim = len(g1)
    return Tensor2(dim, "upper",
                   [[g1[i][j].coeff(n) - g2[i][j].coeff(n) for j in range(dim)]
                    for i in range(dim)])


def predicted_onediff(alpha_h, geom, order):
    """Predicted bivector series of the perturbation, one order shifted.

    Returns the HbarSeries with coefficient (i/2) [sum_{p>=1}
    (mu alpha^hbar)^{<> p}]_{n-1} at hbar^n — the expected coordinate probe
    of the perturbed-minus-unperturbed product at each order.  The inner sum
    is wbar minus the formal Poisson bivector, so for n >= 2 the coefficient
    is -(i/2) times the hbar^{n-1} coefficient of
    ``formal_poisson(alpha_h, geom, order - 1)``, and it is zero at n <= 1.
    The input checks are those of ``formal_poisson``.
    """
    fp = formal_poisson(alpha_h, geom, order - 1)
    return HbarSeries(order, {m + 1: t.scale(_MINUS_HALF_I)
                              for m, t in fp.coeffs.items() if m >= 1})


class OrderComparison:
    """Probe vs prediction at one order, with its exact residual.

    ``skew`` is the skew part (residual - residual^T) / 2: the residual of
    the commutator probe C_n(x^i, x^j) - C_n(x^j, x^i).
    """

    __slots__ = ("n", "probe", "predicted", "residual", "guaranteed")

    def __init__(self, n, probe, predicted, guaranteed):
        self.n = n
        self.probe = probe
        self.predicted = predicted
        self.residual = probe - predicted
        self.guaranteed = guaranteed

    @property
    def ok(self):
        return self.residual.is_zero()

    @property
    def skew(self):
        return (self.residual - self.residual.transpose()).scale(_HALF)

    def __repr__(self):
        return "OrderComparison(n=%d, ok=%s, guaranteed=%s)" % (
            self.n, self.ok, self.guaranteed)


class ComparisonReport:
    """Per-order probes of a perturbed product against the bivector series.

    Orders are marked guaranteed when the remainder provably vanishes on
    coordinate probes: every order for a flat chart with constant
    perturbation, otherwise only through min_k + 1 (the first perturbed
    order), since beyond it the remainder may carry curvature- or
    derivative-of-alpha terms.
    """

    def __init__(self, spec, order, orders):
        self.spec = spec
        self.order = order
        self.orders = orders

    @property
    def passed(self):
        return all(c.ok for c in self.orders if c.guaranteed)

    def failures(self):
        return [c for c in self.orders if c.guaranteed and not c.ok]

    def __repr__(self):
        return "ComparisonReport(order=%d, passed=%s)" % (self.order, self.passed)


def compare_onediff(engine):
    """Probe the perturbed product of ``engine`` against its predicted
    bivector series.

    The spec and the order are the engine's.  The probes difference its
    coordinate grid against that of an unperturbed StarEngine on the same
    chart at the same order; each grid is built once.  Returns a
    ComparisonReport whose per-order records hold the probe matrix, the
    predicted matrix, and their difference.
    """
    spec, order = engine.spec, engine.order
    if not spec.is_perturbed:
        raise ValueError("comparison needs a perturbed spec")
    base = StarEngine(spec.unperturbed(), order)
    predicted = predicted_onediff(spec.alpha_series(order), spec.geometry, order)
    limit = order if spec.is_flat_constant() else min(order, spec.min_k() + 1)
    zero = Tensor2.zeros(spec.dim, "upper")
    grid, base_grid = engine.coordinate_products(), base.coordinate_products()
    records = [OrderComparison(n, _grid_difference(grid, base_grid, n),
                               predicted.coeff(n, zero), n <= limit)
               for n in range(order + 1)]
    return ComparisonReport(spec, order, records)


# -- curvature identity suite ----------------------------------------------------


def _check_forms(anchor, lhs, rhs):
    res = lhs - rhs
    return Check(anchor, str(res), res.is_zero())


def _check_series(anchor, lhs, rhs):
    n = max(lhs.order, rhs.order)
    res = lhs.with_order(n) - rhs.with_order(n)
    return Check(anchor, str(res), res.is_zero())


def curvature_onediff_identities(geom, f, g):
    """Exact checks of the curvature corrections entering the probe orders.

    Evaluates, purely from the graded-algebra primitives, the first
    transport of a linear section through the curvature, the three pair
    products that produce the constant bivector corrections, and their
    mutual ratios; each is compared against its closed form in the
    curvature pair tensor.  Returns a list of ``io.Check`` records.
    """
    if geom.is_flat():
        raise GeometryError("curvature identities need a curved chart")
    dim = geom.dim
    checks = []
    curv = geom.curvature()
    calr = cal_r(geom)
    p_lower = calr.lower
    p_upper = calr.upper

    checks.append(Check(
        "curvature-pair.skew",
        "0" if p_lower.is_skew() else "asymmetric",
        p_lower.is_skew()))

    a1 = y_gradient(f)
    b1 = y_gradient(g)
    u = delta_inv(curv.weyl_two_form)

    def transport(lin):
        return delta_inv(odd_bracket(u, lin, geom))

    ta = transport(a1)
    tb = transport(b1)

    # cubic transport of a linear section:
    #   -(1/24) R_{ijkl} (wbar^{lm} d_m f) y^i y^j y^k
    raised = matmul(geom.omega_bar.rows, [[f.partial(m)] for m in range(dim)])
    terms = ((0, (i, j, k), (), curv.entry(i, j, k, l) * raised[l][0])
             for i, j, k, l in itertools.product(range(dim), repeat=4))
    rhs24 = index_form(dim, terms).scale(GaussianRational(Fraction(-1, 24)))
    checks.append(_check_forms("transport.cubic-curvature-term", ta, rhs24))

    # the central transport form: B = delta_inv((i/hbar) y-free(u o u)); the
    # curvature square channels into the pair tensor
    square = moyal(u, u, geom).y_free()
    b_central = delta_inv(i_over_hbar(square))
    b_expect = y_dx_form(p_lower.scale(GaussianRational(Fraction(-1, 64))), hpow=2)
    checks.append(_check_forms(
        "transport.central-curvature-form", b_central, b_expect))

    # beta bridge: the n = 0 propagation form, beta_form(0, geom), is the
    # same square and equals -P/32
    bridge_ok = _square_two_form(square, 2) == p_lower.scale(Fraction(-1, 32))
    checks.append(Check(
        "propagation.curvature-square-bridge",
        "0" if bridge_ok else "mismatch", bridge_ok))

    # identity (pair product of two transported sections)
    pair = p_upper.pair(f, g)
    lhs1 = moyal_sigma(ta, tb, geom)
    rhs1 = HbarSeries(3, {3: pair.scale(GaussianRational(0, Fraction(-1, 576)))})
    checks.append(_check_series("onediff.transport-pair-product", lhs1, rhs1))

    # identity (double transport against an untouched section)
    lhs2 = moyal_sigma(transport(ta), b1, geom) \
        + moyal_sigma(a1, transport(tb), geom)
    rhs2 = HbarSeries(3, {3: pair.scale(GaussianRational(0, Fraction(-1, 96)))})
    checks.append(_check_series("onediff.double-transport", lhs2, rhs2))

    # identity (central form against plain sections)
    def central_transport(lin):
        return delta_inv(odd_bracket(b_central, lin, geom))

    lhs3 = moyal_sigma(central_transport(a1), b1, geom) \
        + moyal_sigma(a1, central_transport(b1), geom)
    rhs3 = HbarSeries(3, {3: pair.scale(GaussianRational(0, Fraction(-1, 64)))})
    checks.append(_check_series("onediff.central-form-transport", lhs3, rhs3))

    # ratio checks, independent of the pair-tensor normalization
    base = lhs1.coeff(3, Polynomial.zero(dim))
    six = lhs2.coeff(3, Polynomial.zero(dim))
    nine = lhs3.coeff(3, Polynomial.zero(dim))
    if base.is_zero():
        # the pair product vanished, so the ratios are not informative
        checks.append(Check("onediff.ratio-checks", "degenerate", True))
    else:
        ok6 = six == base.scale(GaussianRational(6))
        ok9 = nine == base.scale(GaussianRational(9))
        checks.append(Check(
            "onediff.ratio-double-over-pair",
            "0" if ok6 else str(six - base.scale(GaussianRational(6))), ok6))
        checks.append(Check(
            "onediff.ratio-central-over-pair",
            "0" if ok9 else str(nine - base.scale(GaussianRational(9))), ok9))
    return checks
