"""Perturbing the fiber curvature deforms the bivector, order by order.

Adding a closed two-form hbar^k alpha to the central curvature changes the
star product of coordinates by a geometric series of diamond contractions:
the order p * k + 1 coefficient gains (i/2) times the p-th diamond power of
the raised perturbation, and nothing else changes.  Summed up, the products
encode minus (i/2) times the inverse of omega + hbar^k alpha — a formal
Poisson structure.
"""

from fractions import Fraction

from fedosov_lab import (Geometry, GaussianRational, Polynomial, StarEngine,
                         Tensor2, TensorSeries, WeylCurvatureSpec,
                         bivector_probe, compare_onediff, diamond_power,
                         formal_poisson, mu, series_inverse, series_schouten)

geom = Geometry(2)
alpha = Tensor2(2, "lower", [[0, Fraction(1, 3)], [Fraction(-1, 3), 0]])
k, order = 1, 6

spec = WeylCurvatureSpec(
    geom, TensorSeries.from_terms(2, "lower", order, {k: alpha}.items()))
base = WeylCurvatureSpec(geom)
engines = (StarEngine(spec, order), StarEngine(base, order))

# ---------------------------------------------------------------------------
# Probe the perturbed product on coordinates and difference away the
# unperturbed one: what remains is a pure constant bivector at each order.
# ---------------------------------------------------------------------------

abar = mu(alpha, geom)
half_i = GaussianRational(0, Fraction(1, 2))
print("order-by-order coordinate probes (perturbed minus plain):")
for n in range(order + 1):
    probe = bivector_probe(*engines, n)
    tag = ""
    if n >= 2 and (n - 1) % k == 0:
        p = (n - 1) // k
        assert probe == diamond_power(abar, p, geom).scale(half_i)
        tag = "  = (i/2) * diamond power %d" % p
    elif probe.is_zero():
        tag = "  (zero)"
    print("  hbar^%d: %s%s" % (n, probe.to_strs(), tag))
print()

# ---------------------------------------------------------------------------
# The full products reassemble the inverse of the deformed structure series.
# ---------------------------------------------------------------------------

om_series = TensorSeries.from_terms(2, "lower", order,
                                    {0: geom.omega, k: alpha}.items())
obar = series_inverse(om_series, order)
eng = engines[0]
for i in range(2):
    for j in range(2):
        res = eng.star(Polynomial.variable(2, i), Polynomial.variable(2, j))
        for n in range(1, order + 1):
            want = obar.coeff(n - 1).entry(i, j).scale(
                GaussianRational(0, Fraction(-1, 2)))
            assert res.coeff(n) == want
print("coordinate products equal -(i/2) * inverse(omega + hbar alpha)"
      " through hbar^%d." % order)

# The deformed bivector series is itself Poisson: its Schouten bracket with
# itself vanishes identically at every order.
sch = series_schouten(obar, obar)
assert all(t.is_zero() for t in sch.coeffs.values())
print("Schouten bracket of the deformed bivector with itself: 0.")
print()

# ---------------------------------------------------------------------------
# Two perturbation terms at once: the predicted diamond series convolves
# them, and the probes follow it at every order.
# ---------------------------------------------------------------------------

a2 = Tensor2(2, "lower", [[0, Fraction(-1, 5)], [Fraction(1, 5), 0]])
two = WeylCurvatureSpec(
    geom, TensorSeries.from_terms(2, "lower", order, {1: alpha, 2: a2}.items()))
report = compare_onediff(StarEngine(two, order))
assert report.passed and all(c.guaranteed for c in report.orders)
print("two-term perturbation: probes match the predicted series at orders"
      " 0..%d," % order)
print("reassembling the formal Poisson bivector of"
      " omega + hbar a1 + hbar^2 a2:")
ob2 = formal_poisson(two.alpha_series(order), geom, order)
for n in range(order + 1):
    print("  hbar^%d: %s" % (n, ob2.coeff(n).to_strs()))
