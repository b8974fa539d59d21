"""Propagation two-forms: how corrections travel through the recursion.

Repeatedly applying the transport step (delta_inv after the covariant
derivative) to a curvature seed or to a central perturbation, then squaring
and reading the scalar two-form, yields a ladder of exact tensors.  Odd
rungs vanish identically; the even rungs are the coefficients that feed the
deformed bivector at successive orders.
"""

from fractions import Fraction

from fedosov_lab import (Geometry, Polynomial, StarEngine, Tensor2,
                         TensorSeries, WeylCurvatureSpec, beta_form, cal_r,
                         compare_onediff, gamma_form)

x2 = Polynomial.variable(2, 1)
geom = Geometry(2, gamma={(0, 0, 0): x2, (1, 1, 1): x2.scale(2)})
assert not geom.is_flat()

# ---------------------------------------------------------------------------
# Curvature ladder.  The zeroth rung is the pair tensor scaled by -1/32;
# odd rungs cancel in pairs; the next even rung survives.
# ---------------------------------------------------------------------------

p_lower = cal_r(geom).lower
print("curvature ladder on a curved plane chart:")
for n in range(4):
    b = beta_form(n, geom)
    note = ""
    if n == 0:
        assert b == p_lower.scale(Fraction(-1, 32))
        note = "  = -P/32"
    elif n % 2:
        assert b.is_zero()
        note = "  (odd rung: zero)"
    print("  beta_%d: %s%s" % (n, b.to_strs(), note))
print()

# ---------------------------------------------------------------------------
# Perturbation ladder.  A closed polynomial perturbation climbs the same
# ladder on a chart whose connection mixes both coordinates.
# ---------------------------------------------------------------------------

x1 = Polynomial.variable(2, 0)
z = Polynomial.zero(2)
alpha_poly = Tensor2(2, "lower", [[z, x1.scale(2)], [x1.scale(-2), z]])
alpha_const = Tensor2(2, "lower", [[0, 1], [-1, 0]])
mixing = Geometry(2, gamma={(0, 0, 1): x2, (0, 1, 1): x1})
assert not mixing.is_flat()

print("perturbation ladder (closed polynomial alpha, k = 1):")
for n in range(3):
    g = gamma_form(n, alpha_poly, 1, mixing)
    print("  gamma_%d: %s" % (n, g.to_strs()))
print()

# A constant perturbation dies after the first rung on a flat chart — the
# transport is then a plain exterior derivative — but on a curved chart the
# connection keeps moving it.
flat = Geometry(2)
assert gamma_form(2, alpha_const, 1, flat).is_zero()
alpha_const4 = Tensor2(4, "lower", [[0, 1, 0, 0], [-1, 0, 0, 0],
                                    [0, 0, 0, 1], [0, 0, -1, 0]])
curved4 = Geometry(4, gamma={(0, 1, 2): Polynomial.variable(4, 3)})
g2 = gamma_form(2, alpha_const4, 1, curved4)
assert not g2.is_zero()
print("constant alpha: gamma_2 vanishes on the flat chart; on a curved")
print("four-dimensional chart it survives:", g2.to_strs())
print()

# ---------------------------------------------------------------------------
# Where the guarantees end.  On a curved chart the probe-versus-prediction
# comparison is guaranteed only through the first perturbed order; beyond
# it the ladder terms above start to contribute.
# ---------------------------------------------------------------------------

order = 3
spec = WeylCurvatureSpec(
    geom, TensorSeries.from_terms(2, "lower", order, {1: alpha_const}.items()))
report = compare_onediff(StarEngine(spec, order))
for c in report.orders:
    status = "guaranteed" if c.guaranteed else "informational"
    print("  order %d: residual %s  [%s]" % (
        c.n, "0" if c.residual.is_zero() else c.residual.to_strs(), status))
assert report.passed
