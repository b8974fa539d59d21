"""Star products from flat sections of the Weyl bundle.

Given a chart and a central curvature perturbation, the module solves the
two fixed-point equations

    r = delta_inv(Q) + delta_inv(par r + (i/hbar) r o r),
    a = f + delta_inv(par a + (i/hbar) [r, a]),

where Q collects the curvature two-form of the connection and the central
perturbation terms hbar^k alpha_k.  delta_inv raises filtration degree by
one, par keeps it, and (i/hbar)[b, c] of parts of degrees i and j has
degree i + j - 2.  So both are triangular, x_d = base_d + delta_inv(B_{d-1}):
the base is delta_inv(Q) or f, and B_{d-1}, the degree d - 1 part of the
rest of the right-hand side, reads degrees below d only.  The product of
two observables is then

    f * g = sigma(section(f) o section(g)),

read off order by order in hbar.  A solve at degree cap D stores degrees
0..D-1, each exact; a product coefficient at hbar^N reads section degrees
through 2N, so StarEngine uses D = 2N+1.  Both residuals are truncated at
degree D-2, the top degree whose every term reads stored degrees only.

The section equation is linear over constants in f, so

    section(sum c_{n,m} hbar^n x^m) = sum c_{n,m} section(hbar^n x^m).

StarEngine uses this at two cache levels: it solves the recursion once per
monomial hbar^n x^m, and it memoizes each observable's section assembled
from those.  ``flat_section`` solves a whole observable directly and is the
reference the assembled sections are tested against.

The module also houses the scalar sequences sigma_p, kappa_p, c_p that
govern the perturbation series in the flat/constant case: they satisfy

    sigma_1 = 1/2,  sigma_n = 1/2 * sum_{l+m=n} sigma_l sigma_m,
    kappa_0 = 1,    kappa_n = sum_{l+m=n, m>=1} kappa_l sigma_m,
    c_n = 1/2 * sum_{l+m=n} kappa_l kappa_m,

whose generating functions are 1 - sqrt(1-x), 1/sqrt(1-x) and 1/(2(1-x));
``coeff_sequences`` always cross-checks the recursions against independent
Taylor-coefficient routines rather than trusting them.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import HbarSeries, Polynomial, accumulate
from .tensors import TensorSeries, is_closed
from .weyl import (WeylForm, central_two_form, delta, delta_inv, i_over_hbar,
                   moyal, moyal_sigma, odd_bracket)
from .geometry import cov_ext_deriv

__all__ = [
    "WeylCurvatureSpec",
    "PerturbationError",
    "ConvergenceError",
    "solve_r",
    "flat_section",
    "abelian_residual",
    "curvature_residual",
    "StarResult",
    "StarEngine",
    "star",
    "CoeffTable",
    "coeff_sequences",
    "taylor_one_minus_sqrt",
    "taylor_inv_sqrt",
    "taylor_half_geometric",
]


_HALF = Fraction(1, 2)


class PerturbationError(ValueError):
    pass


class ConvergenceError(RuntimeError):
    pass


class WeylCurvatureSpec:
    """A chart together with a central perturbation of its curvature input.

    The perturbation is a finite hbar-polynomial of covariant two-forms,
    each coefficient skew and closed, with no hbar^0 part.  It enters the
    r-equation as the central Weyl form  sum_k hbar^k alpha_k.
    """

    def __init__(self, geometry, perturbation=None):
        self.geometry = geometry
        if perturbation is not None and perturbation.is_zero():
            perturbation = None
        if perturbation is not None:
            if perturbation.variance != "lower":
                raise PerturbationError("perturbation must be covariant")
            if perturbation.dim != geometry.dim:
                raise PerturbationError("perturbation dim does not match chart")
            for k, t in perturbation.hs.coeffs.items():
                if k == 0:
                    raise PerturbationError("perturbation must have no hbar^0 part")
                if not t.is_skew():
                    raise PerturbationError("perturbation coefficient at hbar^%d is not skew" % k)
                if not is_closed(t):
                    raise PerturbationError("perturbation coefficient at hbar^%d is not closed" % k)
        self.perturbation = perturbation

    @property
    def dim(self):
        return self.geometry.dim

    @property
    def is_perturbed(self):
        return self.perturbation is not None

    def min_k(self):
        """Lowest hbar power carrying a perturbation, or None."""
        return self.perturbation.min_power() if self.is_perturbed else None

    def is_flat_constant(self):
        """Flat connection and constant perturbation coefficients."""
        if not self.geometry.is_flat():
            return False
        if not self.is_perturbed:
            return True
        return all(t.is_constant() for t in self.perturbation.hs.coeffs.values())

    def unperturbed(self):
        return WeylCurvatureSpec(self.geometry)

    def alpha_series(self, order):
        """The perturbation as a TensorSeries truncated/extended to ``order``."""
        if not self.is_perturbed:
            return TensorSeries(self.dim, "lower", HbarSeries(order, {}))
        return self.perturbation.with_order(order)

    def q_form(self):
        """The curvature source: the Weyl curvature two-form plus the
        central terms hbar^k alpha_k."""
        geom = self.geometry
        q = WeylForm.zero(self.dim)
        if not geom.is_flat():
            q = q + geom.curvature().weyl_two_form
        if self.is_perturbed:
            for k, t in sorted(self.perturbation.hs.coeffs.items()):
                q = q + central_two_form(t, hpow=k)
        return q

    def __repr__(self):
        return "WeylCurvatureSpec(dim=%d, flat=%s, perturbed=%s)" % (
            self.dim, self.geometry.is_flat(), self.is_perturbed)


def _parts(a):
    """The homogeneous parts of a form, keyed by filtration degree."""
    parts = {}
    for k, p in a.terms.items():
        parts.setdefault(2 * k[0] + sum(k[1]), {})[k] = p
    return {d: WeylForm._make(a.dim, t) for d, t in parts.items()}


def _solve(base, pairs, geom, what, cap):
    """Solve  x = base + delta_inv(B)  below the cap, one degree at a time:
    x_d = base_d + delta_inv(B_e), e = d - 1.  B_e is par x_e plus the
    (i/hbar)[b, c] over ``pairs(xs, e)``, and reads the parts xs of x through
    degree e only.  A term of B_e off degree e means an operator did not
    keep filtration degree: ConvergenceError."""
    zero = WeylForm.zero(base.dim)
    bases = _parts(base)
    xs = {}
    for d in range(cap):
        b = cov_ext_deriv(xs[d - 1], geom) if d - 1 in xs else zero
        for left, right in pairs(xs, d - 1):
            b = b + odd_bracket(left, right, geom)
        if b.capped(d - 1) - b.capped(d - 2) != b:
            raise ConvergenceError(
                "%s is not a fixed point through degree %d" % (what, cap - 1))
        x = bases.get(d, zero) + delta_inv(b)
        if not x.is_zero():
            xs[d] = x
    return sum(xs.values(), zero)


def solve_r(spec, cap):
    """Solve  r = delta_inv(Q + par r + (i/hbar) r o r)  below the cap.

    Returns the unique fixed point with delta_inv(r) = 0 and lowest degree 3,
    through filtration degree cap - 1: every term is exact, and none has
    degree cap or more.  For 1-forms r_i o r_j + r_j o r_i = [r_i, r_j], so
    each pair of parts i <= j is bracketed once, and halved when i = j.
    """
    if cap < 3:
        raise ValueError("degree cap must be at least 3")

    def pairs(rs, e):
        return [(ri.scale(_HALF) if 2 * i == e + 2 else ri, rs[e + 2 - i])
                for i, ri in rs.items() if 2 * i <= e + 2 and e + 2 - i in rs]

    r = _solve(delta_inv(spec.q_form()), pairs, spec.geometry, "r-recursion", cap)
    if not delta_inv(r).is_zero():
        raise ConvergenceError("fixed point violates the delta_inv(r) = 0 gauge")
    if not r.is_zero() and r.min_degree() < 3:
        raise ConvergenceError("fixed point has terms below degree 3")
    return r


def flat_section(f, spec, r, cap):
    """Solve  a = f + delta_inv(par a + (i/hbar) [r, a])  below the cap.

    ``f`` is a polynomial observable or an hbar-series of polynomials; the
    recursion is hbar-linear, so a series input needs one solve, not one per
    coefficient.  The result is the section of the flattened connection with
    scalar part f through degree cap - 1, every term exact; ``r`` must be
    solved at ``cap`` or above.
    """
    if isinstance(f, Polynomial):
        f = HbarSeries(0, {0: f})
    rs = _parts(r)

    def pairs(parts, e):
        return [(rs[e + 2 - j], aj) for j, aj in parts.items() if e + 2 - j in rs]

    return _solve(WeylForm.from_series(f, spec.dim), pairs, spec.geometry,
                  "section recursion", cap)


def _pair_sum(op, a, b, geom, cap):
    """The sum of op(a_i, b_j) over the parts with i + j <= cap."""
    out = {}
    b_parts = _parts(b)
    for i, ai in _parts(a).items():
        for bj in (part for j, part in b_parts.items() if i + j <= cap):
            for k, p in op(ai, bj, geom).terms.items():
                accumulate(out, k, p)
    return WeylForm._make(a.dim, out)


def abelian_residual(a, spec, r, cap):
    """D a = par a - delta a + (i/hbar)[r, a]: zero on flat sections.

    For a section solved at ``cap`` the residual is truncated at degree
    cap - 2, the top degree whose every term reads only stored degrees of
    a (delta takes degree cap - 1 there): it is zero exactly when the
    section is flat inside that window, and it computes nothing above it.
    """
    geom = spec.geometry
    out = cov_ext_deriv(a.capped(cap - 2), geom) - delta(a)
    return (out + _pair_sum(odd_bracket, r, a, geom, cap)).capped(cap - 2)


def curvature_residual(r, spec, cap):
    """delta r - (Q + par r + (i/hbar) r o r): the defining equation of r.

    It takes r o r whole, over ordered pairs of parts, so it shares no
    bracket with solve_r.  Like ``abelian_residual`` it is truncated at
    degree cap - 2 for an r solved at ``cap``, and computes nothing above.
    """
    geom = spec.geometry
    body = (spec.q_form() + cov_ext_deriv(r.capped(cap - 2), geom)
            + i_over_hbar(_pair_sum(moyal, r, r, geom, cap)))
    return (delta(r) - body).capped(cap - 2)


class StarResult:
    """An evaluated product expansion: coeffs[n] is the full hbar^n term."""

    __slots__ = ("f", "g", "order", "coeffs")

    def __init__(self, f, g, order, coeffs):
        self.f = f
        self.g = g
        self.order = order
        self.coeffs = {n: p for n, p in coeffs.items() if not p.is_zero()}

    def coeff(self, n):
        p = self.coeffs.get(n)
        return p if p is not None else Polynomial.zero(self.f.dim)

    def as_series(self):
        return HbarSeries(self.order, dict(self.coeffs))

    def rows(self):
        return [(n, str(self.coeff(n))) for n in range(self.order + 1)]

    def __str__(self):
        return "\n".join("hbar^%d: %s" % row for row in self.rows())

    def __repr__(self):
        return "StarResult(order=%d, %d nonzero coefficients)" % (
            self.order, len(self.coeffs))


class StarEngine:
    """Products for one curvature spec and order, with solves cached.

    The r-solution is solved once.  Sections are cached at two levels,
    both keyed by exact content: the section of each monomial hbar^n x^m,
    solved once by ``flat_section``, and the section of each observable,
    assembled from its monomials' sections by linearity.  A polynomial
    observable f is the hbar-series {0: f}.  The grid of coordinate
    products is built once as well.
    """

    def __init__(self, spec, order):
        if order < 1:
            raise ValueError("order must be at least 1")
        self.spec = spec
        self.order = order
        self.cap = 2 * order + 1
        self._r = None
        self._grid = None
        self._sections = {}   # observable key -> assembled section
        self._monomials = {}  # (hbar power, exponent) -> section of hbar^n x^exp

    def r(self):
        if self._r is None:
            self._r = solve_r(self.spec, self.cap)
        return self._r

    def _monomial_section(self, n, exp):
        a = self._monomials.get((n, exp))
        if a is None:
            mono = HbarSeries(n, {n: Polynomial.monomial(self.spec.dim, exp)})
            a = flat_section(mono, self.spec, self.r(), self.cap)
            self._monomials[(n, exp)] = a
        return a

    def section(self, f):
        """The flat section with scalar part f (a polynomial or hbar-series)."""
        coeffs = sorted(({0: f} if isinstance(f, Polynomial) else f.coeffs).items())
        key = tuple(coeffs)  # Polynomial is canonical and hashable
        a = self._sections.get(key)
        if a is None:
            a = WeylForm.zero(self.spec.dim)
            for n, p in coeffs:
                for exp, c in p.terms.items():
                    a = a + self._monomial_section(n, exp).scale(c)
            self._sections[key] = a
        return a

    def star(self, f, g):
        return StarResult(f, g, self.order, dict(self.star_series(f, g).coeffs))

    def coordinate_products(self):
        """The dim x dim grid of StarResults x^i * x^j on the coordinates,
        built once."""
        if self._grid is None:
            dim = self.spec.dim
            xs = [Polynomial.variable(dim, i) for i in range(dim)]
            self._grid = [[self.star(xi, xj) for xj in xs] for xi in xs]
        return self._grid

    def star_series(self, f, g):
        """sigma(section(f) o section(g)) through the engine order, as an
        hbar-series; f and g are polynomials or hbar-series."""
        return moyal_sigma(self.section(f), self.section(g), self.spec.geometry,
                           order=self.order)


def star(f, g, spec, order):
    """One-shot product expansion; build a StarEngine to amortize solves."""
    return StarEngine(spec, order).star(f, g)


# -- scalar coefficient sequences ----------------------------------------------------


class CoeffTable:
    """The sequences sigma_p, kappa_p, c_p as exact rationals."""

    __slots__ = ("limit", "sigma", "kappa", "c")

    def __init__(self, limit, sigma, kappa, c):
        self.limit = limit
        self.sigma = sigma
        self.kappa = kappa
        self.c = c

    def rows(self):
        out = []
        for n in range(self.limit + 1):
            out.append((n,
                        self.sigma.get(n, Fraction(0)),
                        self.kappa[n],
                        self.c[n]))
        return out

    def __str__(self):
        lines = ["%3s  %-12s %-12s %-8s" % ("n", "sigma_n", "kappa_n", "c_n")]
        for n, s, k, c in self.rows():
            lines.append("%3d  %-12s %-12s %-8s" % (n, s, k, c))
        return "\n".join(lines)


def coeff_sequences(limit):
    """Compute sigma, kappa, c by their recursions up to ``limit``.

    The values are compared against independent Taylor expansions of the
    generating functions; a mismatch raises ArithmeticError (it would mean
    one of the two routes is wrong).
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    sig = {1: _HALF}
    for n in range(2, limit + 1):
        sig[n] = _HALF * sum(sig[l] * sig[n - l] for l in range(1, n))
    kap = {0: Fraction(1)}
    for n in range(1, limit + 1):
        kap[n] = sum(kap[n - m] * sig[m] for m in range(1, n + 1))
    c = {n: _HALF * sum(kap[l] * kap[n - l] for l in range(0, n + 1))
         for n in range(0, limit + 1)}
    s_or = taylor_one_minus_sqrt(limit)
    k_or = taylor_inv_sqrt(limit)
    c_or = taylor_half_geometric(limit)
    for n in range(1, limit + 1):
        if sig[n] != s_or[n]:
            raise ArithmeticError("sigma_%d disagrees with its Taylor expansion" % n)
    for n in range(0, limit + 1):
        if kap[n] != k_or[n]:
            raise ArithmeticError("kappa_%d disagrees with its Taylor expansion" % n)
        if c[n] != c_or[n]:
            raise ArithmeticError("c_%d disagrees with its Taylor expansion" % n)
    return CoeffTable(limit, sig, kap, c)


def _sqrt_one_minus(limit):
    """Taylor coefficients of sqrt(1-x) from squaring: s*s = 1 - x."""
    s = [Fraction(1)]
    for n in range(1, limit + 1):
        target = Fraction(-1) if n == 1 else Fraction(0)
        conv = sum(s[j] * s[n - j] for j in range(1, n))
        s.append((target - conv) / 2)
    return s


def taylor_one_minus_sqrt(limit):
    """Taylor coefficients of 1 - sqrt(1-x) (index 0 is 0)."""
    s = _sqrt_one_minus(limit)
    return [Fraction(0)] + [-v for v in s[1:]]


def taylor_inv_sqrt(limit):
    """Taylor coefficients of 1/sqrt(1-x), via the series reciprocal."""
    s = _sqrt_one_minus(limit)
    x = [Fraction(1)]
    for n in range(1, limit + 1):
        x.append(-sum(s[j] * x[n - j] for j in range(1, n + 1)))
    return x


def taylor_half_geometric(limit):
    """Taylor coefficients of 1/(2(1-x)), via the reciprocal of (1-x)."""
    g = [Fraction(1)]
    for n in range(1, limit + 1):
        # reciprocal of 1 - x: g_n = -(coefficients of 1-x beyond 0) convolved
        g.append(g[n - 1])
    return [v / 2 for v in g]
