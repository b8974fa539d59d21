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
Since degree d reads only lower ones, a solve at a lower cap is resumed,
not repeated: verify extends the engine's own r and sections by the one
degree 2N+1 its residuals read, and checks those.  The solve of degree
D-1 forms the body B_{D-2}: for a section, par a_{D-2} plus the brackets
[r_i, a_j] with i + j = D; for r, par r_{D-2} plus the brackets [r_i, r_j]
with i <= j and i + j = D, halved when i = j.  That body is also the
residual's degree D-2 terms but delta x_{D-1} (and, for r, Q_{D-2}); so
an extended r or section keeps it (``_Extension``), and
``curvature_residual`` or ``abelian_residual`` adds it in place of those
terms when its own parts name the operands the solve read, by identity or
by value, and computes them otherwise.  Each top-degree pair is then
bracketed once per verify, and the residual is unchanged.  The body and
the other terms of each degree are added into one ``algebra._Sum``:
``cov_ext_deriv`` adds par x into the caller's sum.

The section equation is linear over constants in f, so

    section(sum c_{n,m} hbar^n x^m) = sum c_{n,m} section(hbar^n x^m).

StarEngine caches r, the solve of each monomial hbar^n x^m, and a pair
table; sections and grids are assembled on demand.  An observable's section
adds every term of every monomial section, times its coefficient, into one
``algebra._Sum``, which reduces each output key once.  Since sigma(. o .) is
bilinear as well, a product is the sum of
c d sigma(section(hbar^n x^m) o section(hbar^n' x^m')) over the term pairs
of f and g; the pair table holds that projection once per ordered monomial
pair, as one integer row (``algebra._row``: Gaussian-integer numerators
keyed by hbar power and packed exponent over one denominator).  A product
adds one scaled row per term pair into one ``algebra._RowSum`` and reduces
each hbar power once, so a product of observables whose pairs are known
solves, assembles and projects nothing.  The table is unbounded and grows
with the distinct ordered monomial pairs an engine multiplies.  A power n
above the engine order is skipped throughout, since the section of
hbar^n x^m starts at degree 2n, above every stored one.  ``flat_section``
solves a whole observable directly; it is the reference the assembled
sections and the products are tested against, and it extends them.

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

from .algebra import HbarSeries, Polynomial, _RowSum, _Sum, _row
from .tensors import is_closed
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

    The perturbation is a finite hbar-polynomial of covariant two-forms, an
    HbarSeries of Tensor2 (``TensorSeries.from_terms`` builds one), each
    coefficient skew and closed, with no hbar^0 part.  It enters the
    r-equation as the central Weyl form  sum_k hbar^k alpha_k.
    """

    def __init__(self, geometry, perturbation=None):
        self.geometry = geometry
        if perturbation is not None and perturbation.is_zero():
            perturbation = None
        if perturbation is not None:
            for k, t in perturbation.coeffs.items():
                if t.variance != "lower":
                    raise PerturbationError("perturbation must be covariant")
                if t.dim != geometry.dim:
                    raise PerturbationError("perturbation dim does not match chart")
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
        return all(t.is_constant() for t in self.perturbation.coeffs.values())

    def unperturbed(self):
        return WeylCurvatureSpec(self.geometry)

    def alpha_series(self, order):
        """The perturbation as an HbarSeries of Tensor2 truncated/extended
        to ``order``."""
        if not self.is_perturbed:
            return HbarSeries(order)
        return self.perturbation.with_order(order)

    def q_form(self):
        """The curvature source: the Weyl curvature two-form plus the
        central terms hbar^k alpha_k."""
        geom = self.geometry
        q = WeylForm.zero(self.dim)
        if not geom.is_flat():
            q = q + geom.curvature().weyl_two_form
        if self.is_perturbed:
            for k, t in sorted(self.perturbation.coeffs.items()):
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


def _solve(base, pairs, geom, what, cap, below=None, keep=None):
    """Solve  x = base + delta_inv(B)  below the cap, one degree at a time:
    x_d = base_d + delta_inv(B_e), e = d - 1.  B_e is par x_e plus the
    (i/hbar)[b, c] over the operand pairs ``pairs(xs, e)``, keyed by their
    degrees, added into one ``algebra._Sum`` that reduces each key once; it
    reads the parts xs of x through degree e only, so a solution ``below``
    at a lower cap keeps its parts and the solve resumes above their top
    degree.  A term of B_e off degree e means an operator did not keep
    filtration degree: ConvergenceError.  Given a dict ``keep``, the solve
    of the top degree cap - 1 stores its body B_{cap-2} there under "body",
    and what that body read under "read": the chart, the degree cap - 2,
    the part x_{cap-2} (None when zero) and the pairs."""
    zero = WeylForm.zero(base.dim)
    bases = _parts(base)
    xs = {} if below is None else _parts(below)
    for d in range(max(xs, default=-1) + 1, cap):
        acc = _Sum(base.dim)
        part, operands = xs.get(d - 1), pairs(xs, d - 1)
        if part is not None:
            cov_ext_deriv(part, geom, acc)
        for left, right in operands.values():
            _add_form(acc, odd_bracket(left, right, geom))
        b = WeylForm._make(base.dim, acc.polys())
        if b.capped(d - 1) - b.capped(d - 2) != b:
            raise ConvergenceError(
                "%s is not a fixed point through degree %d" % (what, cap - 1))
        if keep is not None and d == cap - 1:
            keep.update(body=b, read=(geom, d - 1, part, operands))
        x = bases.get(d, zero) + delta_inv(b)
        if not x.is_zero():
            xs[d] = x
    return sum(xs.values(), zero)


def _r_pairs(rs, e):
    """The operand pairs of r's body B_e: the parts r_i, r_j with i <= j and
    i + j = e + 2, the left one halved when i = j."""
    return {(i, e + 2 - i): (ri.scale(_HALF) if 2 * i == e + 2 else ri, rs[e + 2 - i])
            for i, ri in rs.items() if 2 * i <= e + 2 and e + 2 - i in rs}


def solve_r(spec, cap, below=None):
    """Solve  r = delta_inv(Q + par r + (i/hbar) r o r)  below the cap.

    Returns the unique fixed point with delta_inv(r) = 0 and lowest degree 3,
    through filtration degree cap - 1: every term is exact, and none has
    degree cap or more.  For 1-forms r_i o r_j + r_j o r_i = [r_i, r_j], so
    each pair of parts i <= j is bracketed once, and halved when i = j.
    ``below``, a solve at a lower cap, is extended: only the degrees above
    its top one are computed, and the result, an ``_Extension``, also holds
    the body its top degree was solved from until ``curvature_residual``
    reads it.  A solve from degree 0 keeps nothing.
    """
    if cap < 3:
        raise ValueError("degree cap must be at least 3")
    kept = None if below is None else {}
    r = _solve(delta_inv(spec.q_form()), _r_pairs, spec.geometry, "r-recursion", cap,
               below, kept)
    if not delta_inv(r).is_zero():
        raise ConvergenceError("fixed point violates the delta_inv(r) = 0 gauge")
    if not r.is_zero() and r.min_degree() < 3:
        raise ConvergenceError("fixed point has terms below degree 3")
    return _Extension.keeping(r, kept)


def flat_section(f, spec, r, cap, below=None):
    """Solve  a = f + delta_inv(par a + (i/hbar) [r, a])  below the cap.

    ``f`` is a polynomial observable or an hbar-series of polynomials; the
    recursion is hbar-linear, so a series input needs one solve, not one per
    coefficient.  The result is the section of the flattened connection with
    scalar part f through degree cap - 1, every term exact; ``r`` must be
    solved at ``cap`` or above.  ``below``, the section of f at a lower cap
    (``StarEngine.section(f)`` for one), is extended: only the degrees above
    its top one are computed, and the result, an ``_Extension``, also holds
    the body its top degree was solved from until ``abelian_residual`` reads
    it.  A solve from degree 0 keeps nothing.
    """
    if isinstance(f, Polynomial):
        f = HbarSeries(0, {0: f})
    rs = _parts(r)

    def pairs(parts, e):
        return {(e + 2 - j, j): (rs[e + 2 - j], aj)
                for j, aj in parts.items() if e + 2 - j in rs}

    kept = None if below is None else {}
    a = _solve(WeylForm.from_series(f, spec.dim), pairs, spec.geometry,
               "section recursion", cap, below, kept)
    return _Extension.keeping(a, kept)


class _Extension(WeylForm):
    """A solution that ``solve_r`` or ``flat_section`` extended, with
    ``kept``: the body B_{cap-2} of its top solved degree and what that
    body read (see ``_solve``), until ``curvature_residual`` or
    ``abelian_residual`` takes them.  Every operation on it returns a plain
    ``WeylForm``, which keeps nothing."""

    __slots__ = ("kept",)

    @classmethod
    def keeping(cls, x, kept):
        """x holding the record ``kept``, or x itself when that is empty."""
        if not kept:
            return x
        out = cls._make(x.dim, x.terms)
        out.kept = kept
        return out


def _add_form(acc, form, sign=1):
    """Add ``sign`` times every term of ``form`` into the ``_Sum`` acc."""
    for k, p in form.terms.items():
        acc.add(k, p, sign)


def _add_pairs(acc, op, a_parts, b_parts, geom, cap):
    """Add op(a_i, b_j) over the parts with i + j <= cap into acc."""
    for i, ai in a_parts.items():
        for bj in (part for j, part in b_parts.items() if i + j <= cap):
            _add_form(acc, op(ai, bj, geom))


def abelian_residual(a, spec, r, cap):
    """D a = par a - delta a + (i/hbar)[r, a]: zero on flat sections.

    For a section solved at ``cap`` the residual is truncated at degree
    cap - 2, the top degree whose every term reads only stored degrees of
    a (delta takes degree cap - 1 there): it is zero exactly when the
    section is flat inside that window, and it computes nothing above it.
    Its three parts add into one ``algebra._Sum``, which reduces each key
    once and holds one form, not several.

    Its degree cap - 2 holds par a_{cap-2} and the brackets of the part pairs
    r_i, a_j with i + j = cap: the body B_{cap-2} that the solve of
    a_{cap-1} formed.  When ``a`` is an extension that ``flat_section`` left
    holding that body (``_Extension``), the residual enumerates its own
    parts of r and a at that degree, and adds the body in their place, first,
    releasing it, only when they name the operands the solve read, by
    identity or by value, on the same chart and degree.  Otherwise it
    computes them.  So each top-degree pair is bracketed once per ``verify``,
    the result is the same, and a solve that skipped or doubled a pair still
    leaves a nonzero residual.
    """
    geom = spec.geometry
    acc = _Sum(a.dim)
    rs, parts = _parts(r), _parts(a)
    top = cap - 2
    kept = a.kept if isinstance(a, _Extension) else {}
    if kept and kept.pop("read") == (geom, top, parts.get(top), {
            (i, cap - i): (ri, parts[cap - i]) for i, ri in rs.items() if cap - i in parts}):
        _add_form(acc, kept.pop("body"))
        top -= 1
    kept.clear()
    cov_ext_deriv(a.capped(top), geom, acc)
    _add_form(acc, delta(a), -1)
    _add_pairs(acc, odd_bracket, rs, parts, geom, top + 2)
    return WeylForm._make(a.dim, acc.polys()).capped(cap - 2)


def curvature_residual(r, spec, cap):
    """delta r - (Q + par r + (i/hbar) r o r): the defining equation of r.

    Like ``abelian_residual`` it is truncated at degree cap - 2 for an r
    solved at ``cap``, and computes nothing above.  It takes r o r whole,
    over ordered pairs of parts, below its top degree.

    Its degree cap - 2 holds par r_{cap-2} and (i/hbar) r_i o r_j over the
    ordered pairs with i + j = cap, which for 1-forms sum to the brackets
    of the pairs i <= j, halved when i = j: the body B_{cap-2} that the
    solve of r_{cap-1} formed.  When ``r`` is an extension that ``solve_r``
    left holding that body (``_Extension``), the residual adds the body in
    place of those terms, first, releasing it, only when its own parts of r
    name the operands the solve read, by identity or by value, on the same
    chart and degree.  Otherwise it computes them.  So a top pair is
    bracketed once per ``verify``, the result is the same, and a solve that
    skipped a pair, or a part changed after the solve, still leaves a
    nonzero residual.
    """
    geom = spec.geometry
    acc = _Sum(r.dim)
    rs = _parts(r)
    top = cap - 2
    kept = r.kept if isinstance(r, _Extension) else {}
    if kept and kept.pop("read") == (geom, top, rs.get(top), _r_pairs(rs, top)):
        _add_form(acc, kept.pop("body"))
        top -= 1
    kept.clear()
    products = _Sum(r.dim)
    _add_pairs(products, moyal, rs, rs, geom, top + 2)
    _add_form(acc, i_over_hbar(WeylForm._make(r.dim, products.polys())))
    _add_form(acc, spec.q_form())
    cov_ext_deriv(r.capped(top), geom, acc)
    return (delta(r) - WeylForm._make(r.dim, acc.polys())).capped(cap - 2)


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

    The engine caches r, the section of each monomial hbar^n x^m, solved
    once by ``flat_section``, and the pair table, which maps an ordered pair
    of monomials to the coefficients of sigma(section o section) through the
    order, held as one integer row (``algebra._row``) per pair and grouped
    by the left monomial.  Sections of other observables and the grid of
    coordinate products are assembled from those on each call; a product
    reads only the pair table once it holds the operands' pairs.  The table
    is not bounded: it grows with the distinct ordered monomial pairs that
    the engine multiplies.  A polynomial observable f is the hbar-series
    {0: f}; an observable of another dim than the chart's raises ValueError.
    ``order`` is an int of at least 1.
    """

    def __init__(self, spec, order):
        if type(order) is not int:
            raise ValueError("order must be an int, got %r" % (order,))
        if order < 1:
            raise ValueError("order must be at least 1")
        self.spec = spec
        self.order = order
        self.cap = 2 * order + 1
        self._r = None
        self._monomials = {}  # (hbar power, exponent) -> section of hbar^n x^exp
        # (n, exp) -> {(n', exp'): (den, {(h, packed exp): (re, im)})}, the
        # row of sigma(section o section) for each right monomial
        self._pairs = {}

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

    def _terms(self, f):
        """The terms c hbar^n x^exp of f with n <= order, as
        ((n, exp), (re, im, den)) with c = (re + im*i) / den.  The section of
        hbar^n x^m starts at degree 2n, so above the order it is zero at every
        stored degree.  A coefficient whose dim is not the chart's raises
        ValueError, so a product fails before it reads any pair."""
        if isinstance(f, Polynomial):
            series = {0: f}
        elif isinstance(f, HbarSeries):
            series = f.coeffs
        else:
            raise TypeError("expected a Polynomial or an HbarSeries, got %s"
                            % type(f).__name__)
        dim = self.spec.dim
        for p in series.values():
            if p.dim != dim:
                raise ValueError("operand dim %d does not match the engine's dim %d"
                                 % (p.dim, dim))
        return [((n, exp), c) for n, p in series.items() if n <= self.order
                for exp, c in p.integer_terms()]

    def section(self, f):
        """The flat section with scalar part f (a polynomial or hbar-series).
        A lone monomial with coefficient 1 is its cached solve itself."""
        terms = self._terms(f)
        if len(terms) == 1 and terms[0][1] == (1, 0, 1):
            return self._monomial_section(*terms[0][0])
        acc = _Sum(self.spec.dim)
        for mono, (re, im, den) in terms:
            for k, q in self._monomial_section(*mono).terms.items():
                acc.add(k, q, re, im, den)
        return WeylForm._make(self.spec.dim, acc.polys())

    def _pair(self, a, b):
        """The pair table's row for the monomials a = (n, exp) and b, filled
        from the engine's own sections on first use."""
        rows = self._pairs.setdefault(a, {})
        row = rows.get(b)
        if row is None:
            dim = self.spec.dim
            sa, sb = (self.section(HbarSeries(self.order, {n: Polynomial.monomial(dim, exp)}))
                      for n, exp in (a, b))
            row = rows[b] = _row(moyal_sigma(sa, sb, self.spec.geometry, order=self.order))
        return row

    def star(self, f, g):
        """The StarResult of two polynomial observables."""
        for p in (f, g):
            if not isinstance(p, Polynomial):
                raise TypeError("star takes Polynomial observables, got %s; "
                                "use star_series for hbar-series" % type(p).__name__)
        return StarResult(f, g, self.order, dict(self.star_series(f, g).coeffs))

    def coordinate_products(self):
        """The dim x dim grid of StarResults x^i * x^j on the coordinates."""
        dim = self.spec.dim
        xs = [Polynomial.variable(dim, i) for i in range(dim)]
        return [[self.star(xi, xj) for xj in xs] for xi in xs]

    def star_series(self, f, g):
        """sigma(section(f) o section(g)) through the engine order, as an
        hbar-series; f and g are polynomials or hbar-series.

        The section is linear over constants and the projection bilinear,
        so the product is the sum of
        c d P(m, m') over the terms c hbar^n x^exp of f and d hbar^n' x^exp'
        of g, with P(m, m') the pair table's row; each pair's scalar is
        multiplied as integers and its whole row added in one call into one
        ``algebra._RowSum``, which splits the sum by hbar power at the end
        and reduces each power once."""
        left, right = self._terms(f), self._terms(g)
        acc = _RowSum(self.spec.dim)
        for a, (re1, im1, den1) in left:
            rows = self._pairs.get(a, {})
            for b, (re2, im2, den2) in right:
                row = rows.get(b) or self._pair(a, b)
                acc.add(row, re1 * re2 - im1 * im2, re1 * im2 + im1 * re2, den1 * den2)
        return acc.series(self.order)


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
