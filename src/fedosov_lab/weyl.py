"""The Weyl algebra of a chart: polynomial fiber variables y^1..y^{2d} over
the base coordinates, formal powers of hbar, and antisymmetric dx factors.

A ``WeylForm`` is a finite sum of monomials

    c(x) * hbar^h * y^{u} * dx^{i_1} ^ ... ^ dx^{i_q}      (i_1 < ... < i_q)

stored sparsely as  (h, u, form) -> Polynomial.  The *filtration degree* of a
monomial is 2*h + |u|.  A form holds exactly the terms it was given: it has
no degree bound of its own, and no product takes one: ``capped(d)`` is the
one truncation.  The fixed-point recursions stay finite because they
multiply homogeneous parts, each pair landing on a single degree.

The fiberwise product is

    a o b   =  sum_k  a o_k b,
    a o_k b =  ((-i*hbar/2)^k / k!) * wbar^{r1 s1} ... wbar^{rk sk}
               * (d^k a / dy^{r1}..dy^{rk}) * (d^k b / dy^{s1}..dy^{sk}),

with dx factors multiplied by wedge.  Each graded piece preserves the
filtration degree of a product exactly, so the product of homogeneous parts
of degrees i and j is homogeneous of degree i + j.
This module holds no contraction weights.  The chart caches one record per
k: ``Geometry.contractions(k)``, the whole scalar of each fully contracted
pair y^d o_k y^e, and ``Geometry.contraction_numerators(k)``, the same
scalars as integer rows by left exponent, {d: {e: (re, im, den)}}, in that
table's order, Gaussian-integer numerators over one denominator per table.
One row walk, ``_contracted``, reads the fully contracted pairs: it walks
the row of each left exponent, its contraction partners, and looks each
partner up in an index of the right operand by y-exponent, so it visits
only the pairs that contract, and it keeps their dx factors, wedge signs
included.  ``moyal_sigma`` and ``moyal_y_free`` are its two views: the
dx-free keys as an hbar series, and every key as the y-free part of the
product (the square u o u read by the curvature identities and
``analysis.beta_form``/``gamma_form``); neither builds the product's other
keys.  ``moyal`` reads the pieces of y^ua o y^ub, split scalars included,
from ``Geometry.moyal_weights(ua, ub, bracket)``, which the chart sums in
integers over the same rows, d <= ua and e <= ub.  The products,
``delta``, ``delta_inv``, ``exterior_d`` and ``index_form``, the one
builder of a form from an index formula, add each term, times an integer
scalar, into ``algebra._Sum``, which reduces each output coefficient once.
``moyal`` forms each pair's coefficient product once, as its entries share
it; the row walk multiplies each pair's two coefficients straight into the
sum (``_Sum.add_product``), so it never forms or reduces the product
polynomial.

In the graded commutator [a, b] = a o b - (-1)^{q1 q2} b o a the even pieces
cancel and the odd ones double, so ``odd_bracket`` computes (i/hbar)[a, b] in
one pass: the odd pieces at hbar^{k-1}, with the real prefactor
2i (-i/2)^k = (-1)^{(k-1)/2} / 2^{k-1} in place of (-i/2)^k.  The
connection term (i/hbar)[Gamma_w, a] of ``geometry.cov_ext_deriv`` takes no
product: Gamma_w is quadratic in y, so the bracket is a derivation of the
fibre algebra, and the chart takes its values on the y^s from
``odd_bracket`` once (``Geometry.connection_fields``).

Sign conventions for the chart operators:

    delta a      =  dx^k ^ (da/dy^k)
    delta_inv a  =  (1/(p+q)) y^k i(d/dx^k) a    on a piece with q = y-degree
                    and p = form degree (0 when p + q = 0)
    sigma a      =  the part with no y and no dx, as an hbar series.

``delta_inv`` divides by y-degree plus form degree; this normalization is the
one under which  a = sigma(a) + delta(delta_inv a) + delta_inv(delta a)
holds piecewise, which the recursion machinery depends on.
"""

from __future__ import annotations

from .algebra import (GaussianRational, HbarSeries, Polynomial, I, _Sum, _check_exponents,
                      accumulate)

__all__ = [
    "WeylForm",
    "HbarDivisionError",
    "moyal",
    "moyal_sigma",
    "moyal_y_free",
    "odd_bracket",
    "commutator",
    "delta",
    "delta_inv",
    "sigma",
    "exterior_d",
    "i_over_hbar",
    "wedge_merge",
    "index_form",
    "central_two_form",
    "y_dx_form",
    "y_gradient",
    "two_form_to_tensor",
]


class HbarDivisionError(ValueError):
    pass


def wedge_merge(I1, I2):
    """Merge two strictly increasing index tuples under the wedge product.

    Returns (sign, merged) or None when an index repeats.
    """
    if not I1:
        return 1, I2
    if not I2:
        return 1, I1
    out = []
    sign = 1
    i = j = 0
    n1 = len(I1)
    while i < n1 and j < len(I2):
        a, b = I1[i], I2[j]
        if a == b:
            return None
        if a < b:
            out.append(a)
            i += 1
        else:
            out.append(b)
            j += 1
            if (n1 - i) % 2:
                sign = -sign
    out.extend(I1[i:])
    out.extend(I2[j:])
    return sign, tuple(out)


def _check_coefficient(p, dim):
    """Raise ``ValueError`` unless ``p`` is a Polynomial in ``dim`` variables."""
    if not (isinstance(p, Polynomial) and p.dim == dim):
        raise ValueError("coefficient %r is not a Polynomial of dim %d" % (p, dim))


def _check_hbar(h):
    """Raise ``ValueError`` unless the hbar power ``h`` is a non-negative int."""
    if type(h) is not int or h < 0:
        raise ValueError("hbar power %r must be a non-negative int" % (h,))


class WeylForm:
    """A Weyl-algebra-valued differential form, exact and sparse.

    It carries no degree bound: every operation keeps all the terms it
    produces, and ``capped(d)`` is the one truncation.  The constructor
    takes only canonical keys (h, u, form): a non-negative int hbar power,
    ``dim`` non-negative int y exponents, and dx indices strictly increasing
    within range(dim), each with a ``Polynomial`` coefficient of dim
    ``dim``; anything else raises ``ValueError``.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim, terms=None):
        self.dim = dim
        clean = {}
        for (h, u, form), p in (terms or {}).items():
            _check_hbar(h)
            _check_exponents(u, dim, "y-exponent")
            form = tuple(form)
            if not (all(type(i) is int for i in form)
                    and all(i < j for i, j in zip((-1,) + form, form + (dim,)))):
                raise ValueError("dx indices %r must increase strictly within range(%d)"
                                 % (form, dim))
            _check_coefficient(p, dim)
            if not p.is_zero():
                clean[(h, tuple(u), form)] = p
        self.terms = clean

    @classmethod
    def _make(cls, dim, terms):
        w = object.__new__(cls)
        w.dim = dim
        w.terms = terms
        return w

    @classmethod
    def zero(cls, dim):
        return cls._make(dim, {})

    @classmethod
    def from_poly(cls, p, hpow=0):
        """The 0-form p * hbar^hpow, with no y.  Public API, kept on purpose:
        the package itself builds forms through ``index_form`` and
        ``from_series``, and callers embed one polynomial with this."""
        _check_hbar(hpow)
        if p.is_zero():
            return cls.zero(p.dim)
        return cls._make(p.dim, {(hpow, (0,) * p.dim, ()): p})

    @classmethod
    def from_series(cls, hs, dim):
        """Embed an hbar-series of base polynomials as a 0-form."""
        for p in hs.coeffs.values():
            _check_coefficient(p, dim)
        zero = (0,) * dim
        return cls._make(dim, {(n, zero, ()): p for n, p in hs.coeffs.items()
                               if not p.is_zero()})

    # -- linear structure ---------------------------------------------------

    def _combine(self, other, subtract):
        if not isinstance(other, WeylForm):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError("weyl form dims differ")
        out = dict(self.terms)
        for k, p in other.terms.items():
            accumulate(out, k, p, subtract)
        return WeylForm._make(self.dim, out)

    def __add__(self, other):
        return self._combine(other, False)

    def __sub__(self, other):
        return self._combine(other, True)

    def __neg__(self):
        return WeylForm._make(self.dim, {k: -p for k, p in self.terms.items()})

    def scale(self, c):
        c = GaussianRational.coerce(c)
        if not c:
            return WeylForm.zero(self.dim)
        return WeylForm._make(self.dim, {k: p.scale(c) for k, p in self.terms.items()})

    def mul_hbar(self, k=1):
        """Multiply by hbar^k.  Public API, kept on purpose beside
        ``div_hbar``, its inverse on forms that carry hbar.  ``k`` is an int,
        and a k that leaves a negative hbar power raises ``ValueError``."""
        if type(k) is not int or any(h + k < 0 for h, _u, _f in self.terms):
            raise ValueError("hbar^%r must be an int leaving no negative hbar power" % (k,))
        return WeylForm._make(self.dim, {(h + k, u, form): p
                                         for (h, u, form), p in self.terms.items()})

    def div_hbar(self):
        """Divide by hbar; every monomial must carry at least hbar^1."""
        out = {}
        for (h, u, form), p in self.terms.items():
            if not h:
                raise HbarDivisionError("monomial with hbar^0 cannot be divided by hbar")
            out[(h - 1, u, form)] = p
        return WeylForm._make(self.dim, out)

    def capped(self, d):
        """The terms of filtration degree <= d."""
        return WeylForm._make(self.dim, {k: p for k, p in self.terms.items()
                                         if 2 * k[0] + sum(k[1]) <= d})

    # -- structure queries ------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, WeylForm):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def min_degree(self):
        return min((2 * h + sum(u) for (h, u, _f) in self.terms), default=None)

    def split_form_degrees(self):
        parts = {}
        for k, p in self.terms.items():
            parts.setdefault(len(k[2]), {})[k] = p
        return {q: WeylForm._make(self.dim, t) for q, t in parts.items()}

    def y_free(self):
        zero = (0,) * self.dim
        out = {k: p for k, p in self.terms.items() if k[1] == zero}
        return WeylForm._make(self.dim, out)

    # -- canonical text form -------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda k: (k[0], sum(k[1]), k[1], k[2]))
        parts = []
        for h, u, form in keys:
            p = self.terms[(h, u, form)]
            factors = []
            if h:
                factors.append("hbar^%d" % h)
            ps = str(p)
            bare = ps.lstrip("-")
            factors.append(ps if ("+" not in bare and "-" not in bare and not ps.startswith("-")) else "(%s)" % ps)
            for j, e in enumerate(u):
                if e:
                    factors.append("y%d" % (j + 1) + ("^%d" % e if e > 1 else ""))
            if form:
                factors.append("dx_{%s}" % ",".join(str(i + 1) for i in form))
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return "WeylForm(%d, %s)" % (self.dim, self)


# -- the fiberwise product ------------------------------------------------------------


def _check_dims(a, b, geom):
    if a.dim != b.dim:
        raise ValueError("weyl form dims differ")
    if a.dim != geom.dim:
        raise ValueError("form dim does not match chart dim")


def moyal(a, b, geom, bracket=False):
    """Fiberwise product a o b.

    Each monomial pair reads its contractions from the chart's cached table
    ``geom.moyal_weights(ua, ub, bracket)``, whose scalars are stored as
    Gaussian-integer numerators over a denominator.  The pair's coefficient
    product is formed once, and each entry adds it, times its scalar, into
    one integer accumulator that reduces each output coefficient once.
    ``bracket`` returns (i/hbar)[a, b] instead (see the module docstring).
    """
    _check_dims(a, b, geom)
    acc = _Sum(geom.dim)
    add = acc.add
    weights = geom.moyal_weights
    for (ha, ua, Ia), pa in a.terms.items():
        for (hb, ub, Ib), pb in b.terms.items():
            merged = wedge_merge(Ia, Ib)
            if merged is None:
                continue
            entries = weights(ua, ub, bracket)
            if not entries:
                continue
            sign, IJ = merged
            pab = pa * pb
            h = ha + hb
            for dh, u, re, im, cden in entries:
                add((h + dh, u, IJ), pab, sign * re, sign * im, cden)
    return WeylForm._make(geom.dim, acc.polys())


def odd_bracket(a, b, geom):
    """(i/hbar)[a, b] in one product pass over the odd graded pieces.

    On homogeneous parts of degrees i and j the result has degree i + j - 2.
    Its equality with i_over_hbar(commutator(a, b)) is a tested identity.
    """
    return moyal(a, b, geom, bracket=True)


def _contracted(a, b, geom, order=None):
    """The fully contracted part of a o b, the one row walk behind
    ``moyal_sigma`` and ``moyal_y_free``: {(h, dx form): Polynomial}.

    Only fully contracted pairs leave no y: the monomials y^u and y^v have
    equal y-degree k, and the pair contributes the chart's cached scalar
    ``geom.contraction_numerators(k)[u][v]``, stored as Gaussian-integer
    numerators over a denominator, at hbar^(ha + hb + k), with the wedge of
    its dx factors and that wedge's sign.  The right operand is indexed
    once by y-exponent, every hbar power kept; each left term walks its row
    ``contraction_numerators(k)[u]``, one partner v per entry (exactly one
    on the block structure matrix), and looks v up in that index, so no
    pair that cannot contract is visited.  Each pair's coefficients are
    multiplied term pair by term pair straight into one integer accumulator,
    which reduces each coefficient once.  A pair that lands above
    hbar^order is skipped before it is multiplied.
    """
    _check_dims(a, b, geom)
    acc = _Sum(a.dim)
    add = acc.add_product
    weights = geom.contraction_numerators
    right = {}
    for (hb, ub, Ib), pb in b.terms.items():
        right.setdefault(ub, []).append((hb, Ib, pb))
    degrees = {sum(ub) for ub in right}
    for (ha, ua, Ia), pa in a.terms.items():
        k = sum(ua)
        if k not in degrees:
            continue
        for ub, (re, im, den) in weights(k).get(ua, {}).items():
            for hb, Ib, pb in right.get(ub, ()):
                h = ha + hb + k
                if order is not None and h > order:
                    continue
                merged = wedge_merge(Ia, Ib)
                if merged is not None:
                    sign, IJ = merged
                    add((h, IJ), pa, pb, sign * re, sign * im, den)
    return acc.polys()


def moyal_sigma(a, b, geom, order=None):
    """The scalar projection of a o b through hbar^order, without building
    the full product: the dx-free keys of ``_contracted``.  ``order`` is
    the only bound; with ``order=None`` every pair is kept, and the
    result's order is its top power.
    """
    out = {h: p for (h, form), p in _contracted(a, b, geom, order).items() if not form}
    return HbarSeries(max(out, default=0) if order is None else order, out)


def moyal_y_free(a, b, geom):
    """The y-free part of a o b, ``moyal(a, b, geom).y_free()``, without
    building the full product: ``_contracted`` with y-free keys."""
    zero = (0,) * a.dim
    return WeylForm._make(a.dim, {(h, zero, form): p
                                  for (h, form), p in _contracted(a, b, geom).items()})


def commutator(a, b, geom):
    """Graded commutator [a, b] = a o b - (-1)^{q1 q2} b o a.

    Both operands are split into homogeneous form-degree pieces, so mixed
    form degrees are handled too.
    """
    out = WeylForm.zero(a.dim)
    for q1, a1 in a.split_form_degrees().items():
        for q2, b1 in b.split_form_degrees().items():
            ab = moyal(a1, b1, geom)
            ba = moyal(b1, a1, geom)
            out = out + (ab + ba if (q1 * q2) % 2 else ab - ba)
    return out


def i_over_hbar(a):
    """Multiply by i and divide by hbar (every term must carry hbar)."""
    return a.div_hbar().scale(I)


# -- chart operators ---------------------------------------------------------------


def delta(a):
    """dx^k ^ (da/dy^k): trades one y for one dx, lowering degree by one."""
    acc = _Sum(a.dim)
    for (h, u, form), p in a.terms.items():
        for k in range(a.dim):
            e = u[k]
            if not e:
                continue
            merged = wedge_merge((k,), form)
            if merged is None:
                continue
            sign, nf = merged
            acc.add((h, u[:k] + (e - 1,) + u[k + 1:], nf), p, e * sign)
    return WeylForm._make(a.dim, acc.polys())


def delta_inv(a):
    """The partial inverse of delta; kills pieces with no y and no dx."""
    acc = _Sum(a.dim)
    for (h, u, form), p in a.terms.items():
        total = sum(u) + len(form)
        for pos, k in enumerate(form):
            nu = u[:k] + (u[k] + 1,) + u[k + 1:]
            nf = form[:pos] + form[pos + 1:]
            acc.add((h, nu, nf), p, -1 if pos % 2 else 1, 0, total)
    return WeylForm._make(a.dim, acc.polys())


def sigma(a):
    """Project onto the center: the y-free, dx-free part, as an hbar series
    whose order is the top hbar power of ``a``."""
    zero = (0,) * a.dim
    order = max((h for (h, _u, _f) in a.terms), default=0)
    coeffs = {}
    for (h, u, form), p in a.terms.items():
        if u == zero and not form:
            coeffs[h] = p
    return HbarSeries(order, coeffs)


def exterior_d(a):
    """Exterior derivative in the base variables: dx^m ^ (da/dx^m)."""
    acc = _Sum(a.dim)
    for (h, u, form), p in a.terms.items():
        for m in range(a.dim):
            dp = p.partial(m)
            if dp.is_zero():
                continue
            merged = wedge_merge((m,), form)
            if merged is None:
                continue
            sign, nf = merged
            acc.add((h, u, nf), dp, sign)
    return WeylForm._make(a.dim, acc.polys())


# -- builders bridging tensors and Weyl forms ------------------------------------------


def index_form(dim, terms):
    """The Weyl form of an index formula: the sum over ``terms`` of

        c * hbar^h * y^{i_1} ... y^{i_n} * dx^{k_1} ^ ... ^ dx^{k_q},

    each term given as (h, (i_1, ..., i_n), (k_1, ..., k_q), c) with h a
    non-negative int, c a Polynomial and 0-based int indices in any order;
    any other term raises ``ValueError``, as the constructor does.  The y
    indices multiply into the exponent; the dx indices are sorted with the
    wedge sign, and a term with a repeated dx index vanishes.  Terms add
    into ``algebra._Sum``, so zero and cancelling coefficients leave no key.
    """
    acc = _Sum(dim)
    for h, ys, dxs, c in terms:
        _check_coefficient(c, dim)
        _check_hbar(h)
        if not all(type(i) is int and 0 <= i < dim for i in (*ys, *dxs)):
            raise ValueError("y and dx indices %r, %r must be ints in range(%d)" % (ys, dxs, dim))
        u = [0] * dim
        for i in ys:
            u[i] += 1
        sign, form = 1, ()
        for k in dxs:
            merged = wedge_merge(form, (k,))
            if merged is None:
                break
            s, form = merged
            sign *= s
        else:
            acc.add((h, tuple(u), form), c, sign)
    return WeylForm._make(dim, acc.polys())


def central_two_form(t, hpow=0):
    """Embed a skew lower tensor as the central 2-form sum_{i<j} t_ij dx^i ^ dx^j."""
    return index_form(t.dim, ((hpow, (), (i, j), t.rows[i][j])
                              for i in range(t.dim) for j in range(i + 1, t.dim)))


def y_dx_form(t, hpow=0):
    """The one-form t_{ij} y^i dx^j from a lower tensor."""
    return index_form(t.dim, ((hpow, (i,), (j,), t.rows[i][j])
                              for i in range(t.dim) for j in range(t.dim)))


def y_gradient(f):
    """The fiber-linear 0-form (df/dx^j) y^j of an observable."""
    return index_form(f.dim, ((0, (j,), (), f.partial(j)) for j in range(f.dim)))


def two_form_to_tensor(a, hpow=0):
    """Extract the skew lower tensor of a y-free 2-form at a fixed hbar power.

    Inverse of ``central_two_form`` on its image.
    """
    from .tensors import Tensor2

    dim = a.dim
    zero = (0,) * dim
    rows = [[Polynomial.zero(dim) for _ in range(dim)] for _ in range(dim)]
    for (h, u, form), p in a.terms.items():
        if h != hpow or u != zero or len(form) != 2:
            raise ValueError("not a y-free 2-form at hbar^%d" % hpow)
        i, j = form
        rows[i][j] = rows[i][j] + p
        rows[j][i] = rows[j][i] - p
    return Tensor2(dim, "lower", rows)
