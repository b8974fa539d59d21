"""Coordinate tensors on a chart and the bilinear contractions between them.

``Tensor2`` holds a rank-2 tensor with polynomial entries and an explicit
variance tag: ``"lower"`` for two covariant indices (2-forms, metrics-like
objects) and ``"upper"`` for two contravariant indices (bivectors).  The
diamond contraction couples two like-variance tensors through the structure
matrix of the chart:

    lower:  (a <> b)_ij  =  sum_rs  wbar^{rs} a_{ri} b_{sj},   a <> b = a^T wbar b
    upper:  (A <> B)^ij  =  sum_rs  w_{rs}  A^{ri} B^{sj},     A <> B = A^T w B

where w is the symplectic matrix and wbar its inverse.  ``mu`` and ``mu_inv``
raise and lower both indices at once:

    mu(a)^{ij}     = - wbar^{ir} wbar^{js} a_{rs},   mu(a)     = wbar a wbar
    mu_inv(A)_{ij} = - w_{ir} w_{js} A^{rs},         mu_inv(A) = w A w

(the matrix forms use that w and wbar are skew).  Every one of these index
contractions, and those of ``series_inverse`` and the curvature, is a product
of ``matmul``, the one exact matrix product of the package.

``Tensor3`` stores a fully antisymmetric rank-3 tensor on its triples
i < j < k and reads any other order with the sign of its index inversions.
The Schouten bracket and the exterior derivative of a two-form are its two
producers, both built by ``_triples`` from one component function.

A tensor series is a plain ``HbarSeries`` of ``Tensor2``, built with its
shapes checked by ``TensorSeries.from_terms``; a reader of a missing
coefficient passes ``Tensor2.zeros`` to ``coeff``.  Its products,
``series_diamond`` and ``series_schouten``, stop at the lower of the two
factors' orders, past which the factors do not fix the coefficients.
``formal_poisson`` assembles the deformed bivector series from a
perturbation of the symplectic form, and ``series_inverse`` inverts a series
of either variance order by order, a form-valued series to a bivector series
and back; the two must agree, which the tests exploit as a dual-route check.
"""

from __future__ import annotations

from itertools import combinations
from operator import add, sub

from .algebra import GaussianRational, HbarSeries, Polynomial, ONE, ZERO, accumulate

__all__ = [
    "Tensor2",
    "Tensor3",
    "TensorSeries",
    "VarianceError",
    "SingularMatrixError",
    "diamond",
    "diamond_power",
    "mu",
    "mu_inv",
    "schouten",
    "two_form_d",
    "is_closed",
    "formal_poisson",
    "series_inverse",
    "series_diamond",
    "series_schouten",
    "invert_scalar_matrix",
    "matmul",
]


class VarianceError(ValueError):
    pass


class SingularMatrixError(ValueError):
    pass


def _coerce_poly(dim, v):
    if isinstance(v, Polynomial):
        if v.dim != dim:
            raise ValueError("entry dim mismatch")
        return v
    return Polynomial.constant(dim, v)


class Tensor2:
    """Rank-2 tensor with Polynomial entries and a variance tag."""

    __slots__ = ("dim", "variance", "rows")

    def __init__(self, dim, variance, rows):
        if variance not in ("lower", "upper"):
            raise VarianceError("variance must be 'lower' or 'upper'")
        if len(rows) != dim or any(len(r) != dim for r in rows):
            raise ValueError("rows must form a %d x %d matrix" % (dim, dim))
        self.dim = dim
        self.variance = variance
        self.rows = tuple(tuple(_coerce_poly(dim, v) for v in r) for r in rows)

    @classmethod
    def zeros(cls, dim, variance):
        z = Polynomial.zero(dim)
        return cls(dim, variance, [[z] * dim for _ in range(dim)])

    def entry(self, i, j):
        return self.rows[i][j]

    # -- linear structure ---------------------------------------------------

    def _check(self, other):
        if self.dim != other.dim:
            raise ValueError("tensor dims differ")
        if self.variance != other.variance:
            raise VarianceError("tensor variances differ: %s vs %s" % (self.variance, other.variance))

    def _combine(self, other, subtract):
        self._check(other)
        op = sub if subtract else add
        return Tensor2(self.dim, self.variance,
                       [list(map(op, r1, r2)) for r1, r2 in zip(self.rows, other.rows)])

    def __add__(self, other):
        return self._combine(other, False)

    def __sub__(self, other):
        return self._combine(other, True)

    def __neg__(self):
        return self.map(lambda p: -p)

    def scale(self, c):
        return self.map(lambda p: p.scale(c))

    def map(self, fn):
        return Tensor2(self.dim, self.variance, [[fn(v) for v in r] for r in self.rows])

    def transpose(self):
        return Tensor2(self.dim, self.variance,
                       [[self.rows[j][i] for j in range(self.dim)] for i in range(self.dim)])

    # -- predicates -----------------------------------------------------------

    def is_zero(self):
        return all(v.is_zero() for r in self.rows for v in r)

    def is_skew(self):
        for i in range(self.dim):
            if not self.rows[i][i].is_zero():
                return False
            for j in range(i):
                if self.rows[i][j] != -self.rows[j][i]:
                    return False
        return True

    def is_constant(self):
        return all(v.is_constant() for r in self.rows for v in r)

    def constant_rows(self):
        if not self.is_constant():
            raise ValueError("tensor entries are not constant")
        return [[v.constant_value() for v in r] for r in self.rows]

    def __eq__(self, other):
        if not isinstance(other, Tensor2):
            return NotImplemented
        return (self.dim, self.variance, self.rows) == (other.dim, other.variance, other.rows)

    def __hash__(self):
        return hash((self.dim, self.variance, self.rows))

    # -- evaluation -------------------------------------------------------------

    def pair(self, f, g):
        """Apply an upper tensor to two observables: sum A^{ij} d_i f d_j g."""
        if self.variance != "upper":
            raise VarianceError("pairing requires an upper tensor")
        df = [[f.partial(i) for i in range(self.dim)]]
        dg = [[g.partial(j)] for j in range(self.dim)]
        return matmul(matmul(df, self.rows), dg)[0][0]

    def to_strs(self):
        """Dense row-major matrix of canonical polynomial strings."""
        return [[str(v) for v in r] for r in self.rows]

    def __str__(self):
        return "[" + "; ".join(", ".join(str(v) for v in r) for r in self.rows) + "]"

    def __repr__(self):
        return "Tensor2(%d, %s, %s)" % (self.dim, self.variance, self)


class Tensor3:
    """Fully antisymmetric rank-3 tensor, stored on strictly increasing triples."""

    __slots__ = ("dim", "entries")

    def __init__(self, dim, entries=None):
        self.dim = dim
        clean = {}
        for (i, j, k), v in (entries or {}).items():
            if not (0 <= i < j < k < dim):
                raise ValueError("triple (%d,%d,%d) must be strictly increasing" % (i, j, k))
            v = _coerce_poly(dim, v)
            if not v.is_zero():
                clean[(i, j, k)] = v
        self.entries = clean

    def entry(self, i, j, k):
        v = self.entries.get(tuple(sorted((i, j, k))))
        if v is None:
            return Polynomial.zero(self.dim)
        return -v if ((i > j) + (i > k) + (j > k)) % 2 else v

    def is_zero(self):
        return not self.entries

    def __add__(self, other):
        entries = dict(self.entries)
        for key, v in other.entries.items():
            accumulate(entries, key, v)
        return Tensor3(self.dim, entries)

    def __eq__(self, other):
        if not isinstance(other, Tensor3):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    def __repr__(self):
        body = ", ".join("(%d,%d,%d): %s" % (i + 1, j + 1, k + 1, v)
                         for (i, j, k), v in sorted(self.entries.items()))
        return "Tensor3(%d, {%s})" % (self.dim, body)


# -- structure-matrix contractions ------------------------------------------


def matmul(a, b):
    """Exact product of two matrices given as rows of Polynomial; zero entries are skipped."""
    zero = Polynomial.zero(b[0][0].dim)
    out = []
    for arow in a:
        acc = {}
        for x, brow in zip(arow, b):
            if x.is_zero():
                continue
            for j, y in enumerate(brow):
                if not y.is_zero():
                    accumulate(acc, j, x * y)
        out.append([acc.get(j, zero) for j in range(len(b[0]))])
    return out


def diamond(a, b, geom):
    """Diamond contraction of two like-variance tensors: a^T wbar b or A^T w B."""
    if not isinstance(a, Tensor2) or not isinstance(b, Tensor2):
        raise TypeError("diamond expects Tensor2 operands")
    a._check(b)
    if a.dim != geom.dim:
        raise ValueError("tensor dim does not match chart dim")
    w = geom.omega_bar if a.variance == "lower" else geom.omega
    return Tensor2(a.dim, a.variance, matmul(a.transpose().rows, matmul(w.rows, b.rows)))


def diamond_power(a, n, geom):
    """n-fold diamond power a <> (a <> (... <> a)); requires n >= 1 and skew a."""
    if n < 1:
        raise ValueError("diamond power requires n >= 1")
    out = a
    for _ in range(n - 1):
        out = diamond(a, out, geom)
    return out


def mu(alpha, geom):
    """Raise both indices of a lower tensor: mu(a)^{ij} = -wbar^{ir} wbar^{js} a_{rs}."""
    if alpha.variance != "lower":
        raise VarianceError("mu expects a lower tensor")
    wbar = geom.omega_bar.rows
    return Tensor2(alpha.dim, "upper", matmul(matmul(wbar, alpha.rows), wbar))


def mu_inv(A, geom):
    """Lower both indices of an upper tensor: mu_inv(A)_{ij} = -w_{ir} w_{js} A^{rs}."""
    if A.variance != "upper":
        raise VarianceError("mu_inv expects an upper tensor")
    w = geom.omega.rows
    return Tensor2(A.dim, "lower", matmul(matmul(w, A.rows), w))


# -- brackets and derivatives --------------------------------------------------


def _triples(dim, component):
    """The Tensor3 of ``component(i, j, k)`` over the triples i < j < k."""
    return Tensor3(dim, {t: component(*t) for t in combinations(range(dim), 3)})


def schouten(A, B):
    """Schouten bracket of two skew upper tensors, as a rank-3 tensor.

    [A,B]^{ijk} is the cyclic sum over (i,j,k) of
    A^{li} d_l B^{jk} + B^{li} d_l A^{jk}; for skew inputs the cyclic sum is
    already fully antisymmetric.
    """
    if A.variance != "upper" or B.variance != "upper":
        raise VarianceError("schouten expects upper tensors")
    A._check(B)
    dim = A.dim

    def component(i, j, k):
        out = Polynomial.zero(dim)
        for c0, c1, c2 in ((i, j, k), (j, k, i), (k, i, j)):
            for l in range(dim):
                for P, Q in ((A, B), (B, A)):
                    a = P.rows[l][c0]
                    if not a.is_zero():
                        d = Q.rows[c1][c2].partial(l)
                        if not d.is_zero():
                            out = out + a * d
        return out

    return _triples(dim, component)


def two_form_d(alpha):
    """Exterior derivative of a lower skew tensor: (d a)_{ijk} = d_i a_{jk} - d_j a_{ik} + d_k a_{ij}."""
    if alpha.variance != "lower":
        raise VarianceError("exterior derivative expects a lower tensor")
    a = alpha.rows
    return _triples(alpha.dim, lambda i, j, k: (a[j][k].partial(i) - a[i][k].partial(j)
                                                + a[i][j].partial(k)))


def is_closed(alpha):
    return two_form_d(alpha).is_zero()


# -- hbar series of tensors ------------------------------------------------------


class TensorSeries:
    """Checked constructor of tensor series, plain HbarSeries of Tensor2."""

    @staticmethod
    def from_terms(dim, variance, order, terms):
        """Build from an iterable of (power, Tensor2) pairs; repeated powers
        add and powers above ``order`` drop."""
        if variance not in ("lower", "upper"):
            raise VarianceError("variance must be 'lower' or 'upper'")
        coeffs = {}
        for n, t in terms:
            if not isinstance(t, Tensor2) or t.dim != dim or t.variance != variance:
                raise VarianceError("series coefficient at order %d has wrong shape" % n)
            coeffs[n] = coeffs[n] + t if n in coeffs else t
        return HbarSeries(order, coeffs)


def series_diamond(A, B, geom):
    """Order-by-order diamond product of two like-variance tensor series."""
    return A.convolve(B, mul=lambda a, b: diamond(a, b, geom))


def series_schouten(A, B):
    """Order-by-order Schouten bracket of two upper tensor series.

    Returns the HbarSeries of Tensor3 brackets, truncated at the lower of
    the two orders; zero iff the series bracket vanishes through it.
    """
    return A.convolve(B, mul=schouten)


def formal_poisson(perturbation, geom, order):
    """Deformed bivector series for the Weyl curvature w + a^hbar.

    Given the lower perturbation series a^hbar (no hbar^0 part, skew
    coefficients), returns

        wbar  -  sum_{p >= 1} (mu(a^hbar))^{<> p}

    truncated at ``order``.  For closed perturbations the output is a formal
    Poisson bivector; for any perturbation it inverts w + a^hbar, which
    ``series_inverse`` checks independently.
    """
    for n, t in perturbation.coeffs.items():
        if t.variance != "lower":
            raise VarianceError("perturbation must be a lower tensor series")
        if t.dim != geom.dim:
            raise ValueError("perturbation dim does not match chart dim")
        if n == 0:
            raise ValueError("perturbation must start at hbar^1 or higher")
        if not t.is_skew():
            raise ValueError("perturbation coefficient at order %d is not skew" % n)

    abar = perturbation.with_order(order).map(lambda t: mu(t, geom))
    acc = HbarSeries(order, {0: geom.omega_bar})
    power = abar
    while not power.is_zero():
        acc = acc - power
        power = series_diamond(abar, power, geom)
    return acc


def series_inverse(series, order):
    """Invert a tensor series of either variance order by order.

    The hbar^0 coefficient must be a constant invertible matrix.  A lower
    series O gives the upper series Obar with  O_{ij} Obar^{jk} = delta_i^k
    through ``order``, and an upper series gives the lower one; the output
    variance is the opposite of the hbar^0 coefficient's.
    """
    if len({t.variance for t in series.coeffs.values()}) > 1:
        raise VarianceError("series_inverse expects a series of one variance")
    o0 = series.coeff(0)
    if o0 is None:
        raise SingularMatrixError("series has no hbar^0 term")
    dim = o0.dim
    variance = "upper" if o0.variance == "lower" else "lower"
    w0 = Tensor2(dim, variance, invert_scalar_matrix(o0.constant_rows()))
    inv = {0: w0}
    higher = {n: t for n, t in series.coeffs.items() if 0 < n <= order}
    for n in range(1, order + 1):
        # O_0 inv_n = -sum_{l >= 1} O_l inv_{n-l}
        acc = Tensor2.zeros(dim, variance)
        for l, el in higher.items():
            if l <= n:
                acc = acc + Tensor2(dim, variance, matmul(el.rows, inv[n - l].rows))
        inv[n] = -Tensor2(dim, variance, matmul(w0.rows, acc.rows))
    return HbarSeries(order, inv)


def invert_scalar_matrix(rows):
    """Exact inverse of a square GaussianRational matrix by elimination."""
    n = len(rows)
    a = [[GaussianRational.coerce(v) for v in r] for r in rows]
    inv = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = a[col][col].inverse()
        a[col] = [v * scale for v in a[col]]
        inv[col] = [v * scale for v in inv[col]]
        for r in range(n):
            if r == col or not a[r][col]:
                continue
            factor = a[r][col]
            a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
            inv[r] = [v - factor * w for v, w in zip(inv[r], inv[col])]
    return inv
