"""Exact coefficient arithmetic.

Three layers, all exact (no floating point anywhere):

* ``GaussianRational`` -- numbers a + b*i with rational a, b;
* ``Polynomial``       -- sparse multivariate polynomials over them;
* ``HbarSeries``       -- power series in the deformation parameter,
                          truncated at a fixed order.

Values are immutable by convention: every operation returns a new object.

No sparse container stores a zero: a ``Polynomial`` holds only nonzero
coefficients and a ``WeylForm`` only nonzero polynomials, so equality can
compare the term dicts directly.  Every term sum in the package goes through
``accumulate``, the one place that adds into a sparse dict and drops the key
when the sum cancels.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["GaussianRational", "Polynomial", "HbarSeries", "ZERO", "ONE", "I",
           "accumulate", "index_exponent"]


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected int or Fraction, got %r" % type(x).__name__)


_F0 = Fraction(0)


def accumulate(out, key, v, subtract=False):
    """Add ``v`` into ``out[key]`` (subtract it with ``subtract``), storing no zero.

    A missing key receives ``v`` (or ``-v``) only when that value is nonzero,
    and a key whose sum cancels is deleted.  The zero test is truthiness;
    tensor coefficients of an ``HbarSeries`` have no truth value of their
    own, so ``HbarSeries`` drops zeros in its constructor as well.
    """
    prev = out.get(key)
    if prev is None:
        if v:
            out[key] = -v if subtract else v
        return
    s = prev - v if subtract else prev + v
    if s:
        out[key] = s
    else:
        del out[key]


def index_exponent(dim, idx):
    """The exponent tuple of the monomial x^{i_1} ... x^{i_n}, idx = (i_1, ...)."""
    u = [0] * dim
    for i in idx:
        u[i] += 1
    return tuple(u)


class GaussianRational:
    """An exact complex rational a + b*i."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _frac(re)
        self.im = _frac(im)

    @classmethod
    def _make(cls, re, im):
        # Internal fast path: both parts already Fractions.
        g = object.__new__(cls)
        g.re = re
        g.im = im
        return g

    @staticmethod
    def coerce(x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, Fraction):
            return GaussianRational._make(x, _F0)
        if isinstance(x, int):
            return GaussianRational._make(Fraction(x), _F0)
        raise TypeError("cannot coerce %r to GaussianRational" % (x,))

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        other = GaussianRational.coerce(other)
        b, d = self.im, other.im
        if b:
            im = b + d if d else b
        else:
            im = d
        return GaussianRational._make(self.re + other.re, im)

    __radd__ = __add__

    def __sub__(self, other):
        other = GaussianRational.coerce(other)
        b, d = self.im, other.im
        if d:
            im = b - d
        else:
            im = b
        return GaussianRational._make(self.re - other.re, im)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __neg__(self):
        return GaussianRational._make(-self.re, -self.im)

    def __mul__(self, other):
        other = GaussianRational.coerce(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b:
            if not d:
                return GaussianRational._make(a * c, _F0)
            return GaussianRational._make(a * c, a * d)
        if not d:
            return GaussianRational._make(a * c, b * c)
        return GaussianRational._make(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * GaussianRational.coerce(other).inverse()

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = ONE
        for _ in range(n):
            out = out * self
        return out

    # -- predicates and hashing ------------------------------------------

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __eq__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    # -- canonical text form ---------------------------------------------

    def __str__(self):
        if not self:
            return "0"
        if self.im == 0:
            return _frac_str(self.re)
        if self.re == 0:
            return _imag_str(self.im)
        sep = "+" if self.im > 0 else "-"
        return "%s%s%s" % (_frac_str(self.re), sep, _imag_str(abs(self.im)))

    def __repr__(self):
        return "GaussianRational(%s)" % self


def _frac_str(q):
    return str(q)


def _imag_str(q):
    if q == 1:
        return "i"
    if q == -1:
        return "-i"
    return "%s*i" % q


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


class Polynomial:
    """Sparse polynomial in ``dim`` chart variables over GaussianRational.

    Terms live in a dict mapping exponent tuples (length ``dim``) to nonzero
    coefficients.  The canonical text form lists terms in descending
    lexicographic exponent order, e.g. ``3/2*x1^2*x2-x2+1``.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim, terms=None):
        self.dim = dim
        clean = {}
        for exp, c in (terms or {}).items():
            if len(exp) != dim:
                raise ValueError("exponent tuple %r does not match dim %d" % (exp, dim))
            c = GaussianRational.coerce(c)
            if c:
                clean[tuple(exp)] = c
        self.terms = clean

    @classmethod
    def _make(cls, dim, terms):
        # Internal fast path: ``terms`` already clean, ownership transferred.
        p = object.__new__(cls)
        p.dim = dim
        p.terms = terms
        return p

    @classmethod
    def zero(cls, dim):
        return cls._make(dim, {})

    @classmethod
    def constant(cls, dim, c):
        c = GaussianRational.coerce(c)
        return cls._make(dim, {(0,) * dim: c} if c else {})

    @classmethod
    def one(cls, dim):
        return cls.constant(dim, 1)

    @classmethod
    def variable(cls, dim, j):
        """The coordinate x_{j+1}; ``j`` is 0-based."""
        if not 0 <= j < dim:
            raise ValueError("variable index %d out of range for dim %d" % (j, dim))
        exp = tuple(1 if t == j else 0 for t in range(dim))
        return cls._make(dim, {exp: ONE})

    @classmethod
    def monomial(cls, dim, exp, c=1):
        return cls(dim, {tuple(exp): c})

    # -- arithmetic -------------------------------------------------------

    def _check(self, other):
        if self.dim != other.dim:
            raise ValueError("polynomial dims differ: %d vs %d" % (self.dim, other.dim))

    def _combine(self, other, subtract):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Polynomial.constant(self.dim, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            accumulate(out, exp, c, subtract)
        return Polynomial._make(self.dim, out)

    def __add__(self, other):
        return self._combine(other, False)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, True)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Polynomial._make(self.dim, {e: -c for e, c in self.terms.items()})

    def scale(self, c):
        c = GaussianRational.coerce(c)
        if not c:
            return Polynomial.zero(self.dim)
        if not c.im:
            cr = c.re
            if cr == 1:
                return self
            if cr == -1:
                return -self
        return Polynomial._make(self.dim, {e: v * c for e, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                accumulate(out, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return Polynomial._make(self.dim, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = Polynomial.one(self.dim)
        for _ in range(n):
            out = out * self
        return out

    def partial(self, j):
        """Partial derivative with respect to the 0-based variable ``j``."""
        if not 0 <= j < self.dim:
            raise ValueError("variable index %d out of range" % j)
        out = {}
        for exp, c in self.terms.items():
            k = exp[j]
            if k:
                accumulate(out, exp[:j] + (k - 1,) + exp[j + 1:], c * k)
        return Polynomial._make(self.dim, out)

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        return self.terms.get((0,) * self.dim, ZERO)

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Polynomial.constant(self.dim, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- canonical text form -----------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for exp in sorted(self.terms, reverse=True):
            c = self.terms[exp]
            if c.re:
                pieces.append(_term_str(exp, c.re, imag=False))
            if c.im:
                pieces.append(_term_str(exp, c.im, imag=True))
        sign0, body0 = pieces[0]
        out = ("-" if sign0 == "-" else "") + body0
        for sign, body in pieces[1:]:
            out += sign + body
        return out

    def __repr__(self):
        return "Polynomial(%d, %s)" % (self.dim, self)


def _term_str(exp, q, imag):
    """One printed term as (sign, body); ``q`` is a nonzero Fraction."""
    sign = "-" if q < 0 else "+"
    q = abs(q)
    factors = []
    mono = [("x%d" % (j + 1)) + ("^%d" % e if e > 1 else "") for j, e in enumerate(exp) if e]
    if q != 1 or (not mono and not imag):
        factors.append(str(q))
    if imag:
        factors.append("i")
    factors.extend(mono)
    return sign, "*".join(factors)


class HbarSeries:
    """A power series in hbar truncated at ``order`` (inclusive).

    Coefficients may be any exact values supporting +, -, and a zero test
    (polynomials, tensors, plain rationals).  Coefficients beyond the
    truncation order are silently dropped.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs=None):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        self.order = order
        clean = {}
        for n, v in (coeffs or {}).items():
            if n < 0:
                raise ValueError("negative hbar power %d" % n)
            if n <= order and not _is_zero(v):
                clean[n] = v
        self.coeffs = clean

    @classmethod
    def zero(cls, order):
        return cls(order, {})

    def coeff(self, n, default=None):
        return self.coeffs.get(n, default)

    # -- arithmetic ---------------------------------------------------------

    def _combine(self, other, subtract):
        if not isinstance(other, HbarSeries):
            return NotImplemented
        order = min(self.order, other.order)
        out = {n: v for n, v in self.coeffs.items() if n <= order}
        for n, v in other.coeffs.items():
            if n <= order:
                accumulate(out, n, v, subtract)
        return HbarSeries(order, out)

    def __add__(self, other):
        return self._combine(other, False)

    def __sub__(self, other):
        return self._combine(other, True)

    def __neg__(self):
        return HbarSeries(self.order, {n: -v for n, v in self.coeffs.items()})

    def scale(self, c):
        return HbarSeries(self.order, {n: _scale(v, c) for n, v in self.coeffs.items()})

    def shift(self, k):
        """Multiply by hbar^k."""
        if k < 0:
            raise ValueError("negative shift")
        return HbarSeries(self.order, {n + k: v for n, v in self.coeffs.items() if n + k <= self.order})

    def convolve(self, other, mul=None, order=None):
        """Cauchy product, truncated at ``order`` (default: min of the two)."""
        if order is None:
            order = min(self.order, other.order)
        out = {}
        for n1, v1 in self.coeffs.items():
            for n2, v2 in other.coeffs.items():
                n = n1 + n2
                if n > order:
                    continue
                p = mul(v1, v2) if mul else v1 * v2
                s = p if n not in out else out[n] + p
                out[n] = s
        return HbarSeries(order, out)

    __mul__ = convolve

    def map(self, fn):
        return HbarSeries(self.order, {n: fn(v) for n, v in self.coeffs.items()})

    def truncate(self, order):
        return HbarSeries(order, {n: v for n, v in self.coeffs.items() if n <= order})

    def with_order(self, order):
        """Same coefficients, re-declared at truncation ``order``."""
        return HbarSeries(order, dict(self.coeffs))

    def min_power(self):
        return min(self.coeffs, default=None)

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, HbarSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __str__(self):
        if not self.coeffs:
            return "O(hbar^%d)" % (self.order + 1)
        parts = []
        for n in sorted(self.coeffs):
            v = self.coeffs[n]
            if n == 0:
                parts.append("(%s)" % v)
            else:
                parts.append("(%s)*hbar^%d" % (v, n))
        return " + ".join(parts) + " + O(hbar^%d)" % (self.order + 1)

    def __repr__(self):
        return "HbarSeries(%d, %s)" % (self.order, self)


def _is_zero(v):
    z = getattr(v, "is_zero", None)
    if z is not None:
        return z() if callable(z) else z
    return not v


def _scale(v, c):
    s = getattr(v, "scale", None)
    if s is not None:
        return s(c)
    return v * c
