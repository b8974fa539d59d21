"""Exact coefficient arithmetic.

Three layers, all exact (no floating point anywhere):

* ``GaussianRational`` -- numbers a + b*i with rational a, b;
* ``Polynomial``       -- sparse multivariate polynomials over them;
* ``HbarSeries``       -- power series in the deformation parameter,
                          truncated at a fixed order.

Values are immutable by convention: every operation returns a new object.

``GaussianRational`` is the public scalar, but a ``Polynomial`` does not
store one per term.  It keeps Gaussian-integer numerators ``(re, im)`` over
one shared positive denominator, keyed by packed exponents (one int per
monomial, so a product of monomials is one int addition).  Its arithmetic
runs on Python ints and normalises once per operation (one gcd sweep over
the result) instead of once per coefficient product.  ``Polynomial.terms``
rebuilds the ``GaussianRational`` coefficients, keyed by exponent tuples, as
a read-only view.

No sparse container stores a zero: a ``Polynomial`` holds only nonzero
numerators, reduced against its denominator, and a ``WeylForm`` only nonzero
polynomials, so equality can compare the stored dicts directly.  Only this
module reads the integer format; ``Polynomial.integer_terms`` reads it out
term by term, with the shared denominator.  Every weighted sum of
polynomials under keys (the Weyl products, ``delta``, ``delta_inv``,
``exterior_d``, ``weyl.index_form``, ``StarEngine.section``'s assembly from
monomial sections) goes through ``_Sum``, which adds numerators in place and
reduces each key once; ``_Sum.add_product`` adds a weighted product of
two polynomials term pair by term pair, so the scalar projection of a Weyl
product forms no product polynomial; other sums of whole values go through
``accumulate``, which drops the key when the sum cancels.  A row (``_row``)
holds a whole hbar-series of polynomials as one numerator dict keyed by
``(h, packed exp)`` over one denominator, as ``StarEngine``'s pair table
does; ``_RowSum`` adds scaled rows, one call per row, and reduces each hbar
power once at the end.

Three integer kernels do the term arithmetic of ``Polynomial``, ``_Sum``
and ``_RowSum`` alike: ``_scaled`` returns a Gaussian-integer multiple of a
numerator dict as a new dict, in one pass (``scale``, the first operand of
``+`` and ``-``, and a key's first ``_Sum.add``); ``_add_scaled`` adds such
a multiple in place into a plain dict (the second operand, every later
``_Sum.add`` of a key, and each ``_RowSum.add``) and ``_add_product`` a
multiple of the product of two (``*``, ``_Sum.add_product``).  Only the
term maps of ``partial`` and ``-`` run loops of their own.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from types import MappingProxyType

__all__ = ["GaussianRational", "Polynomial", "HbarSeries", "ZERO", "ONE", "I",
           "MAX_PACKED_EXPONENT", "accumulate"]


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected int or Fraction, got %r" % type(x).__name__)


_F0 = Fraction(0)


def _check_exponents(exp, dim, what="exponent"):
    """Raise ``ValueError`` unless ``exp`` holds ``dim`` non-negative ints."""
    if len(exp) != dim:
        raise ValueError("%s tuple %r does not match dim %d" % (what, exp, dim))
    for e in exp:
        if type(e) is not int or e < 0:
            raise ValueError("%s tuple %r must hold non-negative ints" % (what, exp))


# A Polynomial keys each monomial by one packed int, a 16-bit field per
# variable with x1's most significant: int order is lexicographic exponent
# order, and a product of monomials is one int addition.  A stored exponent
# is at most MAX_PACKED_EXPONENT, so two fields sum without a carry; a sum
# that reaches 2^15 sets its field's top bit (the guard), and the product
# raises.  Keys and tuples are memoized, so equal monomials share one object.
MAX_PACKED_EXPONENT = (1 << 15) - 1


@lru_cache(maxsize=None)
def _fields(dim):
    return struct.Struct(">%dH" % dim)


@lru_cache(maxsize=None)
def _guard(dim):
    return int.from_bytes(b"\x80\x00" * dim, "big")


@lru_cache(maxsize=1 << 12)
def _pack(dim, exp):
    """The key of a checked exponent tuple; ValueError past the bound."""
    if max(exp, default=0) > MAX_PACKED_EXPONENT:
        raise ValueError("exponent tuple %r exceeds %d" % (exp, MAX_PACKED_EXPONENT))
    return int.from_bytes(_fields(dim).pack(*exp), "big")


@lru_cache(maxsize=1 << 12)
def _unpack(dim, key):
    """The exponent tuple of a key; exact for a guarded product key too."""
    return _fields(dim).unpack(key.to_bytes(2 * dim, "big"))


def _overflow(dim, e):
    return ValueError("product exponent tuple %r exceeds %d"
                      % (_unpack(dim, e), MAX_PACKED_EXPONENT))


# The three integer kernels, over plain dicts of numerators {packed exp:
# (re, im)} (a row's keys are (h, packed exp)).  The two that add in place
# keep a sum that cancels as (0, 0); the caller drops those once
# (``Polynomial._settled``, ``_RowSum.series``).

def _scaled(num, re, im):
    """(re + im*i) times the numerators ``num``, as a new dict in one pass;
    a copy when the multiplier is 1, so the result never aliases ``num``."""
    if not im:
        if re == 1:
            return num.copy()
        return {e: (a * re, b * re) for e, (a, b) in num.items()}
    return {e: (a * re - b * im, a * im + b * re) for e, (a, b) in num.items()}


def _add_scaled(out, num, re, im):
    """Add (re + im*i) times the numerators ``num`` into ``out``."""
    get = out.get
    if not im:
        for e, (a, b) in num.items():
            prev = get(e)
            out[e] = ((a * re, b * re) if prev is None
                      else (prev[0] + a * re, prev[1] + b * re))
    else:
        for e, (a, b) in num.items():
            x, y = a * re - b * im, a * im + b * re
            prev = get(e)
            out[e] = (x, y) if prev is None else (prev[0] + x, prev[1] + y)


def _add_product(out, dim, left, right, re, im):
    """Add (re + im*i) times the product of the numerators ``left`` and
    ``right`` into ``out``, term pair by term pair; a product key past
    MAX_PACKED_EXPONENT raises."""
    get = out.get
    guard = _guard(dim)
    right = list(right.items())
    for e1, (a, b) in left.items():
        # the scalar goes into the left coefficient once per left term
        x, y = a * re - b * im, a * im + b * re
        for e2, (c, d) in right:
            e = e1 + e2
            if y:
                p, q = x * c - y * d, x * d + y * c
            else:
                p, q = x * c, x * d
            prev = get(e)
            if prev is None:
                if e & guard:
                    raise _overflow(dim, e)
                out[e] = (p, q)
            else:
                out[e] = (prev[0] + p, prev[1] + q)


def accumulate(out, key, v, subtract=False):
    """Add ``v`` into ``out[key]`` (subtract it with ``subtract``), storing no zero.

    A missing key receives ``v`` (or ``-v``) only when that value is nonzero,
    and a key whose sum cancels is deleted.  The zero test is truthiness;
    tensor coefficients of an ``HbarSeries`` have no truth value of their
    own, so ``HbarSeries`` drops zeros in its constructor as well.  Its
    users are ``HbarSeries``, ``Tensor3``, ``tensors.matmul``, the chart's
    scalar tables and ``WeylForm``'s ``+``/``-``.  A weighted sum of
    polynomials under keys, such as a Weyl product or a form built by
    ``weyl.index_form``, uses ``_Sum`` instead.
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
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return GaussianRational._make(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return GaussianRational._make(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __neg__(self):
        return GaussianRational._make(-self.re, -self.im)

    def __mul__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
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
        # a real value equals its Fraction, so it hashes as one
        return hash((self.re, self.im) if self.im else self.re)

    # -- canonical text form ---------------------------------------------

    def __str__(self):
        if not self:
            return "0"
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return _imag_str(self.im)
        sep = "+" if self.im > 0 else "-"
        return "%s%s%s" % (self.re, sep, _imag_str(abs(self.im)))

    def __repr__(self):
        return "GaussianRational(%s)" % self


def _imag_str(q):
    if q == 1:
        return "i"
    if q == -1:
        return "-i"
    return "%s*i" % q


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def _split(c):
    """A nonzero GaussianRational as (re, im, den): Gaussian-integer
    numerator over the least positive common denominator, so reduced."""
    re, im = c.re, c.im
    dr, di = re.denominator, im.denominator
    if dr == di:
        return re.numerator, im.numerator, dr
    den = lcm(dr, di)
    return re.numerator * (den // dr), im.numerator * (den // di), den


def _gaussian(pair, den):
    return GaussianRational._make(Fraction(pair[0], den), Fraction(pair[1], den))


class Polynomial:
    """Sparse polynomial in ``dim`` chart variables over GaussianRational.

    A term dict maps packed exponent keys (one int per monomial, see
    ``_pack``) to Gaussian-integer numerators ``(re, im)``, never ``(0, 0)``,
    over one shared positive denominator: the coefficient of ``exp`` is
    ``(re + im*i) / den``.  The form is kept reduced -- the gcd of ``den``
    and every numerator is 1, and the zero polynomial has ``den == 1`` -- so
    it is canonical, and ``==`` and ``hash`` compare it directly.
    Arithmetic works on ints and reduces once per result.

    ``terms`` is a read-only view ``exp -> GaussianRational`` with exponent
    tuples, built on each access, with reduced Fractions.  The canonical
    text form lists terms in descending lexicographic exponent order, e.g.
    ``3/2*x1^2*x2-x2+1``.  The constructor takes only exponent tuples of
    ``dim`` non-negative ints up to MAX_PACKED_EXPONENT and raises
    ``ValueError`` on any other key; so does a product whose exponent would
    pass that bound.
    """

    __slots__ = ("dim", "_num", "_den")

    def __init__(self, dim, terms=None):
        self.dim = dim
        clean = {}
        for exp, c in (terms or {}).items():
            _check_exponents(exp, dim)
            c = GaussianRational.coerce(c)
            if c:
                clean[_pack(dim, exp)] = c
        # Each prime power of the lcm is the full denominator power of some
        # coefficient part, whose numerator that prime does not divide; so
        # the form is already reduced.
        den = lcm(1, *(q.denominator for c in clean.values() for q in (c.re, c.im)))
        self._num = {e: (c.re.numerator * (den // c.re.denominator),
                         c.im.numerator * (den // c.im.denominator))
                     for e, c in clean.items()}
        self._den = den

    @classmethod
    def _make(cls, dim, num, den):
        # Internal fast path: ``num`` over ``den`` already reduced, no zero
        # stored, ownership transferred.
        p = object.__new__(cls)
        p.dim = dim
        p._num = num
        p._den = den
        return p

    @classmethod
    def _reduced(cls, dim, num, den, g):
        """``_make`` after dividing out the common factor of ``num`` and
        ``den``; ``g`` is a divisor of ``den`` that the factor divides."""
        if not num:
            return cls._make(dim, num, 1)
        if g != 1:
            for re, im in num.values():
                g = gcd(g, re, im)
                if g == 1:
                    break
            else:
                num = {e: (re // g, im // g) for e, (re, im) in num.items()}
                den //= g
        return cls._make(dim, num, den)

    @classmethod
    def _settled(cls, dim, acc, den, g):
        """``_reduced`` of summed numerators, dropping the sums that cancelled."""
        return cls._reduced(dim, {e: v for e, v in acc.items() if v[0] or v[1]}, den, g)

    @classmethod
    def zero(cls, dim):
        return cls._make(dim, {}, 1)

    @classmethod
    def constant(cls, dim, c):
        c = GaussianRational.coerce(c)
        if not c:
            return cls.zero(dim)
        re, im, den = _split(c)
        return cls._make(dim, {0: (re, im)}, den)

    @classmethod
    def one(cls, dim):
        return cls.constant(dim, 1)

    @classmethod
    def variable(cls, dim, j):
        """The coordinate x_{j+1}; ``j`` is 0-based."""
        if not 0 <= j < dim:
            raise ValueError("variable index %d out of range for dim %d" % (j, dim))
        return cls._make(dim, {1 << 16 * (dim - 1 - j): (1, 0)}, 1)

    @classmethod
    def monomial(cls, dim, exp, c=1):
        return cls(dim, {tuple(exp): c})

    @property
    def terms(self):
        """Read-only view exp -> GaussianRational of the nonzero terms."""
        den, dim = self._den, self.dim
        return MappingProxyType({_unpack(dim, e): _gaussian(v, den)
                                 for e, v in self._num.items()})

    def integer_terms(self):
        """Yield (exp, (re, im, den)) per term: the coefficient is
        (re + im*i) / den over the shared denominator, so not always in
        lowest terms."""
        den, dim = self._den, self.dim
        for e, (re, im) in self._num.items():
            yield _unpack(dim, e), (re, im, den)

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
        d1, d2 = self._den, other._den
        # Over lcm(d1, d2) a common factor of the sum can only come from a
        # prime that divides d1 and d2 equally often, so it divides gcd(d1, d2).
        g = gcd(d1, d2)
        m1, m2 = d2 // g, d1 // g
        out = _scaled(self._num, m1, 0)
        _add_scaled(out, other._num, -m2 if subtract else m2, 0)
        return Polynomial._settled(self.dim, out, d1 * m1, g)

    def __add__(self, other):
        return self._combine(other, False)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, True)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Polynomial._make(self.dim, {e: (-a, -b) for e, (a, b) in self._num.items()},
                                self._den)

    def scale(self, c):
        c = GaussianRational.coerce(c)
        if not c:
            return Polynomial.zero(self.dim)
        p, q, s = _split(c)
        # a nonzero Gaussian integer times a nonzero one is nonzero
        den = self._den * s
        return Polynomial._reduced(self.dim, _scaled(self._num, p, q), den, den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        den = self._den * other._den
        out = {}
        _add_product(out, self.dim, self._num, other._num, 1, 0)
        return Polynomial._settled(self.dim, out, den, den)

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
        # Lowering exponent j maps distinct monomials to distinct ones, so
        # no two terms land on one key.
        shift = 16 * (self.dim - 1 - j)
        one = 1 << shift
        out = {}
        for e, (a, b) in self._num.items():
            k = e >> shift & 0xFFFF
            if k:
                out[e - one] = (a * k, b * k)
        return Polynomial._reduced(self.dim, out, self._den, self._den)

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self._num

    def is_constant(self):
        return self._num.keys() <= {0}

    def constant_value(self):
        v = self._num.get(0)
        return ZERO if v is None else _gaussian(v, self._den)

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max((sum(_unpack(self.dim, e)) for e in self._num), default=-1)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Polynomial.constant(self.dim, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.dim == other.dim and self._den == other._den
                and self._num == other._num)

    def __hash__(self):
        if self.is_constant():  # it equals its value, so it hashes as one
            return hash(self.constant_value())
        return hash((self.dim, self._den, frozenset(self._num.items())))

    def __bool__(self):
        return bool(self._num)

    # -- canonical text form -----------------------------------------------

    def __str__(self):
        if not self._num:
            return "0"
        den = self._den
        pieces = []
        for e in sorted(self._num, reverse=True):
            a, b = self._num[e]
            exp = _unpack(self.dim, e)
            if a:
                pieces.append(_term_str(exp, Fraction(a, den), imag=False))
            if b:
                pieces.append(_term_str(exp, Fraction(b, den), imag=True))
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


def _lift(slot, den):
    """The numerators of a ``_Sum`` key's ``slot`` (or a ``_RowSum``'s) over
    a denominator that ``den`` divides, and that denominator's quotient by
    ``den``; a slot whose denominator ``den`` does not divide is first
    lifted to the lcm."""
    top, acc = slot
    if top == den:
        return acc, 1
    if top % den:
        new = lcm(top, den)
        f = new // top
        for e, (a, b) in acc.items():
            acc[e] = (a * f, b * f)
        slot[0] = top = new
    return acc, top // den


class _Sum:
    """An in-place sum of scaled polynomials under keys, such as a form's
    ``(h, u, form)`` terms.

    Each key holds ``[den, {packed exp: (re, im)}]``: Gaussian-integer
    numerators over the key's running positive denominator, which becomes
    the lcm (and the numerators are rescaled) when a term with another
    denominator arrives (``_lift``).  ``add`` adds a scaled polynomial: a
    new key stores the scaled numerators as a new dict in one pass
    (``_scaled``, a copy for the multiplier 1, so a key never shares the
    polynomial's own dict), and a later add sums into it in place
    (``_add_scaled``).  ``add_product`` adds a scaled product of two
    (``_add_product``).
    Nothing is reduced while summing; ``polys`` reduces each key once and
    drops zero numerators and keys that cancel: the in-place sparse-sum
    idiom of Monagan and Pearce (CASC 2007), over exact Gaussian rationals.
    """

    __slots__ = ("dim", "keys")

    def __init__(self, dim):
        self.dim = dim
        self.keys = {}

    def add(self, key, poly, re, im=0, den=1):
        """Add (re + im*i) / den times the Polynomial ``poly`` into ``key``;
        ``re``, ``im`` and ``den > 0`` are ints.  A new key takes the
        scaled numerators in one pass (``_scaled``)."""
        den *= poly._den
        slot = self.keys.get(key)
        if slot is None:
            self.keys[key] = [den, _scaled(poly._num, re, im)]
        else:
            acc, m = _lift(slot, den)
            _add_scaled(acc, poly._num, re * m, im * m)

    def add_product(self, key, pa, pb, re, im=0, den=1):
        """Add (re + im*i) / den times the product ``pa * pb`` into ``key``,
        term pair by term pair, without forming or reducing the product;
        ``re``, ``im`` and ``den > 0`` are ints."""
        den *= pa._den * pb._den
        slot = self.keys.get(key)
        if slot is None:
            acc, m = {}, 1
            self.keys[key] = [den, acc]
        else:
            acc, m = _lift(slot, den)
        _add_product(acc, self.dim, pa._num, pb._num, re * m, im * m)

    def polys(self):
        """key -> reduced nonzero Polynomial; empties the sum, releasing each
        key's numerators as its polynomial is built."""
        out = {}
        keys = self.keys
        for key in list(keys):
            den, acc = keys.pop(key)
            p = Polynomial._settled(self.dim, acc, den, den)
            if p:
                out[key] = p
        return out


def _row(series):
    """An hbar-series of polynomials as one integer row ``(den, num)``:
    Gaussian-integer numerators ``num`` keyed by ``(h, packed exp)`` over
    ``den``, the lcm of the coefficients' denominators.  The keys share the
    polynomials' exponent key objects."""
    coeffs = series.coeffs
    den = lcm(1, *(p._den for p in coeffs.values()))
    num = {}
    for h, p in coeffs.items():
        m = den // p._den
        for e, (a, b) in p._num.items():
            num[(h, e)] = (a * m, b * m)
    return den, num


class _RowSum:
    """An in-place sum of scaled rows (``_row``), such as the pair-table
    rows of a star product.

    One numerator dict keyed by the rows' own ``(h, packed exp)`` keys over
    one running positive denominator, lifted to the lcm only when a row
    brings a denominator it does not divide (``_lift``).  ``add`` adds one
    whole row per call (``_add_scaled``); ``series`` splits the sum by hbar
    power and reduces each power once, dropping sums that cancel.
    """

    __slots__ = ("dim", "slot")

    def __init__(self, dim):
        self.dim = dim
        self.slot = [1, {}]

    def add(self, row, re, im, den):
        """Add (re + im*i) / den times ``row``; ints, ``den > 0``."""
        rden, num = row
        den *= rden
        slot = self.slot
        if slot[0] % den:
            acc, m = _lift(slot, den)
        else:
            acc, m = slot[1], slot[0] // den
        _add_scaled(acc, num, re * m, im * m)

    def series(self, order):
        """The sum as an HbarSeries of reduced polynomials at ``order``:
        one pass finds each power's common factor, a second divides it out."""
        den, acc = self.slot
        factors = {}
        for (h, _), (a, b) in acc.items():
            factors[h] = gcd(factors.get(h, den), a, b)
        powers = {h: {} for h in factors}
        for (h, e), (a, b) in acc.items():
            if a or b:
                g = factors[h]
                powers[h][e] = (a // g, b // g)
        return HbarSeries(order, {h: Polynomial._make(self.dim, num, den // factors[h])
                                  for h, num in powers.items() if num})


class HbarSeries:
    """A power series in hbar truncated at ``order`` (inclusive).

    Coefficients may be any exact values supporting +, - and ``is_zero()``
    (polynomials and tensors).  Coefficients beyond the truncation order are
    silently dropped.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs=None):
        if type(order) is not int or order < 0:
            raise ValueError("truncation order %r must be a non-negative int" % (order,))
        self.order = order
        clean = {}
        for n, v in (coeffs or {}).items():
            if type(n) is not int or n < 0:
                raise ValueError("hbar power %r must be a non-negative int" % (n,))
            if n <= order and not v.is_zero():
                clean[n] = v
        self.coeffs = clean

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

    def shift(self, k):
        """Multiply by hbar^k."""
        if k < 0:
            raise ValueError("negative shift")
        return HbarSeries(self.order, {n + k: v for n, v in self.coeffs.items() if n + k <= self.order})

    def convolve(self, other, mul=None):
        """Cauchy product, truncated at the lower of the two orders: past it
        the factors do not fix the product's coefficients."""
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

    def with_order(self, order):
        """Same coefficients, re-declared at truncation ``order``: powers
        above it drop, so this also truncates."""
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
