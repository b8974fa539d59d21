"""Differential test: ``Polynomial`` against a per-term ``Fraction`` oracle.

``RefPoly`` is the earlier ``Polynomial`` arithmetic kept as an oracle: a
dict exp -> GaussianRational, one ``Fraction`` normalisation per coefficient
product and per sum.  ``Polynomial`` itself stores Gaussian-integer
numerators over one shared denominator, keyed by packed exponents; on
seeded random inputs both must agree coefficient by coefficient and in their
printed form, in 1 to 6 variables, for one-term factors (the product's fast
path) and for exponents up to the stored bound 32767.
"""

import random
from fractions import Fraction

import pytest

from fedosov_lab.algebra import GaussianRational, Polynomial

F = Fraction


class RefPoly:
    """Sparse polynomial as exp -> nonzero GaussianRational, per-term arithmetic."""

    def __init__(self, dim, terms):
        self.dim = dim
        self.terms = {e: c for e, c in terms.items() if c}

    @staticmethod
    def _add_into(out, exp, c):
        s = out[exp] + c if exp in out else c
        if s:
            out[exp] = s
        else:
            out.pop(exp, None)

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            self._add_into(out, e, c)
        return RefPoly(self.dim, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            self._add_into(out, e, -c)
        return RefPoly(self.dim, out)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                self._add_into(out, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return RefPoly(self.dim, out)

    def scale(self, c):
        c = GaussianRational.coerce(c)
        return RefPoly(self.dim, {e: v * c for e, v in self.terms.items()})

    def partial(self, j):
        out = {}
        for exp, c in self.terms.items():
            k = exp[j]
            if k:
                self._add_into(out, exp[:j] + (k - 1,) + exp[j + 1:], c * k)
        return RefPoly(self.dim, out)

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for exp in sorted(self.terms, reverse=True):
            c = self.terms[exp]
            if c.re:
                pieces.append(_ref_term_str(exp, c.re, imag=False))
            if c.im:
                pieces.append(_ref_term_str(exp, c.im, imag=True))
        sign0, body0 = pieces[0]
        out = ("-" if sign0 == "-" else "") + body0
        for sign, body in pieces[1:]:
            out += sign + body
        return out


def _ref_term_str(exp, q, imag):
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


# -- seeded inputs ------------------------------------------------------------


def _rational(rng):
    den = rng.randint(1, 2 ** rng.randint(0, 20))
    return F(rng.randint(-60, 60), den)


def _coeff(rng):
    re = _rational(rng) if rng.random() < 0.85 else F(0)
    im = _rational(rng) if rng.random() < 0.5 else F(0)
    return GaussianRational(re, im)


def _exponent(rng, dim, deg):
    e = [0] * dim
    for _ in range(rng.randint(0, deg)):
        e[rng.randrange(dim)] += 1
    return tuple(e)


def _terms(rng, dim):
    shape = rng.random()
    if shape < 0.1:
        return {}                                    # zero polynomial
    if shape < 0.2:
        return {(0,) * dim: _coeff(rng)}             # constant
    if shape < 0.4:
        return {_exponent(rng, dim, 3): _coeff(rng)}  # one term: __mul__'s fast path
    return {_exponent(rng, dim, 3): _coeff(rng) for _ in range(rng.randint(1, 6))}


def _pair(rng, dim):
    """Two term dicts; the second often cancels part or all of the first."""
    p = _terms(rng, dim)
    q = _terms(rng, dim)
    if p and rng.random() < 0.4:
        for e, c in p.items():
            if rng.random() < 0.7:
                q[e] = -c
    return p, q


def _scalar(rng):
    return rng.choice([0, 1, -1, F(1, 2 ** 20), GaussianRational(0, 1),
                       GaussianRational(0, F(-1, 2)), rng.randint(-9, 9), _coeff(rng)])


def _agree(new, ref):
    assert dict(new.terms) == ref.terms
    assert str(new) == str(ref)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_polynomial_matches_fraction_oracle(dim):
    rng = random.Random(7000 + dim)
    for _ in range(150):
        tp, tq = _pair(rng, dim)
        p, q = Polynomial(dim, tp), Polynomial(dim, tq)
        rp, rq = RefPoly(dim, tp), RefPoly(dim, tq)
        _agree(p, rp)
        _agree(p * q, rp * rq)
        _agree(q * p, rq * rp)
        _agree(p + q, rp + rq)
        _agree(p - q, rp - rq)
        _agree(q - p, rq - rp)
        _agree(p - p, rp - rp)
        c = _scalar(rng)
        _agree(p.scale(c), rp.scale(c))
        _agree((p * q).scale(c) + q, (rp * rq).scale(c) + rq)
        for j in range(dim):
            _agree(p.partial(j), rp.partial(j))
            _agree((p * q).partial(j), (rp * rq).partial(j))


def _near_bound(rng, dim, top):
    """A term dict whose terms each hold one exponent in top-2..top."""
    out = {}
    for _ in range(rng.randint(1, 3)):
        e = [rng.randint(0, 2) for _ in range(dim)]
        e[rng.randrange(dim)] = rng.randint(top - 2, top)
        out[tuple(e)] = _coeff(rng)
    return out


@pytest.mark.parametrize("dim", [1, 2, 3, 6])
def test_polynomial_matches_oracle_at_the_exponent_bound(dim):
    # Exponents up to 2^15 - 1 = 32767 are stored.  Sums, partials and
    # products whose exponents stay within the bound agree with the oracle,
    # printed term order included, for one-term and many-term factors; a
    # product that would pass the bound raises.
    top = 32767
    rng = random.Random(7100 + dim)
    for _ in range(40):
        tp = _near_bound(rng, dim, top)
        tq = {tuple(rng.randint(0, 2) for _ in range(dim)): _coeff(rng)
              for _ in range(rng.choice((1, 1, 2, 3)))}
        for a, b in ((tp, tq), (tq, tp), (tp, tp)):
            p, q = Polynomial(dim, a), Polynomial(dim, b)
            rp, rq = RefPoly(dim, a), RefPoly(dim, b)
            _agree(p, rp)
            _agree(p + q, rp + rq)
            _agree(p - q, rp - rq)
            for j in range(dim):
                _agree(p.partial(j), rp.partial(j))
            sums = [x + y for e1 in rp.terms for e2 in rq.terms for x, y in zip(e1, e2)]
            if max(sums, default=0) <= top:
                _agree(p * q, rp * rq)
            else:
                with pytest.raises(ValueError):
                    p * q
    # the largest stored exponent in every variable at once
    e = (top,) * dim
    c = GaussianRational(F(-3, 2), 1)
    p = Polynomial.monomial(dim, e, c)
    assert dict(p.terms) == {e: c}
    assert p.degree() == top * dim
    _agree(p, RefPoly(dim, {e: c}))
