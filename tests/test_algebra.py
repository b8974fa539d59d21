"""Exact coefficient arithmetic: Gaussian rationals, polynomials, hbar series."""

import math
from fractions import Fraction

import pytest

from fedosov_lab.algebra import (MAX_PACKED_EXPONENT, GaussianRational, HbarSeries, I, ONE,
                                 Polynomial, ZERO, _split, _Sum, _unpack, accumulate)
from fedosov_lab.geometry import Geometry
from fedosov_lab.weyl import WeylForm, delta, delta_inv, exterior_d, moyal, moyal_sigma

from conftest import rand_coeff, rand_form, rand_poly

F = Fraction


# -- GaussianRational --------------------------------------------------------


def ref_add(a, b):
    return GaussianRational(a.re + b.re, a.im + b.im)


def ref_sub(a, b):
    return GaussianRational(a.re - b.re, a.im - b.im)


def ref_mul(a, b):
    return GaussianRational(a.re * b.re - a.im * b.im,
                            a.re * b.im + a.im * b.re)


def test_gaussian_ring_ops_match_componentwise_formulas(rng):
    # Includes pure-real, pure-imaginary, and zero operands so every fast
    # path of the ring operations is exercised against the full formulas.
    special = [ZERO, ONE, I, -I, GaussianRational(F(3, 2)), GaussianRational(0, F(-2, 5))]
    pool = special + [rand_coeff(rng) for _ in range(30)]
    for _ in range(200):
        a = rng.choice(pool)
        b = rng.choice(pool)
        assert a + b == ref_add(a, b)
        assert a - b == ref_sub(a, b)
        assert a * b == ref_mul(a, b)
        assert -a == ref_sub(ZERO, a)


def test_gaussian_field_ops(rng):
    assert I * I == GaussianRational(-1)
    assert I ** 4 == ONE
    for _ in range(40):
        a = rand_coeff(rng)
        if not a:
            continue
        assert a * a.inverse() == ONE
        assert (a / a) == ONE
        assert a * GaussianRational(a.re, -a.im) == GaussianRational(a.re * a.re + a.im * a.im)
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_gaussian_coercion_and_equality():
    assert GaussianRational(2) == 2
    assert GaussianRational(F(1, 2)) == F(1, 2)
    assert GaussianRational(1) + F(1, 2) == GaussianRational(F(3, 2))
    assert 2 * I == GaussianRational(0, 2)
    with pytest.raises(TypeError):
        GaussianRational.coerce(0.5)
    with pytest.raises(TypeError):
        GaussianRational(0.5)


def test_scalar_hashes_agree_with_equality():
    # equal values hash alike, so each finds the other in a set or dict
    for x in (0, 1, -3, F(1, 2), F(-7, 3)):
        for y in (GaussianRational(x), Polynomial.constant(2, x),
                  Polynomial.constant(4, x)):
            assert y == x and hash(y) == hash(x)
            assert x in {y} and y in {x}
    c = GaussianRational(F(1, 2), 3)
    assert Polynomial.constant(2, c) == c and hash(Polynomial.constant(2, c)) == hash(c)
    assert Polynomial.one(2) in {ONE} and ZERO in {Polynomial.zero(2)}
    x1 = Polynomial.variable(2, 0)
    assert hash(x1 - x1 + 1) == hash(1)


def test_gaussian_str_canonical():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(I) == "i"
    assert str(-I) == "-i"
    assert str(GaussianRational(F(1, 2), F(-3, 4))) == "1/2-3/4*i"
    assert str(GaussianRational(F(-2), F(1))) == "-2+i"


# -- Polynomial ---------------------------------------------------------------


def test_polynomial_ring_axioms(rng):
    dim = 3
    for _ in range(25):
        p = rand_poly(rng, dim)
        q = rand_poly(rng, dim)
        r = rand_poly(rng, dim)
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p - q == p + (-q)
        assert (p - q) + q == p
        assert p * Polynomial.one(dim) == p
        assert (p * Polynomial.zero(dim)).is_zero()


def test_polynomial_scale_fast_paths(rng):
    dim = 3
    for _ in range(20):
        p = rand_poly(rng, dim)
        # the +-1 and 0 shortcuts must agree with generic scaling
        assert p.scale(1) == p * Polynomial.one(dim)
        assert p.scale(-1) == -p
        assert p.scale(0).is_zero()
        c = rand_coeff(rng)
        assert p.scale(c) == p * Polynomial.constant(dim, c)


def test_polynomial_partial_leibniz(rng):
    dim = 3
    for _ in range(20):
        p = rand_poly(rng, dim)
        q = rand_poly(rng, dim)
        for j in range(dim):
            assert (p * q).partial(j) == p.partial(j) * q + p * q.partial(j)
    # mixed partials commute
    p = rand_poly(rng, dim, deg=3, terms=5)
    assert p.partial(0).partial(1) == p.partial(1).partial(0)


def test_polynomial_accessors():
    p = Polynomial(2, {(2, 1): GaussianRational(F(3, 2)), (0, 0): ONE})
    assert p.degree() == 3
    assert not p.is_constant()
    assert p.constant_value() == ONE
    assert Polynomial.zero(2).degree() == -1
    assert Polynomial.constant(2, 5).is_constant()
    x2 = Polynomial.variable(2, 1)
    assert str(x2) == "x2"
    with pytest.raises(ValueError):
        Polynomial.variable(2, 2)
    with pytest.raises(ValueError):
        Polynomial(2, {(1, 0, 0): ONE})


@pytest.mark.parametrize("exp", [(-1, 0), (0, -2), (1.0, 0), (True, 0), ("1", 0)],
                         ids=["negative", "negative-second", "float", "bool", "str"])
def test_polynomial_rejects_non_canonical_exponents(exp):
    # A negative exponent would print as a power of x1 and differentiate to
    # a term of the wrong sign; only non-negative ints are exponents.
    with pytest.raises(ValueError):
        Polynomial(2, {exp: ONE})


def test_polynomial_str_deterministic(rng):
    # the canonical text form must not depend on dict insertion order
    terms = {(2, 0): GaussianRational(F(3, 2)), (1, 1): -ONE,
             (0, 0): GaussianRational(F(1), F(-2))}
    p1 = Polynomial(2, dict(terms))
    p2 = Polynomial(2, dict(reversed(list(terms.items()))))
    assert str(p1) == str(p2)
    assert str(p1) == "3/2*x1^2-x1*x2+1-2*i"


# -- HbarSeries ----------------------------------------------------------------


def test_hbar_series_ring(rng):
    dim = 2
    for _ in range(15):
        a = HbarSeries(5, {n: rand_poly(rng, dim) for n in range(0, 6, 2)})
        b = HbarSeries(5, {n: rand_poly(rng, dim) for n in range(1, 6, 2)})
        c = HbarSeries(5, {0: rand_poly(rng, dim)})
        assert a + b == b + a
        assert (a + b) - b == a
        assert a.convolve(b) == b.convolve(a)
        assert a.convolve(b.convolve(c)) == a.convolve(b).convolve(c)


def test_hbar_series_convolution_matches_manual(rng):
    dim = 2
    a = HbarSeries(4, {0: rand_poly(rng, dim), 2: rand_poly(rng, dim)})
    b = HbarSeries(4, {1: rand_poly(rng, dim), 3: rand_poly(rng, dim)})
    c = HbarSeries(2, {0: rand_poly(rng, dim), 1: rand_poly(rng, dim)})
    for x, y in ((a, b), (a, c)):
        prod = x.convolve(y)
        assert prod.order == min(x.order, y.order)
        for n in range(prod.order + 1):
            want = Polynomial.zero(dim)
            for m in range(n + 1):
                va = x.coeff(m)
                vb = y.coeff(n - m)
                if va is not None and vb is not None:
                    want = want + va * vb
            got = prod.coeff(n, Polynomial.zero(dim))
            assert got == want, n


def test_hbar_series_truncation_and_shift(rng):
    dim = 2
    a = HbarSeries(6, {n: rand_poly(rng, dim) for n in range(7)})
    t = a.with_order(3)
    assert t.order == 3 and all(n <= 3 for n in t.coeffs)
    s = a.shift(2)
    assert s.coeff(2) == a.coeff(0)
    assert s.min_power() == 2
    assert a.with_order(9).order == 9
    with pytest.raises(ValueError):
        HbarSeries(3, {-1: Polynomial.one(dim)})


@pytest.mark.parametrize("build", [
    lambda: HbarSeries(1.5, {0: Polynomial.one(2)}),
    lambda: HbarSeries(2, {0.5: Polynomial.one(2)}),
    lambda: HbarSeries(2, {True: Polynomial.one(2)}),
], ids=["order-float", "power-float", "power-bool"])
def test_hbar_series_orders_and_powers_are_ints(build):
    # A float order printed as O(hbar^2.5), and a float power was stored
    # and printed as hbar^0.
    with pytest.raises(ValueError):
        build()


# -- accumulate and the no-stored-zero invariant ------------------------------


@pytest.mark.parametrize("v", [
    GaussianRational(F(3, 2), -1),
    Polynomial(2, {(1, 0): GaussianRational(F(3, 2)), (0, 2): I}),
])
def test_accumulate_keeps_no_zero(v):
    zero = v - v
    out = {"a": v}
    accumulate(out, "a", -v)
    assert out == {}  # a cancelling sum drops the key
    accumulate(out, "a", v)
    accumulate(out, "a", v, subtract=True)
    assert out == {}
    accumulate(out, "b", zero)
    accumulate(out, "b", zero, subtract=True)
    assert out == {}  # a zero added to a missing key stores nothing
    accumulate(out, "c", v, subtract=True)
    assert out == {"c": -v}  # a subtract into a missing key stores -v
    accumulate(out, "c", v)
    accumulate(out, "d", v)
    accumulate(out, "d", v)
    assert out == {"d": v + v}


def test_keyed_sum_matches_scale_and_add(rng):
    # _Sum adds (re + im*i)/den * poly under a key on integers and reduces
    # each key once; the oracle scales every term and adds.
    dim = 2
    x1, x2 = (Polynomial.variable(dim, j) for j in range(dim))
    acc = _Sum(dim)
    acc.add("a", x1, 1, 0, 2)
    acc.add("a", x2, 0, 1, 3)
    assert acc.keys["a"][0] == 6  # a second denominator lifts the key to the lcm
    acc.add("b", x1, 1)
    acc.add("b", x1.scale(3), -1, 0, 3)  # the sum cancels
    acc.add("c", x1 + x2, 1, 0, 2)
    acc.add("c", x2, -1, 0, 2)
    assert {_unpack(dim, e): v for e, v in acc.keys["c"][1].items()}[(0, 1)] == (0, 0)
    acc.add("d", x1, 0)
    out = acc.polys()
    assert acc.keys == {}  # polys() empties the sum
    # the cancelled keys are absent, and x2's zero numerator is dropped
    assert out == {"a": x1.scale(F(1, 2)) + x2.scale(GaussianRational(0, F(1, 3))),
                   "c": x1.scale(F(1, 2))}
    for _ in range(40):
        acc = _Sum(dim)
        oracle = {}
        added = []
        for _ in range(rng.randint(1, 8)):
            key = rng.randint(0, 3)
            if added and rng.random() < 0.3:  # take back an earlier term
                key, p, c = rng.choice(added)
                c = -c
            else:
                p, c = rand_poly(rng, dim, deg=2, terms=3), rand_coeff(rng)
                added.append((key, p, c))
            acc.add(key, p, *_split(c))
            oracle[key] = oracle.get(key, Polynomial.zero(dim)) + p.scale(c)
        out = acc.polys()
        assert out == {k: v for k, v in oracle.items() if v}
        for p in out.values():
            _assert_canonical_polynomial(p)


def test_sum_first_add_leaves_its_source_polynomial_unchanged():
    # A key's first add stores the scaled numerators as a new dict, a copy
    # of poly's own for the multiplier 1; the second add then sums in place
    # and the lift rescales in place, so an alias would change poly itself.
    dim = 2
    x1, x2 = (Polynomial.variable(dim, j) for j in range(dim))
    p = x1.scale(F(1, 2)) + GaussianRational(0, F(1, 3))  # over 6
    q = x2.scale(F(1, 5)) + x1  # over 5, which no key denominator here has
    for re, im, den in ((1, 0, 1), (3, 0, 2), (2, -1, 7)):  # unit, real, complex
        c = GaussianRational(F(re, den), F(im, den))
        before = Polynomial(dim, dict(p.terms))
        twice, lifted = _Sum(dim), _Sum(dim)
        for acc in (twice, lifted):
            acc.add("k", p, re, im, den)
            assert acc.keys["k"][1] is not p._num
            assert p == before
        twice.add("k", p, re, im, den)
        lifted.add("k", q, 1)
        assert lifted.keys["k"][0] == 30 * den  # q's 5 lifted the key
        assert p == before
        assert twice.polys() == {"k": p.scale(c) + p.scale(c)}
        assert lifted.polys() == {"k": p.scale(c) + q}
        assert p == before
    acc = _Sum(dim)
    acc.add("k", p, 1)
    acc.add("k", p, 1)
    assert acc.polys() == {"k": p + p}


def test_add_product_matches_add_of_product(rng):
    # _Sum.add_product multiplies the two polynomials term pair by term pair
    # into the key; the oracle forms pa * pb and adds it with add.
    dim = 2
    x1, x2 = (Polynomial.variable(dim, j) for j in range(dim))
    acc = _Sum(dim)
    acc.add_product("a", x1, x2.scale(F(1, 3)), 1, 0, 2)
    assert acc.keys["a"][0] == 6
    acc.add_product("a", x1.scale(F(1, 5)), x1, 0, 1)
    assert acc.keys["a"][0] == 30  # a second denominator lifts the key to the lcm
    acc.add_product("a", x1, x1, 0, -1, 5)  # ... and the x1^2 term cancels
    acc.add_product("b", x1 + x2, x1 - x2, 1)  # (x1 + x2)(x1 - x2) - x1^2 + x2^2
    acc.add_product("b", x1, x1, -1)
    acc.add_product("b", x2, x2, 1)
    out = acc.polys()
    assert out == {"a": (x1 * x2).scale(F(1, 6))}  # "b" cancels to nothing
    for _ in range(40):
        fused, oracle = _Sum(dim), _Sum(dim)
        added = []
        for _ in range(rng.randint(1, 8)):
            key = rng.randint(0, 3)
            if added and rng.random() < 0.3:  # take back an earlier product
                key, pa, pb, c = rng.choice(added)
                c = -c
            else:
                pa, pb = (rand_poly(rng, dim, deg=2, terms=3) for _ in range(2))
                c = rand_coeff(rng)
                added.append((key, pa, pb, c))
            if c:
                fused.add_product(key, pa, pb, *_split(c))
                oracle.add(key, pa * pb, *_split(c))
        out = fused.polys()
        assert out == oracle.polys()
        for p in out.values():
            _assert_canonical_polynomial(p)


def test_integer_terms_read_each_coefficient_over_the_shared_denominator(rng):
    dim = 3
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            exp = tuple(rng.randint(0, 2) for _ in range(dim))
            re, im = (F(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))) for _ in range(2))
            terms[exp] = GaussianRational(re, im)
        p = Polynomial(dim, terms)
        got = list(p.integer_terms())
        assert len(got) == len(p.terms)
        assert len({den for _exp, (_re, _im, den) in got}) <= 1
        for exp, (re, im, den) in got:
            assert den > 0
            assert GaussianRational(F(re, den), F(im, den)) == p.terms[exp]
    assert list(Polynomial.zero(dim).integer_terms()) == []
    x1x2 = Polynomial.monomial(dim, (1, 1, 0))
    assert list(x1x2.integer_terms()) == [((1, 1, 0), (1, 0, 1))]
    assert list(x1x2.scale(F(1, 2)).integer_terms()) == [((1, 1, 0), (1, 0, 2))]


def test_packed_exponents_stop_at_the_bound():
    # Each exponent has a 16-bit field and is stored up to 2^15 - 1: past
    # that the constructor raises, and so does a product, whichever factor
    # has one term, rather than let the field carry into x1's.
    dim = 3
    assert MAX_PACKED_EXPONENT == 32767
    top = Polynomial.monomial(dim, (0, 32767, 0))
    assert dict(top.terms) == {(0, 32767, 0): ONE}
    with pytest.raises(ValueError, match="32767"):
        Polynomial.monomial(dim, (0, 32768, 0))
    x2 = Polynomial.variable(dim, 1)
    for a, b in ((top, x2), (x2, top), (top + x2, x2 + 1)):
        with pytest.raises(ValueError, match=r"\(0, 32768, 0\)"):
            a * b
    with pytest.raises(ValueError, match=r"\(0, 32768, 0\)"):
        _Sum(dim).add_product("a", top, x2, 1)
    # reaching the bound is fine
    assert top.partial(1) * x2 == top.scale(32767)
    assert str(top.partial(1)) == "32767*x2^32766"


def _assert_canonical_polynomial(p):
    # Gaussian-integer numerators over one positive denominator, reduced,
    # with no (0, 0) stored: the form that == and hash compare directly.
    assert p._den > 0
    assert all(re or im for re, im in p._num.values()), p
    assert math.gcd(p._den, *(x for pair in p._num.values() for x in pair)) == 1, p
    if not p._num:
        assert p._den == 1
    # the terms view: GaussianRational values with reduced Fractions, the
    # contract bench/tracer.py reads denominators through
    assert all(p.terms.values()) and len(p.terms) == len(p._num)
    for c in p.terms.values():
        assert isinstance(c, GaussianRational)
        for q in (c.re, c.im):
            assert isinstance(q, Fraction) and q.denominator > 0
            assert math.gcd(q.numerator, q.denominator) == 1
    with pytest.raises(TypeError):
        p.terms[(0,) * p.dim] = ONE


def _assert_no_stored_zero(value):
    if isinstance(value, Polynomial):
        _assert_canonical_polynomial(value)
        return
    terms = value.terms if isinstance(value, WeylForm) else value.coeffs
    for p in terms.values():
        assert not p.is_zero(), value
        _assert_no_stored_zero(p)


def test_no_stored_zero_after_arithmetic(rng):
    # Equality compares the term dicts, so one stored zero would make equal
    # values compare unequal.  The d^2 = 0 style operands force whole sums
    # to cancel inside each operation.
    dim = 2
    geom = Geometry(dim)
    for _ in range(30):
        p = rand_poly(rng, dim, deg=2, terms=4)
        q = rand_poly(rng, dim, deg=2, terms=4)
        c = rand_coeff(rng) or ONE
        for value in (p + q, p - q, (p + q) - q, p * q, (p + q) * (p - q),
                      p.partial(0), p.partial(1), p.scale(c), -p, p - p):
            _assert_no_stored_zero(value)
        # equal values reached by different routes are equal, hash alike
        for x, y in ((p * q, q * p), ((p + q) - q, p),
                     (p.scale(c).scale(c.inverse()), p)):
            assert x == y and hash(x) == hash(y)
        a = rand_form(rng, dim, cap=6)
        b = rand_form(rng, dim, cap=6)
        for value in (a + b, a - b, (a + b) - b, moyal(a, b, geom),
                      moyal(a, b, geom) - moyal(b, a, geom),
                      moyal_sigma(a, b, geom),
                      delta(a), delta(delta(a)), delta_inv(a), delta_inv(delta_inv(a)),
                      exterior_d(a), exterior_d(exterior_d(a))):
            _assert_no_stored_zero(value)
        s = HbarSeries(3, {0: p, 1: q, 3: p * q})
        t = HbarSeries(2, {0: p, 2: q})
        for value in (s - t, t - s, (s + t) - t, s - s, t - t.with_order(1)):
            _assert_no_stored_zero(value)
