"""Shared deterministic random generators for the property-based suites.

Every helper takes an explicit ``random.Random`` so that each test controls
its own seed and the whole suite is reproducible run to run.
"""

import itertools
import random
from fractions import Fraction

import pytest

from fedosov_lab.algebra import GaussianRational, Polynomial
from fedosov_lab.geometry import Geometry, GeometryError
from fedosov_lab.tensors import Tensor2
from fedosov_lab.weyl import WeylForm


def rand_rational(rng, lo=-4, hi=4, den=3):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def rand_coeff(rng, allow_imag=True):
    re = rand_rational(rng)
    im = rand_rational(rng) if allow_imag else Fraction(0)
    return GaussianRational(re, im)


def rand_poly(rng, dim, deg=2, terms=3, allow_imag=True):
    """Random sparse polynomial of total degree <= deg."""
    p = Polynomial.zero(dim)
    for _ in range(terms):
        e = [0] * dim
        for _ in range(rng.randint(0, deg)):
            e[rng.randint(0, dim - 1)] += 1
        p = p + Polynomial(dim, {tuple(e): rand_coeff(rng, allow_imag)})
    return p


def rand_quadratic(rng, dim, terms=4):
    """Random real polynomial, every term of total degree exactly 2."""
    p = Polynomial.zero(dim)
    for _ in range(terms):
        e = [0] * dim
        for _ in range(2):
            e[rng.randint(0, dim - 1)] += 1
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        p = p + Polynomial(dim, {tuple(e): GaussianRational(c)})
    return p


def rand_cubic(rng, dim, terms=4):
    p = Polynomial.zero(dim)
    for _ in range(terms):
        e = [0] * dim
        for _ in range(rng.randint(1, 3)):
            e[rng.randint(0, dim - 1)] += 1
        c = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
        p = p + Polynomial(dim, {tuple(e): GaussianRational(c)})
    return p


def rand_form(rng, dim, cap, nterms=4, max_h=1, max_ydeg=3, max_q=2,
              coeff_deg=1):
    """Random WeylForm with no term above degree ``cap`` (None: no bound)."""
    w = WeylForm.zero(dim)
    for _ in range(nterms):
        h = rng.randint(0, max_h)
        u = [0] * dim
        for _ in range(rng.randint(0, max_ydeg)):
            u[rng.randint(0, dim - 1)] += 1
        if 2 * h + sum(u) > (cap if cap is not None else 10 ** 9):
            continue
        q = rng.randint(0, min(max_q, dim))
        iq = tuple(sorted(rng.sample(range(dim), q)))
        p = rand_poly(rng, dim, coeff_deg)
        if p.is_zero():
            continue
        w = w + WeylForm(dim, {(h, tuple(u), iq): p})
    return w


def rand_form_qdeg(rng, dim, cap, q, nterms=4, **kw):
    """Random WeylForm homogeneous of exterior-form degree q, with no term
    above degree ``cap`` (None: no bound)."""
    w = WeylForm.zero(dim)
    for _ in range(nterms):
        h = rng.randint(0, kw.get("max_h", 1))
        u = [0] * dim
        for _ in range(rng.randint(0, kw.get("max_ydeg", 3))):
            u[rng.randint(0, dim - 1)] += 1
        if cap is not None and 2 * h + sum(u) > cap:
            continue
        iq = tuple(sorted(rng.sample(range(dim), q)))
        p = rand_poly(rng, dim, kw.get("coeff_deg", 1))
        if p.is_zero():
            continue
        w = w + WeylForm(dim, {(h, tuple(u), iq): p})
    return w


def rand_skew_constant(rng, dim, den=2):
    """Random constant skew covariant 2-tensor (never the zero matrix)."""
    while True:
        rows = [[Fraction(0)] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i + 1, dim):
                v = Fraction(rng.randint(-3, 3), rng.randint(1, den))
                rows[i][j] = v
                rows[j][i] = -v
        t = Tensor2(dim, "lower", rows)
        if not t.is_zero():
            return t


def rand_structure_geometry(rng, dim):
    """Flat chart on a random invertible constant structure matrix, which is
    not the block form."""
    while True:
        try:
            return Geometry(dim, omega=rand_skew_constant(rng, dim))
        except GeometryError:
            continue


def rand_skew_poly(rng, dim, deg=1):
    """Random skew 2-tensor with polynomial entries (not necessarily closed)."""
    rows = [[Polynomial.zero(dim) for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            p = rand_poly(rng, dim, deg, terms=2, allow_imag=False)
            rows[i][j] = p
            rows[j][i] = -p
    return Tensor2(dim, "lower", rows)


def rand_closed_skew_poly(rng, dim, deg=2):
    """Random closed skew 2-tensor built as an exterior derivative.

    alpha = d(phi_j dx^j) has entries alpha_{ij} = d_i phi_j - d_j phi_i and
    is closed by construction.
    """
    phi = [rand_poly(rng, dim, deg, terms=2, allow_imag=False)
           for _ in range(dim)]
    rows = [[phi[j].partial(i) - phi[i].partial(j) for j in range(dim)]
            for i in range(dim)]
    return Tensor2(dim, "lower", rows)


def rand_gamma(rng, dim, deg=1, entries=6):
    """Random fully symmetric lowered Christoffel data of degree <= deg."""
    g = {}
    for _ in range(entries):
        idx = tuple(sorted(rng.randint(0, dim - 1) for _ in range(3)))
        p = rand_poly(rng, dim, deg, terms=2, allow_imag=False)
        if p.is_zero():
            continue
        g[idx] = g.get(idx, Polynomial.zero(dim)) + p
    return {k: v for k, v in g.items() if not v.is_zero()}


def rand_curved_geometry(rng, dim, deg=1, omega=None):
    """Random curved chart on ``omega`` (default: the block form); retries
    until the curvature is nonzero."""
    while True:
        g = Geometry(dim, omega=omega, gamma=rand_gamma(rng, dim, deg))
        if not g.is_flat():
            return g


def bianchi_three_form(entries):
    """The nonzero coefficients of R_{ijkl} y^i dx^j ^ dx^k ^ dx^l for a
    tensor given as ``entries[i][j][k][l]``, keyed (i, (j, k, l)) with
    j < k < l: the alternating sum of R_{i..} over the orderings of (j, k, l).

    For a tensor skew in (k, l) that sum is twice the cyclic sum
    R_{ijkl} + R_{iklj} + R_{iljk}, so the form is zero exactly when the first
    Bianchi identity holds.  (The contraction R_{ijkl} y^j y^k y^l is zero
    for every tensor skew in (k, l), so it checks nothing.)"""
    dim = len(entries)
    out = {}
    for i in range(dim):
        for jkl in itertools.combinations(range(dim), 3):
            s = Polynomial.zero(dim)
            for j, k, l in itertools.permutations(jkl):
                odd = (j > k) + (j > l) + (k > l)
                v = entries[i][j][k][l]
                s = s - v if odd % 2 else s + v
            if not s.is_zero():
                out[(i, jkl)] = s
    return out


@pytest.fixture
def rng():
    return random.Random(20260814)


def scenarios_at_limit(delta):
    """The smallest scenario that carries each size-limited value, set
    ``delta`` steps past its limit (0 gives the largest value that loads).

    Chart dimensions are even, so the dimension steps by two.  Loading one
    of these builds no engine; no test runs an oversized input.
    """
    from fedosov_lab.io import (MAX_COEFF_LIMIT, MAX_DIM, MAX_EXPONENT, MAX_K,
                                MAX_ORDER)

    top = "x1^%d" % (MAX_EXPONENT + delta)
    return {
        "dim": {"geometry": {"dim": MAX_DIM + 2 * delta}},
        "order": {"geometry": {"dim": 2}, "order": MAX_ORDER + delta},
        "coeff_limit": {"geometry": {"dim": 2},
                        "coeff_limit": MAX_COEFF_LIMIT + delta},
        "k": {"geometry": {"dim": 2}, "order": 2, "perturbation": [
            {"k": MAX_K + delta, "alpha": [["0", "1"], ["-1", "0"]]}]},
        "gamma-exponent": {"geometry": {"dim": 2, "gamma": [[[1, 1, 2], top]]}},
        "alpha-exponent": {"geometry": {"dim": 2}, "order": 2, "perturbation": [
            {"k": 1, "alpha": [["0", top], ["-" + top, "0"]]}]},
        # the exponent limit bounds the product, not each factor
        "observable-exponent": {"geometry": {"dim": 2}, "observables": {
            "f": "x2*x1^%d*x1" % (MAX_EXPONENT - 1 + delta)}},
    }


def invalid_json_files():
    """Scenario file contents that the JSON reader itself rejects: broken
    syntax, a byte that is not UTF-8, an integer past the digit limit of
    int(), and arrays nested past the recursion limit."""
    return {
        "not-json": b"{not json",
        "not-utf8": b'{"id": "\xff", "geometry": {"dim": 2}}',
        "long-integer": b'{"geometry": {"dim": 2}, "order": ' + b"1" * 5000 + b"}",
        "deep-nesting": b"[" * 100000 + b"]" * 100000,
    }
