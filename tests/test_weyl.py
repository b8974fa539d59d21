"""Weyl algebra: fiberwise product, graded pieces, commutator, delta operators."""

import collections
import itertools
import math
import random
from fractions import Fraction

import pytest

from fedosov_lab.algebra import (GaussianRational, HbarSeries, I, ONE, Polynomial, _split,
                                 accumulate)
from fedosov_lab.geometry import Geometry, standard_omega
from fedosov_lab.tensors import Tensor2, diamond_power, mu
from fedosov_lab.weyl import (HbarDivisionError, WeylForm, central_two_form, commutator,
                              delta, delta_inv, exterior_d, i_over_hbar, index_form,
                              moyal, moyal_sigma, moyal_y_free, odd_bracket, sigma,
                              wedge_merge, y_dx_form, y_gradient)

from fedosov_lab.fedosov import (WeylCurvatureSpec, abelian_residual, curvature_residual,
                                 flat_section, solve_r)

from conftest import (rand_curved_geometry, rand_form, rand_form_qdeg, rand_poly,
                      rand_skew_constant, rand_structure_geometry)
from test_algebra import _assert_canonical_polynomial

F = Fraction


def y_var(dim, j):
    u = tuple(1 if t == j else 0 for t in range(dim))
    return WeylForm(dim, {(0, u, ()): Polynomial.one(dim)})


def graded_piece(a, b, k, geom):
    """a o_k b for single monomials a, b: the hbar^(ha+hb+k) part of a o b."""
    [(ha, _ua, _fa)] = a.terms
    [(hb, _ub, _fb)] = b.terms
    full = moyal(a, b, geom)
    return WeylForm(a.dim, {key: p for key, p in full.terms.items()
                            if key[0] == ha + hb + k})


def monomials(a):
    return [WeylForm(a.dim, {key: p}) for key, p in a.terms.items()]


# -- wedge bookkeeping ---------------------------------------------------------


def test_wedge_merge_signs():
    assert wedge_merge((0,), (1,)) == (1, (0, 1))
    assert wedge_merge((1,), (0,)) == (-1, (0, 1))
    assert wedge_merge((0,), (0,)) is None
    assert wedge_merge((), (2, 3)) == (1, (2, 3))
    assert wedge_merge((1, 3), (0, 2)) == (-1, (0, 1, 2, 3))
    assert wedge_merge((0, 2), (1, 3)) == (-1, (0, 1, 2, 3))


# -- basic products --------------------------------------------------------------


def test_moyal_unit_and_pointwise():
    g2 = Geometry(2)
    one = WeylForm.from_poly(Polynomial.one(2))
    a = WeylForm(2, {(0, (2, 1), (0,)): rand_poly(random.Random(3), 2)})
    assert moyal(one, a, g2) == a
    assert moyal(a, one, g2) == a
    # y1 o y1 = (y1)^2, no correction since the pairing of y1 with itself is 0
    y1 = y_var(2, 0)
    assert moyal(y1, y1, g2) == WeylForm(2, {(0, (2, 0), ()): Polynomial.one(2)})


def test_moyal_single_contraction():
    # y1 o y2 = y1 y2 + (-i hbar/2) wbar^{12}; block omega has wbar^{12} = -1
    g2 = Geometry(2)
    p = moyal(y_var(2, 0), y_var(2, 1), g2)
    want = WeylForm(2, {(0, (1, 1), ()): Polynomial.one(2),
                        (1, (0, 0), ()): Polynomial.constant(2, GaussianRational(0, F(1, 2)))})
    assert p == want
    # and the graded k=1 piece alone
    k1 = graded_piece(y_var(2, 0), y_var(2, 1), 1, g2)
    assert k1 == WeylForm(2, {(1, (0, 0), ()): Polynomial.constant(2, GaussianRational(0, F(1, 2)))})


def test_moyal_graded_symmetry_for_zero_forms(rng):
    # a o_k b = (-1)^k b o_k a on 0-forms
    geom = Geometry(2)
    for _ in range(20):
        a = rand_form_qdeg(rng, 2, None, 0, nterms=3)
        b = rand_form_qdeg(rng, 2, None, 0, nterms=3)
        for ma in monomials(a):
            for mb in monomials(b):
                for k in range(4):
                    lhs = graded_piece(ma, mb, k, geom)
                    rhs = graded_piece(mb, ma, k, geom)
                    assert lhs == (rhs if k % 2 == 0 else -rhs), k


def test_moyal_associative(rng):
    for dim in (2, 4):
        geoms = [Geometry(dim),
                 Geometry(dim, gamma={(0,) * 3: Polynomial.variable(dim, 1)})]
        for geom in geoms:
            for _ in range(10):
                a = rand_form(rng, dim, cap=None, nterms=2, max_ydeg=2)
                b = rand_form(rng, dim, cap=None, nterms=2, max_ydeg=2)
                c = rand_form(rng, dim, cap=None, nterms=2, max_ydeg=2)
                assert moyal(moyal(a, b, geom), c, geom) == moyal(a, moyal(b, c, geom), geom)


def test_moyal_degree_filtered(rng):
    # filtration degree is additive: components of a o b never exceed
    # deg a + deg b, and capping inputs equals capping the full product
    geom = Geometry(2)
    for _ in range(10):
        a = rand_form(rng, 2, cap=None, nterms=3)
        b = rand_form(rng, 2, cap=None, nterms=3)
        da = max((2 * h + sum(u) for (h, u, _f) in a.terms), default=0)
        db = max((2 * h + sum(u) for (h, u, _f) in b.terms), default=0)
        prod = moyal(a, b, geom)
        for (h, u, _f) in prod.terms:
            assert 2 * h + sum(u) <= da + db
        cap = max(da, db)
        assert moyal(a.capped(cap), b.capped(cap), geom).capped(cap) == prod.capped(cap)


def test_commutator_signs(rng):
    geom = Geometry(2)
    # [a,a] = 0 for 0-forms
    for _ in range(10):
        a = rand_form_qdeg(rng, 2, None, 0, nterms=3)
        assert commutator(a, a, geom).is_zero()
    # y-degree-1 0-forms: [a,b] = 2 a o_1 b
    for _ in range(10):
        pa = rand_poly(rng, 2, deg=1)
        pb = rand_poly(rng, 2, deg=1)
        a = WeylForm(2, {(0, (1, 0), ()): pa})
        b = WeylForm(2, {(0, (0, 1), ()): pb})
        assert commutator(a, b, geom) == graded_piece(a, b, 1, geom).scale(2)
    # two 1-forms anticommute: [a,b] = a o b + b o a
    for _ in range(10):
        a = rand_form_qdeg(rng, 2, None, 1, nterms=2)
        b = rand_form_qdeg(rng, 2, None, 1, nterms=2)
        assert commutator(a, b, geom) == moyal(a, b, geom) + moyal(b, a, geom)


def test_odd_bracket_equals_commutator(rng):
    # (i/hbar)[a,b] = 2i/hbar sum_{k odd} a o_k b for homogeneous form
    # degree, any degree; also on capped inputs (capping the commutator at c
    # caps the bracket at c - 2) and on inputs spread over several hbar powers
    for dim in (2, 4):
        geom = Geometry(dim)
        for q1 in range(3):
            for q2 in range(3):
                for _ in range(3):
                    a = rand_form_qdeg(rng, dim, None, q1, nterms=2)
                    b = rand_form_qdeg(rng, dim, None, q2, nterms=2)
                    assert odd_bracket(a, b, geom) == i_over_hbar(commutator(a, b, geom))
                    for cap in (2, 3, 5):
                        ac, bc = a.capped(cap), b.capped(cap)
                        assert odd_bracket(ac, bc, geom).capped(cap - 2) == \
                            i_over_hbar(commutator(ac, bc, geom).capped(cap))
                    mixed = a + a.mul_hbar(1) + a.mul_hbar(3)
                    assert odd_bracket(mixed, b, geom) == \
                        i_over_hbar(commutator(mixed, b, geom))


def test_odd_bracket_prefactors():
    # one pairing: (i/hbar)[y1, y2] = wbar^{12} = -1 on the block chart;
    # three pairings carry the real prefactor 2i(-i/2)^3 = -1/4
    g2 = Geometry(2)
    one = Polynomial.one(2)
    assert odd_bracket(y_var(2, 0), y_var(2, 1), g2) == \
        WeylForm(2, {(0, (0, 0), ()): -one})
    a = WeylForm(2, {(0, (3, 0), ()): one})
    b = WeylForm(2, {(0, (0, 3), ()): one})
    br = odd_bracket(a, b, g2)
    assert br.terms[(2, (0, 0), ())] == Polynomial.constant(2, F(3, 2))
    assert all(c.im == 0 for p in br.terms.values() for c in p.terms.values())
    assert br == i_over_hbar(commutator(a, b, g2))


# -- the product against a per-row oracle -------------------------------------------
#
# The product as it was computed before the chart cached whole contraction
# weights: every call rebuilds each monomial pair's weights from the pairing
# rows of wbar, with falling factorials and the (-i/2)^k prefactors.  Kept
# only as the reference for ``moyal`` and ``odd_bracket``.


def oracle_rows(geom, k):
    entries = [(r, s, v) for r, row in enumerate(geom.omega_bar.constant_rows())
               for s, v in enumerate(row) if v]
    rows = []
    for combo in itertools.combinations_with_replacement(range(len(entries)), k):
        d = [0] * geom.dim
        e = [0] * geom.dim
        w = ONE
        t_prev = None
        mult = 0
        for t in combo:
            r, s, wt = entries[t]
            d[r] += 1
            e[s] += 1
            if t == t_prev:
                mult += 1
            else:
                t_prev, mult = t, 1
            w = w * wt / mult
        rows.append((tuple(d), tuple(e), w))
    return rows


def oracle_descending_factorial(u, d):
    out = 1
    for a, b in zip(u, d):
        if b:
            if b > a:
                return 0
            for t in range(b):
                out *= a - t
    return out


def oracle_moyal(a, b, geom, bracket=False):
    out = {}
    shift = 1 if bracket else 0
    start = GaussianRational(0, 2) if bracket else ONE
    for (ha, ua, Ia), pa in a.terms.items():
        for (hb, ub, Ib), pb in b.terms.items():
            merged = wedge_merge(Ia, Ib)
            if merged is None:
                continue
            sign, IJ = merged
            weights = {}
            for k in range(shift, min(sum(ua), sum(ub)) + 1, 1 + shift):
                for d, e, w in oracle_rows(geom, k):
                    ff = oracle_descending_factorial(ua, d) * oracle_descending_factorial(ub, e)
                    if ff:
                        u = tuple(x - y + z - t for x, y, z, t in zip(ua, d, ub, e))
                        accumulate(weights, (k, u), w * (sign * ff))
            for (k, u), w in weights.items():
                pre = start * GaussianRational(0, F(-1, 2)) ** k
                accumulate(out, (ha + hb + k - shift, u, IJ), (pa * pb).scale(pre * w))
    return WeylForm(a.dim, out)


@pytest.mark.parametrize("dim", [2, 4])
def test_moyal_and_odd_bracket_match_per_row_oracle(rng, dim):
    # The block chart and a non-block one in one process, each visited
    # twice: a chart's table must hold its own weights, and a reused table
    # must give the same product as a fresh one.
    charts = (Geometry(dim), rand_structure_geometry(rng, dim))
    dx0 = tuple(1 if t == 0 else 0 for t in range(dim))
    for _visit in range(2):
        for geom in charts:
            for cap in (None, 2, 3, 5):
                def trunc(w):
                    return w if cap is None else w.capped(cap)

                a = rand_form(rng, dim, cap, nterms=3, max_h=2)
                b = rand_form(rng, dim, cap, nterms=3, max_h=2)
                # dx^1 on the left meets dx^2 on the right and, in b o a,
                # the other way round; hbar^0, hbar^1 and hbar^2 mix
                a = trunc(a + WeylForm(dim, {(1, dx0, (0,)): rand_poly(rng, dim)}))
                b = trunc(b + WeylForm(dim, {(0, (1,) * dim, (1,)): rand_poly(rng, dim)})
                          .mul_hbar(1))
                a = trunc(a + a.mul_hbar(1))
                for x, y in ((a, b), (b, a)):
                    assert moyal(x, y, geom) == oracle_moyal(x, y, geom)
                    assert odd_bracket(x, y, geom) == oracle_moyal(x, y, geom, bracket=True)
    # a chart whose wbar is half the block one reads the same keys and must
    # find its own weights, not the block chart's
    scaled = Geometry(dim, omega=[[2 * v for v in row] for row in standard_omega(dim)])
    keys = [(u, v) for u in itertools.product(range(3), repeat=dim)
            for v in itertools.product(range(3), repeat=dim) if sum(u) == sum(v) == 2]
    for bracket in (False, True):
        tables = []
        for geom in (charts[0], scaled):
            tables.append([geom.moyal_weights(u, v, bracket) for u, v in keys])
            for (u, v), entries in zip(keys, tables[-1]):
                assert geom.moyal_weights(u, v, bracket) is entries  # cached per chart
        assert tables[0] != tables[1]  # each chart keeps its own weights


def fraction_moyal_weights(geom, ua, ub, bracket):
    """The weights of y^ua o y^ub summed in Fraction over every key of the
    rows of ``contraction_numerators(k)``, key by key in row order."""
    shift = 1 if bracket else 0
    entries = []
    for k in range(shift, min(sum(ua), sum(ub)) + 1, 1 + shift):
        sums = {}
        keys = ((d, e, GaussianRational(Fraction(re, den), Fraction(im, den)))
                for d, row in geom.contraction_numerators(k).items()
                for e, (re, im, den) in row.items())
        for d, e, c in keys:
            n = math.prod(map(math.comb, ua + ub, d + e))
            if n:
                u = tuple(x - y + z - t for x, y, z, t in zip(ua, d, ub, e))
                accumulate(sums, u, c * n)
        entries.extend((k - shift, u) + _split(GaussianRational(0, 2) * c if bracket else c)
                       for u, c in sums.items())
    return tuple(entries)


def test_moyal_weights_match_fraction_reference(rng):
    # The integer sum over the rows d <= ua of contraction_numerators(k)
    # must give the Fraction sum's entries in the Fraction sum's order.  Off
    # the block form one left exponent has several right partners, and the
    # walk skips whole rows, so the order is a real check.
    for dim in (2, 4):
        scaled = Geometry(dim, omega=[[2 * v for v in row] for row in standard_omega(dim)])
        top = 3 if dim == 4 else 5
        exps = [u for u in itertools.product(range(top + 1), repeat=dim) if sum(u) <= top]
        for geom in (Geometry(dim), scaled, rand_structure_geometry(rng, dim)):
            for ua in exps:
                for ub in exps:
                    for bracket in (False, True):
                        assert (geom.moyal_weights(ua, ub, bracket)
                                == fraction_moyal_weights(geom, ua, ub, bracket)), (ua, ub)


def fraction_moyal(a, b, geom, bracket=False):
    """a o b, or (i/hbar)[a, b] with ``bracket``, summed in Fraction-level
    GaussianRationals: each pair's weights from ``fraction_moyal_weights``,
    times the wedge sign, times the coefficients' terms pair by pair."""
    out = {}
    for (ha, ua, Ia), pa in a.terms.items():
        for (hb, ub, Ib), pb in b.terms.items():
            merged = wedge_merge(Ia, Ib)
            if merged is None:
                continue
            sign, IJ = merged
            for dh, u, re, im, den in fraction_moyal_weights(geom, ua, ub, bracket):
                c = GaussianRational(F(sign * re, den), F(sign * im, den))
                coeffs = out.setdefault((ha + hb + dh, u, IJ), {})
                for ea, ca in pa.terms.items():
                    for eb, cb in pb.terms.items():
                        accumulate(coeffs, tuple(x + y for x, y in zip(ea, eb)), c * ca * cb)
    return WeylForm(a.dim, {k: Polynomial(a.dim, t) for k, t in out.items()})


def _product_charts_and_forms(rng):
    """Seeded random forms on block and non-block charts in dims 2 and 4,
    each with a y-free term, and the number of monomial pairs of each op
    with zero, one and several contraction entries."""
    cases = []
    for dim in (2, 4):
        for geom in (Geometry(dim), rand_structure_geometry(rng, dim)):
            zero = (0,) * dim
            a, b = (rand_form(rng, dim, None, nterms=5, max_ydeg=3)
                    + WeylForm(dim, {(1, zero, ()): rand_poly(rng, dim, 1) + 1})
                    for _ in range(2))
            cases.append((geom, a, b))
    counts = collections.Counter()
    for geom, a, b in cases:
        for bracket in (False, True):
            for x, y in ((a, b), (b, a)):
                for (_ha, ua, _Ia), (_hb, ub, _Ib) in itertools.product(x.terms, y.terms):
                    counts[(bracket, min(len(geom.moyal_weights(ua, ub, bracket)), 2))] += 1
    return cases, counts


def test_moyal_and_odd_bracket_match_a_fraction_reference(rng):
    """moyal and odd_bracket equal a Fraction-level product on seeded random
    forms whose monomial pairs have no contraction entry (brackets only: a
    product always has its k = 0 piece), one entry, which adds its
    coefficient product term pair by term pair into the sum, and several,
    which share one product polynomial."""
    cases, counts = _product_charts_and_forms(rng)
    assert all(counts[(False, n)] for n in (1, 2)) and counts[(False, 0)] == 0
    assert all(counts[(True, n)] for n in (0, 1, 2))
    for geom, a, b in cases:
        for x, y in ((a, b), (b, a)):
            assert moyal(x, y, geom) == fraction_moyal(x, y, geom)
            assert odd_bracket(x, y, geom) == fraction_moyal(x, y, geom, bracket=True)


def test_fraction_reference_catches_a_wrong_single_entry_pair(rng, monkeypatch):
    """Control: a moyal whose single-entry pairs add their product with the
    wrong sign differs from the reference, for the product and the bracket
    on every chart."""
    from fedosov_lab import algebra
    real = algebra._Sum.add_product

    def negated(self, key, pa, pb, re, im=0, den=1):
        real(self, key, pa, pb, -re, -im, den)
    cases, _counts = _product_charts_and_forms(rng)
    monkeypatch.setattr(algebra._Sum, "add_product", negated)
    for geom, a, b in cases:
        assert moyal(a, b, geom) != fraction_moyal(a, b, geom)
        assert odd_bracket(a, b, geom) != fraction_moyal(a, b, geom, bracket=True)


def test_moyal_weights_row_index_is_per_chart():
    # A miss caches, per chart and (k, ua), the rows of
    # contraction_numerators(k) with d <= ua: two charts whose wbar differ
    # keep their own rows for the same exponents, and a later miss with the
    # same ua reads the cached rows and still gives the Fraction sum.
    dim = 4
    block = Geometry(dim)
    scaled = Geometry(dim, omega=[[2 * v for v in row] for row in standard_omega(dim)])
    dense = Geometry(dim, omega=[[0, -2, 2, -3], [2, 0, -1, -3], [-2, 1, 0, 1], [3, 3, -1, 0]])
    assert all(v for i, row in enumerate(dense.omega_bar.constant_rows())
               for j, v in enumerate(row) if i != j)
    ua, ub, ub2 = (2, 1, 0, 1), (1, 1, 1, 1), (0, 2, 1, 1)
    for bracket in (False, True):
        pair = [g.moyal_weights(ua, ub, bracket) for g in (block, scaled)]
        assert pair[0] != pair[1]
        for g, entries in zip((block, scaled), pair):
            assert entries == fraction_moyal_weights(g, ua, ub, bracket)
    assert dense.moyal_weights(ua, ub, False) == fraction_moyal_weights(dense, ua, ub, False)
    cached = dict(dense._rows_under)
    assert cached and all(key[1] == ua for key in cached)
    for bracket in (False, True):
        assert (dense.moyal_weights(ua, ub2, bracket)
                == fraction_moyal_weights(dense, ua, ub2, bracket))
    assert all(dense._rows_under[key] is rows for key, rows in cached.items())


def test_moyal_y_free_equals_y_free_of_moyal(rng):
    # The projection walks only the fully contracted pairs and keeps their
    # dx factors: random forms mixing 0-, 1- and 2-forms on both sides make
    # the wedge signs count.
    wedged = 0
    for dim in (2, 4):
        for geom in (Geometry(dim), rand_structure_geometry(rng, dim),
                     rand_structure_geometry(rng, dim)):
            for _ in range(6):
                a = rand_form(rng, dim, cap=None, nterms=5, max_q=2)
                b = rand_form(rng, dim, cap=None, nterms=5, max_q=2)
                got = moyal_y_free(a, b, geom)
                assert got == moyal(a, b, geom).y_free()
                assert got == moyal_y_free(a, b, geom)  # a second, cached pass
                wedged += sum(1 for (_h, _u, form) in got.terms if len(form) == 2)
    assert wedged  # some pairs wedged two dx factors into one term


def test_moyal_sigma_equals_sigma_of_moyal(rng):
    # moyal_sigma and moyal read weights cached on the chart, in separate
    # tables; moyal itself is checked against the per-row oracle above.  Two
    # charts in one process, each visited twice, show that no weight leaks
    # from one chart to the other and that a reused cache stays exact.
    for dim in (2, 4):
        charts = (Geometry(dim), rand_structure_geometry(rng, dim))
        for _visit in range(2):
            for geom in charts:
                for _ in range(5):
                    a = rand_form(rng, dim, cap=None, nterms=3)
                    b = rand_form(rng, dim, cap=None, nterms=3)
                    ms = moyal_sigma(a, b, geom)
                    full = sigma(moyal(a, b, geom))
                    n = max(ms.order, full.order)
                    assert ms.with_order(n) == full.with_order(n)


def test_product_sums_return_canonical_polynomials(rng):
    """moyal, odd_bracket, moyal_sigma, delta, delta_inv and exterior_d add
    every term into one integer accumulator and reduce each coefficient
    once; both residuals sum such products.  Every Polynomial they return is
    reduced and stores no zero numerator, and a key whose sum cancels is
    absent.  The coefficients mix the denominators 2, 3 and 5 (one
    imaginary), on a block and a non-block chart."""
    dim = 2
    x1, x2 = (Polynomial.variable(dim, j) for j in range(dim))
    half, third, fifth_i = F(1, 2), F(1, 3), GaussianRational(0, F(1, 5))
    c = [x1.scale(half) + third, x2.scale(fifth_i) - half, (x1 * x2).scale(third) + fifth_i]
    # an even 0-form with hbar, and a 1-form with dx factors on both sides
    a = WeylForm(dim, {(0, (0, 0), ()): c[0], (0, (1, 0), ()): c[1], (0, (0, 1), ()): c[2],
                       (1, (1, 1), ()): c[0], (0, (2, 1), ()): c[1]})
    b = WeylForm(dim, {(0, (1, 0), (0,)): c[2], (1, (0, 2), (1,)): c[0],
                       (0, (1, 1), (1,)): c[1]})
    # on every chart moyal_sigma(s, s) at hbar^1 sums w^{12} and w^{21}
    s = WeylForm(dim, {(0, (0, 0), ()): c[1], (0, (1, 0), ()): c[2], (0, (0, 1), ()): c[2]})

    def canonical(value):
        terms = value.terms if isinstance(value, WeylForm) else value.coeffs
        for p in terms.values():
            _assert_canonical_polynomial(p)
        return value

    for x in (a, b, s):
        for op in (delta, delta_inv, exterior_d):
            canonical(op(x))
    assert not delta_inv(b).is_zero() and not exterior_d(a).is_zero()
    assert delta(delta(a)).is_zero() and exterior_d(exterior_d(b)).is_zero()

    other = rand_structure_geometry(rng, dim)
    for geom in (Geometry(dim), other, rand_curved_geometry(rng, dim, deg=0),
                 rand_curved_geometry(rng, dim, deg=0, omega=other.omega)):
        for x, y in ((a, b), (b, a), (a, a), (b, b)):
            assert not canonical(moyal(x, y, geom)).is_zero()
            canonical(odd_bracket(x, y, geom))
            canonical(moyal_sigma(x, y, geom))
        assert odd_bracket(a, a, geom).is_zero()  # every key cancels
        assert not canonical(moyal_sigma(a, a, geom)).is_zero()
        ss = canonical(moyal_sigma(s, s, geom))
        assert 0 in ss.coeffs and 1 not in ss.coeffs
        # the residuals of a solved r and section, each corrupted
        spec = WeylCurvatureSpec(geom)
        r = solve_r(spec, 6)
        sec = flat_section(c[0] + c[2], spec, r, 6) + b.scale(fifth_i)
        r = r + WeylForm(dim, {(1, (2, 1), (1,)): c[2], (0, (3, 1), (0,)): c[1]})
        assert not canonical(curvature_residual(r, spec, 6)).is_zero()
        assert not canonical(abelian_residual(sec, spec, r, 6)).is_zero()


def test_moyal_sigma_order_is_its_only_bound(rng):
    # The product bounded at degree cap is exact through hbar^(cap // 2), and
    # the projection truncated at any order N in that window must equal it.
    for dim in (2, 4):
        for geom in (Geometry(dim), rand_structure_geometry(rng, dim)):
            for cap in (2, 3, 4, 6):
                for _ in range(3):
                    a = rand_form(rng, dim, cap=cap, nterms=5)
                    b = rand_form(rng, dim, cap=cap, nterms=5)
                    full = sigma(moyal(a, b, geom).capped(cap))
                    for n in range(cap // 2 + 1):
                        assert moyal_sigma(a, b, geom, order=n) == full.with_order(n)


def test_moyal_sigma_partner_walk_on_shared_and_missing_partners(rng):
    # moyal_sigma indexes the right operand's dx-free terms by y-exponent and
    # walks each left exponent's row of contraction partners.  The right
    # operand here puts several hbar powers under one exponent and dx terms
    # on the same exponents; the left one has exponents with no partner in
    # the right one, and a y-degree the right one lacks.  Off the block form
    # a row has several partners.
    cap = 6
    for dim in (2, 4):
        scaled = Geometry(dim, omega=[[3 * v for v in row] for row in standard_omega(dim)])
        exps = [u for u in itertools.product(range(4), repeat=dim) if 1 <= sum(u) <= 3]
        right = [rng.choice([u for u in exps if sum(u) == k]) for k in (1, 2, 2, 3, 3)]
        b = WeylForm.zero(dim)
        for ub in right:
            for h in range((cap - sum(ub)) // 2 + 1):
                b = b + WeylForm(dim, {(h, ub, ()): rand_poly(rng, dim)})
            b = b + WeylForm(dim, {(0, ub, (0,)): rand_poly(rng, dim),
                                   (1, ub, (0, 1)): rand_poly(rng, dim)})
        a = WeylForm(dim, {(h, ua, ()): rand_poly(rng, dim)
                           for ua in exps for h in (0, 1)})
        a = a + WeylForm(dim, {(0, (4,) + (0,) * (dim - 1), ()): rand_poly(rng, dim),
                               (0, right[0], (1,)): rand_poly(rng, dim)})
        assert {sum(u) for (_h, u, _f) in a.terms} - {sum(u) for u in right} == {4}
        charts = {"block": Geometry(dim), "scaled": scaled,
                  "random": rand_structure_geometry(rng, dim)}
        for name, geom in charts.items():
            rows = [geom.contraction_numerators(sum(ua))[ua] for ua in exps]
            assert any(not set(row) & set(right) for row in rows)
            if name == "random" and dim == 4:
                # a 2D structure matrix is a multiple of the block form
                assert max(len(row) for row in rows) > 1
            full = moyal(a, b, geom)
            window = sigma(full.capped(cap))
            for n in range(cap // 2 + 1):
                assert moyal_sigma(a, b, geom, order=n) == window.with_order(n)
            ms, whole = moyal_sigma(a, b, geom), sigma(full)
            top = max(ms.order, whole.order)
            assert ms.with_order(top) == whole.with_order(top)
            assert ms.order == max(ms.coeffs)


def test_moyal_sigma_sums_pairings_that_share_exponents():
    # On a structure matrix with every entry nonzero, several 2-fold
    # pairings contract the same pair of y-quadratics; the projection must
    # add all of them, as the full product does.
    omega = Tensor2(4, "lower", [[0, 1, 2, 3], [-1, 0, 4, 5],
                                 [-2, -4, 0, 6], [-3, -5, -6, 0]])
    geom = Geometry(4, omega=omega)
    quads = sorted(u for u in itertools.product(range(3), repeat=4) if sum(u) == 2)
    a = WeylForm(4, {(0, u, ()): Polynomial.constant(4, t + 1)
                     for t, u in enumerate(quads)})
    b = WeylForm(4, {(0, u, ()): Polynomial.constant(4, F(1, t + 1))
                     for t, u in enumerate(quads)})
    assert moyal_sigma(a, b, geom) == sigma(moyal(a, b, geom))
    assert moyal_sigma(a, b, geom).coeff(2) != Polynomial.zero(4)


def test_moyal_sigma_rejects_an_order_that_is_not_an_int():
    geom = Geometry(2)
    a = WeylForm(2, {(0, (1, 0), ()): Polynomial.one(2)})
    b = WeylForm(2, {(0, (0, 1), ()): Polynomial.one(2)})
    assert moyal_sigma(a, b, geom, order=1).order == 1
    with pytest.raises(ValueError):
        moyal_sigma(a, b, geom, order=1.5)


# -- delta, delta_inv, sigma -----------------------------------------------------


def test_delta_definition():
    # delta(y1 y2) = y2 dx1 + y1 dx2
    a = WeylForm(2, {(0, (1, 1), ()): Polynomial.one(2)})
    d = delta(a)
    want = WeylForm(2, {(0, (0, 1), (0,)): Polynomial.one(2),
                        (0, (1, 0), (1,)): Polynomial.one(2)})
    assert d == want
    # y-free central terms die
    c = WeylForm.from_poly(rand_poly(random.Random(5), 2))
    assert delta(c).is_zero()


def test_delta_square_zero_and_hodge(rng):
    for dim in (2, 4):
        for _ in range(20):
            a = rand_form(rng, dim, cap=8, nterms=5)
            assert delta(delta(a)).is_zero()
            assert delta_inv(delta_inv(a)).is_zero()
            s = WeylForm.from_series(sigma(a), dim)
            assert a == s + delta(delta_inv(a)) + delta_inv(delta(a))


def test_sigma_projection(rng):
    a = WeylForm(2, {(0, (0, 0), ()): Polynomial.variable(2, 0),
                     (0, (1, 0), ()): Polynomial.one(2),
                     (2, (0, 0), ()): Polynomial.variable(2, 1),
                     (1, (0, 0), (0,)): Polynomial.one(2)})
    s = sigma(a)
    assert s.coeff(0) == Polynomial.variable(2, 0)
    assert s.coeff(2) == Polynomial.variable(2, 1)
    assert s.coeff(1) is None  # the dx term does not survive
    for _ in range(10):
        b = rand_form(rng, 2, cap=6)
        assert sigma(delta_inv(b)).is_zero()


def test_delta_inv_normalization_on_curvature_form():
    # delta_inv(R-form) = (1/8) R_{ijkl} y^i y^j y^k dx^l
    geom = Geometry(2, gamma={(0, 0, 0): Polynomial.variable(2, 1),
                              (0, 0, 1): Polynomial.one(2)})
    curv = geom.curvature()
    rw = curv.weyl_two_form
    got = delta_inv(rw)
    dim = 2
    terms = {}
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                for l in range(dim):
                    e = curv.entry(i, j, k, l)
                    if e.is_zero():
                        continue
                    u = [0] * dim
                    u[i] += 1
                    u[j] += 1
                    u[k] += 1
                    key = (0, tuple(u), (l,))
                    prev = terms.get(key, Polynomial.zero(dim))
                    terms[key] = prev + e.scale(F(1, 8))
    want = WeylForm(dim, {k: v for k, v in terms.items() if not v.is_zero()})
    assert got == want


@pytest.mark.parametrize("key", [(0, (0, 1), (1, 0)), (0, (0, 1), (0, 0)),
                                 (0, (0, 1), (6,)), (0, (0, 1), (-1,)),
                                 (-1, (0, 1), ()), (0.0, (0, 1), ()),
                                 (0, (-1, 1), ()), (0, (0, 1, 0), ())],
                         ids=["dx-unsorted", "dx-repeated", "dx-past-dim", "dx-negative",
                              "hbar-negative", "hbar-float", "y-negative", "y-wrong-length"])
def test_weyl_form_rejects_non_canonical_keys(key):
    # An unsorted dx tuple would be a second key for the same monomial, so
    # equal forms would compare unequal; only canonical keys are accepted.
    with pytest.raises(ValueError):
        WeylForm(2, {key: Polynomial.one(2)})


X4 = Polynomial.variable(4, 3)
FLAT2 = WeylCurvatureSpec(Geometry(2))


@pytest.mark.parametrize("build", [
    lambda: WeylForm(2, {(0, (0, 0), (1,)): X4}),
    lambda: WeylForm(2, {(0, (0, 0), ()): 3}),
    lambda: WeylForm.from_series(HbarSeries(0, {0: X4}), 2),
    lambda: index_form(2, [(0, (0,), (), X4)]),
    lambda: flat_section(X4, FLAT2, solve_r(FLAT2, 3), 3),
], ids=["constructor", "int", "from-series", "index-form", "flat-section"])
def test_weyl_form_rejects_a_coefficient_of_another_dim(build):
    # Read in dim 2, the packed key of the dim-4 x4 is the key of x2: the
    # form would silently hold x2 (index_form gave x2*y1, delta_inv of the
    # constructor's form x2*y2), and an int coefficient raised AttributeError.
    with pytest.raises(ValueError, match="not a Polynomial of dim 2"):
        build()


X2 = Polynomial.variable(2, 0)


@pytest.mark.parametrize("build", [
    lambda: index_form(2, [(0, (-1,), (), X2)]),
    lambda: index_form(2, [(0, (), (5,), X2)]),
    lambda: index_form(2, [(0, (5,), (), X2)]),
    lambda: index_form(2, [(-1, (0,), (), X2)]),
    lambda: y_dx_form(Tensor2(2, "lower", [[X2, 0], [0, 0]]), hpow=-1),
    lambda: WeylForm.from_poly(X2, -1),
    lambda: WeylForm.from_poly(X2, 1).mul_hbar(-2),
    lambda: WeylForm.from_poly(X2, 1.5),
], ids=["index-form-y-negative", "index-form-dx-past-dim", "index-form-y-past-dim",
        "index-form-hbar-negative", "y-dx-form-hbar-negative", "from-poly-hbar-negative",
        "mul-hbar-below-zero", "from-poly-hbar-float"])
def test_weyl_form_builders_keep_the_constructors_key_rules(build):
    # The builders skip the constructor, so each checks its own keys: a
    # negative y index used to wrap to another variable (x1*y2), a dx index
    # past dim printed as dx_{6}, a y index past dim raised IndexError, and
    # hbar^-1 or hbar^1.5 were stored as given.
    with pytest.raises(ValueError):
        build()


def test_weyl_form_builders_accept_canonical_keys():
    form = WeylForm.from_poly(X2, 1)
    assert form.mul_hbar(-1) == WeylForm.from_poly(X2)
    assert form.mul_hbar(0) == form
    assert WeylForm.zero(2).mul_hbar(-3).is_zero()
    assert (index_form(2, [(2, (1, 1), (1, 0), X2)])
            == WeylForm(2, {(2, (0, 2), (0, 1)): -X2}))


def test_hbar_division_guard():
    a = WeylForm(2, {(0, (1, 0), ()): Polynomial.one(2)})
    with pytest.raises(HbarDivisionError):
        a.div_hbar()
    b = WeylForm(2, {(1, (1, 0), ()): Polynomial.one(2)})
    assert b.div_hbar() == WeylForm(2, {(0, (1, 0), ()): Polynomial.one(2)})
    assert i_over_hbar(b) == b.div_hbar().scale(I)


def test_exterior_d(rng):
    for _ in range(10):
        a = rand_form(rng, 2, cap=8, nterms=4)
        assert exterior_d(exterior_d(a)).is_zero()
    # d(x1 y1 dx2) = y1 dx1 ^ dx2
    a = WeylForm(2, {(0, (1, 0), (1,)): Polynomial.variable(2, 0)})
    assert exterior_d(a) == WeylForm(2, {(0, (1, 0), (0, 1)): Polynomial.one(2)})


# -- closed-form bracket identities for constant perturbations ---------------------


def build_transport_linear(t, f, geom, hpow=0):
    """The y-linear form wbar^{kr} t_{kl} d_r f y^l used by the section recursion."""
    dim = geom.dim
    omb = geom.omega_bar
    terms = {}
    for l in range(dim):
        coeff = Polynomial.zero(dim)
        for k in range(dim):
            for r in range(dim):
                w = omb.entry(k, r).constant_value()
                if not w:
                    continue
                coeff = coeff + (f.partial(r) * t.entry(k, l)).scale(w)
        if coeff.is_zero():
            continue
        u = tuple(1 if m == l else 0 for m in range(dim))
        terms[(hpow, u, ())] = coeff
    return WeylForm(dim, terms)


@pytest.mark.parametrize("dim", [2, 4])
def test_ydx_bracket_merges_diamond_powers(rng, dim):
    # delta_inv((i/2 hbar)[a^{<>m} y dx, a^{<>n} y dx]) = 1/2 a^{<>(m+n)} y dx
    geom = Geometry(dim)
    for _ in range(8):
        alpha = rand_skew_constant(rng, dim)
        for m in range(1, 4):
            for n in range(1, 4):
                am = y_dx_form(diamond_power(alpha, m, geom))
                an = y_dx_form(diamond_power(alpha, n, geom))
                br = commutator(am, an, geom)
                lhs = delta_inv(i_over_hbar(br).scale(F(1, 2)))
                rhs = y_dx_form(diamond_power(alpha, m + n, geom)).scale(F(1, 2))
                assert lhs == rhs, (m, n)


@pytest.mark.parametrize("dim", [2, 4])
def test_ydx_bracket_advances_transport_linear(rng, dim):
    # delta_inv((i/hbar)[a^{<>m} y dx, wbar a^{<>n} df y]) = wbar a^{<>(m+n)} df y
    geom = Geometry(dim)
    for _ in range(8):
        alpha = rand_skew_constant(rng, dim)
        f = rand_poly(rng, dim, deg=3, allow_imag=False)
        for m in range(1, 3):
            for n in range(1, 3):
                am = y_dx_form(diamond_power(alpha, m, geom))
                bn = build_transport_linear(diamond_power(alpha, n, geom), f, geom)
                lhs = delta_inv(i_over_hbar(commutator(am, bn, geom)))
                rhs = build_transport_linear(diamond_power(alpha, m + n, geom), f, geom)
                assert lhs == rhs, (m, n)


@pytest.mark.parametrize("dim", [2, 4])
def test_transport_linear_pair_product_hits_mu(rng, dim):
    # sigma(wbar a^{<>m} df y o wbar a^{<>n} dg y)
    #   = (i hbar/2) mu(a^{<>(m+n)})^{l1 l2} d_{l1} f d_{l2} g
    geom = Geometry(dim)
    for _ in range(8):
        alpha = rand_skew_constant(rng, dim)
        f = rand_poly(rng, dim, deg=2, allow_imag=False)
        g = rand_poly(rng, dim, deg=2, allow_imag=False)
        for m in range(1, 3):
            for n in range(1, 3):
                bm = build_transport_linear(diamond_power(alpha, m, geom), f, geom)
                bn = build_transport_linear(diamond_power(alpha, n, geom), g, geom)
                got = sigma(moyal(bm, bn, geom))
                upper = mu(diamond_power(alpha, m + n, geom), geom)
                want = Polynomial.zero(dim)
                for l1 in range(dim):
                    for l2 in range(dim):
                        e = upper.entry(l1, l2).constant_value()
                        if not e:
                            continue
                        want = want + (f.partial(l1) * g.partial(l2)).scale(e)
                want = want.scale(GaussianRational(0, F(1, 2)))
                assert got.coeff(0) is None
                assert got.coeff(1, Polynomial.zero(dim)) == want, (m, n)


def test_y_gradient_matches_manual(rng):
    f = rand_poly(rng, 3, deg=3)
    w = y_gradient(f)
    for j in range(3):
        u = tuple(1 if m == j else 0 for m in range(3))
        assert w.terms.get((0, u, ()), Polynomial.zero(3)) == f.partial(j)
    # a tensor that is not skew: central_two_form reads only its entries i < j
    t = Tensor2(3, "lower", [[rand_poly(rng, 3, deg=1) for _ in range(3)] for _ in range(3)])
    assert central_two_form(t, hpow=2) == WeylForm(3, {
        (2, (0, 0, 0), (i, j)): t.rows[i][j] for i in range(3) for j in range(i + 1, 3)})
    assert y_dx_form(t, hpow=1) == WeylForm(3, {
        (1, tuple(1 if m == i else 0 for m in range(3)), (j,)): t.rows[i][j]
        for i in range(3) for j in range(3)})


def test_index_form_wedge_signs_and_keys():
    dim = 3
    p = Polynomial.variable(dim, 0).scale(F(1, 3)) + Polynomial.one(dim)
    q = Polynomial.variable(dim, 2)
    zero = Polynomial.zero(dim)
    # unsorted dx indices carry the sign of their sorting permutation
    assert index_form(dim, [(0, (), (1, 0), p)]) == WeylForm(dim, {(0, (0, 0, 0), (0, 1)): -p})
    assert index_form(dim, [(1, (2,), (2, 0, 1), p)]) == WeylForm(
        dim, {(1, (0, 0, 1), (0, 1, 2)): p})
    # a repeated dx index gives nothing
    assert index_form(dim, [(0, (0,), (1, 2, 1), p)]).is_zero()
    # y indices in any order give one key
    assert index_form(dim, [(0, (0, 2, 0), (1,), p), (0, (2, 0, 0), (1,), q)]) == WeylForm(
        dim, {(0, (2, 0, 1), (1,)): p + q})
    # zero coefficients and cancelling terms leave no key
    w = index_form(dim, [(0, (1,), (), zero), (0, (0, 1), (2, 0), p),
                         (0, (1, 0), (0, 2), p), (1, (), (), q)])
    assert w.terms == {(1, (0, 0, 0), ()): q}
