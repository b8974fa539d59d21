"""Connection recursion, flat sections, star products, coefficient tables."""

import itertools
import os
from fractions import Fraction

import pytest

from fedosov_lab import cli, fedosov
from fedosov_lab.algebra import GaussianRational, HbarSeries, ONE, Polynomial
from fedosov_lab.fedosov import (PerturbationError, StarEngine,
                                 WeylCurvatureSpec, abelian_residual,
                                 coeff_sequences, curvature_residual,
                                 flat_section, solve_r, star,
                                 taylor_half_geometric, taylor_inv_sqrt,
                                 taylor_one_minus_sqrt)
from fedosov_lab.geometry import Geometry, cov_ext_deriv
from fedosov_lab.io import load_scenario
from fedosov_lab.tensors import Tensor2, TensorSeries, diamond_power, series_inverse
from fedosov_lab.weyl import (WeylForm, commutator, delta, delta_inv, i_over_hbar,
                              moyal, moyal_sigma, odd_bracket, y_dx_form)

from conftest import (rand_closed_skew_poly, rand_cubic, rand_curved_geometry,
                      rand_form_qdeg, rand_poly, rand_quadratic, rand_skew_constant,
                      rand_structure_geometry)

F = Fraction
SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


# -- coefficient sequences ------------------------------------------------------

SIGMA_EXPECTED = [None, F(1, 2), F(1, 8), F(1, 16), F(5, 128), F(7, 256),
                  F(21, 1024), F(33, 2048), F(429, 32768)]
KAPPA_EXPECTED = [F(1), F(1, 2), F(3, 8), F(5, 16), F(35, 128), F(63, 256),
                  F(231, 1024), F(429, 2048), F(6435, 32768)]


def test_coeff_sequences_frozen_values():
    tab = coeff_sequences(8)
    for n in range(1, 9):
        assert tab.sigma[n] == SIGMA_EXPECTED[n], n
    for n in range(9):
        assert tab.kappa[n] == KAPPA_EXPECTED[n], n
        assert tab.c[n] == F(1, 2), n
    # the recursion value 3/8 at index 2 is the arbiter for kappa_2
    assert tab.kappa[2] == F(3, 8)


def test_coeff_recursions_hold():
    tab = coeff_sequences(16)
    s, k, c = tab.sigma, tab.kappa, tab.c
    for n in range(2, 17):
        assert s[n] == F(1, 2) * sum(s[l] * s[n - l] for l in range(1, n))
    for n in range(1, 17):
        assert k[n] == sum(k[n - m] * s[m] for m in range(1, n + 1))
        assert c[n] == F(1, 2) * sum(k[l] * k[n - l] for l in range(n + 1))


def test_taylor_oracles_are_self_consistent():
    # (1 - S)^2 = 1 - x where S = taylor of 1 - sqrt(1-x)
    n = 12
    s = taylor_one_minus_sqrt(n)
    one_minus_s = [1 - s[0]] + [-v for v in s[1:]]
    sq = [sum(one_minus_s[i] * one_minus_s[m - i] for i in range(m + 1))
          for m in range(n + 1)]
    assert sq[0] == 1 and sq[1] == -1 and all(v == 0 for v in sq[2:])
    # K^2 * (1-x) = 1 where K = taylor of 1/sqrt(1-x)
    k = taylor_inv_sqrt(n)
    ksq = [sum(k[i] * k[m - i] for i in range(m + 1)) for m in range(n + 1)]
    prod = [ksq[m] - (ksq[m - 1] if m else 0) for m in range(n + 1)]
    assert prod[0] == 1 and all(v == 0 for v in prod[1:])
    # 2 * H * (1-x) = 1 where H = taylor of 1/(2(1-x))
    h = taylor_half_geometric(n)
    assert all(2 * (h[m] - (h[m - 1] if m else 0)) == (1 if m == 0 else 0)
               for m in range(n + 1))


def test_coeff_cross_check_failure_is_reported(monkeypatch, capsys):
    def off_by_one(limit):
        k = taylor_inv_sqrt(limit)
        k[3] += 1
        return k

    monkeypatch.setattr(fedosov, "taylor_inv_sqrt", off_by_one)
    with pytest.raises(ArithmeticError, match="kappa_"):
        coeff_sequences(6)
    assert cli.main(["coeffs", "--order", "6"]) == 1
    captured = capsys.readouterr()
    assert "coeffs.recursions-vs-taylor  FAIL" in captured.out
    assert "failing: coeffs.recursions-vs-taylor" in captured.err


def test_coeff_table_rows_and_str():
    tab = coeff_sequences(3)
    rows = tab.rows()
    assert rows[0][0] == 0
    text = str(tab)
    assert "1/2" in text and "3/8" in text


# -- flat unperturbed engine vs the closed Moyal formula ---------------------------


def moyal_star_oracle(f, g, geom, order):
    """Direct formula: C_n(f,g) = (1/n!) (-i/2)^n  wbar^{k1 l1} ... wbar^{kn ln}
    d^n f / dx^{k} ... * d^n g / dx^{l} ..., exact for polynomial f, g."""
    dim = geom.dim
    omb = geom.omega_bar.constant_rows()
    out = {0: f * g}
    for n in range(1, order + 1):
        acc = Polynomial.zero(dim)
        for ks in itertools.product(range(dim), repeat=n):
            df = f
            for k in ks:
                df = df.partial(k)
            if df.is_zero():
                continue
            for ls in itertools.product(range(dim), repeat=n):
                w = ONE
                zero = False
                for k, l in zip(ks, ls):
                    v = omb[k][l]
                    if not v:
                        zero = True
                        break
                    w = w * v
                if zero:
                    continue
                dg = g
                for l in ls:
                    dg = dg.partial(l)
                if dg.is_zero():
                    continue
                acc = acc + (df * dg).scale(w)
        pref = GaussianRational(0, F(-1, 2)) ** n
        fact = 1
        for t in range(2, n + 1):
            fact *= t
        out[n] = acc.scale(pref / fact)
    return out


@pytest.mark.parametrize("dim", [2, 4])
def test_flat_star_matches_direct_moyal_formula(rng, dim):
    geom = Geometry(dim)
    spec = WeylCurvatureSpec(geom)
    order = 4
    eng = StarEngine(spec, order)
    assert eng.r().is_zero()
    for _ in range(20):
        f = rand_cubic(rng, dim)
        g = rand_cubic(rng, dim)
        res = eng.star(f, g)
        want = moyal_star_oracle(f, g, geom, order)
        for n in range(order + 1):
            assert res.coeff(n) == want.get(n, Polynomial.zero(dim)), n


def test_flat_star_coordinates_and_unit(rng):
    g2 = Geometry(2)
    eng = StarEngine(WeylCurvatureSpec(g2), order=4)
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    res = eng.star(x1, x2)
    ob01 = g2.omega_bar.entry(0, 1).constant_value()
    assert res.coeff(0) == x1 * x2
    assert res.coeff(1) == Polynomial.constant(2, GaussianRational(0, F(-1, 2)) * ob01)
    for n in range(2, 5):
        assert res.coeff(n).is_zero()
    # commutator and skewness of the first order
    f = rand_quadratic(rng, 2)
    g = rand_quadratic(rng, 2)
    assert eng.star(f, g).coeff(1) == -eng.star(g, f).coeff(1)
    # unit is neutral
    one = Polynomial.one(2)
    r1 = eng.star(one, f)
    r2 = eng.star(f, one)
    assert r1.coeff(0) == f and all(r1.coeff(n).is_zero() for n in range(1, 5))
    assert r2.coeff(0) == f and all(r2.coeff(n).is_zero() for n in range(1, 5))


def test_flat_section_of_coordinate_is_taylor_shift():
    g2 = Geometry(2)
    spec = WeylCurvatureSpec(g2)
    r = solve_r(spec, 6)
    x1 = Polynomial.variable(2, 0)
    sec = flat_section(x1, spec, r, 6)
    want = WeylForm(2, {(0, (0, 0), ()): x1, (0, (1, 0), ()): Polynomial.one(2)})
    assert sec == want


def test_section_quadratic_part_is_half_hessian(rng):
    # degree-2 part of a flat section is 1/2 y^i y^j d_i d_j f when Gamma = 0
    g2 = Geometry(2)
    spec = WeylCurvatureSpec(g2)
    r = solve_r(spec, 8)
    f = rand_poly(rng, 2, deg=4, terms=4, allow_imag=False)
    sec = flat_section(f, spec, r, 8)
    got = WeylForm(2, {k: v for k, v in sec.terms.items()
                       if k[0] == 0 and sum(k[1]) == 2 and not k[2]})
    want = WeylForm.zero(2)
    for i in range(2):
        for j in range(2):
            h = f.partial(i).partial(j)
            if h.is_zero():
                continue
            u = [0, 0]
            u[i] += 1
            u[j] += 1
            want = want + WeylForm(2, {(0, tuple(u), ()): h.scale(F(1, 2))})
    assert got == want


# -- flat constant perturbation: closed forms --------------------------------------


@pytest.mark.parametrize("dim,k", [(2, 1), (2, 2), (4, 1), (4, 2)])
def test_flat_constant_connection_closed_form(rng, dim, k):
    geom = Geometry(dim)
    alpha = rand_skew_constant(rng, dim)
    cap = 12
    spec = WeylCurvatureSpec(
        geom, TensorSeries.from_terms(dim, "lower", cap // 2, {k: alpha}.items()))
    assert spec.is_perturbed and spec.min_k() == k and spec.is_flat_constant()
    r = solve_r(spec, cap)
    tab = coeff_sequences(cap // (2 * k) + 1)
    want = WeylForm.zero(dim)
    p = 1
    while 2 * p * k <= cap:
        ap = diamond_power(alpha, p, geom)
        want = want + y_dx_form(ap, hpow=p * k).scale(GaussianRational(tab.sigma[p]))
        p += 1
    # every term of r has odd degree 2pk + 1, so below the even cap is all
    # of r through it
    assert r == want.capped(cap - 1)
    assert curvature_residual(r, spec, cap).is_zero()


def test_flat_constant_section_linear_parts_carry_kappa(rng):
    dim, k, cap = 2, 1, 12
    geom = Geometry(dim)
    alpha = rand_skew_constant(rng, dim)
    spec = WeylCurvatureSpec(
        geom, TensorSeries.from_terms(dim, "lower", cap // 2, {k: alpha}.items()))
    r = solve_r(spec, cap)
    tab = coeff_sequences(cap // 2)
    f = rand_poly(rng, dim, deg=3, allow_imag=False)
    sec = flat_section(f, spec, r, cap)
    assert abelian_residual(sec, spec, r, cap).is_zero()
    omb = geom.omega_bar
    for p in range(0, 4):
        got = WeylForm(dim, {key: v for key, v in sec.terms.items()
                             if key[0] == p and sum(key[1]) == 1 and not key[2]})
        want = WeylForm.zero(dim)
        if p == 0:
            for l in range(dim):
                df = f.partial(l)
                if df.is_zero():
                    continue
                u = tuple(1 if m == l else 0 for m in range(dim))
                want = want + WeylForm(dim, {(0, u, ()): df})
        else:
            ap = diamond_power(alpha, p, geom)
            for l in range(dim):
                coeff = Polynomial.zero(dim)
                for kk in range(dim):
                    for rr in range(dim):
                        w = omb.entry(kk, rr).constant_value()
                        if not w:
                            continue
                        coeff = coeff + (f.partial(rr) * ap.entry(kk, l)).scale(w)
                if coeff.is_zero():
                    continue
                u = tuple(1 if m == l else 0 for m in range(dim))
                want = want + WeylForm(dim, {(p, u, ()): coeff})
            want = want.scale(GaussianRational(tab.kappa[p]))
        assert got == want, p


@pytest.mark.parametrize("dim,k", [(2, 1), (2, 2), (4, 1), (4, 2)])
def test_perturbed_coordinate_products_invert_the_form_series(rng, dim, k):
    geom = Geometry(dim)
    alpha = rand_skew_constant(rng, dim)
    order = 6
    spec = WeylCurvatureSpec(
        geom, TensorSeries.from_terms(dim, "lower", order, {k: alpha}.items()))
    eng = StarEngine(spec, order)
    om_series = TensorSeries.from_terms(dim, "lower", order,
                                        {0: geom.omega, k: alpha}.items())
    obar = series_inverse(om_series, order)
    for i in range(dim):
        for j in range(dim):
            xi = Polynomial.variable(dim, i)
            xj = Polynomial.variable(dim, j)
            res = eng.star(xi, xj)
            assert res.coeff(0) == xi * xj
            for n in range(1, order + 1):
                want = obar.coeff(n - 1).entry(i, j).scale(
                    GaussianRational(0, F(-1, 2)))
                assert res.coeff(n) == want, (i, j, n)


# -- cap stability ------------------------------------------------------------------


def test_connection_cap_stability(rng):
    # solve_r stores degrees below the cap, each exact; two solves agree there
    gc = rand_curved_geometry(rng, 2)
    alpha = rand_skew_constant(rng, 2)
    spec = WeylCurvatureSpec(
        gc, TensorSeries.from_terms(2, "lower", 4, {1: alpha}.items()))
    r6 = solve_r(spec, 6)
    r8 = solve_r(spec, 8)
    assert r6 == r8.capped(5)
    assert r6 != r8.capped(6)  # r8 has degree-6 terms, which r6 does not store


def _curved_poly_chart(rng):
    geom = rand_curved_geometry(rng, 2)
    alpha = rand_closed_skew_poly(rng, 2, deg=1)
    spec = WeylCurvatureSpec(
        geom, TensorSeries.from_terms(2, "lower", 4, [(1, alpha)]))
    return spec, rand_quadratic(rng, 2)


def _bundled_chart(_rng):
    sc = load_scenario(os.path.join(SCENARIOS, "curved_r4_k1_poly.json"))
    return sc.build_spec(), sc.observables["f"]


@pytest.mark.parametrize("chart", [_curved_poly_chart, _bundled_chart],
                         ids=["curved_r2_k1_poly", "curved_r4_k1_poly"])
def test_every_stored_term_is_exact(rng, chart):
    """A solve at cap 6 returns only terms that a solve at cap 8 confirms:
    the whole forms agree, with no truncation of the cap-6 side."""
    spec, f = chart(rng)
    r6 = solve_r(spec, 6)
    r8 = solve_r(spec, 8)
    assert r6 == r8.capped(5)
    assert flat_section(f, spec, r6, 6) == flat_section(f, spec, r8, 8).capped(5)


def test_solves_and_residuals_compute_only_degrees_they_read(rng, monkeypatch):
    """At cap 6 the solves read bodies through degree 4 and the residuals
    report degree 4 and below, so no covariant derivative is taken of a
    degree above 4 and no bracket or product keeps a degree above it."""
    def degree(a):
        return max((2 * h + sum(u) for (h, u, _f) in a.terms), default=0)

    seen = []

    def recording(name, op):
        def wrapped(*args, **kw):
            out = op(*args, **kw)
            seen.append((name, degree(args[0] if name == "cov_ext_deriv" else out)))
            return out
        monkeypatch.setattr(fedosov, name, wrapped)

    recording("cov_ext_deriv", fedosov.cov_ext_deriv)
    recording("odd_bracket", fedosov.odd_bracket)
    recording("i_over_hbar", fedosov.i_over_hbar)
    spec, f = _curved_poly_chart(rng)
    r = solve_r(spec, 6)
    a = flat_section(f, spec, r, 6)
    assert curvature_residual(r, spec, 6).is_zero()
    assert abelian_residual(a, spec, r, 6).is_zero()
    assert {name for name, _d in seen} == {"cov_ext_deriv", "odd_bracket", "i_over_hbar"}
    assert max(d for _name, d in seen) <= 4, seen


def test_residuals_sum_exactly_the_part_pairs_their_window_reads(rng):
    """Each residual equals its defining expression with the whole product
    or bracket, truncated at cap - 2, on a block and a non-block curved
    chart: the part pairs with i + j <= cap are all that reach the window.
    The solved forms (solved at cap 7 or below, to keep the whole products
    small) are corrupted below the cap, so the residuals are not zero and
    every pair shows."""
    block = rand_curved_geometry(rng, 2, deg=0)
    other = rand_curved_geometry(rng, 2, deg=0, omega=rand_structure_geometry(rng, 2).omega)
    for geom in (block, other):
        spec = WeylCurvatureSpec(geom, TensorSeries.from_terms(
            2, "lower", 5, [(1, rand_closed_skew_poly(rng, 2, deg=2))]))
        q = spec.q_form()
        r7 = solve_r(spec, 7)
        a7 = flat_section(rand_quadratic(rng, 2), spec, r7, 7)
        for cap in range(4, 11):
            r, a = r7.capped(cap - 1), a7.capped(cap - 1)
            if cap <= 7:
                assert curvature_residual(r, spec, cap).is_zero()
                assert abelian_residual(a, spec, r, cap).is_zero()
            r = r + rand_form_qdeg(rng, 2, cap - 1, 1, nterms=3, max_h=2, max_ydeg=5)
            a = a + rand_form_qdeg(rng, 2, cap - 1, 0, nterms=3, max_h=2, max_ydeg=5)
            want = (delta(r) - (q + cov_ext_deriv(r.capped(cap - 2), geom)
                                + i_over_hbar(moyal(r, r, geom)))).capped(cap - 2)
            assert curvature_residual(r, spec, cap) == want, cap
            want = (cov_ext_deriv(a.capped(cap - 2), geom) - delta(a)
                    + odd_bracket(r, a, geom)).capped(cap - 2)
            assert abelian_residual(a, spec, r, cap) == want, cap


def test_solves_bracket_each_part_pair_once(rng, monkeypatch):
    """At cap 8 solve_r brackets each unordered pair of its parts r_i, r_j
    with i + j <= cap once, and flat_section each pair r_i, a_j once: every
    bracket takes two nonzero homogeneous parts."""
    def part_degree(x):
        (d,) = degrees(x)
        return d

    seen = []
    real = fedosov.odd_bracket

    def recording(x, y, geom):
        seen.append((part_degree(x), part_degree(y)))
        return real(x, y, geom)

    monkeypatch.setattr(fedosov, "odd_bracket", recording)
    spec, f = _curved_poly_chart(rng)
    cap = 8
    r = solve_r(spec, cap)
    assert degrees(r) == set(range(3, cap))
    assert sorted(seen) == [(i, j) for i in range(3, cap) for j in range(i, cap)
                            if i + j <= cap]
    seen.clear()
    a = flat_section(f, spec, r, cap)
    assert degrees(a) == set(range(cap))
    assert sorted(seen) == [(i, j) for i in range(3, cap) for j in range(cap)
                            if i + j <= cap]


@pytest.mark.parametrize("order", [1, 2, 3])
def test_engine_stores_degrees_through_twice_the_order(rng, order):
    """An engine of order N stores degrees 0..2N of r and of every section,
    the degrees a product through hbar^N reads, and nothing above; each is
    the reference solve at cap 2N + 2, capped at 2N."""
    spec, f = _curved_poly_chart(rng)
    eng = StarEngine(spec, order)
    top = 2 * order
    r = solve_r(spec, top + 2)
    assert max(degrees(eng.r()), default=0) <= top
    assert eng.r() == r.capped(top)
    obs = [f, rand_cubic(rng, 2), Polynomial.variable(2, 1),
           HbarSeries(order, {0: rand_quadratic(rng, 2),
                              1: rand_poly(rng, 2, deg=1, terms=2)})]
    for g in obs:
        a = eng.section(g)
        assert max(degrees(a)) <= top
        assert a == flat_section(g, spec, r, top + 2).capped(top)


def test_star_cap_stability(rng):
    gc = rand_curved_geometry(rng, 2)
    spec = WeylCurvatureSpec(gc)
    f = rand_quadratic(rng, 2)
    g = rand_quadratic(rng, 2)
    lo = StarEngine(spec, order=2)
    hi = StarEngine(spec, order=3)
    res_lo = lo.star(f, g)
    res_hi = hi.star(f, g)
    for n in range(3):
        assert res_lo.coeff(n) == res_hi.coeff(n), n


# -- curved charts ---------------------------------------------------------------------


def test_curved_degree_three_part_is_delta_inv_of_curvature(rng):
    for _ in range(3):
        gc = rand_curved_geometry(rng, 2)
        spec = WeylCurvatureSpec(gc)
        r = solve_r(spec, 8)
        rw = gc.curvature().weyl_two_form
        r3 = WeylForm(2, {k: v for k, v in r.terms.items()
                          if 2 * k[0] + sum(k[1]) == 3})
        assert r3 == delta_inv(rw)
        assert curvature_residual(r, spec, 8).is_zero()
        assert r.min_degree() >= 3
        assert delta_inv(r).is_zero()  # the normalization condition


def test_residual_window_sees_degree_cap_minus_two(rng):
    gc = rand_curved_geometry(rng, 2)
    spec = WeylCurvatureSpec(gc)
    cap = 6
    r = solve_r(spec, cap)
    sec = flat_section(rand_quadratic(rng, 2), spec, r, cap)
    assert curvature_residual(r, spec, cap).is_zero()
    assert abelian_residual(sec, spec, r, cap).is_zero()

    def mono(u, form=()):
        return WeylForm(2, {(0, u, form): Polynomial.one(2)})

    # a corruption at degree cap - 2 with nonzero delta shows in both
    assert not abelian_residual(sec + mono((4, 0)), spec, r, cap).is_zero()
    assert not curvature_residual(r + mono((4, 0), (1,)), spec, cap).is_zero()
    # one at degree cap - 1 shows only through delta, which lands on degree
    # cap - 2: the window ends exactly there
    m = mono((5, 0))
    assert abelian_residual(sec + m, spec, r, cap) == -delta(m)
    m = mono((5, 0), (1,))
    assert curvature_residual(r + m, spec, cap) == delta(m)


def test_curved_sections_are_flat_and_star_is_unital(rng):
    gc = rand_curved_geometry(rng, 2)
    spec = WeylCurvatureSpec(gc)
    cap = 8
    r = solve_r(spec, cap)
    f = rand_quadratic(rng, 2)
    sec = flat_section(f, spec, r, cap)
    assert abelian_residual(sec, spec, r, cap).is_zero()
    eng = StarEngine(spec, order=3)
    one = Polynomial.one(2)
    res = eng.star(one, f)
    assert res.coeff(0) == f and all(res.coeff(n).is_zero() for n in range(1, 4))


def test_star_bilinear(rng):
    gc = rand_curved_geometry(rng, 2)
    spec = WeylCurvatureSpec(gc)
    eng = StarEngine(spec, order=2)
    f1 = rand_quadratic(rng, 2)
    f2 = rand_quadratic(rng, 2)
    g = rand_quadratic(rng, 2)
    c = F(3, 7)
    lhs = eng.star(f1.scale(c) + f2, g)
    for n in range(3):
        want = eng.star(f1, g).coeff(n).scale(c) + eng.star(f2, g).coeff(n)
        assert lhs.coeff(n) == want


def test_one_shot_star_matches_engine(rng):
    g2 = Geometry(2)
    alpha = rand_skew_constant(rng, 2)
    spec = WeylCurvatureSpec(
        g2, TensorSeries.from_terms(2, "lower", 3, {1: alpha}.items()))
    f = rand_quadratic(rng, 2)
    g = rand_quadratic(rng, 2)
    res1 = star(f, g, spec, 3)
    res2 = StarEngine(spec, 3).star(f, g)
    for n in range(4):
        assert res1.coeff(n) == res2.coeff(n)
    # rows/str plumbing
    assert len(res1.rows()) == 4
    assert "hbar^1" in str(res1)


def test_star_series_hbar_linearity(rng):
    g2 = Geometry(2)
    spec = WeylCurvatureSpec(g2)
    eng = StarEngine(spec, order=3)
    f0 = rand_quadratic(rng, 2)
    f1 = rand_quadratic(rng, 2)
    g = rand_quadratic(rng, 2)
    fs = HbarSeries(3, {0: f0, 1: f1})
    gs = HbarSeries(3, {0: g})
    prod = eng.star_series(fs, gs)
    base = eng.star(f0, g).as_series()
    shift = eng.star(f1, g).as_series().shift(1)
    want = base + shift
    for n in range(4):
        assert prod.coeff(n, Polynomial.zero(2)) == want.coeff(n, Polynomial.zero(2)), n



def test_engine_sections_match_direct_solves(rng):
    """Sections assembled from monomial sections equal whole-observable
    solves on a curved, perturbed chart, and so do the products."""
    order = 2
    geom = rand_curved_geometry(rng, 2)
    alpha = rand_closed_skew_poly(rng, 2, deg=1)
    spec = WeylCurvatureSpec(
        geom, TensorSeries.from_terms(2, "lower", order, [(1, alpha)]))
    eng = StarEngine(spec, order)
    obs = [rand_poly(rng, 2, deg=2, terms=4) for _ in range(3)]
    obs.append(HbarSeries(order, {0: rand_poly(rng, 2, deg=2),
                                  1: rand_poly(rng, 2, deg=1, terms=2)}))
    obs.append(Polynomial.zero(2))
    direct = [flat_section(f, spec, eng.r(), eng.cap) for f in obs]
    for f, a in zip(obs, direct):
        assert eng.section(f) == a
        assert str(eng.section(f)) == str(a)
    for i in range(len(obs)):
        j = (i + 1) % len(obs)
        want = moyal_sigma(direct[i], direct[j], geom, order=order)
        assert eng.star_series(obs[i], obs[j]) == want
        if isinstance(obs[i], Polynomial) and isinstance(obs[j], Polynomial):
            assert eng.star(obs[i], obs[j]).as_series() == want


def test_flat_section_runs_once_per_monomial(rng, monkeypatch):
    solved = []
    direct = fedosov.flat_section

    def counting(f, spec, r, cap):
        (n, p), = f.coeffs.items()
        (exp, c), = p.terms.items()
        assert c == ONE
        solved.append((n, exp))
        return direct(f, spec, r, cap)

    monkeypatch.setattr(fedosov, "flat_section", counting)
    eng = StarEngine(WeylCurvatureSpec(rand_curved_geometry(rng, 2)), order=2)
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    f = HbarSeries(2, {0: x1 * x1 + (x1 * x2).scale(3), 1: x1})
    g = x1 + x2 + (x1 * x1).scale(F(2, 3))
    eng.section(f)
    eng.section(g)
    eng.star(g, x1 - x2)
    eng.star_series(f, HbarSeries(2, {1: x2}))
    assert sorted(solved) == [(0, (0, 1)), (0, (1, 0)), (0, (1, 1)),
                              (0, (2, 0)), (1, (0, 1)), (1, (1, 0))]


# -- the solves against a Picard oracle ----------------------------------------------


def picard_oracle(base, body, cap):
    """Iterate  x <- base + delta_inv(body(x)), truncated below degree cap,
    from x = 0 until x stops changing.  Each pass fixes one more filtration
    degree, so cap + 2 passes reach and confirm the fixed point."""
    x = WeylForm.zero(base.dim)
    for _ in range(cap + 2):
        nxt = (base + delta_inv(body(x))).capped(cap - 1)
        if nxt == x:
            return x
        x = nxt
    raise AssertionError("Picard iteration did not settle in %d passes" % (cap + 2))


def degrees(a):
    return {2 * h + sum(u) for (h, u, _form) in a.terms}


@pytest.mark.parametrize("perturbed", [False, True], ids=["plain", "k1"])
def test_solves_match_picard_oracle_through_the_cap(rng, perturbed):
    """solve_r and flat_section equal a from-scratch Picard iteration of the
    whole equations, with full products and no parts, at every degree
    they store: below the cap.  The residual tests stop at cap - 2; this one
    also covers degree cap - 1."""
    cap = 6
    geom = rand_curved_geometry(rng, 2)
    alpha = TensorSeries.from_terms(
        2, "lower", 2, [(1, rand_closed_skew_poly(rng, 2, deg=1))])
    spec = WeylCurvatureSpec(geom, alpha if perturbed else None)
    q = spec.q_form()
    r = picard_oracle(WeylForm.zero(2), lambda x: (
        q + cov_ext_deriv(x, geom) + i_over_hbar(moyal(x, x, geom))), cap)
    assert solve_r(spec, cap) == r
    assert cap - 1 in degrees(r)
    observables = [rand_quadratic(rng, 2),
                   HbarSeries(cap // 2, {0: rand_poly(rng, 2, deg=3),
                                         1: rand_poly(rng, 2, deg=1)})]
    for f in observables:
        series = HbarSeries(cap // 2, {0: f}) if isinstance(f, Polynomial) else f
        a = picard_oracle(WeylForm.from_series(series, 2), lambda x: (
            cov_ext_deriv(x, geom) + i_over_hbar(commutator(r, x, geom))), cap)
        assert flat_section(f, spec, r, cap) == a
        assert cap - 1 in degrees(a)


# -- convergence guard -------------------------------------------------------------------


@pytest.fixture
def degree_keeping_update(monkeypatch):
    """Add delta to the covariant derivative.  delta lowers the filtration
    degree by one, so the body B_e built from a part of degree e with
    y-degree >= 1 gets a term of degree e - 1, after that degree was read:
    the degree-by-degree solve is then not a fixed point, which its check
    that B_e has no term off degree e reports."""
    from fedosov_lab.weyl import delta
    real = fedosov.cov_ext_deriv
    monkeypatch.setattr(fedosov, "cov_ext_deriv",
                        lambda a, geom: real(a, geom) + delta(a))


def test_solve_r_guard_stops_a_sweep_that_keeps_degree(degree_keeping_update):
    alpha = Tensor2(2, "lower", [[0, 1], [-1, 0]])
    spec = WeylCurvatureSpec(
        Geometry(2), TensorSeries.from_terms(2, "lower", 2, {1: alpha}.items()))
    with pytest.raises(fedosov.ConvergenceError) as exc:
        solve_r(spec, 5)
    assert str(exc.value) == "r-recursion is not a fixed point through degree 4"


def test_flat_section_guard_stops_a_sweep_that_keeps_degree(degree_keeping_update):
    spec = WeylCurvatureSpec(Geometry(2))
    x1 = Polynomial.variable(2, 0)
    with pytest.raises(fedosov.ConvergenceError) as exc:
        flat_section(x1 * x1, spec, WeylForm.zero(2), 6)
    assert str(exc.value) == "section recursion is not a fixed point through degree 5"


# -- validation ------------------------------------------------------------------------


def test_perturbation_validation():
    g2 = Geometry(2)
    al = Tensor2(2, "lower", [[0, 1], [-1, 0]])
    with pytest.raises(PerturbationError):
        WeylCurvatureSpec(g2, TensorSeries.from_terms(2, "lower", 3, {0: al}.items()))
    notskew = Tensor2(2, "lower", [[0, 1], [1, 0]])
    with pytest.raises(PerturbationError):
        WeylCurvatureSpec(g2, TensorSeries.from_terms(2, "lower", 3, {1: notskew}.items()))
    # alpha_{01} = x3 is not closed: d alpha has a dx3^dx1^dx2 component
    x3 = Polynomial.variable(4, 2)
    notclosed = Tensor2(4, "lower", [
        [0, x3, 0, 0], [-x3, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    with pytest.raises(PerturbationError):
        WeylCurvatureSpec(Geometry(4),
                          TensorSeries.from_terms(4, "lower", 3, {1: notclosed}.items()))
    with pytest.raises(PerturbationError):
        # dimension mismatch between chart and perturbation
        WeylCurvatureSpec(Geometry(4),
                          TensorSeries.from_terms(2, "lower", 3, {1: al}.items()))
    # a zero perturbation normalizes to the unperturbed spec
    zero = Tensor2.zeros(2, "lower")
    spec = WeylCurvatureSpec(g2, TensorSeries.from_terms(2, "lower", 3, {1: zero}.items()))
    assert not spec.is_perturbed
