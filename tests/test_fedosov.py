"""Connection recursion, flat sections, star products, coefficient tables."""

import itertools
import os
from fractions import Fraction

import pytest

from fedosov_lab import algebra, cli, fedosov
from fedosov_lab.algebra import GaussianRational, HbarSeries, I, ONE, Polynomial
from fedosov_lab.fedosov import (PerturbationError, StarEngine,
                                 WeylCurvatureSpec, abelian_residual,
                                 coeff_sequences, curvature_residual,
                                 flat_section, solve_r, star,
                                 taylor_half_geometric, taylor_inv_sqrt,
                                 taylor_one_minus_sqrt)
from fedosov_lab.geometry import Geometry, GeometryError, cov_ext_deriv
from fedosov_lab.io import load_scenario
from fedosov_lab.tensors import (Tensor2, TensorSeries, diamond_power, series_inverse,
                                 series_schouten)
from fedosov_lab.weyl import (WeylForm, commutator, delta, delta_inv, i_over_hbar,
                              moyal, moyal_sigma, odd_bracket, y_dx_form)

from conftest import (rand_closed_skew_poly, rand_cubic, rand_curved_geometry,
                      rand_form_qdeg, rand_gamma, rand_poly, rand_quadratic,
                      rand_skew_constant, rand_structure_geometry)

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
                want = obar.coeff(n - 1, Tensor2.zeros(dim, "upper")).entry(i, j).scale(
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


def _curved_poly_chart(rng, omega=None):
    geom = rand_curved_geometry(rng, 2, omega=omega)
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


def test_engine_skips_powers_above_its_order(rng, monkeypatch):
    """The section of hbar^n x^m starts at degree 2n, so for n > order it is
    zero at every degree the engine stores: the engine solves no section
    for it, the assembled section equals the direct solve, and observables
    that differ only above the order have equal sections."""
    geom = rand_curved_geometry(rng, 2)
    spec = WeylCurvatureSpec(
        geom, TensorSeries.from_terms(2, "lower", 1, [(1, rand_closed_skew_poly(rng, 2, 1))]))
    eng = StarEngine(spec, order=1)
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    f = HbarSeries(5, {0: x2, 1: x1 * x2, 2: x1, 3: x1, 5: x2 * x2})
    direct = fedosov.flat_section
    want = direct(f, spec, eng.r(), eng.cap)
    solved = []

    def counting(f, spec, r, cap):
        solved.extend(f.coeffs)
        return direct(f, spec, r, cap)

    monkeypatch.setattr(fedosov, "flat_section", counting)
    assert eng.section(HbarSeries(5, {3: x1})).is_zero()
    assert eng.section(f) == want
    assert str(eng.section(f)) == str(want)
    assert solved == [0, 1]
    same = eng.section(HbarSeries(1, {0: x2, 1: x1 * x2}))
    assert same == want
    assert str(same) == str(want)


def test_engine_sections_of_every_coefficient_shape(rng):
    """The assembly sums non-real Gaussian coefficients, mixed denominators
    (so keys are lifted to an lcm) and hbar powers whose sections share
    keys, exactly and with no stored zero."""
    order = 2
    geom = rand_curved_geometry(rng, 2)
    spec = WeylCurvatureSpec(
        geom, TensorSeries.from_terms(2, "lower", order, [(1, rand_closed_skew_poly(rng, 2, 1))]))
    eng = StarEngine(spec, order)
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    gauss = GaussianRational(F(1, 3), F(2, 3))
    mixed = (x1 * x1).scale(F(1, 2)) + (x1 * x2).scale(F(1, 3)) + x2.scale(F(5, 7))
    obs = [(x1 * x2).scale(gauss) + x2 * x2 - x1,
           mixed,
           HbarSeries(order, {0: mixed + x1.scale(gauss),
                              1: (x1 * x1).scale(gauss) - x2.scale(F(5, 7)),
                              2: x1 + x2.scale(F(-1, 2))})]
    for f in obs:
        want = flat_section(f, spec, eng.r(), eng.cap)
        got = eng.section(f)
        assert got == want
        assert str(got) == str(want)
        assert all(not p.is_zero() and all(p.terms.values()) for p in got.terms.values())


def test_warm_section_assembly_builds_no_whole_forms(rng, monkeypatch):
    """Once its monomial sections are cached, an observable's section is
    summed term by term: no WeylForm is scaled or added."""
    eng = StarEngine(WeylCurvatureSpec(rand_curved_geometry(rng, 2)), order=2)
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    eng.section(HbarSeries(2, {0: x1 * x1 + x1 * x2 + x2, 1: x1}))
    fresh = HbarSeries(2, {0: (x1 * x1).scale(F(2, 3)) - (x1 * x2).scale(GaussianRational(1, 1)),
                           1: x1.scale(F(5, 7))})
    calls = []
    for name in ("scale", "__add__"):
        real = getattr(WeylForm, name)

        def counting(self, other, real=real, name=name):
            calls.append(name)
            return real(self, other)

        monkeypatch.setattr(WeylForm, name, counting)
    got = eng.section(fresh)
    monkeypatch.undo()
    assert calls == []
    assert got == flat_section(fresh, eng.spec, eng.r(), eng.cap)


def test_unit_monomial_section_is_its_solve(rng):
    """The section of a lone monomial with coefficient 1 is the cached
    monomial solve itself, not a copy; a scaled monomial is assembled."""
    eng = StarEngine(WeylCurvatureSpec(rand_curved_geometry(rng, 2)), order=2)
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    got = eng.section(x1 * x2)
    assert got is eng._monomial_section(0, (1, 1))
    want = flat_section(x1 * x2, eng.spec, eng.r(), eng.cap)
    assert got == want
    assert str(got) == str(want)
    assert eng.section(HbarSeries(2, {1: x1})) is eng._monomial_section(1, (1, 0))
    scaled = eng.section(x1.scale(F(1, 2)))
    assert scaled is not eng._monomial_section(0, (1, 0))
    assert scaled == flat_section(x1.scale(F(1, 2)), eng.spec, eng.r(), eng.cap)


def test_engine_assembles_sections_and_grids_on_each_call(rng, monkeypatch):
    """The engine keeps no observable's section and no grid: a second call
    assembles them again from the monomial solves and the pair table, with
    equal results, and solves and projects nothing new."""
    eng = StarEngine(WeylCurvatureSpec(rand_curved_geometry(rng, 2)), order=2)
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    calls = []
    for name in ("moyal_sigma", "flat_section", "solve_r"):
        real = getattr(fedosov, name)

        def counting(*args, real=real, name=name, **kw):
            calls.append(name)
            return real(*args, **kw)

        monkeypatch.setattr(fedosov, name, counting)
    f = HbarSeries(2, {0: (x1 * x1).scale(F(2, 3)) + x2, 1: x1.scale(GaussianRational(1, 1))})
    first = eng.section(f)
    calls.clear()
    second = eng.section(f)
    assert calls == []
    assert second == first
    assert str(second) == str(first)
    grid = eng.coordinate_products()
    xs = [x1, x2]
    for i, xi in enumerate(xs):
        for j, xj in enumerate(xs):
            want = eng.star(xi, xj)
            assert grid[i][j].as_series() == want.as_series()
            assert str(grid[i][j]) == str(want)
    calls.clear()
    again = eng.coordinate_products()
    assert calls == []
    assert [[str(res) for res in row] for row in again] == [
        [str(res) for res in row] for row in grid]


def test_star_rejects_what_is_not_an_observable():
    eng = StarEngine(WeylCurvatureSpec(Geometry(2)), order=1)
    x1 = Polynomial.variable(2, 0)
    series = HbarSeries(1, {0: x1})
    for f, g in ((series, x1), (x1, series), (1, x1), (x1, ONE)):
        with pytest.raises(TypeError, match="use star_series for hbar-series"):
            eng.star(f, g)
    for f, g in ((1, x1), (x1, "x1"), (x1, None), (x1, [x1])):
        with pytest.raises(TypeError, match="a Polynomial or an HbarSeries"):
            eng.star_series(f, g)
    assert eng.star_series(series, x1) == eng.star(x1, x1).as_series()


def _perturbed_chart(rng, chart, order):
    """A curved 2D chart or the flat block-form 4D chart, perturbed at hbar^1."""
    if chart == "curved":
        geom, alpha = rand_curved_geometry(rng, 2), rand_closed_skew_poly(rng, 2, 1)
    else:
        geom, alpha = Geometry(4), rand_skew_constant(rng, 4)
    return WeylCurvatureSpec(geom, TensorSeries.from_terms(
        geom.dim, "lower", order, [(1, alpha)]))


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("chart", ["curved", "block"])
def test_star_series_from_the_pair_table_equals_the_direct_product(rng, order, chart):
    """Every product read from the monomial-pair table equals sigma of the
    direct solves' product, exactly: non-real and mixed-denominator
    coefficients, an hbar-series with a power above the order, a constant
    and zero."""
    spec = _perturbed_chart(rng, chart, order)
    dim = spec.dim
    eng = StarEngine(spec, order)
    xs = [Polynomial.variable(dim, i) for i in range(dim)]
    gauss = GaussianRational(F(1, 3), F(2, 3))
    obs = [(xs[0] * xs[1]).scale(gauss) + xs[1] * xs[1] - xs[0],
           (xs[0] * xs[0]).scale(F(1, 2)) + (xs[0] * xs[1]).scale(F(1, 3))
           + xs[-1].scale(F(5, 7)),
           HbarSeries(order + 2, {0: xs[0].scale(gauss) + xs[1], 1: xs[0] * xs[0],
                                  order + 1: xs[1]}),
           Polynomial.constant(dim, F(-3, 2)),
           Polynomial.zero(dim)]
    direct = [flat_section(f, spec, eng.r(), eng.cap) for f in obs]
    for f, a in zip(obs, direct):
        for g, b in zip(obs, direct):
            want = moyal_sigma(a, b, spec.geometry, order=order)
            got = eng.star_series(f, g)
            assert got == want
            assert str(got) == str(want)


def test_warm_products_read_only_the_pair_table(rng, monkeypatch):
    """A cold product fills one table entry, with one moyal_sigma call, per
    new ordered monomial pair; a warm one solves, assembles and projects
    nothing."""
    eng = StarEngine(WeylCurvatureSpec(rand_curved_geometry(rng, 2)), order=2)
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    calls = []

    def counting(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kw):
            calls.append(name)
            return real(*args, **kw)

        monkeypatch.setattr(owner, name, wrapper)

    counting(fedosov, "moyal_sigma")
    counting(fedosov, "flat_section")
    counting(StarEngine, "section")
    f = x1 * x1 + x2.scale(F(2, 3))
    g = HbarSeries(2, {0: x1 - x2, 1: x1 * x2})
    eng.star_series(f, g)
    assert calls.count("moyal_sigma") == 2 * 3
    eng.star(x1, x1 + x2.scale(F(1, 7)))
    assert calls.count("moyal_sigma") == 2 * 3 + 2
    calls.clear()
    eng.star_series((x1 * x1).scale(GaussianRational(1, 2)) - x2,
                    HbarSeries(2, {0: x2.scale(F(3, 2)) - x1, 1: (x1 * x2).scale(3)}))
    eng.star(x1.scale(F(-5, 3)), x1 - x2)
    assert calls == []
    assert eng.star_series(f, g) == moyal_sigma(
        eng.section(f), eng.section(g), eng.spec.geometry, order=2)


def test_star_rejects_an_operand_of_another_dim(monkeypatch):
    """An operand whose dim is not the engine's fails with one ValueError
    naming both dims, on either side, before any pair is read."""
    eng = StarEngine(load_scenario(os.path.join(SCENARIOS, "flat_r4_formal.json"))
                     .build_spec(), order=2)
    x1 = Polynomial.variable(4, 0)
    y1 = Polynomial.variable(2, 0)
    pairs = []
    monkeypatch.setattr(StarEngine, "_pair", lambda self, a, b: pairs.append((a, b)))
    for other in (y1, HbarSeries(2, {0: x1.scale(0), 1: y1})):
        for f, g in ((other, x1), (x1, other)):
            with pytest.raises(ValueError, match="operand dim 2 does not match "
                               "the engine's dim 4"):
                eng.star_series(f, g)
            if isinstance(other, Polynomial):
                with pytest.raises(ValueError, match="operand dim 2 .* dim 4"):
                    eng.star(f, g)
    assert pairs == []


def _pair_table_oracle(eng, f, g):
    """The bilinear sum of c d moyal_sigma(section(m), section(m')) over the
    terms c m of f and d m' of g, from the engine's own monomial sections
    and no pair table; powers above the order add their zero sections."""
    order, dim = eng.order, eng.spec.dim
    sections = {}

    def terms(p):
        series = {0: p} if isinstance(p, Polynomial) else p.coeffs
        for n, q in series.items():
            for exp, c in q.terms.items():
                if (n, exp) not in sections:
                    sections[(n, exp)] = eng.section(
                        HbarSeries(n, {n: Polynomial.monomial(dim, exp)}))
                yield sections[(n, exp)], c

    total = HbarSeries(order)
    for a, c in terms(f):
        for b, d in terms(g):
            total = total + moyal_sigma(a, b, eng.spec.geometry, order=order).map(
                lambda p, cd=c * d: p.scale(cd))
    return total


@pytest.mark.parametrize("chart, order", [("curved", 2), ("curved_r4_k1_poly", 2),
                                          ("flat_r4_formal", 6)])
def test_star_series_is_the_bilinear_sum_of_the_monomial_projections(
        rng, monkeypatch, chart, order):
    """Cold and warm products equal the bilinear sum of the monomial-pair
    projections exactly, on hbar-series operands with terms at hbar^1 and
    one power above the order, a Gaussian coefficient and denominators that
    make the product's running denominator grow.  The oracle with one
    scalar conjugated differs."""
    if chart == "curved":
        spec = _perturbed_chart(rng, chart, order)
    else:
        spec = load_scenario(os.path.join(SCENARIOS, chart + ".json")).build_spec()
    eng = StarEngine(spec, order)
    dim = spec.dim
    x = [Polynomial.variable(dim, i) for i in range(dim)]

    def operand(gauss):
        return HbarSeries(order + 1, {
            0: (x[0] * x[1]).scale(gauss) + x[1].scale(F(3, 7)),
            1: (x[0] * x[0]).scale(F(1, 2)) + x[-1].scale(F(5, 11)),
            order + 1: x[1]})

    f = operand(GaussianRational(F(2, 3), F(-1, 5)))
    g = HbarSeries(order + 1, {0: x[0].scale(F(-3, 4)) + (x[1] * x[-1]).scale(F(1, 9)),
                               1: x[1].scale(F(7, 13)),
                               order + 1: x[0] * x[1]})
    want = _pair_table_oracle(eng, f, g)
    assert want.coeffs
    lifts = []
    real_lift = algebra._lift
    monkeypatch.setattr(algebra, "_lift",
                        lambda slot, den: lifts.append(den) or real_lift(slot, den))
    for _ in range(2):
        lifts.clear()
        got = eng.star_series(f, g)
        assert got == want
        assert str(got) == str(want)
    # the warm product lifted its running denominator after its first row
    assert len(lifts) >= 2
    assert _pair_table_oracle(eng, operand(GaussianRational(F(2, 3), F(1, 5))), g) != got


@pytest.mark.parametrize("order, message", [
    (2.0, "an int"), ("2", "an int"), (F(2), "an int"), (True, "an int"),
    (None, "an int"), (0, "at least 1")])
def test_engine_rejects_an_order_that_is_not_a_positive_int(order, message):
    with pytest.raises(ValueError, match="order must be " + message):
        StarEngine(WeylCurvatureSpec(Geometry(2)), order)


# -- resuming a solve --------------------------------------------------------------


@pytest.mark.parametrize("block", [True, False], ids=["block", "non-block"])
def test_resumed_solves_equal_fresh_solves(rng, monkeypatch, block):
    """A solve given its own solution at cap c keeps those parts and
    computes degree c only, which reads degree c - 1 and below; the result
    is the fresh solve at cap c + 1.  A section also resumes from the
    engine's assembled one, of a polynomial or of an hbar-series."""
    read = []
    real = fedosov.cov_ext_deriv

    def recording(a, geom, acc=None):
        read.extend(degrees(a))
        return real(a, geom, acc)

    def resumed(solve, *args, **kw):
        read.clear()
        monkeypatch.setattr(fedosov, "cov_ext_deriv", recording)
        try:
            return solve(*args, **kw)
        finally:
            monkeypatch.setattr(fedosov, "cov_ext_deriv", real)

    omega = None if block else rand_structure_geometry(rng, 2).omega
    spec, f = _curved_poly_chart(rng, omega)
    for c in (4, 5, 6):
        r = solve_r(spec, c + 1)
        assert resumed(solve_r, spec, c + 1, below=solve_r(spec, c)) == r, c
        assert read == [c - 1], c
        below = flat_section(f, spec, solve_r(spec, c), c)
        assert resumed(flat_section, f, spec, r, c + 1, below=below) == \
            flat_section(f, spec, r, c + 1), c
        assert read == [c - 1], c
    order = 2
    eng = StarEngine(spec, order)
    r = solve_r(spec, eng.cap + 1)
    for f in (rand_cubic(rng, 2),
              HbarSeries(order, {0: rand_quadratic(rng, 2),
                                 1: rand_poly(rng, 2, deg=1, terms=2)})):
        assert resumed(flat_section, f, spec, r, eng.cap + 1,
                       below=eng.section(f)) == flat_section(f, spec, r, eng.cap + 1)
        assert read == [2 * order]


# -- naturality and associativity on curved charts ----------------------------------


def pulled_back(p, A):
    """p(A x'): the polynomial p with x_i replaced by sum_j A_ij x'_j."""
    dim = p.dim
    lin = [sum((Polynomial.variable(dim, j).scale(A[i][j]) for j in range(dim)),
               Polynomial.zero(dim)) for i in range(dim)]
    out = Polynomial.zero(dim)
    for exp, c in p.terms.items():
        t = Polynomial.constant(dim, c)
        for i, e in enumerate(exp):
            if e:
                t = t * lin[i] ** e
        out = out + t
    return out


def linear_change(rng, geom, substitute=True):
    """A random integer A with entries in [-2, 2] and the chart pulled back
    by x = A x': w' = A^T w A and Gamma'_abc(x') = A_ia A_jb A_kc
    Gamma_ijk(A x').  With ``substitute`` False the Christoffel entries are
    not evaluated at A x', which is wrong for every non-constant entry."""
    dim = geom.dim
    w = geom.omega.constant_rows()
    while True:
        A = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]
        omega = [[sum(A[i][a] * w[i][j] * A[j][b] for i in range(dim) for j in range(dim))
                  for b in range(dim)] for a in range(dim)]
        if omega != w:
            try:
                Geometry(dim, omega=omega)
                break
            except GeometryError:  # A is singular
                continue
    gamma = {}
    for a, b, c in itertools.combinations_with_replacement(range(dim), 3):
        p = Polynomial.zero(dim)
        for i, j, k in itertools.product(range(dim), repeat=3):
            if A[i][a] * A[j][b] * A[k][c]:
                p = p + geom.christoffel(i, j, k).scale(A[i][a] * A[j][b] * A[k][c])
        gamma[(a, b, c)] = pulled_back(p, A) if substitute else p
    return A, Geometry(dim, omega=omega, gamma=gamma)


def pulled_back_two_form(alpha, A, substitute=True):
    """alpha'_ab(x') = A_ia A_jb alpha_ij(A x'); with ``substitute`` False
    the entries are not evaluated at A x'."""
    dim = alpha.dim
    rows = [[sum((alpha.rows[i][j].scale(A[i][a] * A[j][b])
                  for i in range(dim) for j in range(dim)), Polynomial.zero(dim))
             for b in range(dim)] for a in range(dim)]
    return Tensor2(dim, "lower", [[pulled_back(p, A) if substitute else p for p in row]
                                  for row in rows])


@pytest.mark.parametrize("dim, order, cases, perturbed", [
    pytest.param(2, 3, 3, False, id="2-3-3"), pytest.param(4, 2, 1, False, id="4-2-1"),
    pytest.param(2, 3, 3, True, id="2-3-3-alpha")])
def test_star_is_natural_under_linear_changes_of_chart(rng, dim, order, cases, perturbed):
    """f' *' g' = (f * g)(A x') coefficient by coefficient on curved charts,
    whose pulled-back structure matrix is not the block form; pulling Gamma
    back without substituting A x' breaks it.  With ``perturbed`` the chart
    also carries a non-constant alpha at hbar^1, pulled back as a two-form,
    and the control pulls Gamma back correctly but alpha without A x'."""
    for substitute in (True, False):
        for _ in range(cases):
            geom = Geometry(dim, gamma=rand_gamma(rng, dim))
            while all(p.is_constant() for p in geom.gamma.values()):
                geom = Geometry(dim, gamma=rand_gamma(rng, dim))
            if perturbed:
                A, other = linear_change(rng, geom)
                alpha = rand_closed_skew_poly(rng, dim)
                while all(p.is_constant() for row in alpha.rows for p in row):
                    alpha = rand_closed_skew_poly(rng, dim)
                specs = [WeylCurvatureSpec(chart, TensorSeries.from_terms(
                    dim, "lower", order, [(1, a)])) for chart, a in
                    ((geom, alpha), (other, pulled_back_two_form(alpha, A, substitute)))]
            else:
                A, other = linear_change(rng, geom, substitute)
                specs = [WeylCurvatureSpec(geom), WeylCurvatureSpec(other)]
            f, g = rand_quadratic(rng, dim), rand_quadratic(rng, dim)
            want = StarEngine(specs[0], order).star(f, g)
            got = StarEngine(specs[1], order).star(pulled_back(f, A), pulled_back(g, A))
            equal = all(got.coeff(n) == pulled_back(want.coeff(n), A)
                        for n in range(order + 1))
            assert equal is substitute


def associator(product, f, g, h):
    """(f * g) * h - f * (g * h) for a product of hbar-series."""
    return product(product(f, g), h) - product(f, product(g, h))


@pytest.mark.parametrize("name, order, triples", [
    *(pytest.param(name, 2, 3, id=name) for name in ("curved_r4_plain", "curved_r4_k1_poly",
                                                      "curved_r4_k1_const", "curved_r4_k2_const")),
    pytest.param("curved_r4_k1_poly", 3, 1, id="curved_r4_k1_poly-order3")])
def test_star_is_associative_on_the_curved_scenarios(rng, name, order, triples):
    """Random quadratic triples: three at order 2 on every curved scenario,
    one at order 3 on curved_r4_k1_poly.  The control adds hbar^2 f E(g),
    E = sum x_i d_i, to the product: its associator is hbar^2 f g E(h) =
    2 hbar^2 f g h, never zero."""
    engine = StarEngine(load_scenario(os.path.join(SCENARIOS, name + ".json")).build_spec(),
                        order)

    def corrupted(a, b):
        a0, b0 = (p.coeff(0, Polynomial.zero(4)) for p in (a, b))
        euler = sum((Polynomial.variable(4, i) * b0.partial(i) for i in range(4)),
                    Polynomial.zero(4))
        return engine.star_series(a, b) + HbarSeries(order, {2: a0 * euler})

    for _ in range(triples):
        f, g, h = (HbarSeries(order, {0: rand_quadratic(rng, 4)}) for _ in range(3))
        assert associator(engine.star_series, f, g, h).is_zero()
        assert not associator(corrupted, f, g, h).is_zero()


def bivector_series(engine):
    """pi_m^{ij} = i (C_{m+1}(x^i, x^j) - C_{m+1}(x^j, x^i)) for m below the
    engine order, read off its coordinate grid: the series the product's
    1-differentiable part deforms the Poisson bracket by, pi_0 = wbar."""
    grid, dim = engine.coordinate_products(), engine.spec.dim
    return HbarSeries(engine.order - 1, {
        m: Tensor2(dim, "upper", [[(grid[i][j].coeff(m + 1) - grid[j][i].coeff(m + 1)).scale(I)
                                   for j in range(dim)] for i in range(dim)])
        for m in range(engine.order)})


@pytest.mark.parametrize("chart", ["curved_r4_k1_poly", "random", "curved_r4_plain",
                                   "curved_r4_k1_const", "curved_r4_k2_const"])
def test_the_products_bivector_series_is_poisson_at_every_order(rng, chart):
    """The paper's first claim, that a star product defines a
    1-differentiable deformation of the Poisson bracket: at order 3 the
    Schouten square of the bivector series is zero at every order computed,
    past the orders compare checks, on every bundled curved scenario and on
    a seeded random curved 4D chart with a non-constant closed alpha at
    hbar^1.  Control, on the random chart: doubling one skew pair of
    non-constant entries of pi_2 leaves a nonzero square.  On
    curved_r4_k1_poly no such doubling shows: pi_1 has only the entries
    pi_1^{34} = -pi_1^{43} = -2 x2 and pi_2 is constant, so every bracket
    that reads them is zero at any size.  On curved_r4_plain,
    curved_r4_k1_const and curved_r4_k2_const pi is constant at every
    order, so there they pin pi_0 = wbar and the Schouten square, not a
    non-trivial bracket."""
    order = 3
    if chart == "random":
        alpha = rand_closed_skew_poly(rng, 4)
        assert not alpha.is_constant()
        spec = WeylCurvatureSpec(rand_curved_geometry(rng, 4),
                                 TensorSeries.from_terms(4, "lower", order, [(1, alpha)]))
    else:
        spec = load_scenario(os.path.join(SCENARIOS, chart + ".json")).build_spec()
    pi = bivector_series(StarEngine(spec, order))
    assert pi.coeff(0) == spec.geometry.omega_bar
    assert series_schouten(pi, pi).is_zero()
    if chart != "random":
        return
    rows = [list(row) for row in pi.coeff(2).rows]
    i, j = next((i, j) for i in range(4) for j in range(i + 1, 4)
                if not rows[i][j].is_constant())
    rows[i][j], rows[j][i] = rows[i][j].scale(2), rows[j][i].scale(2)
    doubled = HbarSeries(order - 1, {**pi.coeffs, 2: Tensor2(4, "upper", rows)})
    assert not series_schouten(doubled, doubled).is_zero()


@pytest.mark.parametrize("name, order", [
    *((name, 3) for name in ("curved_r4_k1_poly", "curved_r4_k1_const", "curved_r4_k2_const")),
    *((name, 5) for name in ("flat_r2_k1_const", "flat_r2_k1_poly", "flat_r2_k2_const",
                             "flat_r4_formal", "flat_r4_k1_const", "flat_r4_k1_poly",
                             "flat_r4_k2_const"))])
def test_the_inverse_bivector_series_reads_back_the_perturbation(name, order):
    """The paper's second claim, that the characteristic class can be read
    off the product: omega_h = pi_h^{-1} of the perturbed product minus
    omega_h of the unperturbed one is Omega = sum_k hbar^k alpha_k at every
    order the bivector series carries, hbar^2 on the curved scenarios at
    order 3 and hbar^4 on the flat ones at order 5.  On the curved charts
    the unperturbed omega_h is omega + hbar^2 (1/8) dx2^dx4, whose closed
    form is still open.  Control, on curved_r4_k1_poly: doubling pi_1^{34} =
    -pi_1^{43} = -2 x2 leaves a nonzero remainder at hbar^1."""
    spec = load_scenario(os.path.join(SCENARIOS, name + ".json")).build_spec()
    top = order - 1
    bare = series_inverse(bivector_series(StarEngine(spec.unperturbed(), order)), top)

    def remainder(pi):
        return series_inverse(pi, top) - bare - spec.alpha_series(top)

    pi = bivector_series(StarEngine(spec, order))
    assert remainder(pi).is_zero()
    if spec.geometry.is_flat():
        return
    eighth = Polynomial.constant(4, F(1, 8))
    rows = [[Polynomial.zero(4)] * 4 for _ in range(4)]
    rows[1][3], rows[3][1] = eighth, -eighth
    assert bare == HbarSeries(top, {0: spec.geometry.omega, 2: Tensor2(4, "lower", rows)})
    if name != "curved_r4_k1_poly":
        return
    rows = [list(row) for row in pi.coeff(1).rows]
    assert rows[2][3] == -rows[3][2] == Polynomial.variable(4, 1).scale(-2)
    rows[2][3], rows[3][2] = rows[2][3].scale(2), rows[3][2].scale(2)
    doubled = HbarSeries(top, {**pi.coeffs, 1: Tensor2(4, "upper", rows)})
    assert remainder(doubled).coeff(1) is not None


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

    def update(a, geom, acc):
        real(a, geom, acc)
        fedosov._add_form(acc, delta(a))
    monkeypatch.setattr(fedosov, "cov_ext_deriv", update)


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


def test_perturbation_shape_checks():
    g2 = Geometry(2)
    al = Tensor2(2, "lower", [[0, 1], [-1, 0]])
    upper = TensorSeries.from_terms(2, "upper", 3, [(1, Tensor2(2, "upper", al.rows))])
    with pytest.raises(PerturbationError):
        WeylCurvatureSpec(g2, upper)
    with pytest.raises(PerturbationError):
        WeylCurvatureSpec(g2, TensorSeries.from_terms(
            4, "lower", 3, [(1, Geometry(4).omega)]))


# -- verify's abelian residual reads the top body its extension kept ------------------


def bracketed(monkeypatch):
    """The degrees (i, j) of every bracket fedosov takes, as it takes it."""
    seen = []
    real = fedosov.odd_bracket

    def recording(x, y, geom):
        (i,), (j,) = degrees(x), degrees(y)
        seen.append((i, j))
        return real(x, y, geom)

    monkeypatch.setattr(fedosov, "odd_bracket", recording)
    return seen


def keeping(form, a):
    """``form`` as an extension that holds the record ``a`` kept."""
    out = fedosov._Extension._make(form.dim, form.terms)
    out.kept = a.kept
    return out


def residual_pair(a, spec, r, cap, seen):
    """The residual of the extension a, whose brackets are left in seen, and
    the standalone residual of the same form, which keeps no body."""
    want = abelian_residual(WeylForm(a.dim, a.terms), spec, r, cap)
    seen.clear()
    return abelian_residual(a, spec, r, cap), want


@pytest.mark.parametrize("name, order", [
    ("curved_r4_plain", 2), ("curved_r4_k1_poly", 2), ("curved_r4_k1_const", 2),
    ("curved_r4_k2_const", 2), ("curved_r4_k1_poly", 3)])
def test_verify_residuals_equal_the_standalone_residuals(monkeypatch, name, order):
    """verify's residuals of f and g, each extended by one degree from the
    engine's section, equal the standalone residuals of the same forms, and
    print the same.  Each adds the body its extension kept in place of the
    top pairs i + j = cap, which it no longer brackets, and releases it."""
    scenario = load_scenario(os.path.join(SCENARIOS, name + ".json"))
    spec = scenario.build_spec()
    engine = StarEngine(spec, order)
    cap = engine.cap + 1
    r = solve_r(spec, cap, below=engine.r())
    seen = bracketed(monkeypatch)
    for obs in cli._default_observables(scenario):
        a = flat_section(obs, spec, r, cap, below=engine.section(obs))
        got, want = residual_pair(a, spec, r, cap, seen)
        assert got == want and str(got) == str(want) == "0"
        assert seen and max(i + j for i, j in seen) == cap - 1
        assert a.kept == {}


@pytest.mark.parametrize("cap", [6, 7, 8])
def test_shared_residual_equals_the_standalone_one_on_random_charts(rng, monkeypatch, cap):
    """On seeded random curved 2D charts the residual of a one-degree
    extension equals the standalone one: zero on the solved section, and
    nonzero once the extension's top degree gains the term x1 y1^{cap-1}
    while its record stays.  The operands still match, so the residual
    reads the body, and the term shows as - delta of it."""
    spec, f = _curved_poly_chart(rng)
    r = solve_r(spec, cap)
    below = flat_section(f, spec, r, cap - 1)
    seen = bracketed(monkeypatch)
    a = flat_section(f, spec, r, cap, below=below)
    got, want = residual_pair(a, spec, r, cap, seen)
    assert got == want and got.is_zero()
    assert max(i + j for i, j in seen) == cap - 1
    a = flat_section(f, spec, r, cap, below=below)
    top = WeylForm(2, {(0, (cap - 1, 0), ()): Polynomial.variable(2, 0)})
    got, want = residual_pair(keeping(a + top, a), spec, r, cap, seen)
    assert got == want and str(got) == str(want)
    assert got == -delta(top) and max(i + j for i, j in seen) == cap - 1


def test_shared_residual_keeps_its_strength(rng, monkeypatch):
    """Two broken extensions at cap 7, each with a nonzero residual equal
    to the standalone one, which brackets every top pair itself:
    - the extension's solve skips the top pair (3, cap - 3), as r's part of
      degree 3 is hidden from it, and its record lacks that pair;
    - the section's part of degree cap - 2 gains Z = delta(x2 y1^{cap-1})
      after the solve.  delta Z = 0, so only degree cap - 2 shows Z, through
      par Z.  The body kept there holds par of the part without Z, so a
      residual that took it would read zero; the operand no longer matches
      the one the solve read, and the residual computes that degree."""
    spec, f = _curved_poly_chart(rng)
    cap = 7
    r = solve_r(spec, cap)
    below = flat_section(f, spec, r, cap - 1)
    real = fedosov._parts

    def hiding(x):
        parts = real(x)
        if x is r:
            del parts[3]
        return parts

    monkeypatch.setattr(fedosov, "_parts", hiding)
    skipped = flat_section(f, spec, r, cap, below=below)
    monkeypatch.setattr(fedosov, "_parts", real)
    assert (3, cap - 3) not in skipped.kept["read"][3]
    a = flat_section(f, spec, r, cap, below=below)
    z = delta(WeylForm(2, {(0, (cap - 1, 0), ()): Polynomial.variable(2, 1)}))
    assert delta(z).is_zero() and degrees(z) == {cap - 2}
    seen = bracketed(monkeypatch)
    for broken in (skipped, keeping(a + z, a)):
        got, want = residual_pair(broken, spec, r, cap, seen)
        assert got == want and str(got) == str(want) and not got.is_zero()
        assert max(i + j for i, j in seen) == cap
    assert got.capped(cap - 3).is_zero()


def test_extension_and_its_residual_bracket_each_part_pair_once(rng, monkeypatch):
    """At cap 8 a one-degree extension and its residual bracket each part
    pair r_i, a_j with i + j <= cap once between them: the extension the top
    pairs, i + j = cap, and the residual every lower pair of its window."""
    spec, f = _curved_poly_chart(rng)
    cap = 8
    r = solve_r(spec, cap)
    below = flat_section(f, spec, r, cap - 1)
    seen = bracketed(monkeypatch)
    a = flat_section(f, spec, r, cap, below=below)
    assert degrees(a) == set(range(cap))
    assert sorted(seen) == [(i, cap - i) for i in range(3, cap)]
    assert abelian_residual(a, spec, r, cap).is_zero()
    assert sorted(seen) == [(i, j) for i in range(3, cap) for j in range(cap)
                            if i + j <= cap]


# -- verify's flatness residual reads the top body solve_r's extension kept ------------


def multiplied(monkeypatch):
    """The degrees (i, j) of every whole product fedosov takes, as it takes it."""
    seen = []
    real = fedosov.moyal

    def recording(x, y, geom, bracket=False):
        (i,), (j,) = degrees(x), degrees(y)
        seen.append((i, j))
        return real(x, y, geom, bracket)

    monkeypatch.setattr(fedosov, "moyal", recording)
    return seen


def flatness_pair(r, spec, cap, seen):
    """The flatness residual of the extension r, whose products are left in
    seen, and the standalone residual of the same form, which keeps no body."""
    want = curvature_residual(WeylForm(r.dim, r.terms), spec, cap)
    seen.clear()
    return curvature_residual(r, spec, cap), want


@pytest.mark.parametrize("name, order", [
    ("curved_r4_plain", 2), ("curved_r4_k1_poly", 2), ("curved_r4_k1_const", 2),
    ("curved_r4_k2_const", 2), ("curved_r4_k1_poly", 3)])
def test_verify_flatness_residual_equals_the_standalone_one(monkeypatch, name, order):
    """verify's flatness residual, of r extended by one degree from the
    engine's r, equals the standalone residual of the same form and prints
    the same.  It adds the body the extension kept in place of par r_{cap-2}
    and the top products r_i o r_j with i + j = cap, which it no longer
    takes, and releases the body."""
    scenario = load_scenario(os.path.join(SCENARIOS, name + ".json"))
    spec = scenario.build_spec()
    engine = StarEngine(spec, order)
    cap = engine.cap + 1
    r = solve_r(spec, cap, below=engine.r())
    assert set(r.kept) == {"body", "read"}
    seen = multiplied(monkeypatch)
    got, want = flatness_pair(r, spec, cap, seen)
    assert got == want and str(got) == str(want) == "0"
    parts = degrees(r)
    assert sorted(seen) == [(i, j) for i in sorted(parts) for j in sorted(parts)
                            if i + j < cap]
    assert r.kept == {}


@pytest.mark.parametrize("cap", [6, 7, 8])
def test_shared_flatness_residual_equals_the_standalone_one_on_random_charts(
        rng, monkeypatch, cap):
    """On seeded random curved 2D charts the flatness residual of a
    one-degree extension of r equals the standalone one: zero on the solved
    r, and nonzero once the extension's top degree gains the term
    x1 y1^{cap-1} dx2 while its record stays.  The operands still match, so
    the residual reads the body, and the term shows as delta of it.  A solve
    from degree 0 keeps nothing."""
    spec, _f = _curved_poly_chart(rng)
    below = solve_r(spec, cap - 1)
    assert type(below) is WeylForm
    seen = multiplied(monkeypatch)
    r = solve_r(spec, cap, below=below)
    assert seen == [] and r.kept
    got, want = flatness_pair(r, spec, cap, seen)
    assert got == want and got.is_zero()
    assert all(i + j < cap for i, j in seen) and r.kept == {}
    r = solve_r(spec, cap, below=below)
    top = WeylForm(2, {(0, (cap - 1, 0), (1,)): Polynomial.variable(2, 0)})
    got, want = flatness_pair(keeping(r + top, r), spec, cap, seen)
    assert got == want and str(got) == str(want)
    assert got == delta(top) and all(i + j < cap for i, j in seen)


def test_shared_flatness_residual_keeps_its_strength(rng, monkeypatch):
    """Two broken extensions of r at cap 7, each with a nonzero residual
    equal to the standalone one, which takes every top product itself:
    - the extension's solve skips the top pair (3, cap - 3), so its part of
      degree cap - 1 is wrong, and its record lacks that pair;
    - r's part of degree cap - 2 gains Z = delta(x2 y1^{cap-1}) after the
      solve.  delta Z = 0, so only degree cap - 2 shows Z, through par Z.
      The body kept there holds par of the part without Z, so a residual
      that took it would read zero; the operand no longer matches the one
      the solve read, and the residual computes that degree."""
    spec, _f = _curved_poly_chart(rng)
    cap = 7
    below = solve_r(spec, cap - 1)
    real = fedosov._r_pairs

    def skipping(rs, e):
        pairs = real(rs, e)
        pairs.pop((3, e - 1), None)
        return pairs

    monkeypatch.setattr(fedosov, "_r_pairs", skipping)
    skipped = solve_r(spec, cap, below=below)
    monkeypatch.setattr(fedosov, "_r_pairs", real)
    assert (3, cap - 3) not in skipped.kept["read"][3]
    r = solve_r(spec, cap, below=below)
    assert skipped != r
    z = delta(WeylForm(2, {(0, (cap - 1, 0), ()): Polynomial.variable(2, 1)}))
    assert delta(z).is_zero() and degrees(z) == {cap - 2}
    seen = multiplied(monkeypatch)
    for broken in (skipped, keeping(r + z, r)):
        got, want = flatness_pair(broken, spec, cap, seen)
        assert got == want and str(got) == str(want) and not got.is_zero()
        assert max(i + j for i, j in seen) == cap
        assert broken.kept == {}
    assert got.capped(cap - 3).is_zero()
