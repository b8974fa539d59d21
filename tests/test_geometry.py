"""Chart data: symplectic form, connection, curvature, covariant derivative."""

import collections
import itertools
import math
from fractions import Fraction

import pytest

from fedosov_lab.algebra import GaussianRational, Polynomial, _Sum
from fedosov_lab.geometry import (Geometry, GeometryError, cov_ext_deriv,
                                  standard_omega, validate_geometry)
from fedosov_lab.tensors import Tensor2
from fedosov_lab.weyl import (WeylForm, commutator, delta, exterior_d, i_over_hbar, index_form,
                              moyal, odd_bracket)

from conftest import (bianchi_three_form, rand_curved_geometry, rand_form, rand_form_qdeg,
                      rand_gamma, rand_skew_constant, rand_structure_geometry)

F = Fraction


# -- construction and validation ---------------------------------------------


def test_standard_omega_block_form():
    rows = standard_omega(4)
    d = 2
    for i in range(4):
        for j in range(4):
            want = F(0)
            if j == i + d:
                want = F(1)
            elif i == j + d:
                want = F(-1)
            assert rows[i][j] == want


def test_omega_bar_is_inverse():
    for dim in (2, 4, 6):
        g = Geometry(dim)
        om = g.omega.constant_rows()
        omb = g.omega_bar.constant_rows()
        for i in range(dim):
            for k in range(dim):
                s = sum((om[i][j] * omb[j][k] for j in range(dim)), F(0))
                assert s == (1 if i == k else 0)


def test_validate_geometry_reports():
    checks = validate_geometry(Geometry(2))
    assert [c[0] for c in checks] == ["geometry.omega-constant-skew",
                                      "geometry.omega-inverse-identity",
                                      "geometry.christoffel-symmetry"]
    assert all(ok for _a, ok in checks)


def test_bad_omega_rejected():
    with pytest.raises(GeometryError):
        Geometry(2, omega=Tensor2(2, "lower", [[0, 1], [1, 0]]))  # not skew
    with pytest.raises((GeometryError, ValueError)):
        Geometry(2, omega=Tensor2(2, "lower", [[0, 0], [0, 0]]))  # singular
    with pytest.raises(GeometryError):
        # non-constant entries
        Geometry(2, omega=Tensor2(2, "lower",
                                  [[0, Polynomial.variable(2, 0)],
                                   [-Polynomial.variable(2, 0), 0]]))


def test_asymmetric_gamma_rejected():
    with pytest.raises(GeometryError):
        g = Geometry(2, gamma={(0, 0, 1): Polynomial.one(2)})
        # symmetrized storage should make all permutations equal; force a
        # direct violation instead
        g.gamma[(0, 1, 0)] = Polynomial.zero(2)
        validate_geometry(g)


def test_christoffel_input_is_validated():
    # an index out of range, an entry of another dim and two orderings of one
    # triple with different values are each rejected on construction
    for idx in ((0, 0, 2), (-1, 0, 1)):
        with pytest.raises(GeometryError, match="out of range"):
            Geometry(2, gamma={idx: 1})
    with pytest.raises(GeometryError, match="dim mismatch"):
        Geometry(2, gamma={(0, 0, 1): Polynomial.one(4)})
    with pytest.raises(GeometryError, match="full symmetry"):
        Geometry(2, gamma={(0, 0, 1): 1, (1, 0, 0): 2})
    # a scalar entry is read as the constant polynomial
    g = Geometry(2, gamma={(0, 0, 1): F(3, 2), (1, 0, 0): F(3, 2), (1, 1, 1): 0})
    assert g.christoffel(0, 1, 0) == Polynomial.constant(2, F(3, 2))
    assert g.gamma == {(0, 0, 1): Polynomial.constant(2, F(3, 2))}


def test_christoffel_fully_symmetric(rng):
    g = rand_curved_geometry(rng, 4)
    idx = [(i, j, k) for i in range(4) for j in range(4) for k in range(4)]
    for (i, j, k) in idx:
        v = g.christoffel(i, j, k)
        assert v == g.christoffel(j, i, k) == g.christoffel(k, j, i) == g.christoffel(i, k, j)


def test_gamma_weyl_form(rng):
    # Gamma-tilde = 1/2 Gamma_{ijk} y^i y^j dx^k
    g = rand_curved_geometry(rng, 2)
    gw = g.gamma_weyl()
    dim = 2
    want = WeylForm.zero(dim)
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                c = g.christoffel(i, j, k)
                if c.is_zero():
                    continue
                u = [0] * dim
                u[i] += 1
                u[j] += 1
                want = want + WeylForm(dim, {(0, tuple(u), (k,)): c.scale(F(1, 2))})
    assert gw == want


def oracle_contractions(geom, k):
    """{(d, e): [weight of each multiset of k nonzero wbar entries giving
    (d, e)]}, a multiset taking entry t m_t times weighing
    prod(wbar_t^{m_t} / m_t!)."""
    entries = [((r, s), v) for r, row in enumerate(geom.omega_bar.constant_rows())
               for s, v in enumerate(row) if v]
    out = {}
    for combo in itertools.combinations_with_replacement(range(len(entries)), k):
        d = [0] * geom.dim
        e = [0] * geom.dim
        w = GaussianRational(1)
        for t, m in collections.Counter(combo).items():
            (r, s), v = entries[t]
            d[r] += m
            e[s] += m
            w = w * v ** m / math.factorial(m)
        out.setdefault((tuple(d), tuple(e)), []).append(w)
    return out


def scalars(geom, k):
    """{(d, e): c} read off the rows of ``contraction_numerators(k)``, in
    row order."""
    return {(d, e): GaussianRational(F(re, den), F(im, den))
            for d, row in geom.contraction_numerators(k).items()
            for e, (re, im, den) in row.items()}


def test_contractions_match_multiset_oracle(rng):
    # Each chart's rows hold (-i/2)^k * d! * e! * (summed multiset weights)
    # per key (d, e); off the block form several multisets share a key, and
    # a key whose weights cancel is not stored.  Checked on the block chart,
    # on random non-block ones in 4D and, through k = 3, in 6D.
    shared = []
    for g, top in ((Geometry(4), 4), (rand_structure_geometry(rng, 4), 4),
                   (rand_structure_geometry(rng, 6), 4)):
        shared.append(0)
        for k in range(top):
            oracle = oracle_contractions(g, k)
            rows = g.contraction_numerators(k)
            table = scalars(g, k)
            assert set(table) <= set(oracle)
            pre = GaussianRational(0, F(-1, 2)) ** k
            for (d, e), ws in oracle.items():
                shared[-1] += len(ws) > 1
                fact = math.prod(math.factorial(x) for x in d + e)
                assert table.get((d, e), 0) == pre * sum(ws, GaussianRational(0)) * fact
            assert g.contraction_numerators(k) is rows  # built once per chart and k
        # the k=1 table is (-i/2) wbar, entry by entry
        omb = g.omega_bar.constant_rows()
        unit = [tuple(1 if t == i else 0 for t in range(g.dim)) for i in range(g.dim)]
        assert scalars(g, 1) == {
            (unit[i], unit[j]): GaussianRational(0, F(-1, 2)) * omb[i][j]
            for i in range(g.dim) for j in range(g.dim) if omb[i][j]}
    assert shared[1] and shared[2]  # the non-block charts exercise summed multisets


def test_contractions_of_a_non_real_structure_matrix_match_the_oracle():
    # A non-real wbar takes the same path as a real one, Gaussian-integer
    # numerators throughout, checked here against the oracle.
    i1 = GaussianRational(1, 1)
    block = standard_omega(4)
    for g in (Geometry(2, omega=[[0, i1], [-i1, 0]]),
              Geometry(4, omega=[[v * GaussianRational(2, -1) for v in row] for row in block])):
        assert any(v.im for row in g.omega_bar.constant_rows() for v in row)
        for k in range(5):
            oracle = oracle_contractions(g, k)
            table = scalars(g, k)
            assert set(table) <= set(oracle)
            pre = GaussianRational(0, F(-1, 2)) ** k
            for (d, e), ws in oracle.items():
                fact = math.prod(math.factorial(x) for x in d + e)
                assert table.get((d, e), 0) == pre * sum(ws, GaussianRational(0)) * fact
            rows = g.contraction_numerators(k)
            for (d, e), c in table.items():
                re, im, den = rows[d][e]
                assert c == GaussianRational(F(re, den), F(im, den))


@pytest.mark.parametrize("dim", [2, 4])
def test_contractions_sit_in_the_rows_of_their_numerators(rng, dim):
    # contraction_numerators(k) holds every scalar of a table over one
    # denominator, the lcm of the scalars' reduced denominators, so a
    # moyal_weights miss sums plain integer numerators.
    for g in (Geometry(dim), rand_structure_geometry(rng, dim), rand_structure_geometry(rng, dim)):
        for k in range(5):
            table = scalars(g, k)
            rows = g.contraction_numerators(k)
            dens = {den for row in rows.values() for _re, _im, den in row.values()}
            assert len(dens) == 1
            [den] = dens
            assert den == math.lcm(*(q.denominator for c in table.values() for q in (c.re, c.im)))
            for (d, e), c in table.items():
                re, im, _den = rows[d][e]
                assert c == GaussianRational(F(re, den), F(im, den))
            assert g.contraction_numerators(k) is rows  # built once per chart and k


# -- curvature -----------------------------------------------------------------


def test_flat_chart_curvature_zero():
    for dim in (2, 4):
        assert Geometry(dim).curvature().is_zero()
        assert Geometry(dim).is_flat()


@pytest.mark.parametrize("dim,deg", [(2, 1), (2, 2), (4, 1), (4, 2)])
def test_curvature_symmetries_and_bianchi(rng, dim, deg):
    for _ in range(5):
        g = rand_curved_geometry(rng, dim, deg)
        curv = g.curvature()
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    for l in range(dim):
                        e = curv.entry(i, j, k, l)
                        assert e == curv.entry(j, i, k, l)
                        assert e == -curv.entry(i, j, l, k)
                        # first Bianchi identity: R_{ijkl} + R_{iklj} + R_{iljk} = 0
                        assert (e + curv.entry(i, k, l, j) + curv.entry(i, l, j, k)).is_zero()
        # first Bianchi identity as a contraction: R_{ijkl} y^i dx^j ^ dx^k ^ dx^l = 0,
        # and in Weyl dress delta(R_w) = 0, which Fedosov's recursion needs
        assert bianchi_three_form(curv.entries) == {}
        assert delta(curv.weyl_two_form).is_zero()


def curvature_oracle(geom, i, j, k, l):
    """Direct index sums: Gamma^m_{jk} = wbar^{mr} Gamma_{rjk},
    R^m_{jkl} = d_k Gamma^m_{lj} - d_l Gamma^m_{kj}
                + Gamma^m_{ks} Gamma^s_{lj} - Gamma^m_{ls} Gamma^s_{kj},
    R_{ijkl} = w_{im} R^m_{jkl}."""
    dim = geom.dim

    def raised(m, a, b):
        out = Polynomial.zero(dim)
        for r in range(dim):
            out = out + geom.omega_bar.entry(m, r) * geom.christoffel(r, a, b)
        return out

    out = Polynomial.zero(dim)
    for m in range(dim):
        upper = raised(m, l, j).partial(k) - raised(m, k, j).partial(l)
        for t in range(dim):
            upper = upper + raised(m, k, t) * raised(t, l, j) - raised(m, l, t) * raised(t, k, j)
        out = out + geom.omega.entry(i, m) * upper
    return out


def _rand_symplectic_geometry(rng, dim):
    """Random curved chart on a random (not block-form) structure matrix."""
    while True:
        try:
            g = Geometry(dim, omega=rand_skew_constant(rng, dim), gamma=rand_gamma(rng, dim))
        except GeometryError:
            continue  # singular structure matrix
        if not g.is_flat():
            return g


@pytest.mark.parametrize("dim", [2, 4])
def test_curvature_matches_index_oracle(rng, dim):
    charts = [rand_curved_geometry(rng, dim, deg) for deg in (1, 2)]
    charts.append(_rand_symplectic_geometry(rng, dim))
    for g in charts:
        curv = g.curvature()
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    for l in range(dim):
                        assert curv.entry(i, j, k, l) == curvature_oracle(g, i, j, k, l)


def test_curvature_validation_rejects_broken_bianchi(rng):
    # +x4 at R_{0123}, R_{1023} and -x4 at their (k, l) mirrors keep the
    # (i, j) symmetry and the (k, l) skew but break the first Bianchi identity
    g = rand_curved_geometry(rng, 4)
    curv = g.curvature()
    x4 = Polynomial.variable(4, 3)
    e = curv.entries
    for i, j in ((0, 1), (1, 0)):
        e[i][j][2][3] = e[i][j][2][3] + x4
        e[i][j][3][2] = e[i][j][3][2] - x4
    with pytest.raises(GeometryError, match="first Bianchi identity"):
        curv._validate(g)
    # the contraction check of test_curvature_symmetries_and_bianchi and of
    # acceptance criterion 6 sees the break, at y^1 dx^2 ^ dx^3 ^ dx^4 and
    # at y^2 dx^1 ^ dx^3 ^ dx^4, and so does delta of the broken R_w
    assert bianchi_three_form(e) == {(0, (1, 2, 3)): x4.scale(2), (1, (0, 2, 3)): x4.scale(2)}
    broken = index_form(4, ((0, (i, j), (k, l), e[i][j][k][l])
                            for i, j, k, l in itertools.product(range(4), repeat=4)))
    assert not delta(broken).is_zero()


def test_weyl_two_form_convention(rng):
    # weyl_two_form = 1/4 R_{ijkl} y^i y^j dx^k ^ dx^l, assembled over k < l
    g = rand_curved_geometry(rng, 2)
    curv = g.curvature()
    dim = 2
    want = WeylForm.zero(dim)
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                for l in range(k + 1, dim):
                    e = curv.entry(i, j, k, l)
                    if e.is_zero():
                        continue
                    u = [0] * dim
                    u[i] += 1
                    u[j] += 1
                    # 1/4 with both (k,l) and (l,k) collapsed onto k<l gives 1/2
                    want = want + WeylForm(dim, {(0, tuple(u), (k, l)): e.scale(F(1, 2))})
    assert curv.weyl_two_form == want


# -- covariant exterior derivative ----------------------------------------------


def test_flat_partial_is_exterior_d(rng):
    g = Geometry(2)
    for _ in range(10):
        a = rand_form(rng, 2, cap=8)
        assert cov_ext_deriv(a, g) == __import__("fedosov_lab.weyl", fromlist=["exterior_d"]).exterior_d(a)


def _held_sum(rng, a, dim):
    """A ``_Sum`` that already holds terms over the denominators 3 and 7 and
    an imaginary 1/5, on keys of a's derivative and on other keys, and the
    form of those terms."""
    held = rand_form(rng, dim, None, nterms=4, max_ydeg=2) + exterior_d(a).scale(F(-2, 3))
    acc = _Sum(dim)
    for k, p in held.terms.items():
        acc.add(k, p, 1, 0, 7)
        acc.add(k, p, 0, 1, 5)
    return acc, held.scale(GaussianRational(F(1, 7), F(1, 5)))


@pytest.mark.parametrize("chart", ["flat", "curved", "curved-non-block"])
def test_derivatives_add_into_a_given_sum(rng, chart):
    """cov_ext_deriv(a, geom, acc) and exterior_d(a, acc) add into a _Sum that
    already holds terms and return None; the sum then reduces to the held
    form plus the derivative's own form, exactly."""
    dim = 2
    omega = rand_structure_geometry(rng, dim).omega if chart == "curved-non-block" else None
    g = Geometry(dim) if chart == "flat" else rand_curved_geometry(rng, dim, omega=omega)
    for _ in range(3):
        a = rand_form(rng, dim, None, nterms=5, max_h=2, max_ydeg=3)
        for op, want in ((exterior_d, exterior_d(a)),
                         (lambda x, acc: cov_ext_deriv(x, g, acc), cov_ext_deriv(a, g))):
            acc, held = _held_sum(rng, a, dim)
            assert op(a, acc) is None
            assert WeylForm(dim, acc.polys()) == held + want
            assert not want.is_zero()


def test_cov_ext_deriv_into_a_sum_without_d_a_fails(rng, monkeypatch):
    """Control: a cov_ext_deriv whose exterior_d returns its form instead of
    adding into the given sum loses d a, so the sum no longer equals the
    held form plus par a."""
    from fedosov_lab import geometry
    g = rand_curved_geometry(rng, 2)
    a = rand_form(rng, 2, None, nterms=5, max_h=2, max_ydeg=3)
    want, d_a = cov_ext_deriv(a, g), exterior_d(a)
    acc, held = _held_sum(rng, a, 2)
    real = geometry.exterior_d
    monkeypatch.setattr(geometry, "exterior_d", lambda x, acc=None: real(x))
    cov_ext_deriv(a, g, acc)
    got = WeylForm(2, acc.polys())
    assert not d_a.is_zero() and got != held + want
    assert got == held + want - d_a


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("block", [True, False], ids=["block", "non-block"])
def test_connection_term_is_the_odd_bracket_with_gamma(rng, monkeypatch, dim, block):
    # the derivation through the cached V_s equals the full product pass
    # exactly on forms of hbar^0..2, y-degree 0..4 and dx-degree 0..2; the
    # V_s of a chart with one Christoffel entry changed must not
    for _ in range(3):
        omega = None if block else rand_structure_geometry(rng, dim).omega
        g = rand_curved_geometry(rng, dim, omega=omega)
        forms = [rand_form(rng, dim, cap=None, nterms=5, max_h=2, max_ydeg=4, max_q=2)
                 for _ in range(4)]
        for a in forms:
            assert cov_ext_deriv(a, g) == exterior_d(a) + odd_bracket(g.gamma_weyl(), a, g)
        idx, p = next(iter(g.gamma.items()))
        other = Geometry(dim, omega=g.omega, gamma={**g.gamma, idx: p + 1})
        monkeypatch.setattr(g, "connection_fields", other.connection_fields)
        ys = index_form(dim, [(0, (s,), (), Polynomial.constant(dim, 1)) for s in range(dim)])
        assert cov_ext_deriv(ys, g) != odd_bracket(g.gamma_weyl(), ys, g)


def test_connection_fields_reject_a_bracket_that_is_not_a_linear_one_form(monkeypatch):
    from fedosov_lab import geometry
    g = Geometry(2, gamma={(0, 0, 1): Polynomial.variable(2, 0)})
    real = geometry.odd_bracket
    monkeypatch.setattr(geometry, "odd_bracket",
                        lambda a, b, geom: real(a, b, geom).mul_hbar())
    with pytest.raises(GeometryError, match="y1 is not a linear one-form"):
        g.connection_fields()


@pytest.mark.parametrize("dim", [2, 4])
def test_partial_squares_to_curvature_bracket(rng, dim):
    # uncapped forms: the identity is exact with no truncation boundary
    for _ in range(4):
        g = rand_curved_geometry(rng, dim)
        rw = g.curvature().weyl_two_form
        for _ in range(5):
            a = rand_form(rng, dim, cap=None)
            dda = cov_ext_deriv(cov_ext_deriv(a, g), g)
            assert dda == i_over_hbar(commutator(rw, a, g))


@pytest.mark.parametrize("dim", [2, 4])
def test_delta_anticommutes_with_partial(rng, dim):
    for _ in range(4):
        g = rand_curved_geometry(rng, dim)
        for _ in range(5):
            a = rand_form(rng, dim, cap=None)
            assert (delta(cov_ext_deriv(a, g)) + cov_ext_deriv(delta(a), g)).is_zero()


def test_partial_is_a_derivation(rng):
    g = rand_curved_geometry(rng, 2)
    for q in range(3):
        for _ in range(7):
            a = rand_form_qdeg(rng, 2, None, q, nterms=2)
            b = rand_form(rng, 2, cap=None, nterms=2)
            lhs = cov_ext_deriv(moyal(a, b, g), g)
            rhs = moyal(cov_ext_deriv(a, g), b, g) + \
                moyal(a, cov_ext_deriv(b, g), g).scale(GaussianRational((-1) ** q))
            assert lhs == rhs


def test_partial_annihilates_curvature_form(rng):
    # second Bianchi identity in Weyl dress: partial(R_w) = 0
    for dim in (2, 4):
        for _ in range(3):
            g = rand_curved_geometry(rng, dim)
            rw = g.curvature().weyl_two_form
            assert cov_ext_deriv(rw, g).is_zero()


def test_partial_hbar_linear(rng):
    g = rand_curved_geometry(rng, 2)
    a = rand_form(rng, 2, cap=None)
    assert cov_ext_deriv(a.mul_hbar(), g) == cov_ext_deriv(a, g).mul_hbar()
    c = GaussianRational(F(2, 3), F(-1, 5))
    assert cov_ext_deriv(a.scale(c), g) == cov_ext_deriv(a, g).scale(c)
