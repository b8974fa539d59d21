"""Two-tensors, the diamond contraction, mu, Schouten bracket, series inverses."""

from fractions import Fraction
from itertools import combinations, permutations

import pytest

from fedosov_lab.algebra import GaussianRational, HbarSeries, Polynomial
from fedosov_lab.geometry import Geometry
from fedosov_lab.tensors import (SingularMatrixError, Tensor2, Tensor3, TensorSeries,
                                 VarianceError, diamond, diamond_power, formal_poisson,
                                 invert_scalar_matrix, is_closed, matmul, mu,
                                 mu_inv, schouten, series_diamond, series_inverse,
                                 series_schouten, two_form_d)
from fedosov_lab.weyl import central_two_form, delta_inv, moyal, two_form_to_tensor

from conftest import (rand_closed_skew_poly, rand_poly, rand_skew_constant,
                      rand_skew_poly)

F = Fraction


def rand_tensor(rng, dim, variance="lower", deg=1):
    return Tensor2(dim, variance, [[rand_poly(rng, dim, deg, terms=2)
                                    for _j in range(dim)] for _i in range(dim)])


def diamond_oracle(a, b, geom):
    """Direct index contraction: (a<>b)_ij = wbar^{rs} a_{ri} b_{sj} for lower
    tensors and omega_{rs} a^{ri} b^{sj} for upper ones."""
    dim = geom.dim
    pairing = geom.omega_bar if a.variance == "lower" else geom.omega
    rows = []
    for i in range(dim):
        row = []
        for j in range(dim):
            s = Polynomial.zero(dim)
            for r in range(dim):
                for t in range(dim):
                    w = pairing.entry(r, t).constant_value()
                    if not w:
                        continue
                    s = s + (a.entry(r, i) * b.entry(t, j)).scale(w)
            row.append(s)
        rows.append(row)
    return Tensor2(dim, a.variance, rows)


# -- matmul --------------------------------------------------------------------


def rand_sparse_matrix(rng, dim, nrows, ncols):
    """Random polynomial matrix in which about half the entries are zero."""
    return [[rand_poly(rng, dim, deg=2, terms=2) if rng.random() < 0.5
             else Polynomial.zero(dim) for _ in range(ncols)] for _ in range(nrows)]


def test_matmul_matches_index_sum(rng):
    dim = 2
    for nrows, inner, ncols in ((2, 2, 2), (4, 4, 4), (2, 3, 4), (3, 1, 2)):
        for _ in range(10):
            a = rand_sparse_matrix(rng, dim, nrows, inner)
            b = rand_sparse_matrix(rng, dim, inner, ncols)
            a[0] = [Polynomial.zero(dim)] * inner  # a whole zero row
            want = [[sum((a[i][k] * b[k][j] for k in range(inner)), Polynomial.zero(dim))
                     for j in range(ncols)] for i in range(nrows)]
            assert matmul(a, b) == want


def test_matmul_cancelling_sum_is_zero():
    dim = 2
    x, y = Polynomial.variable(dim, 0), Polynomial.variable(dim, 1)
    zero = Polynomial.zero(dim)
    # [x, y] [y, 0; -x, 0] = [x y - y x, 0] = 0
    out = matmul([[x, y]], [[y, zero], [-x, zero]])
    assert out == [[zero, zero]]
    assert not out[0][0].terms


# -- diamond -------------------------------------------------------------------


def test_diamond_matches_contraction_oracle(rng):
    for dim in (2, 4):
        geom = Geometry(dim)
        for variance in ("lower", "upper"):
            for _ in range(10):
                a = rand_tensor(rng, dim, variance)
                b = rand_tensor(rng, dim, variance)
                assert diamond(a, b, geom) == diamond_oracle(a, b, geom)


def test_diamond_omega_identities(rng):
    for dim in (2, 4):
        geom = Geometry(dim)
        om, omb = geom.omega, geom.omega_bar
        assert diamond(om, om, geom) == -om
        assert diamond(omb, omb, geom) == -omb
        for _ in range(20):
            tau = rand_tensor(rng, dim, "lower")
            assert diamond(om, tau, geom) == -tau
            assert diamond(tau, om, geom) == tau.transpose()


def test_diamond_associativity_both_forms(rng):
    # two equivalent-looking shuffles for skew arguments; both must hold
    for dim in (2, 4):
        geom = Geometry(dim)
        for _ in range(20):
            a = rand_skew_poly(rng, dim)
            b = rand_skew_poly(rng, dim)
            c = rand_skew_poly(rng, dim)
            lhs1 = diamond(a, diamond(b, c, geom), geom)
            rhs1 = diamond(diamond(b, a, geom), c, geom)
            assert lhs1 == rhs1, "a<>(b<>c) != (b<>a)<>c"
            lhs2 = diamond(diamond(a, b, geom), c, geom)
            rhs2 = diamond(b, diamond(a, c, geom), geom)
            assert lhs2 == rhs2, "(a<>b)<>c != b<>(a<>c)"


def test_diamond_powers_skew_and_split(rng):
    for dim in (2, 4):
        geom = Geometry(dim)
        for _ in range(6):
            a = rand_skew_poly(rng, dim)
            powers = {n: diamond_power(a, n, geom) for n in range(1, 9)}
            for n, t in powers.items():
                assert t.is_skew(), "power %d not skew" % n
            for n in range(2, 9):
                for l in range(1, n):
                    assert diamond(powers[l], powers[n - l], geom) == powers[n]


def test_diamond_scaled_omega_powers():
    geom = Geometry(4)
    eps = F(3, 2)
    a = geom.omega.scale(eps)
    for p in range(1, 6):
        want = geom.omega.scale((-1) ** (p - 1) * eps ** p)
        assert diamond_power(a, p, geom) == want


def test_diamond_single_plane_squares_to_zero():
    # alpha = dx1 ^ dx3 with omega in pairwise 2x2 blocks: every contributing
    # pairing entry between the two plane indices vanishes, so alpha <> alpha = 0
    pairwise = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    gp = Geometry(4, omega=Tensor2(4, "lower", pairwise))
    alpha = Tensor2(4, "lower",
                    [[0, 0, 1, 0], [0, 0, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0]])
    assert diamond(alpha, alpha, gp).is_zero()
    # same statement for the default block form, whose isotropic plane pairs
    # indices 1,2 instead: alpha = dx1 ^ dx2
    gb = Geometry(4)
    assert gb.omega_bar.entry(0, 1).constant_value() == 0
    beta = Tensor2(4, "lower",
                   [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    assert diamond(beta, beta, gb).is_zero()


def test_diamond_weyl_bundle_bridge(rng):
    # alpha^{<>2} can also be computed inside the Weyl algebra:
    # alpha^{<>2} = (4i/hbar) (delta_inv alpha o delta_inv alpha)
    for dim in (2, 4):
        geom = Geometry(dim)
        for _ in range(10):
            alpha = rand_skew_poly(rng, dim)
            u = delta_inv(central_two_form(alpha))
            sq = moyal(u, u, geom)
            # the y-free part of the square is hbar times a 2-form; reading it
            # back as a tensor and scaling by 4i recovers the diamond square
            t = two_form_to_tensor(sq.y_free(), hpow=1)
            assert t.scale(GaussianRational(0, 4)) == diamond(alpha, alpha, geom)


# -- mu -------------------------------------------------------------------------


def test_mu_definition_and_inverse(rng):
    for dim in (2, 4):
        geom = Geometry(dim)
        assert mu(geom.omega, geom) == geom.omega_bar
        assert mu_inv(geom.omega_bar, geom) == geom.omega
        for _ in range(10):
            a = rand_tensor(rng, dim, "lower")
            up = mu(a, geom)
            assert up.variance == "upper"
            # definition: mu(a)^{ij} = -wbar^{ir} wbar^{js} a_{rs}
            omb = geom.omega_bar
            for i in range(dim):
                for j in range(dim):
                    want = Polynomial.zero(dim)
                    for r in range(dim):
                        for s in range(dim):
                            w = omb.entry(i, r).constant_value() * omb.entry(j, s).constant_value()
                            if w:
                                want = want + a.entry(r, s).scale(-w)
                    assert up.entry(i, j) == want
            assert mu_inv(up, geom) == a
        with pytest.raises(VarianceError):
            mu(geom.omega_bar, geom)


def test_mu_multiplicative_over_diamond(rng):
    for dim in (2, 4):
        geom = Geometry(dim)
        for _ in range(20):
            a = rand_skew_poly(rng, dim)
            b = rand_skew_poly(rng, dim)
            assert mu(diamond(a, b, geom), geom) == diamond(mu(a, geom), mu(b, geom), geom)
            A = mu(a, geom)
            B = mu(b, geom)
            assert mu_inv(diamond(A, B, geom), geom) == diamond(mu_inv(A, geom), mu_inv(B, geom), geom)


# -- Schouten bracket ------------------------------------------------------------


def jacobiator(A, i, j, k):
    dim = A.dim
    xs = [Polynomial.variable(dim, t) for t in range(dim)]

    def br(f, g):
        return A.pair(f, g)

    return (br(br(xs[i], xs[j]), xs[k]) + br(br(xs[j], xs[k]), xs[i])
            + br(br(xs[k], xs[i]), xs[j]))


def test_schouten_matches_jacobiator(rng):
    # [A,A](dx^i,dx^j,dx^k) = 2 * Jacobiator(x^i,x^j,x^k) for skew A
    dim = 4
    for _ in range(20):
        A = Tensor2(dim, "upper", rand_skew_poly(rng, dim, deg=2).rows)
        S = schouten(A, A)
        for (i, j, k) in combinations(range(dim), 3):
            assert S.entry(i, j, k) == jacobiator(A, i, j, k).scale(2)


def test_schouten_of_poisson_structures_vanishes(rng):
    geom = Geometry(4)
    assert schouten(geom.omega_bar, geom.omega_bar).is_zero()
    # any constant skew bivector is Poisson
    for _ in range(5):
        A = Tensor2(4, "upper", rand_skew_constant(rng, 4).rows)
        assert schouten(A, A).is_zero()


# -- closedness -------------------------------------------------------------------


def test_two_form_d_and_is_closed(rng):
    dim = 4
    # exact forms are closed
    for _ in range(10):
        assert is_closed(rand_closed_skew_poly(rng, dim))
    # a known non-closed form: alpha = x3 dx1 ^ dx2 (only nonzero derivative
    # falls outside its own plane)
    x3 = Polynomial.variable(dim, 2)
    alpha = Tensor2(dim, "lower", [
        [0, x3, 0, 0], [-x3, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    assert not is_closed(alpha)
    d = two_form_d(alpha)
    # d(alpha) = dx3 ^ dx1 ^ dx2: component (0,1,2) = d_2 alpha_{01} = 1 up to
    # the cyclic sum convention
    assert d.entry(0, 1, 2) == Polynomial.one(dim)
    # constants are closed
    assert is_closed(rand_skew_constant(rng, dim))


def test_tensor3_entry_signs_every_index_order(rng):
    """entry reads a stored triple i < j < k under each of its six orders
    times that order's sign, and any triple with a repeated index as zero."""
    dim = 4
    A = Tensor2(dim, "upper", rand_skew_poly(rng, dim, deg=2).rows)
    signed = [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
              ((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1)]
    for t in (schouten(A, A), two_form_d(rand_skew_poly(rng, dim, deg=2))):
        assert t.entries
        for triple, v in t.entries.items():
            for perm, sign in signed:
                assert t.entry(*(triple[p] for p in perm)) == v.scale(sign)
        for i, k in permutations(range(dim), 2):
            for repeated in ((i, i, k), (i, k, i), (k, i, i), (i, i, i)):
                assert t.entry(*repeated).is_zero()


# -- rejected inputs ---------------------------------------------------------------


def test_tensor2_rejects_bad_variance_shape_and_entry_dim():
    with pytest.raises(VarianceError):
        Tensor2(2, "mixed", [[0, 1], [-1, 0]])
    with pytest.raises(ValueError, match="2 x 2"):
        Tensor2(2, "lower", [[0, 1]])
    with pytest.raises(ValueError, match="2 x 2"):
        Tensor2(2, "lower", [[0, 1], [-1, 0, 0]])
    with pytest.raises(ValueError, match="entry dim"):
        Tensor2(2, "lower", [[0, Polynomial.one(4)], [0, 0]])


def test_tensor2_sum_rejects_mismatched_dims_and_variances():
    a = Tensor2.zeros(2, "lower")
    with pytest.raises(ValueError, match="dims differ"):
        a + Tensor2.zeros(4, "lower")
    with pytest.raises(VarianceError):
        a - Tensor2.zeros(2, "upper")


def test_tensor2_constant_rows_and_pair_reject_their_inputs():
    x1 = Polynomial.variable(2, 0)
    with pytest.raises(ValueError, match="not constant"):
        Tensor2(2, "lower", [[0, x1], [-x1, 0]]).constant_rows()
    with pytest.raises(VarianceError):
        Geometry(2).omega.pair(x1, Polynomial.variable(2, 1))


def test_tensor3_rejects_a_non_increasing_triple_and_compares_only_tensors():
    for triple in ((1, 0, 2), (0, 0, 1), (0, 1, 4)):
        with pytest.raises(ValueError, match="strictly increasing"):
            Tensor3(4, {triple: 1})
    t = Tensor3(4, {(0, 1, 2): 1})
    assert t == Tensor3(4, {(0, 1, 2): Polynomial.one(4)})
    assert t != object() and not t == "t"


def test_diamond_and_lowering_reject_bad_operands():
    geom = Geometry(2)
    with pytest.raises(TypeError):
        diamond(geom.omega, [[0, 1], [-1, 0]], geom)
    with pytest.raises(ValueError, match="chart dim"):
        diamond(Tensor2.zeros(4, "lower"), Tensor2.zeros(4, "lower"), geom)
    with pytest.raises(ValueError, match="n >= 1"):
        diamond_power(geom.omega, 0, geom)
    with pytest.raises(VarianceError):
        mu_inv(geom.omega, geom)
    with pytest.raises(VarianceError):
        schouten(geom.omega, geom.omega)
    with pytest.raises(VarianceError):
        schouten(geom.omega_bar, geom.omega)
    with pytest.raises(VarianceError):
        two_form_d(geom.omega_bar)


# -- series ------------------------------------------------------------------------


def test_series_inverse_is_two_sided_inverse(rng):
    dim = 4
    geom = Geometry(dim)
    order = 6
    a1 = rand_skew_constant(rng, dim)
    a2 = rand_skew_poly(rng, dim)
    series = TensorSeries.from_terms(dim, "lower", order,
                                     {0: geom.omega, 1: a1, 2: a2}.items())
    inv = series_inverse(series, order)
    # (omega + ...)_{ij} * inv^{jk} = delta_i^k at every hbar order
    for n in range(order + 1):
        for i in range(dim):
            for k in range(dim):
                s = Polynomial.zero(dim)
                for m in range(n + 1):
                    lo = series.coeff(m, Tensor2.zeros(dim, "lower"))
                    hi = inv.coeff(n - m, Tensor2.zeros(dim, "upper"))
                    for j in range(dim):
                        s = s + lo.entry(i, j) * hi.entry(j, k)
                want = Polynomial.one(dim) if (n == 0 and i == k) else Polynomial.zero(dim)
                assert s == want, (n, i, k)


def test_series_inverse_of_an_upper_series_is_lower_and_round_trips(rng):
    """An upper series inverts to a lower one, and back to itself; the
    deformed bivector of a perturbation inverts to omega plus it."""
    dim = 4
    geom = Geometry(dim)
    order = 5
    series = TensorSeries.from_terms(dim, "upper", order, {
        0: geom.omega_bar,
        1: Tensor2(dim, "upper", rand_skew_constant(rng, dim).rows),
        2: Tensor2(dim, "upper", rand_skew_poly(rng, dim).rows)}.items())
    inv = series_inverse(series, order)
    assert inv.coeff(0) == geom.omega
    assert all(t.variance == "lower" for t in inv.coeffs.values())
    assert series_inverse(inv, order) == series
    alpha = TensorSeries.from_terms(dim, "lower", order,
                                    {1: rand_closed_skew_poly(rng, dim)}.items())
    assert (series_inverse(formal_poisson(alpha, geom, order), order)
            == alpha + HbarSeries(order, {0: geom.omega}))


def test_formal_poisson_equals_series_inverse(rng):
    dim = 2
    geom = Geometry(dim)
    order = 6
    # constant and polynomial (closed) perturbations, one and two terms
    cases = [
        {1: rand_skew_constant(rng, dim)},
        {2: rand_skew_constant(rng, dim)},
        {1: rand_skew_constant(rng, dim), 2: rand_skew_constant(rng, dim)},
        {1: rand_closed_skew_poly(rng, dim)},
    ]
    for terms in cases:
        alpha_h = TensorSeries.from_terms(dim, "lower", order, terms.items())
        fp = formal_poisson(alpha_h, geom, order)
        full_terms = {0: geom.omega}
        full_terms.update(terms)
        full = TensorSeries.from_terms(dim, "lower", order, full_terms.items())
        inv = series_inverse(full, order)
        for n in range(order + 1):
            assert fp.coeff(n) == inv.coeff(n), n


def test_formal_poisson_is_formal_poisson_bivector(rng):
    # zero Schouten bracket through the truncation order for closed alpha
    dim = 4
    geom = Geometry(dim)
    order = 5
    alpha_h = TensorSeries.from_terms(dim, "lower", order,
                                      {1: rand_closed_skew_poly(rng, dim)}.items())
    fp = formal_poisson(alpha_h, geom, order)
    res = series_schouten(fp, fp)
    assert all(t.is_zero() for t in res.coeffs.values())


def test_series_schouten_stops_at_the_lower_order(rng):
    """Past the lower of the two orders the factors do not fix the bracket:
    the Schouten square of a deformed bivector truncated at order 2 has
    order 2 and is zero, paired with itself or with the order-3 series."""
    dim = 4
    geom = Geometry(dim)
    alpha = rand_closed_skew_poly(rng, dim, deg=2)
    fp3 = formal_poisson(TensorSeries.from_terms(dim, "lower", 3, [(1, alpha)]), geom, 3)
    fp2 = fp3.with_order(2)
    for a, b in ((fp2, fp2), (fp3, fp2), (fp2, fp3)):
        res = series_schouten(a, b)
        assert res.order == 2 and res.is_zero()


def test_series_diamond_is_hbar_convolution(rng):
    dim = 2
    geom = Geometry(dim)
    a1 = rand_skew_constant(rng, dim)
    a2 = rand_skew_constant(rng, dim)
    A = TensorSeries.from_terms(dim, "lower", 4, {1: a1}.items())
    B = TensorSeries.from_terms(dim, "lower", 4, {2: a2}.items())
    prod = series_diamond(A, B, geom)
    assert prod.coeff(3) == diamond(a1, a2, geom)
    zero = Tensor2.zeros(dim, "lower")
    assert prod.coeff(1, zero).is_zero() and prod.coeff(2, zero).is_zero() and prod.coeff(4, zero).is_zero()


def test_from_terms_checks_every_term():
    al = Tensor2(2, "lower", [[0, 1], [-1, 0]])
    with pytest.raises(VarianceError):
        TensorSeries.from_terms(2, "sideways", 3, [(1, al)])
    with pytest.raises(VarianceError):
        TensorSeries.from_terms(2, "lower", 3, [(1, Polynomial.variable(2, 0))])
    with pytest.raises(VarianceError):
        TensorSeries.from_terms(4, "lower", 3, [(1, al)])
    with pytest.raises(VarianceError):
        TensorSeries.from_terms(2, "upper", 3, [(1, al)])
    with pytest.raises(VarianceError):
        TensorSeries.from_terms(2, "lower", 3, [(1, al), (2, Tensor2(2, "upper", al.rows))])


def test_from_terms_adds_repeated_powers_and_truncates():
    a = Tensor2(2, "lower", [[0, 1], [-1, 0]])
    b = Tensor2(2, "lower", [[0, Polynomial.variable(2, 0)], [-Polynomial.variable(2, 0), 0]])
    series = TensorSeries.from_terms(2, "lower", 2, [(1, a), (2, b), (1, b), (3, a)])
    assert series.order == 2
    assert series.coeff(1) == a + b and series.coeff(2) == b
    assert series == TensorSeries.from_terms(2, "lower", 2, [(1, a + b), (2, b)])
    assert series.min_power() == 1
    cancelled = TensorSeries.from_terms(2, "lower", 2, [(1, a), (1, -a), (3, b)])
    assert cancelled.is_zero() and cancelled.min_power() is None


def test_formal_poisson_rejects_bad_perturbations():
    geom = Geometry(2)
    al = Tensor2(2, "lower", [[0, 1], [-1, 0]])
    with pytest.raises(ValueError, match="hbar\\^1"):
        formal_poisson(TensorSeries.from_terms(2, "lower", 3, [(0, al)]), geom, 3)
    with pytest.raises(VarianceError):
        formal_poisson(TensorSeries.from_terms(2, "upper", 3, [(1, mu(al, geom))]), geom, 3)
    with pytest.raises(ValueError, match="dim"):
        formal_poisson(TensorSeries.from_terms(
            4, "lower", 3, [(1, Geometry(4).omega)]), geom, 3)
    notskew = Tensor2(2, "lower", [[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="skew"):
        formal_poisson(TensorSeries.from_terms(2, "lower", 3, [(1, notskew)]), geom, 3)


def test_series_inverse_rejects_bad_series():
    geom = Geometry(2)
    with pytest.raises(VarianceError):
        series_inverse(HbarSeries(3, {0: geom.omega, 1: geom.omega_bar}), 3)
    al = Tensor2(2, "lower", [[0, 1], [-1, 0]])
    with pytest.raises(SingularMatrixError):
        series_inverse(TensorSeries.from_terms(2, "lower", 3, [(1, al)]), 3)
    with pytest.raises(SingularMatrixError):
        series_inverse(TensorSeries.from_terms(2, "lower", 3, []), 3)


def test_invert_scalar_matrix():
    rows = [[F(0), F(2)], [F(-2), F(1)]]
    inv = invert_scalar_matrix(rows)
    assert inv == [[F(1, 4), F(-1, 2)], [F(1, 2), F(0)]]
    from fedosov_lab.tensors import SingularMatrixError
    with pytest.raises(SingularMatrixError):
        invert_scalar_matrix([[F(1), F(2)], [F(2), F(4)]])
