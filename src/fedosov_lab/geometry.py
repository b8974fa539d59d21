"""Darboux charts with a symplectic connection.

A ``Geometry`` is a chart of even dimension with a constant invertible skew
structure matrix w (default: the block form [[0, Id], [-Id, 0]]) and a fully
symmetric lowered Christoffel field Gamma_{ijk}(x).  The raised symbols and
the curvature use the conventions

    Gamma^m_{jk}  =  wbar^{mr} Gamma_{rjk}
    R^m_{jkl}     =  d_k Gamma^m_{lj} - d_l Gamma^m_{kj}
                     + Gamma^m_{ks} Gamma^s_{lj} - Gamma^m_{ls} Gamma^s_{kj}
    R_{ijkl}      =  w_{im} R^m_{jkl}

In matrix form, with (C_k)_{rj} = Gamma_{rkj} and G_k = wbar C_k, so that
(G_k)_{mj} = Gamma^m_{kj}, the curvature of the (k, l) plane is

    R_kl  =  d_k G_l - d_l G_k + [G_k, G_l],     (R_kl)_{mj} = R^m_{jkl},

and w R_kl holds the lowered entries R_{ijkl}.

The overall sign is pinned operationally: with these constants the covariant
exterior derivative on the Weyl bundle squares to the curvature action,

    par(par(a))  =  (i/hbar) [R_w, a],     R_w = (1/4) R_{ijkl} y^i y^j dx^k ^ dx^l,

which the test suite checks directly.  Flipping the lowering sign breaks that
identity, so the choice is unique among the two candidates.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .algebra import GaussianRational, ONE, Polynomial, _Sum, accumulate
from .tensors import SingularMatrixError, Tensor2, invert_scalar_matrix, matmul
from .weyl import WeylForm, exterior_d, index_form, odd_bracket, wedge_merge

__all__ = [
    "Geometry",
    "Curvature4",
    "GeometryError",
    "standard_omega",
    "validate_geometry",
    "cov_ext_deriv",
]


class GeometryError(ValueError):
    pass


_MINUS_I_HALF = GaussianRational(0, Fraction(-1, 2))


def standard_omega(dim):
    """The block structure matrix [[0, Id], [-Id, 0]] as exact rows."""
    if dim % 2 or dim < 2:
        raise GeometryError("chart dimension must be even and >= 2")
    d = dim // 2
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for t in range(d):
        rows[t][d + t] = Fraction(1)
        rows[d + t][t] = Fraction(-1)
    return rows


class Geometry:
    """A validated chart: structure matrix, its inverse, and the connection."""

    def __init__(self, dim, omega=None, gamma=None):
        if dim % 2 or dim < 2:
            raise GeometryError("chart dimension must be even and >= 2")
        self.dim = dim
        rows = omega if omega is not None else standard_omega(dim)
        if isinstance(rows, Tensor2):
            rows = [[v for v in r] for r in rows.rows]
        self.omega = Tensor2(dim, "lower", rows)
        if not self.omega.is_constant():
            raise GeometryError("structure matrix must be constant")
        if not self.omega.is_skew():
            raise GeometryError("structure matrix must be skew")
        try:
            inv = invert_scalar_matrix(self.omega.constant_rows())
        except SingularMatrixError:
            raise GeometryError("structure matrix is singular")
        self.omega_bar = Tensor2(dim, "upper", inv)

        self.gamma = self._canonical_gamma(gamma or {})
        self._contractions = {}
        self._weights = {}
        self._gamma_weyl = None
        self._fields = None
        self._curvature = None

    def _canonical_gamma(self, gamma):
        out = {}
        for idx, p in gamma.items():
            i, j, k = idx
            if not all(0 <= t < self.dim for t in (i, j, k)):
                raise GeometryError("Christoffel index %r out of range" % (idx,))
            if not isinstance(p, Polynomial):
                p = Polynomial.constant(self.dim, p)
            if p.dim != self.dim:
                raise GeometryError("Christoffel entry dim mismatch at %r" % (idx,))
            key = tuple(sorted((i, j, k)))
            if key in out and out[key] != p:
                raise GeometryError("Christoffel symbols violate full symmetry at %r" % (idx,))
            if not p.is_zero():
                out[key] = p
        return out

    def christoffel(self, i, j, k):
        """Gamma_{ijk}, symmetric in all three indices."""
        return self.gamma.get(tuple(sorted((i, j, k))), Polynomial.zero(self.dim))

    def is_flat(self):
        return not self.gamma

    # -- cached derived structures -----------------------------------------

    def contractions(self, k):
        """{(d, e): c} for the fully contracted pairs y^d o_k y^e, built once
        per chart and k.

        Choose a multiset of k nonzero entries wbar^{rs}, entry t taken m_t
        times, with weight prod(wbar_t^{m_t} / m_t!).  It contracts y^d in
        the left factor (one y^r per chosen entry) with y^e in the right
        (one y^s), and c = (-i/2)^k * d! * e! * (the summed weights of the
        multisets that give (d, e)): the whole scalar of the pair.  Off the
        block form several multisets give one (d, e), and a key whose
        weights cancel is not stored.  The weights are summed per left
        exponent, so the keys of each d sit together, in the row order of
        ``contraction_numerators(k)``; on the block form each d has one
        partner e.  The k = 0 table maps the pair of zero exponents to 1.
        """
        return self._record(k)[0]

    def contraction_numerators(self, k):
        """``contractions(k)`` as integer rows by left exponent, {d: {e:
        (re, im, den)}}, in that table's order, built once per chart and k:
        each scalar is c = (re + im*i) / den over one denominator den for
        the whole table, the lcm of its scalars' denominators, so a scalar
        need not be in lowest terms."""
        return self._record(k)[1]

    def _record(self, k):
        """(``contractions(k)``, ``contraction_numerators(k)``), built in
        one pass and cached per chart and k."""
        record = self._contractions.get(k)
        if record is None:
            dim = self.dim
            entries = [(r, s, v) for r, row in enumerate(self.omega_bar.constant_rows())
                       for s, v in enumerate(row) if v]
            sums = {}
            for combo in itertools.combinations_with_replacement(entries, k):
                d = [0] * dim
                e = [0] * dim
                w = ONE
                prev, mult = None, 0
                for t in combo:
                    r, s, v = t
                    d[r] += 1
                    e[s] += 1
                    mult = mult + 1 if t == prev else 1
                    prev = t
                    w = w * v / mult
                accumulate(sums.setdefault(tuple(d), {}), tuple(e), w)
            pre = _MINUS_I_HALF ** k
            table = {(d, e): pre * w * math.prod(map(math.factorial, d + e))
                     for d, row in sums.items() for e, w in row.items()}
            den = math.lcm(*(q.denominator for c in table.values() for q in (c.re, c.im)))
            rows = {}
            for (d, e), c in table.items():
                rows.setdefault(d, {})[e] = (c.re.numerator * (den // c.re.denominator),
                                             c.im.numerator * (den // c.im.denominator), den)
            record = self._contractions[k] = (table, rows)
        return record

    def moyal_weights(self, ua, ub, bracket):
        """Every contraction of y^ua o y^ub, as a tuple of (dh, u, re, im,
        den), built once per chart and key (ua, ub, bracket).

        The product y^ua o y^ub is the sum of c * hbar^dh * y^u over the
        entries, c = (re + im*i) / den: the scalar is stored pre-split into
        Gaussian-integer numerators over a reduced positive denominator, so
        a product adds it as integers.  A key (d, e) of ``contractions(k)``
        with d <= ua and e <= ub leaves u = ua - d + ub - e with its scalar
        times binom(ua, d) * binom(ub, e), since the falling factorial
        (ua)_d = binom(ua, d) * d!; c sums the keys that leave the same u,
        and dh = k.  With ``bracket`` only odd k enter, with c times 2i and
        dh = k - 1: the odd pieces of (i/hbar)[y^ua, y^ub].  No entry has
        c = 0, and the caller applies the wedge sign of the dx factors.

        A miss walks the rows of ``contraction_numerators(k)``, skipping a
        row whose d is not <= ua (and an entry whose e is not <= ub), and
        sums plain integer numerators over the table's one denominator, so
        its entries, and their order, are those of a Fraction sum over
        ``contractions(k)``; each entry is reduced once.  math.comb is 0
        when d_i > ua_i, so a row's binomial factor m = binom(ua, d) is
        also its test d <= ua, and likewise binom(ub, e) for an entry.
        """
        key = (ua, ub, bracket)
        entries = self._weights.get(key)
        if entries is None:
            shift = 1 if bracket else 0
            both = tuple(map(operator.add, ua, ub))
            entries = []
            for k in range(shift, min(sum(ua), sum(ub)) + 1, 1 + shift):
                sums = {}
                for d, row in self.contraction_numerators(k).items():
                    m = math.prod(map(math.comb, ua, d))
                    if not m:
                        continue
                    for e, (re, im, den) in row.items():
                        n = math.prod(map(math.comb, ub, e))
                        if n:
                            n *= m
                            u = tuple(map(operator.sub, both, map(operator.add, d, e)))
                            a, b = sums.get(u, (0, 0))
                            a += re * n
                            b += im * n
                            if a or b:
                                sums[u] = a, b
                            else:
                                del sums[u]
                # den, read with the entries, is the same for the whole table
                for u, (re, im) in sums.items():
                    if bracket:
                        re, im = -2 * im, 2 * re
                    g = math.gcd(den, re, im)
                    entries.append((k - shift, u, re // g, im // g, den // g))
            entries = self._weights[key] = tuple(entries)
        return entries

    def gamma_weyl(self):
        """The connection one-form (1/2) Gamma_{ijk} y^i y^j dx^k."""
        if self._gamma_weyl is None:
            terms = ((0, (i, j), (k,), self.christoffel(i, j, k))
                     for i, j, k in itertools.product(range(self.dim), repeat=3))
            self._gamma_weyl = index_form(self.dim, terms).scale(Fraction(1, 2))
        return self._gamma_weyl

    def connection_fields(self):
        """V_s = (i/hbar)[Gamma_w, y^s] for each s, built once per chart, as
        ((t, ((k, v), ...)), ...): V_s is the sum of v y^t dx^k.

        Gamma_w is quadratic in y, so (i/hbar)[Gamma_w, .] is a derivation
        of the fibre algebra, fixed by these values on the y^s; each V_s
        comes from ``odd_bracket`` and must be hbar^0, linear in y and a
        one-form, or GeometryError is raised.
        """
        if self._fields is None:
            dim = self.dim
            fields = []
            for s in range(dim):
                y_s = index_form(dim, [(0, (s,), (), Polynomial.constant(dim, 1))])
                rows = {}
                for (h, u, form), v in odd_bracket(self.gamma_weyl(), y_s, self).terms.items():
                    if h or sum(u) != 1 or len(form) != 1:
                        raise GeometryError("connection bracket of y%d is not a linear "
                                            "one-form" % (s + 1))
                    rows.setdefault(u.index(1), []).append((form[0], v))
                fields.append(tuple((t, tuple(row)) for t, row in sorted(rows.items())))
            self._fields = tuple(fields)
        return self._fields

    def curvature(self):
        if self._curvature is None:
            self._curvature = Curvature4(self)
        return self._curvature

    def __repr__(self):
        return "Geometry(dim=%d, flat=%s)" % (self.dim, self.is_flat())


class Curvature4:
    """The lowered curvature tensor R_{ijkl} of a chart's connection.

    Validated on construction: symmetric in (i, j), skew in (k, l), the
    first Bianchi identity R_{ijkl} + R_{iklj} + R_{iljk} = 0 holds, and a
    flat connection produces the zero tensor.  ``weyl_two_form`` is
    R_w = (1/4) R_{ijkl} y^i y^j dx^k ^ dx^l.
    """

    def __init__(self, geom):
        dim = geom.dim
        self.dim = dim
        zero = Polynomial.zero(dim)
        # G[k] = wbar C_k with (C_k)_{rj} = Gamma_{rkj}: row m, column j holds Gamma^m_{kj}.
        G = [matmul(geom.omega_bar.rows,
                    [[geom.christoffel(r, k, j) for j in range(dim)] for r in range(dim)])
             for k in range(dim)]
        lowered = [[[[zero] * dim for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
        for k in range(dim):
            for l in range(k + 1, dim):
                # R_kl = d_k G_l - d_l G_k + G_k G_l - G_l G_k, then lowered by w
                gkl, glk = matmul(G[k], G[l]), matmul(G[l], G[k])
                r_kl = [[G[l][m][j].partial(k) - G[k][m][j].partial(l) + gkl[m][j] - glk[m][j]
                         for j in range(dim)] for m in range(dim)]
                for i, row in enumerate(matmul(geom.omega.rows, r_kl)):
                    for j, v in enumerate(row):
                        lowered[i][j][k][l] = v
                        lowered[i][j][l][k] = -v
        self.entries = lowered
        self._validate(geom)
        terms = ((0, (i, j), (k, l), lowered[i][j][k][l])
                 for i, j, k, l in itertools.product(range(dim), repeat=4))
        self.weyl_two_form = index_form(dim, terms).scale(Fraction(1, 4))

    def entry(self, i, j, k, l):
        return self.entries[i][j][k][l]

    def is_zero(self):
        return all(v.is_zero()
                   for a in self.entries for b in a for c in b for v in c)

    def _validate(self, geom):
        dim = self.dim
        e = self.entries
        for i in range(dim):
            for j in range(i):
                for k in range(dim):
                    for l in range(dim):
                        if e[i][j][k][l] != e[j][i][k][l]:
                            raise GeometryError("curvature not symmetric in first index pair")
        # Skew in (k, l) holds by construction, so the cyclic sum is skew in
        # (j, k, l) and its entries with j < k < l cover all of it.
        for i in range(dim):
            for j, k, l in itertools.combinations(range(dim), 3):
                if not (e[i][j][k][l] + e[i][k][l][j] + e[i][l][j][k]).is_zero():
                    raise GeometryError("curvature violates the first Bianchi identity")
        if geom.is_flat() and not self.is_zero():
            raise GeometryError("flat connection produced nonzero curvature")


def validate_geometry(geom):
    """Re-run the chart checks and return a structured report.

    Raises GeometryError on violation (construction already enforces these;
    the report form feeds the command-line verifier).
    """
    checks = []
    omega = geom.omega
    checks.append(("geometry.omega-constant-skew", omega.is_constant() and omega.is_skew()))
    prod = matmul(omega.rows, geom.omega_bar.rows)
    ident = all(prod[i][j] == int(i == j) for i in range(geom.dim) for j in range(geom.dim))
    checks.append(("geometry.omega-inverse-identity", ident))
    sym = True
    for (i, j, k), p in geom.gamma.items():
        if geom.christoffel(j, i, k) != p or geom.christoffel(k, j, i) != p:
            sym = False
    checks.append(("geometry.christoffel-symmetry", sym))
    for name, ok in checks:
        if not ok:
            raise GeometryError("validation failed: %s" % name)
    return checks


def cov_ext_deriv(a, geom):
    """Covariant exterior derivative: par a = d a + (i/hbar) [Gamma_w, a].

    Preserves the filtration degree.  The connection term is a derivation
    of the fibre algebra (see ``Geometry.connection_fields``): a term
    c hbar^h y^u dx^I adds u_s c V_s with y^s lowered, each dx^k of V_s
    wedged in front of dx^I.  Those terms and the terms of ``exterior_d``
    go into one ``algebra._Sum``, which reduces each output key once.  Its
    equality with d a + ``odd_bracket(Gamma_w, a)`` is a tested identity.
    """
    out = exterior_d(a)
    if geom.is_flat():
        return out
    fields = geom.connection_fields()
    acc = _Sum(a.dim)
    add = acc.add_product
    for k, p in out.terms.items():
        acc.add(k, p, 1)
    for (h, u, form), c in a.terms.items():
        wedges = [wedge_merge((k,), form) for k in range(a.dim)]
        for s, e in enumerate(u):
            if not e:
                continue
            for t, row in fields[s]:
                nu = list(u)
                nu[s] -= 1
                nu[t] += 1
                nu = tuple(nu)
                for k, v in row:
                    merged = wedges[k]
                    if merged is not None:
                        add((h, nu, merged[1]), c, v, e * merged[0])
    return WeylForm._make(a.dim, acc.polys())
