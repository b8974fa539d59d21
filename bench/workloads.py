"""The benchmark's three workloads.

Each workload makes its inputs from a seed, sets the engine up, runs one
operation at a time, and checks every output after the timed loop:

* ``verify-curved4``: one ``fedosov-lab verify --out`` run per operation on
  the bundled curved 4D scenario.  Its output is the report; it must pass
  every check, and its bytes must hash to the digest recorded in
  ``gate.json`` (the input does not depend on the seed).
* ``star-fresh-curved2`` and ``star-pool-flat4``: one ``StarEngine.star``
  call per operation.  Every product must satisfy two exact invariants that
  hold for any seed -- ``C_0(f, g) = f*g``, and the antisymmetric hbar^1 part
  ``C_1(f, g) - C_1(g, f) = -i * wbar(df, dg)``, the check ``verify`` makes on
  coordinates -- and on the default seed its canonical string must hash to
  the digest recorded for its position.

A workload object only ever touches the package through the module ``fl``
passed to it, so the runner can import a fresh copy of the package for each
set-up it times.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction

DEFAULT_SEED = 1
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
GATE_PATH = os.path.join(BENCH_DIR, "gate.json")


def digest(text):
    """sha256 of a canonical string, shortened to 16 hex digits for the gate."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_gate():
    with open(GATE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# -- seeded input generators ---------------------------------------------------------


def _rational(rng, hi=3, den=3):
    """A nonzero rational with numerator and denominator at most 3."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, hi), rng.randint(1, den))


def _poly(fl, rng, dim, monomials):
    """A polynomial with the given exponent tuples and random nonzero
    rational coefficients, built with no Polynomial arithmetic."""
    terms = {e: fl.GaussianRational(_rational(rng)) for e in monomials}
    return fl.Polynomial(dim, terms)


def _exponents(dim, deg):
    out = [()]
    for _ in range(dim):
        out = [e + (k,) for e in out for k in range(deg + 1)]
    return [e for e in out if sum(e) == deg]


def _distinct_polys(fl, rng, count, dim, profile, shape_rng=None):
    """``count`` distinct polynomials; ``profile`` maps a degree to how many
    monomials of that degree each one has, drawn at random (from
    ``shape_rng`` if given), so that every polynomial costs about the same
    to multiply.  Coefficients come from ``rng``."""
    shape_rng = shape_rng or rng
    supports = {d: _exponents(dim, d) for d in profile}
    seen = set()
    out = []
    while len(out) < count:
        monomials = [e for d, n in sorted(profile.items())
                     for e in shape_rng.sample(supports[d], n)]
        p = _poly(fl, rng, dim, monomials)
        key = str(p)
        if key not in seen:
            seen.add(key)
            out.append(p)
    return out


def curved_chart(fl, rng):
    """A curved 2D chart and a perturbation whose shapes are fixed and whose
    coefficients come from the seed, so the work per product hardly depends
    on the seed: the Christoffel symbol Gamma_112 = a x1 + b x2 + c, the
    others zero, and the two-form alpha_12 = d x1 + e (every two-form on a 2D
    chart is closed)."""
    dim = 2
    gamma = {(0, 0, 1): _poly(fl, rng, dim, [(1, 0), (0, 1), (0, 0)])}
    a = _poly(fl, rng, dim, [(1, 0), (0, 0)])
    zero = fl.Polynomial.zero(dim)
    alpha = fl.Tensor2(dim, "lower", [[zero, a], [-a, zero]])
    return fl.Geometry(dim, gamma=gamma), alpha


# -- workloads ----------------------------------------------------------------------


class Workload:
    """Inputs, set-up, one operation and its checks; sized by ``smoke``."""

    name = ""
    setup_repeats = 1
    rss_ops = 1  # operations done when peak memory is read

    def __init__(self, seed, smoke, root):
        self.seed = seed
        self.root = root
        self.size = "smoke" if smoke else "full"

    def inputs(self, fl):
        """Operation inputs for the timed loop, at most as many as it may run."""
        raise NotImplementedError

    def setup(self, fl):
        raise NotImplementedError

    def op(self, state, x):
        raise NotImplementedError

    def check(self, fl, state, xs, outs):
        """One bool per operation: its output passed every check."""
        raise NotImplementedError


class VerifyCurved4(Workload):
    name = "verify-curved4"
    setup_repeats = 9
    scenario = os.path.join("scenarios", "curved_r4_k1_poly.json")

    def __init__(self, seed, smoke, root):
        super().__init__(seed, smoke, root)
        self.order = 1 if smoke else 2
        self.trace_ops = 1
        self.out_dir = os.path.join(BENCH_DIR, ".out")

    def inputs(self, fl):
        return list(range(1000))

    def setup(self, fl):
        path = os.path.join(self.root, self.scenario)
        fl.load_scenario(path)
        return {"fl": fl, "path": path}

    def op(self, state, x):
        os.makedirs(self.out_dir, exist_ok=True)
        out = os.path.join(self.out_dir, "verify-%d.json" % os.getpid())
        argv = ["verify", "--scenario", state["path"], "--order", str(self.order),
                "--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = state["fl"].cli.main(argv)
        try:
            with open(out, "rb") as fh:
                data = fh.read()
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.remove(out)
        return rc, data

    def check(self, fl, state, xs, outs):
        want = load_gate()[self.name][self.size]
        ok = []
        for out in outs:
            if out is None:
                ok.append(False)
                continue
            rc, data = out
            try:
                failed = json.loads(data)["summary"]["failed"]
            except (ValueError, KeyError, TypeError):
                failed = None
            ok.append(rc == 0 and failed == 0
                      and hashlib.sha256(data).hexdigest() == want)
        return ok


class _StarWorkload(Workload):
    """Shared output checks of the two product workloads."""

    def _invariants(self, fl, geom, res, rev):
        """C_0(f, g) = f g and C_1(f, g) - C_1(g, f) = -i wbar(df, dg)."""
        f, g = res.f, res.g
        if res.coeff(0) != f * g:
            return False
        skew = res.coeff(1) - rev.coeff(1)
        return skew == geom.omega_bar.pair(f, g).scale(fl.GaussianRational(0, -1))

    def _digests(self):
        if self.seed != DEFAULT_SEED:
            return []
        return load_gate()[self.name][self.size]


class StarFreshCurved2(_StarWorkload):
    name = "star-fresh-curved2"
    setup_repeats = 9
    dim = 2
    order = 2

    def __init__(self, seed, smoke, root):
        super().__init__(seed, smoke, root)
        self.limit = 6 if smoke else 2000
        self.trace_ops = 4 if smoke else 40
        self.rss_ops = 4 if smoke else 32

    def inputs(self, fl):
        rng = random.Random("%d/products" % self.seed)
        polys = _distinct_polys(fl, rng, 2 * self.limit, self.dim, {0: 1, 1: 1, 2: 2})
        return list(zip(polys[0::2], polys[1::2]))

    def setup(self, fl):
        geom, alpha = curved_chart(fl, random.Random(self.seed))
        pert = fl.TensorSeries.from_terms(self.dim, "lower", self.order, [(1, alpha)])
        engine = fl.StarEngine(fl.WeylCurvatureSpec(geom, pert), self.order)
        engine.r()
        return engine

    def op(self, engine, x):
        return engine.star(*x)

    def check(self, fl, engine, xs, outs):
        want = self._digests()
        geom = engine.spec.geometry
        ok = []
        for i, res in enumerate(outs):
            if res is None:
                ok.append(False)
                continue
            rev = engine.star(res.g, res.f)
            good = self._invariants(fl, geom, res, rev)
            if i < len(want):
                good = good and digest(str(res)) == want[i]
            ok.append(good)
        return ok


class StarPoolFlat4(_StarWorkload):
    name = "star-pool-flat4"
    setup_repeats = 3
    scenario = os.path.join("scenarios", "flat_r4_formal.json")
    dim = 4
    order = 6

    def __init__(self, seed, smoke, root):
        super().__init__(seed, smoke, root)
        self.pool_size = 4 if smoke else 40
        pairs = self.pool_size ** 2
        self.trace_ops = pairs if smoke else pairs // 4
        self.rss_ops = pairs // 2
        self.limit = 4 * pairs

    def inputs(self, fl):
        pairs = self.pool_size ** 2
        return [i % pairs for i in range(self.limit)]

    def setup(self, fl):
        spec = fl.load_scenario(os.path.join(self.root, self.scenario)).build_spec()
        engine = fl.StarEngine(spec, self.order)
        engine.r()
        # The pool's monomials are the same for every seed, so that a pass
        # over all pairs does the same work; the seed draws the coefficients.
        pool = _distinct_polys(fl, random.Random("%d/pool" % self.seed), self.pool_size,
                               self.dim, {1: 1, 2: 1, 3: 2},
                               shape_rng=random.Random("pool shapes"))
        for p in pool:
            engine.section(p)
        return engine, pool

    def op(self, state, x):
        engine, pool = state
        i, j = divmod(x, len(pool))
        return engine.star(pool[i], pool[j])

    def check(self, fl, state, xs, outs):
        """The loop cycles through the pairs; each product's antisymmetry is
        checked against its mirror pair from the same pass when there is one."""
        engine, pool = state
        m = len(pool)
        want = self._digests()
        geom = engine.spec.geometry
        passes = {}
        for t, (x, res) in enumerate(zip(xs, outs)):
            if res is not None:
                passes.setdefault(t // m ** 2, {})[x] = res
        extra = {}
        verdicts = {}
        ok = []
        for t, (x, res) in enumerate(zip(xs, outs)):
            if res is None:
                ok.append(False)
                continue
            i, j = divmod(x, m)
            mirror = j * m + i
            rev = passes[t // m ** 2].get(mirror) or passes.get(0, {}).get(mirror)
            if rev is None:
                rev = extra.get(mirror) or extra.setdefault(
                    mirror, engine.star(pool[j], pool[i]))
            key = (x, str(res), str(rev))
            if key not in verdicts:
                good = self._invariants(fl, geom, res, rev)
                if x < len(want):
                    good = good and digest(key[1]) == want[x]
                verdicts[key] = good
            ok.append(verdicts[key])
        return ok


WORKLOADS = {w.name: w for w in (VerifyCurved4, StarFreshCurved2, StarPoolFlat4)}

# Wrapped functions (tracer labels) each workload must call at least once in
# its traced run; a zero count means a layer went unmeasured.
_STAR_LAYERS = (
    "algebra.Polynomial.__mul__", "algebra.Polynomial.scale",
    "algebra.Polynomial.__add__", "algebra.Polynomial.__sub__",
    "algebra.Polynomial.partial", "algebra.GaussianRational.__mul__",
    "weyl.moyal", "weyl.moyal_sigma", "weyl.delta_inv", "weyl.exterior_d",
    "weyl.WeylForm.scale", "weyl.WeylForm.__add__", "weyl.WeylForm.__sub__",
    "geometry.cov_ext_deriv", "fedosov.solve_r", "fedosov.flat_section",
    "fedosov.StarEngine.section",
)
EXPECTED_CALLS = {
    "verify-curved4": _STAR_LAYERS + (
        "geometry.Geometry.curvature", "analysis.compare_onediff",
        "analysis.curvature_onediff_identities", "analysis.predicted_onediff",
        "tensors.mu", "io.load_scenario",
        "io.Report.to_json", "cli.run"),
    "star-fresh-curved2": _STAR_LAYERS + ("geometry.Geometry.curvature",),
    "star-pool-flat4": _STAR_LAYERS + ("io.load_scenario",),
}
