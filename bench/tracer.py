"""In-memory span tracer that wraps the package's functions from outside.

Nothing under ``src/`` knows about tracing: ``Tracer.install`` replaces each
wrapped function in every ``fedosov_lab`` module that binds it (the package
imports names with ``from .weyl import moyal, ...``, so one function can be
bound in five modules) and each method on its class, and ``Tracer.remove``
puts the originals back.

Every call of a span-wrapped function records one span -- function, parent
span, start, end -- in flat arrays.  Self time is computed afterwards from
those spans: a span's duration minus the durations of its child spans.
Work the tracer does on a function's output (counting terms, measuring
denominators) is kept out of both the function's and its parent's times.
``GaussianRational.__mul__`` is only counted: a span per scalar product
would cost more than the product.
"""

from __future__ import annotations

import importlib
import itertools
import sys
from array import array
from time import perf_counter

PACKAGE = "fedosov_lab"


def _den_bits(poly):
    bits = 0
    if poly is NotImplemented:
        return bits
    for c in poly.terms.values():
        b = max(c.re.denominator.bit_length(), c.im.denominator.bit_length())
        if b > bits:
            bits = b
    return bits


def _terms(form):
    return len(form.terms)


def _report_bytes(text):
    return len(text.encode("utf-8"))


# (group, owner, attributes, output observer) -- the group names the
# per-layer metrics; an observer maps a return value to
# (tally name, value, "sum" | "max").
SPANS = [
    ("algebra.poly_mul", "algebra:Polynomial", ("__mul__",),
     ("algebra.max_den_bits", _den_bits, "max")),
    ("algebra.poly_scale", "algebra:Polynomial", ("scale",),
     ("algebra.max_den_bits", _den_bits, "max")),
    ("algebra.poly_add", "algebra:Polynomial", ("__add__", "__sub__"),
     ("algebra.max_den_bits", _den_bits, "max")),
    ("algebra.poly_partial", "algebra:Polynomial", ("partial",), None),
    ("weyl.moyal", "weyl", ("moyal",), ("weyl.moyal.terms_out", _terms, "sum")),
    ("weyl.moyal_sigma", "weyl", ("moyal_sigma",), None),
    ("weyl.delta_inv", "weyl", ("delta_inv",), None),
    ("weyl.exterior_d", "weyl", ("exterior_d",), None),
    ("weyl.form_scale", "weyl:WeylForm", ("scale",), None),
    ("weyl.form_add", "weyl:WeylForm", ("__add__", "__sub__"), None),
    ("geometry.cov_ext_deriv", "geometry", ("cov_ext_deriv",), None),
    ("geometry.curvature", "geometry:Geometry", ("curvature",), None),
    ("fedosov.solve_r", "fedosov", ("solve_r",), ("fedosov.r_terms", _terms, "sum")),
    ("fedosov.flat_section", "fedosov", ("flat_section",),
     ("fedosov.section_terms", _terms, "sum")),
    ("fedosov.section", "fedosov:StarEngine", ("section",), None),
    ("analysis.compare_onediff", "analysis", ("compare_onediff",), None),
    ("analysis.curvature_identities", "analysis",
     ("curvature_onediff_identities",), None),
    ("analysis.predicted_onediff", "analysis", ("predicted_onediff",), None),
    ("tensors", "tensors", ("formal_poisson", "series_diamond", "series_inverse", "mu"),
     None),
    ("io.load_scenario", "io", ("load_scenario",), None),
    ("io.report_json", "io:Report", ("to_json",),
     ("io.report_bytes", _report_bytes, "sum")),
    ("cli.run", "cli", ("run",), None),
]

COUNTS = [
    ("algebra.scalar_mul", "algebra:GaussianRational", ("__mul__",)),
]

TALLIES = ("algebra.max_den_bits", "weyl.moyal.terms_out", "fedosov.r_terms",
           "fedosov.section_terms", "io.report_bytes")


class TraceError(RuntimeError):
    pass


def _resolve(owner, attr):
    """The object that holds the function, its label, and the function."""
    mod_name, _, cls_name = owner.partition(":")
    mod = importlib.import_module("%s.%s" % (PACKAGE, mod_name))
    holder = getattr(mod, cls_name) if cls_name else mod
    label = "%s.%s" % (owner.replace(":", "."), attr)
    return holder, label, holder.__dict__[attr]


def _bindings(holder, fn):
    """Every (namespace, name) that binds ``fn``: the class for a method
    (aliases such as ``__radd__ = __add__`` included), every package module
    for a module function."""
    if isinstance(holder, type):
        spaces = [holder]
    else:
        spaces = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
    out = []
    for space in spaces:
        for name, value in list(vars(space).items()):
            if value is fn:
                out.append((space, name))
    return out


class Tracer:
    """Wraps the functions in SPANS and COUNTS; collects spans and counts."""

    def __init__(self):
        self.labels = []          # function label per function id
        self.groups = []          # metric group per function id
        self.fn_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.hidden = array("d")  # observer time spent inside each span's window
        self.tallies = {}
        self._counters = {}       # label -> (group, itertools.count)
        self._counted = {}        # label -> calls, read when the tracer is removed
        self._patched = []        # (namespace, name, original)
        self._stack = []

    # -- installing and removing ---------------------------------------------

    def install(self):
        if self._patched:
            raise TraceError("tracer already installed")
        self.tallies = {name: 0 for name in TALLIES}
        try:
            for group, owner, attrs, observe in SPANS:
                for attr in attrs:
                    holder, label, fn = _resolve(owner, attr)
                    fid = len(self.labels)
                    self.labels.append(label)
                    self.groups.append(group)
                    self._patch(holder, fn, self._span_wrapper(fid, fn, observe))
            for group, owner, attrs in COUNTS:
                for attr in attrs:
                    holder, label, fn = _resolve(owner, attr)
                    counter = itertools.count()
                    self._counters[label] = (group, counter)
                    self._patch(holder, fn, _count_wrapper(fn, counter))
        except BaseException:
            self.remove()
            raise

    def _patch(self, holder, fn, wrapper):
        bindings = _bindings(holder, fn)
        if not bindings:
            raise TraceError("no binding found for %r" % (fn,))
        for space, name in bindings:
            self._patched.append((space, name, fn))
            setattr(space, name, wrapper)

    def remove(self):
        """Restore every original binding, last patched first, and read the
        call counters."""
        for label, (_group, counter) in self._counters.items():
            self._counted.setdefault(label, next(counter))
        while self._patched:
            space, name, fn = self._patched.pop()
            setattr(space, name, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def _span_wrapper(self, fid, fn, observe):
        fn_name, parent, start, end = self.fn_name, self.parent, self.start, self.end
        hidden, stack, tallies = self.hidden, self._stack, self.tallies
        if observe is not None:
            tally, measure, how = observe

        def wrapper(*args, **kwargs):
            idx = len(start)
            fn_name.append(fid)
            parent.append(stack[-1] if stack else -1)
            hidden.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            start.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                t1 = perf_counter()
                v = measure(out)
                if how == "max":
                    if v > tallies[tally]:
                        tallies[tally] = v
                else:
                    tallies[tally] += v
                if stack:
                    hidden[stack[-1]] += perf_counter() - t1
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ---------------------------------------------------------------

    def calls_by_label(self):
        """Calls per wrapped function; read after ``remove``."""
        counts = dict.fromkeys(self.labels, 0)
        for fid in self.fn_name:
            counts[self.labels[fid]] += 1
        counts.update(self._counted)
        return counts

    def summary(self):
        """Per group: calls, self seconds and inclusive seconds; read after
        ``remove``.

        Inclusive time counts only the outermost span of a group, so a
        group that calls itself is not counted twice.
        """
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        gid = {g: k for k, g in enumerate(dict.fromkeys(self.groups))}
        fgroup = [gid[g] for g in self.groups]
        names = list(gid)
        calls = [0] * len(names)
        self_s = [0.0] * len(names)
        incl = [0.0] * len(names)
        span_group = [fgroup[f] for f in self.fn_name]
        for i in range(n):
            g = span_group[i]
            dur = end[i] - start[i]
            calls[g] += 1
            self_s[g] += dur - child[i] - self.hidden[i]
            p = parent[i]
            while p >= 0 and span_group[p] != g:
                p = parent[p]
            if p < 0:
                incl[g] += dur
        out = {name: {"calls": calls[k], "self_s": self_s[k], "s": incl[k]}
               for k, name in enumerate(names)}
        for label, (group, _counter) in self._counters.items():
            out.setdefault(group, {"calls": 0, "self_s": 0.0, "s": 0.0})
            out[group]["calls"] += self._counted[label]
        return out

    def spans(self):
        """The recorded spans as (function label, parent index, start, end)."""
        return [(self.labels[self.fn_name[i]], self.parent[i], self.start[i], self.end[i])
                for i in range(len(self.start))]


def _count_wrapper(fn, counter):
    tick = counter.__next__

    def wrapper(*args):
        tick()
        return fn(*args)

    wrapper.__wrapped__ = fn
    return wrapper



# Per-layer metrics, in report order.  ``<group>.calls``, ``<group>.self_s``
# and ``<group>.s`` (inclusive seconds) come from the spans; the rest are
# output tallies, one ratio, and the tracing overhead.
LAYER_METRICS = (
    "algebra.scalar_mul.calls",
    "algebra.poly_mul.calls", "algebra.poly_mul.self_s",
    "algebra.poly_scale.calls", "algebra.poly_scale.self_s",
    "algebra.poly_add.calls", "algebra.poly_add.self_s",
    "algebra.poly_partial.self_s", "algebra.max_den_bits",
    "weyl.moyal.calls", "weyl.moyal.self_s", "weyl.moyal.terms_out",
    "weyl.moyal_sigma.calls", "weyl.moyal_sigma.self_s",
    "weyl.delta_inv.self_s", "weyl.exterior_d.self_s",
    "weyl.form_scale.self_s", "weyl.form_add.self_s",
    "geometry.cov_ext_deriv.calls", "geometry.cov_ext_deriv.self_s",
    "geometry.curvature.s",
    "fedosov.solve_r.calls", "fedosov.solve_r.s",
    "fedosov.flat_section.calls", "fedosov.flat_section.s",
    "fedosov.section.calls", "fedosov.section_hit_ratio",
    "fedosov.r_terms", "fedosov.section_terms",
    "analysis.compare_onediff.s", "analysis.curvature_identities.s",
    "analysis.predicted_onediff.s",
    "tensors.self_s",
    "io.load_scenario.s", "io.report_json.s", "io.report_bytes",
    "cli.run.s",
    "trace.overhead_s",
)


def unit_of(metric):
    if metric.endswith(".calls") or metric.endswith("_terms") or metric.endswith(".terms_out"):
        return "count"
    if metric.endswith("_bits"):
        return "bits"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_ratio"):
        return "ratio"
    return "s"


def layer_metrics(tracer, overhead_s):
    """Every metric in LAYER_METRICS from a removed tracer, as name -> value."""
    summary = tracer.summary()
    values = dict(tracer.tallies)
    for group, row in summary.items():
        for field, v in row.items():
            values["%s.%s" % (group, field)] = v
    sections = values.get("fedosov.section.calls", 0)
    values["fedosov.section_hit_ratio"] = (
        1 - values.get("fedosov.flat_section.calls", 0) / sections if sections else 0.0)
    values["trace.overhead_s"] = overhead_s
    return {m: values.get(m, 0) for m in LAYER_METRICS}
