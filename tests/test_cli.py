"""Exit codes, report output, and command plumbing of the console front end."""

import json
import os
import weakref

import pytest

from fedosov_lab import cli, fedosov
from fedosov_lab.algebra import Polynomial
from fedosov_lab.fedosov import StarEngine, flat_section, solve_r
from fedosov_lab.io import MAX_COEFF_LIMIT, MAX_ORDER, Check, Report, load_scenario
from fedosov_lab.weyl import WeylForm

from conftest import invalid_json_files, scenarios_at_limit


FLAT_PERTURBED = {
    "id": "cli-toy",
    "geometry": {"dim": 2},
    "order": 3,
    "perturbation": [{"k": 1, "alpha": [["0", "1"], ["-1", "0"]]}],
    "observables": {"f": "x1^2", "g": "x1*x2"},
}

FLAT_PLAIN = {
    "id": "cli-plain",
    "geometry": {"dim": 2},
    "order": 2,
}


CURVED = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios",
                      "curved_r4_k1_poly.json")


def write_scenario(tmp_path, data, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data), encoding="utf-8")
    return str(p)


def test_verify_flat_scenario_exits_zero(tmp_path, capsys):
    path = write_scenario(tmp_path, FLAT_PERTURBED)
    assert cli.main(["verify", "--scenario", path]) == 0
    out = capsys.readouterr().out
    assert "geometry.omega-constant-skew" in out
    assert "onediff.guaranteed-orders" in out
    assert "0 failed" in out


def test_verify_missing_file_exits_two(capsys):
    assert cli.main(["verify", "--scenario", "/nonexistent/nope.json"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(invalid_json_files()))
def test_verify_invalid_json_exits_two(tmp_path, capsys, name):
    p = tmp_path / "bad.json"
    p.write_bytes(invalid_json_files()[name])
    assert cli.main(["verify", "--scenario", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_verify_bad_scenario_exits_two(tmp_path, capsys):
    bad = {"geometry": {"dim": 2},
           "perturbation": [{"k": 0, "alpha": [["0", "1"], ["-1", "0"]]}]}
    path = write_scenario(tmp_path, bad)
    assert cli.main(["verify", "--scenario", path]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["f", "alpha"])
def test_verify_number_past_the_digit_limit_exits_two_with_one_line(tmp_path, capsys, field):
    data = json.loads(json.dumps(FLAT_PERTURBED))
    if field == "f":
        data["observables"]["f"] = "x1^" + "7" * 5000
    else:
        data["perturbation"][0]["alpha"] = [["0", "7" * 5000], ["-" + "7" * 5000, "0"]]
    path = write_scenario(tmp_path, data)
    assert cli.main(["verify", "--scenario", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "number 777777777777... has 5000 digits" in err


def test_failing_report_exits_one_and_names_anchors(tmp_path, capsys,
                                                    monkeypatch):
    def fake_run(command, scenario, order=None, coeff_limit=None):
        return Report(command, "cli-toy", [
            Check("star.unit-neutral", "0", True),
            Check("connection.flatness-residual", "y1*dx_{1}", False),
        ])

    monkeypatch.setattr(cli, "run", fake_run)
    path = write_scenario(tmp_path, FLAT_PERTURBED)
    assert cli.main(["verify", "--scenario", path]) == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "failing: connection.flatness-residual" in captured.err


def test_coeffs_without_scenario(capsys):
    assert cli.main(["coeffs", "--order", "6"]) == 0
    out = capsys.readouterr().out
    assert "coeffs.recursions-vs-taylor" in out
    assert "coeffs.row-6" in out
    assert "1/2" in out


def test_verify_without_scenario_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify"])
    assert exc.value.code == 2


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_out_flag_writes_deterministic_json(tmp_path, capsys):
    path = write_scenario(tmp_path, FLAT_PERTURBED)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert cli.main(["star", "--scenario", path, "--out", str(out1)]) == 0
    assert cli.main(["star", "--scenario", path, "--out", str(out2)]) == 0
    capsys.readouterr()
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    assert b1.endswith(b"\n")
    data = json.loads(b1)
    assert data["command"] == "star"
    assert data["scenario_id"] == "cli-toy"
    assert all(c["pass"] for c in data["checks"])


def test_star_command_prints_coefficients(tmp_path, capsys):
    path = write_scenario(tmp_path, FLAT_PERTURBED)
    assert cli.main(["star", "--scenario", path]) == 0
    out = capsys.readouterr().out
    assert "star.coefficient.h0" in out
    assert "star.coefficient.h3" in out


def test_star_defaults_to_coordinates(tmp_path, capsys):
    path = write_scenario(tmp_path, FLAT_PLAIN)
    assert cli.main(["star", "--scenario", path]) == 0
    out = capsys.readouterr().out
    assert "star.coefficient.h1" in out


def test_compare_command(tmp_path, capsys):
    path = write_scenario(tmp_path, FLAT_PERTURBED)
    assert cli.main(["compare", "--scenario", path]) == 0
    out = capsys.readouterr().out
    assert "onediff.order-2" in out
    assert "onediff.order-2.probe" in out


def test_compare_needs_perturbation(tmp_path, capsys):
    path = write_scenario(tmp_path, FLAT_PLAIN)
    assert cli.main(["compare", "--scenario", path]) == 2
    assert "perturbation" in capsys.readouterr().err


def test_poisson_command(tmp_path, capsys):
    path = write_scenario(tmp_path, FLAT_PERTURBED)
    assert cli.main(["poisson", "--scenario", path]) == 0
    out = capsys.readouterr().out
    assert "poisson.inverse-cross-check" in out
    assert "poisson.schouten-residual" in out


def test_order_flag_overrides_scenario(tmp_path, capsys):
    path = write_scenario(tmp_path, FLAT_PERTURBED)
    assert cli.main(["star", "--scenario", path, "--order", "5"]) == 0
    out = capsys.readouterr().out
    assert "star.coefficient.h5" in out


def test_run_rejects_unknown_command(tmp_path):
    from fedosov_lab.io import ScenarioError, load_scenario
    sc = load_scenario(FLAT_PLAIN)
    with pytest.raises(ScenarioError):
        cli.run("nope", sc)


@pytest.mark.parametrize("command", ["verify", "star", "compare", "poisson"])
def test_run_without_scenario_is_scenario_error(command):
    # the Python entry point refuses a missing scenario as main does
    from fedosov_lab.io import ScenarioError
    with pytest.raises(ScenarioError) as exc:
        cli.run(command, None)
    assert str(exc.value) == "command %r requires a scenario" % command


@pytest.mark.parametrize("command", ["verify", "star", "compare", "coeffs", "poisson"])
@pytest.mark.parametrize("order", ["0", "-1"])
def test_order_below_one_is_usage_error(tmp_path, capsys, command, order):
    path = write_scenario(tmp_path, FLAT_PERTURBED)
    assert cli.main([command, "--scenario", path, "--order", order]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--order must be at least 1" in err


def test_coeffs_order_zero_without_scenario_is_usage_error(capsys):
    assert cli.main(["coeffs", "--order", "0"]) == 2
    assert "--order must be at least 1" in capsys.readouterr().err


def test_run_coeffs_limit_zero_is_not_the_default():
    with pytest.raises(ValueError):
        cli.run("coeffs", None, coeff_limit=0)


@pytest.mark.parametrize("command, override", [
    ("star", {"order": 0}),
    ("star", {"order": MAX_ORDER + 1}),
    ("verify", {"order": MAX_ORDER + 1}),
    ("coeffs", {"coeff_limit": MAX_COEFF_LIMIT + 1}),
], ids=["order-0", "star-order-9", "verify-order-9", "coeff_limit-65"])
def test_run_bounds_its_overrides(monkeypatch, command, override):
    # the Python entry point keeps the size limits that main applies to --order
    from fedosov_lab.io import ScenarioError, load_scenario
    for body in ("_star_checks", "_verify_checks", "_coeffs_checks"):
        monkeypatch.setattr(cli, body, lambda *a: pytest.fail("command body ran"))
    sc = load_scenario(FLAT_PERTURBED)
    with pytest.raises(ScenarioError):
        cli.run(command, sc if "order" in override else None, **override)
    assert sc.order == FLAT_PERTURBED["order"]


def test_run_order_override_leaves_the_scenario_alone():
    from fedosov_lab.io import load_scenario
    sc = load_scenario(FLAT_PERTURBED)
    low = cli.run("star", sc, order=1)
    again = cli.run("star", sc)
    assert sc.order == FLAT_PERTURBED["order"] == 3
    assert [c.anchor for c in low.checks] == ["star.coefficient.h0", "star.coefficient.h1"]
    assert [c.anchor for c in again.checks] == ["star.coefficient.h%d" % n for n in range(4)]


def _assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["verify", "star", "compare", "poisson"])
@pytest.mark.parametrize("order", [0, -3])
def test_scenario_order_below_one_is_scenario_error(tmp_path, capsys, command, order):
    path = write_scenario(tmp_path, dict(FLAT_PERTURBED, order=order))
    assert cli.main([command, "--scenario", path]) == 2
    _assert_one_line_error(capsys)


@pytest.mark.parametrize("command", ["coeffs", "verify"])
def test_scenario_coeff_limit_below_one_is_scenario_error(tmp_path, capsys, command):
    path = write_scenario(tmp_path, dict(FLAT_PERTURBED, coeff_limit=0))
    assert cli.main([command, "--scenario", path]) == 2
    _assert_one_line_error(capsys)


@pytest.mark.parametrize("command", ["verify", "star", "compare", "poisson"])
def test_scenario_non_closed_perturbation_is_scenario_error(tmp_path, capsys, command):
    alpha = [["0"] * 4 for _ in range(4)]
    alpha[0][1], alpha[1][0] = "x3", "-x3"
    data = {"id": "cli-open", "geometry": {"dim": 4}, "order": 2,
            "perturbation": [{"k": 1, "alpha": alpha}]}
    path = write_scenario(tmp_path, data)
    assert cli.main([command, "--scenario", path]) == 2
    _assert_one_line_error(capsys)


NON_INTEGERS = [2.9, True, 4.0, "2"]

WITH_FIELD = {
    "order": lambda v: dict(FLAT_PERTURBED, order=v),
    "coeff_limit": lambda v: dict(FLAT_PERTURBED, coeff_limit=v),
    "dim": lambda v: dict(FLAT_PERTURBED, geometry={"dim": v}),
    "k": lambda v: dict(FLAT_PERTURBED, perturbation=[
        {"k": v, "alpha": [["0", "1"], ["-1", "0"]]}]),
    "gamma": lambda v: dict(FLAT_PERTURBED, geometry={
        "dim": 2, "gamma": [[[1, 1, v], "x1"]]}),
}


@pytest.mark.parametrize("value", NON_INTEGERS, ids=str)
@pytest.mark.parametrize("field", sorted(WITH_FIELD))
@pytest.mark.parametrize("command", ["verify", "star", "compare", "coeffs", "poisson"])
def test_scenario_non_integer_is_scenario_error(tmp_path, capsys, command, field, value):
    # "order": 2.9 must not run at order 2, nor "coeff_limit": true at limit 1.
    path = write_scenario(tmp_path, WITH_FIELD[field](value))
    assert cli.main([command, "--scenario", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "must be an integer" in err


@pytest.fixture
def run_calls(monkeypatch):
    """Stand in for the command body, so an input past a size limit that
    slipped through would be recorded instead of run."""
    calls = []

    def fake_run(command, scenario, order=None, coeff_limit=None):
        calls.append(command)
        return Report(command, "stub", [])

    monkeypatch.setattr(cli, "run", fake_run)
    return calls


@pytest.mark.parametrize("command", ["verify", "star", "compare", "poisson"])
def test_order_above_limit_is_usage_error(tmp_path, capsys, run_calls, command):
    path = write_scenario(tmp_path, FLAT_PERTURBED)
    assert cli.main([command, "--scenario", path, "--order", str(MAX_ORDER + 1)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--order must be at most %d" % MAX_ORDER in err
    assert run_calls == []


def test_coeffs_order_above_limit_is_a_table_limit(capsys):
    # for coeffs --order is the table length, which the order limit does not bound
    assert cli.main(["coeffs", "--order", str(MAX_ORDER + 1)]) == 0
    assert "coeffs.row-%d" % (MAX_ORDER + 1) in capsys.readouterr().out


def test_coeffs_order_above_coeff_limit_is_usage_error(capsys, run_calls):
    assert cli.main(["coeffs", "--order", str(MAX_COEFF_LIMIT + 1)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--order must be at most %d" % MAX_COEFF_LIMIT in err
    assert run_calls == []


@pytest.mark.parametrize("field", sorted(scenarios_at_limit(1)))
@pytest.mark.parametrize("command", ["verify", "star", "compare", "coeffs", "poisson"])
def test_scenario_past_limit_is_scenario_error(tmp_path, capsys, run_calls, command, field):
    path = write_scenario(tmp_path, scenarios_at_limit(1)[field])
    assert cli.main([command, "--scenario", path]) == 2
    _assert_one_line_error(capsys)
    assert run_calls == []


@pytest.mark.parametrize("observables", [[], "x1", None], ids=["list", "string", "null"])
def test_malformed_observables_is_scenario_error(tmp_path, capsys, observables):
    path = write_scenario(tmp_path, dict(FLAT_PERTURBED, observables=observables))
    assert cli.main(["verify", "--scenario", path]) == 2
    _assert_one_line_error(capsys)


@pytest.mark.parametrize("where", ["directory", "missing-directory"])
def test_unwritable_out_fails_before_the_run(tmp_path, capsys, run_calls, where):
    path = write_scenario(tmp_path, FLAT_PERTURBED)
    out = tmp_path if where == "directory" else tmp_path / "missing" / "r.json"
    assert cli.main(["star", "--scenario", path, "--out", str(out)]) == 2
    _assert_one_line_error(capsys)
    assert run_calls == []


def test_failed_report_write_is_usage_error(tmp_path, capsys, run_calls):
    # a name too long for the file system passes the up-front path check, so
    # the run goes ahead; the failed write still exits 2, with no table
    path = write_scenario(tmp_path, FLAT_PERTURBED)
    out = tmp_path / ("r" * 300 + ".json")
    assert cli.main(["star", "--scenario", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert run_calls == ["star"]


# -- verify checks the engine's own forms ---------------------------------------


def test_verify_residuals_check_the_engine_sections(monkeypatch, capsys):
    """A term y1^2 added to the engine's section of g, which no product
    reads, fails g's abelian residual: the residual checks the section the
    engine holds, not a second solve."""
    g = load_scenario(CURVED).observables["g"]
    real = StarEngine.section

    def corrupted(self, f):
        a = real(self, f)
        if isinstance(f, Polynomial) and f == g:
            a = a + WeylForm(4, {(0, (2, 0, 0, 0), ()): Polynomial.one(4)})
        return a

    monkeypatch.setattr(StarEngine, "section", corrupted)
    assert cli.main(["verify", "--scenario", CURVED, "--order", "1"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == "failing: section.abelian-residual-g\n"


@pytest.mark.parametrize("order", [1, 2])
def test_verify_residual_window_is_pinned(monkeypatch, order):
    """The flatness and abelian residuals run at cap 2N + 2, with window
    2N, on r and the sections of f and g through degree 2N + 1: each equals
    the fresh solve at that cap.  A residual at the engine's cap 2N + 1
    would still read zero, so only this pins the window."""
    seen = []
    real_curvature, real_abelian = cli.curvature_residual, cli.abelian_residual

    def curvature(r, spec, cap):
        seen.append(("r", r, cap))
        return real_curvature(r, spec, cap)

    def abelian(a, spec, r, cap):
        seen.append(("a", a, cap))
        return real_abelian(a, spec, r, cap)

    monkeypatch.setattr(cli, "curvature_residual", curvature)
    monkeypatch.setattr(cli, "abelian_residual", abelian)
    scenario = load_scenario(CURVED)
    assert cli.run("verify", scenario, order=order).passed
    spec, cap = scenario.build_spec(), 2 * order + 2
    r = solve_r(spec, cap)
    want = [("r", r, cap)] + [("a", flat_section(scenario.observables[name], spec, r, cap), cap)
                              for name in ("f", "g")]
    assert seen == want


def test_verify_releases_f_before_extending_g(monkeypatch):
    """verify holds neither f's extended section nor f's residual while it
    extends g's section: both are released once f's check is made."""
    class Tracked(fedosov._Extension):
        __slots__ = ("__weakref__",)

    refs = []

    def tracked(form):
        out = Tracked._make(form.dim, form.terms)
        out.kept = getattr(form, "kept", {})
        refs.append(weakref.ref(out))
        return out

    def extending(*args, real=cli.flat_section, **kw):
        assert [ref() for ref in refs] == [None] * len(refs)
        return tracked(real(*args, **kw))

    monkeypatch.setattr(cli, "flat_section", extending)
    monkeypatch.setattr(cli, "abelian_residual",
                        lambda *args, real=cli.abelian_residual: tracked(real(*args)))
    assert cli.run("verify", load_scenario(CURVED), order=1).passed
    assert len(refs) == 4


def test_verify_resumes_the_engine_forms_by_one_degree(monkeypatch):
    """In verify, r and the sections of f and g are solved from degree 0
    inside the engine only; the residual phase extends the very forms the
    engine handed out, and computes degree 2N + 1 of each, which reads
    degree 2N."""
    order = 2
    handed = []
    for name in ("r", "section"):
        def handing(self, *args, real=getattr(StarEngine, name)):
            handed.append(real(self, *args))
            return handed[-1]
        monkeypatch.setattr(StarEngine, name, handing)
    real_cov = fedosov.cov_ext_deriv
    resumed = []

    def resuming(solve):
        def wrapped(*args, below):
            assert any(below is form for form in handed)
            read = []

            def recording(a, geom):
                read.extend({2 * h + sum(u) for (h, u, _form) in a.terms})
                return real_cov(a, geom)
            monkeypatch.setattr(fedosov, "cov_ext_deriv", recording)
            try:
                return solve(*args, below=below)
            finally:
                monkeypatch.setattr(fedosov, "cov_ext_deriv", real_cov)
                resumed.append(read)
        return wrapped

    monkeypatch.setattr(cli, "solve_r", resuming(solve_r))
    monkeypatch.setattr(cli, "flat_section", resuming(flat_section))
    fresh = []  # the cap of every solve from degree 0
    for name in ("solve_r", "flat_section"):
        def counting(*args, real=getattr(fedosov, name)):
            fresh.append(args[-1])
            return real(*args)
        monkeypatch.setattr(fedosov, name, counting)
    assert cli.run("verify", load_scenario(CURVED), order=order).passed
    assert resumed == [[2 * order]] * 3
    assert fresh and set(fresh) == {2 * order + 1}
