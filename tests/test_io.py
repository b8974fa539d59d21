"""Polynomial grammar, scenario loading, and report serialization."""

import glob
import json
import os
from fractions import Fraction

import pytest

from fedosov_lab.algebra import GaussianRational, Polynomial
from fedosov_lab.io import (MAX_COEFF_LIMIT, MAX_DIM, MAX_EXPONENT, MAX_K,
                            MAX_ORDER, Check, ParseError, Report, ScenarioError,
                            load_scenario, parse_poly, parse_rational)

from conftest import invalid_json_files, rand_poly, scenarios_at_limit

F = Fraction


# -- rationals -------------------------------------------------------------------


def test_parse_rational_values():
    assert parse_rational("3") == F(3)
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-3/4") == F(-3, 4)
    assert parse_rational("+1/2") == F(1, 2)
    assert parse_rational(" 12 / 8 ") == F(3, 2)
    assert parse_rational("0") == 0


@pytest.mark.parametrize("bad", ["", "1/0", "3.5", "a", "1//2", "-", "1/-2"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ParseError):
        parse_rational(bad)


# -- polynomial grammar ------------------------------------------------------------


def test_parse_poly_single_term():
    p = parse_poly("3/2*x1^2*x2", 2)
    assert p == Polynomial(2, {(2, 1): GaussianRational(F(3, 2))})


def test_parse_poly_square_expansion():
    s = parse_poly("x1+x2", 2)
    assert s * s == parse_poly("x1^2+2*x1*x2+x2^2", 2)


def test_parse_poly_imaginary_and_signs():
    p = parse_poly("2*i*x1 - i - 1/2", 2)
    assert p == Polynomial(2, {
        (1, 0): GaussianRational(0, 2),
        (0, 0): GaussianRational(F(-1, 2), -1),
    })
    assert parse_poly("-x1", 2) == Polynomial.variable(2, 0).scale(-1)
    assert parse_poly("i*i", 2) == Polynomial.constant(2, GaussianRational(-1))


def test_parse_poly_variable_out_of_range():
    with pytest.raises(ParseError):
        parse_poly("x9", 4)
    with pytest.raises(ParseError):
        parse_poly("x0", 4)


@pytest.mark.parametrize("bad", ["", "x1*", "x1+", "1/0*x1", "y1", "x1^",
                                 "x1**x2", "3..5", "x1^-2"])
def test_parse_poly_rejects(bad):
    with pytest.raises(ParseError):
        parse_poly(bad, 2)


@pytest.mark.parametrize("dim", [2, 4])
def test_parse_print_round_trip(rng, dim):
    for _ in range(20):
        p = rand_poly(rng, dim, deg=3, terms=4, allow_imag=True)
        assert parse_poly(str(p), dim) == p
    assert parse_poly(str(Polynomial.zero(dim)), dim) == Polynomial.zero(dim)


# -- scenarios ---------------------------------------------------------------------


def minimal_scenario_dict():
    return {
        "id": "toy",
        "geometry": {"dim": 2},
        "order": 3,
        "perturbation": [{"k": 1, "alpha": [["0", "1"], ["-1", "0"]]}],
        "observables": {"f": "x1^2", "g": "x1*x2"},
    }


def test_load_scenario_from_dict():
    sc = load_scenario(minimal_scenario_dict())
    assert sc.scenario_id == "toy"
    assert sc.geometry.dim == 2 and sc.geometry.is_flat()
    assert sc.order == 3
    assert sc.coeff_limit == 8
    spec = sc.build_spec()
    assert spec.is_perturbed and spec.min_k() == 1
    assert sc.observables["f"] == parse_poly("x1^2", 2)


def test_load_scenario_defaults_and_gamma():
    sc = load_scenario({
        "geometry": {
            "dim": 2,
            "gamma": [[[1, 1, 1], "x2"]],
        },
    })
    assert sc.scenario_id == "unnamed"
    assert sc.order == 4
    assert sc.perturbation is None
    assert not sc.geometry.is_flat()
    # one-based gamma indices map onto the zero-based chart
    assert sc.geometry.gamma[(0, 0, 0)] == Polynomial.variable(2, 1)


def test_load_scenario_custom_omega():
    sc = load_scenario({
        "geometry": {
            "dim": 2,
            "omega": [["0", "2"], ["-2", "0"]],
        },
    })
    assert sc.geometry.omega.entry(0, 1).constant_value() == GaussianRational(2)


def test_load_scenario_from_path(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(minimal_scenario_dict()), encoding="utf-8")
    sc = load_scenario(str(path))
    assert sc.scenario_id == "toy"
    with open(str(path), "r", encoding="utf-8") as fh:
        sc2 = load_scenario(fh)
    assert sc2.order == sc.order


def test_load_scenario_rejects_bad_data():
    with pytest.raises(ScenarioError):
        load_scenario({})  # no geometry
    with pytest.raises(ScenarioError):
        load_scenario({"geometry": {"dim": 2},
                       "perturbation": [{"k": 0, "alpha": [["0", "1"], ["-1", "0"]]}]})
    with pytest.raises(ScenarioError):
        load_scenario({"geometry": {"dim": 2},
                       "perturbation": [{"k": 1, "alpha": [["0", "1"]]}]})
    with pytest.raises(ScenarioError):
        load_scenario({"geometry": {"dim": 2, "gamma": [[[1, 1], "x2"]]}})
    with pytest.raises(ScenarioError):
        load_scenario({"geometry": {"dim": 2, "gamma": [[[1, 1, 9], "x2"]]}})
    # a triple listed twice must not silently take its last value
    with pytest.raises(ScenarioError, match="listed twice"):
        load_scenario({"geometry": {"dim": 2, "gamma": [[[1, 1, 2], "x1"],
                                                        [[1, 1, 2], "x2"]]}})
    # a parse error inside a field keeps its specific type
    with pytest.raises(ParseError):
        load_scenario({"geometry": {"dim": 2},
                       "observables": {"f": "y1"}})
    # a non-skew perturbation is rejected at load, not at the first spec build
    with pytest.raises(ScenarioError, match="not skew"):
        load_scenario({"geometry": {"dim": 2}, "order": 3,
                       "perturbation": [{"k": 1, "alpha": [["0", "1"], ["1", "0"]]}]})


@pytest.mark.parametrize("name", sorted(invalid_json_files()))
def test_load_scenario_rejects_invalid_json_file(tmp_path, name):
    path = tmp_path / "scenario.json"
    path.write_bytes(invalid_json_files()[name])
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(str(path))
    with open(str(path), "r", encoding="utf-8") as fh:
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenario(fh)


def test_bundled_scenarios_all_load():
    root = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
    paths = sorted(glob.glob(os.path.join(root, "*.json")))
    assert len(paths) >= 10
    for p in paths:
        sc = load_scenario(p)
        sc.build_spec()
        assert sc.order >= 1


# -- size limits -------------------------------------------------------------------


LIMITS = {"dim": MAX_DIM, "order": MAX_ORDER, "k": MAX_K,
          "coeff_limit": MAX_COEFF_LIMIT,
          "gamma-exponent": MAX_EXPONENT, "alpha-exponent": MAX_EXPONENT,
          "observable-exponent": MAX_EXPONENT}


def test_limits_hold_every_bundled_scenario():
    assert sorted(LIMITS) == sorted(scenarios_at_limit(0))
    root = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
    for p in sorted(glob.glob(os.path.join(root, "*.json"))):
        sc = load_scenario(p)
        assert sc.geometry.dim <= MAX_DIM and sc.order <= MAX_ORDER
        assert sc.coeff_limit <= MAX_COEFF_LIMIT
        if sc.perturbation is not None:
            assert max(sc.perturbation.hs.coeffs) <= MAX_K


@pytest.mark.parametrize("field", sorted(LIMITS))
def test_scenario_at_limit_loads(field):
    load_scenario(scenarios_at_limit(0)[field]).build_spec()


@pytest.mark.parametrize("field", sorted(LIMITS))
def test_scenario_past_limit_is_scenario_error(field):
    with pytest.raises(ScenarioError, match="at most %d" % LIMITS[field]):
        load_scenario(scenarios_at_limit(1)[field])


# -- reports -----------------------------------------------------------------------


def sample_report():
    return Report("verify", "toy", [
        Check("geometry.omega-constant-skew", "0", True),
        Check("star.unit-neutral", "0", True),
        Check("connection.flatness-residual", "x1*y1*dx_{1}", False),
    ])


def test_report_checks_use_pass_key_and_report_scenario_id():
    checks = Report("verify", "s", [Check("a.b", "0", True)]).as_dict()["checks"]
    assert checks == [{"anchor": "a.b", "scenario_id": "s", "residual": "0",
                       "pass": True}]
    for c in sample_report().as_dict()["checks"]:
        assert c["scenario_id"] == "toy"


def test_report_summary_and_passed():
    r = sample_report()
    assert not r.passed
    assert r.summary() == {"total": 3, "passed": 2, "failed": 1}
    good = Report("verify", "toy", r.checks[:2])
    assert good.passed


def test_report_json_is_deterministic():
    a = sample_report().to_json()
    b = sample_report().to_json()
    assert a == b
    assert a.endswith("\n")
    assert ": " not in a  # compact separators
    parsed = json.loads(a)
    assert parsed["summary"] == {"total": 3, "passed": 2, "failed": 1}
    assert [c["pass"] for c in parsed["checks"]] == [True, True, False]
    assert list(parsed) == sorted(parsed)


def test_report_table_output():
    text = sample_report().table()
    lines = text.splitlines()
    assert any("PASS" in ln for ln in lines)
    assert any("FAIL" in ln for ln in lines)
    assert lines[-1] == "3 checks, 2 passed, 1 failed"
