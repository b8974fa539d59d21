"""Exact symbolic star products on Darboux charts.

The package builds associative deformations of pointwise multiplication on a
symplectic chart by the flat-section transport construction: a curvature
input (the chart's symplectic connection plus an optional central two-form
perturbation) determines a connection on the formal Weyl bundle whose flat
sections multiply fiberwise; projecting back to functions yields the star
product, order by order in hbar, in exact rational arithmetic.

Perturbing the curvature input by hbar^k alpha shifts the product by a
series of bivector-type (1-differentiable) terms; the analysis tools probe
those terms on coordinate functions and compare them against the predicted
diamond-power series, which reassembles the hbar-series inverse of the
perturbed symplectic form.
"""

from .algebra import GaussianRational, HbarSeries, Polynomial
from .tensors import (Tensor2, Tensor3, TensorSeries, diamond, diamond_power,
                      formal_poisson, is_closed, mu, mu_inv, schouten,
                      series_diamond, series_inverse, series_schouten,
                      SingularMatrixError, two_form_d, VarianceError)
from .weyl import (WeylForm, central_two_form, commutator, delta, delta_inv,
                   exterior_d, HbarDivisionError, i_over_hbar, moyal,
                   moyal_sigma, moyal_y_free, odd_bracket, sigma,
                   two_form_to_tensor, y_dx_form, y_gradient)
from .geometry import (cov_ext_deriv, Curvature4, Geometry, GeometryError,
                       standard_omega, validate_geometry)
from .fedosov import (abelian_residual, CoeffTable, coeff_sequences,
                      ConvergenceError, curvature_residual, flat_section,
                      PerturbationError, solve_r, star, StarEngine,
                      StarResult, taylor_half_geometric, taylor_inv_sqrt,
                      taylor_one_minus_sqrt, WeylCurvatureSpec)
from .analysis import (beta_form, bivector_probe, CalR, cal_r,
                       ComparisonReport, compare_onediff,
                       curvature_onediff_identities, gamma_form,
                       OrderComparison, predicted_onediff)
from .io import (Check, load_scenario, ParseError, parse_poly,
                 parse_rational, Report, Scenario, ScenarioError)

__version__ = "0.1.0"

__all__ = [
    "GaussianRational", "HbarSeries", "Polynomial",
    "Tensor2", "Tensor3", "TensorSeries", "diamond", "diamond_power",
    "formal_poisson", "is_closed", "mu", "mu_inv", "schouten",
    "series_diamond", "series_inverse", "series_schouten",
    "SingularMatrixError", "two_form_d", "VarianceError",
    "WeylForm", "central_two_form", "commutator", "delta", "delta_inv",
    "exterior_d", "HbarDivisionError", "i_over_hbar", "moyal", "moyal_sigma",
    "moyal_y_free", "odd_bracket", "sigma", "two_form_to_tensor", "y_dx_form",
    "y_gradient",
    "cov_ext_deriv", "Curvature4", "Geometry", "GeometryError",
    "standard_omega", "validate_geometry",
    "abelian_residual", "CoeffTable", "coeff_sequences", "ConvergenceError",
    "curvature_residual", "flat_section", "PerturbationError", "solve_r",
    "star", "StarEngine", "StarResult", "taylor_half_geometric",
    "taylor_inv_sqrt", "taylor_one_minus_sqrt", "WeylCurvatureSpec",
    "beta_form", "bivector_probe", "CalR", "cal_r", "ComparisonReport",
    "compare_onediff", "curvature_onediff_identities", "gamma_form",
    "OrderComparison", "predicted_onediff",
    "Check", "load_scenario", "ParseError", "parse_poly", "parse_rational",
    "Report", "Scenario", "ScenarioError",
    "__version__",
]
