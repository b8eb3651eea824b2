"""Numerical analysis of the Epstein zeta function of diagonal quadratic forms.

Evaluates Z_n(s; a_1 .. a_n) and its symmetrised Xi-function for real s with
tracked error bounds, and implements the sign and convexity analysis built on
them: positivity intervals in the dimension, extremum classification at the
symmetry point, closed-form sign certificates, log-convexity of the theta
function, convexity of Xi on constant-volume hyperplanes, and sign-region
geometry scans.
"""

from .analysis import (
    BoundReport,
    SignInterval,
    classify_critical_point,
    decide_sign,
    decide_signs,
    find_positive_interval,
    hat_xi_second_derivative,
    large_scale_positivity,
    critical_sign_certificates,
    verify_negative_range,
)
from .chowla import xi_chowla_selberg
from .config import EvalConfig
from .convexity import (
    HyperplaneChart,
    JnInput,
    coefficient_positivity_check,
    det_jn,
    h_of_v,
    jn_closed_form,
    jn_recursion,
    log_theta_convexity,
    midpoint_convexity_xi,
    standard_chart,
    sylvester_check,
    verify_minimum_at_equal_scales,
)
from .epstein import (
    ScaleVector,
    XiValue,
    hat_xi,
    xi,
    xi_many,
    z,
)
from .errors import (
    AnalysisError,
    DomainError,
    IndeterminateSignError,
    NotGenericError,
    PoleError,
    PrecisionError,
    SpecialPointError,
)
from .regions import (
    RegionGrid,
    certify_connected,
    certify_discrete_convex,
    center_solution,
    grid_records,
    grid_to_json,
    kratio_chart,
    scan,
)
from .specfun import (
    Approximation,
    bessel_k,
    riemann_zeta,
    theta,
)

__version__ = "0.1.0"

__all__ = [
    "Approximation",
    "EvalConfig",
    "ScaleVector",
    "XiValue",
    "SignInterval",
    "BoundReport",
    "HyperplaneChart",
    "JnInput",
    "RegionGrid",
    "theta",
    "riemann_zeta",
    "bessel_k",
    "xi",
    "xi_many",
    "z",
    "hat_xi",
    "xi_chowla_selberg",
    "decide_sign",
    "decide_signs",
    "find_positive_interval",
    "verify_negative_range",
    "critical_sign_certificates",
    "hat_xi_second_derivative",
    "classify_critical_point",
    "large_scale_positivity",
    "h_of_v",
    "coefficient_positivity_check",
    "det_jn",
    "jn_recursion",
    "jn_closed_form",
    "sylvester_check",
    "midpoint_convexity_xi",
    "log_theta_convexity",
    "verify_minimum_at_equal_scales",
    "standard_chart",
    "kratio_chart",
    "scan",
    "certify_connected",
    "certify_discrete_convex",
    "center_solution",
    "grid_records",
    "grid_to_json",
    "DomainError",
    "PoleError",
    "SpecialPointError",
    "NotGenericError",
    "PrecisionError",
    "IndeterminateSignError",
    "AnalysisError",
]
