"""Dulac-criterion toolkit for planar polynomial vector fields.

Exact polynomial algebra, Dulac multiplier synthesis, Bernstein positivity
certificates ruling out periodic orbits on rectangles, Darboux integrability
machinery, and numeric limit-cycle detection for cross-validation.
"""

from . import errors
from .analyze import AnalysisReport, LocalCertificate, run_analyze
from .certify import (
    BernsteinPatch,
    Box2,
    Certificate,
    Conclusion,
    DulacCertificate,
    Inconclusive,
    Positive,
    Violation,
    bendixson,
    bernstein_coefficients,
    certify_dulac,
    certify_positive,
)
from .darboux import (
    DarbouxExpr,
    ExponentialFactor,
    InvariantCurve,
    ResidualReport,
    check_integrating_factor,
    check_inverse_integrating_factor,
    cofactor_of,
    darboux_first_integral,
    exponential_factor_cofactor,
    verify_first_integral,
)
from .flow import (
    Classification,
    EquilibriumReport,
    LimitCycleReport,
    Section,
    Stability,
    Trajectory,
    TrajectoryStatus,
    classify_equilibrium,
    detect_limit_cycle,
    find_equilibria,
    integrate,
    poincare_return,
)
from .multiplier import BENDIXSON, Multiplier
from .parse import parse_constant, parse_multiplier, parse_poly, parse_system
from .poly import (
    CRAT_I,
    CRat,
    Point,
    Poly,
    VectorField,
    div_product,
    divergence,
    format_poly,
    lie_derivative,
    poly_divide,
)
from .synthesis import (
    Matrix2,
    QuadraticMultiplier,
    Reading,
    RECORDED_READING,
    gradient_field,
    gradient_multipliers,
    local_dulac_hyperbolic,
    printed_coefficients,
    quadratic_dulac_linear,
)

__all__ = [
    "errors",
    # poly
    "CRat", "CRAT_I", "Point", "Poly", "VectorField", "divergence",
    "div_product", "format_poly", "lie_derivative", "poly_divide",
    # parse
    "parse_constant", "parse_multiplier", "parse_poly", "parse_system",
    # multiplier
    "BENDIXSON", "Multiplier",
    # certify
    "BernsteinPatch", "Box2", "Certificate", "Conclusion", "DulacCertificate",
    "Inconclusive", "Positive", "Violation", "bendixson",
    "bernstein_coefficients", "certify_dulac", "certify_positive",
    # synthesis
    "Matrix2", "QuadraticMultiplier", "Reading", "RECORDED_READING",
    "gradient_field", "gradient_multipliers", "local_dulac_hyperbolic",
    "printed_coefficients", "quadratic_dulac_linear",
    # darboux
    "DarbouxExpr", "ExponentialFactor", "InvariantCurve", "ResidualReport",
    "check_integrating_factor", "check_inverse_integrating_factor",
    "cofactor_of", "darboux_first_integral", "exponential_factor_cofactor",
    "verify_first_integral",
    # flow
    "Classification", "EquilibriumReport", "LimitCycleReport", "Section",
    "Stability", "Trajectory", "TrajectoryStatus", "classify_equilibrium",
    "detect_limit_cycle", "find_equilibria", "integrate", "poincare_return",
    # analyze
    "AnalysisReport", "LocalCertificate", "run_analyze",
]
