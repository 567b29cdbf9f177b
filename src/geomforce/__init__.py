"""Curvature-induced quantum forces on implicit hypersurfaces.

Jets of f drive everything: curvature fields under two off-surface
extensions, extremum searches on the constraint surface, constrained
classical dynamics, and a spectral operator lab that adjudicates the
momentum/Hamiltonian operator identities numerically.
"""

from .expr import (
    NonIntegerExponentError,
    ParseError,
    UnknownIdentifierError,
    parse_expression,
    unparse,
)
from .jets import (
    DivisionByZeroLeadingTerm,
    DomainError,
    Jet,
    OrderExceededError,
    jet_partial,
)
from .surfaces import (
    InvalidParametersError,
    SurfaceSpec,
    UnknownSurfaceError,
    builtin_surface,
    from_expression,
)
from .geometry import (
    CurvatureSample,
    ExtensionPolicy,
    NoConvergenceError,
    PhysicalScale,
    curvature_sample,
    project_to_surface,
    sample_field,
    si_force_magnitude,
)
from .optim import CriticalPoint, classify_critical_point, find_critical_points
from .dynamics import IntegratorConfig, TrajectoryState, force_residual, geodesic_form_residual, integrate

__version__ = "0.1.0"

__all__ = [
    "parse_expression", "unparse",
    "ParseError", "NonIntegerExponentError", "UnknownIdentifierError",
    "Jet", "jet_partial",
    "DomainError", "DivisionByZeroLeadingTerm", "OrderExceededError",
    "SurfaceSpec", "builtin_surface", "from_expression",
    "UnknownSurfaceError", "InvalidParametersError",
    "ExtensionPolicy", "PhysicalScale", "CurvatureSample",
    "curvature_sample", "si_force_magnitude",
    "project_to_surface", "sample_field",
    "NoConvergenceError",
    "CriticalPoint", "find_critical_points", "classify_critical_point",
    "TrajectoryState", "IntegratorConfig", "integrate",
    "force_residual", "geodesic_form_residual",
    "__version__",
]
