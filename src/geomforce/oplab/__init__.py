"""Spectral operator laboratory on periodic parametric surfaces.

Discretizes the geometric momentum and Hamiltonian on the circle (R^2)
and torus (R^3) with Fourier-spectral accuracy, and adjudicates operator
identities numerically across grid refinements.
"""

from .grid import ParamSurfaceGrid, build_grid
from .linops import LinOp, inner, multiplication, norm_w, spectral_derivative
from .operators import (
    build_hamiltonian,
    build_momentum,
    build_surface_gradient,
    commutator,
    divergence,
    gradient,
    hamiltonian,
    hermiticity_defect,
    momentum,
    random_band_states,
    residual_on_testspace,
)
from .identities import IDENTITY_IDS, IdentityVerdict, check_identity, run_identity_suite
from .evolve import EhrenfestTrace, NormDriftError, evolve_wavepacket, hbar_scaling_slopes

__all__ = [
    "ParamSurfaceGrid", "build_grid",
    "LinOp", "inner", "norm_w", "multiplication", "spectral_derivative",
    "gradient", "momentum", "divergence", "hamiltonian",
    "build_surface_gradient", "build_momentum", "build_hamiltonian",
    "commutator", "residual_on_testspace", "hermiticity_defect",
    "random_band_states",
    "IDENTITY_IDS", "IdentityVerdict", "check_identity", "run_identity_suite",
    "EhrenfestTrace", "NormDriftError", "evolve_wavepacket", "hbar_scaling_slopes",
]
