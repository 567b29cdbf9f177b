"""Spectral operator laboratory on periodic parametric surfaces.

Discretizes the geometric momentum and Hamiltonian on the circle (R^2)
and torus (R^3) with Fourier-spectral accuracy, and adjudicates operator
identities numerically across grid refinements.  Operators are array
functions of a grid and a state (gradient, momentum, divergence,
hamiltonian) in units hbar = mu = 1; LinOp gives a map's per-mode blocks.
"""

from .grid import ParamSurfaceGrid, build_grid
from .linops import LinOp, inner, norm_w
from .operators import divergence, gradient, hamiltonian, momentum, random_band_states
from .identities import (IDENTITY_IDS, IdentityVerdict, UnknownIdentityError,
                         check_identity, run_identity_suite)
from .evolve import EhrenfestTrace, NormDriftError, evolve_wavepacket, hbar_scaling_slopes

__all__ = [
    "ParamSurfaceGrid", "build_grid",
    "LinOp", "inner", "norm_w",
    "gradient", "momentum", "divergence", "hamiltonian",
    "random_band_states",
    "IDENTITY_IDS", "IdentityVerdict", "UnknownIdentityError", "check_identity",
    "run_identity_suite",
    "EhrenfestTrace", "NormDriftError", "evolve_wavepacket", "hbar_scaling_slopes",
]
