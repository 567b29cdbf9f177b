"""Spectral operator laboratory on periodic parametric surfaces.

Discretizes the geometric momentum and Hamiltonian on the circle (R^2)
and torus (R^3) with Fourier-spectral accuracy, and adjudicates operator
identities numerically across grid refinements.  Operators are array
functions of a grid and a state (momentum, divergence, hamiltonian) in
units hbar = mu = 1; operators.StateActions holds a state's shared
actions and writes the paper's two force terms once.  LinOp gives a
map's per-mode blocks.
"""

from .grid import ParamSurfaceGrid, build_grid
from .linops import LinOp, inner, norm_w
from .operators import divergence, hamiltonian, momentum, random_band_states
from .identities import (IDENTITY_IDS, IdentityVerdict, RepeatedIdentityError,
                         UnknownIdentityError, check_identity, run_identity_suite)
from .evolve import EhrenfestTrace, NormDriftError, evolve_wavepacket, hbar_scaling_slopes

__all__ = [
    "ParamSurfaceGrid", "build_grid",
    "LinOp", "inner", "norm_w",
    "momentum", "divergence", "hamiltonian",
    "random_band_states",
    "IDENTITY_IDS", "IdentityVerdict", "RepeatedIdentityError", "UnknownIdentityError",
    "check_identity", "run_identity_suite",
    "EhrenfestTrace", "NormDriftError", "evolve_wavepacket", "hbar_scaling_slopes",
]
