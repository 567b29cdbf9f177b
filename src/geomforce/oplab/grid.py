"""Periodic parametric surface grids with per-node geometric coefficients.

Supported surfaces: circle(a) with angle theta, and torus(R, r) with
tube angle theta and azimuth phi (node (i, j) sits at theta_i, phi_j).
The nodes come from the catalog charts (surfaces.chart_points); the
tangents and metric are written out here.
Geometric coefficient fields come from geometry.curvature_fields under
the SignedDistance extension (exact on the catalog), a geometry.BLOCK of
nodes at a time; a grid keeps GEO_KEYS only: n, dn, M, S2, lapM, vg_geom,
gradS2 and two d3n contractions, C4_j = n_k n_{il} n_{il,jk} and n_iill.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import geometry as geo
from ..surfaces import builtin_surface, chart_points


GEO_KEYS = ("n", "dn", "M", "S2", "lapM", "vg_geom", "gradS2", "C4", "n_iill")


class UnsupportedSurfaceError(ValueError):
    """Operator lab grids exist for circle and torus only."""


def _check_size(n):
    if n < 16 or (n & (n - 1)) != 0:
        raise ValueError(f"grid size must be a power of two >= 16, got {n}")


@dataclass
class ParamSurfaceGrid:
    """Uniform periodic grid on a parametric surface.

    Grid-function arrays have shape `shape`; embedded quantities carry
    leading component axes.  weights are the quadrature weights
    sqrt(g) * du (positive; they sum to the surface area).  geo maps
    GEO_KEYS (n, dn, M, S2, lapM, vg_geom, gradS2, C4, n_iill) to their
    fields.  cache holds per-grid constants shared between checks (test
    states, momentum and identity coefficients).
    """

    kind: str
    params: dict
    shape: tuple
    coords: tuple            # 1D coordinate arrays per axis
    points: np.ndarray       # (N,) + shape embedded nodes
    grad_coefs: np.ndarray   # (N, naxes) + shape: (grad_S)_i = sum_a c[i,a] d_a
    ginv_diag: np.ndarray    # (naxes,) + shape inverse metric diagonal
    sqrtg: np.ndarray        # shape
    weights: np.ndarray      # shape
    geo: dict = field(repr=False, default=None)
    spec: object = field(repr=False, default=None)
    cache: dict = field(repr=False, compare=False, default_factory=dict)

    @property
    def ndim_embed(self):
        return self.points.shape[0]

    @property
    def size(self):
        return int(np.prod(self.shape))

    @property
    def area(self):
        return float(np.sum(self.weights))

    def flat_points(self):
        return self.points.reshape(self.ndim_embed, -1)


def _geo_fields(spec, points_flat, shape):
    """GEO_KEYS at the flat points; no grid-wide d2n or d3n table is made."""
    count = points_flat.shape[1]
    for start in range(0, count, geo.BLOCK):
        block = geo.curvature_fields(spec, points_flat[:, start:start + geo.BLOCK],
                                     geo.ExtensionPolicy.SIGNED_DISTANCE)
        block["C4"] = np.einsum("il...,iljk...,k...->j...", block["dn"], block["d3n"], block["n"])
        block["n_iill"] = np.einsum("iill...->...", block["d3n"])
        if not start:
            kept = {key: np.empty(block[key].shape[:-1] + (count,)) for key in GEO_KEYS}
        for key in GEO_KEYS:
            kept[key][..., start:start + geo.BLOCK] = block[key]
        del block  # before the next block's tables are made
    return {key: value.reshape(value.shape[:-1] + shape) for key, value in kept.items()}


def build_grid(kind, params, size):
    """Build a circle or torus grid; sizes must be powers of two >= 16.

    size is an int (circle: n nodes; torus: n x n) or a pair for the
    torus.  The quadrature invariant (sum of weights = closed-form area)
    is checked to 1e-10 relative.
    """
    if kind == "circle":
        if not isinstance(size, int):
            raise ValueError("circle grid size must be an int")
        _check_size(size)
        a = params["a"]
        spec = builtin_surface("circle", {"a": a})
        coords, points = chart_points(spec, size)
        th, = coords
        # (grad_S)_i = g^{tt} (x_t)_i d_t with x_t = a(-sin, cos)
        grad_coefs = (np.stack([-np.sin(th), np.cos(th)]) / a)[:, None, :]
        ginv = np.full((1, size), 1.0 / a ** 2)
        sqrtg = np.full(size, a)
        exact_area = 2 * np.pi * a
    elif kind == "torus":
        size = (size, size) if isinstance(size, int) else tuple(size)
        for n in size:
            _check_size(n)
        R, r = params["R"], params["r"]
        spec = builtin_surface("torus", {"R": R, "r": r})
        coords, points = chart_points(spec, size)
        TH, PH = np.meshgrid(*coords, indexing="ij")
        rho = R + r * np.sin(TH)
        x_th = np.stack([r * np.cos(TH) * np.cos(PH), r * np.cos(TH) * np.sin(PH),
                         -r * np.sin(TH)])
        x_ph = np.stack([-rho * np.sin(PH), rho * np.cos(PH), np.zeros_like(PH)])
        grad_coefs = np.stack([x_th / r ** 2, x_ph / rho ** 2], axis=1)
        ginv = np.stack([np.full_like(rho, 1.0 / r ** 2), 1.0 / rho ** 2])
        sqrtg = r * rho
        exact_area = 4 * np.pi ** 2 * R * r
    else:
        raise UnsupportedSurfaceError(f"no operator-lab grid for '{kind}'")

    weights = sqrtg
    for n in sqrtg.shape:
        weights = weights * (2 * np.pi / n)
    grid = ParamSurfaceGrid(
        kind=kind, params=dict(params), shape=sqrtg.shape, coords=tuple(coords),
        points=points, grad_coefs=grad_coefs, ginv_diag=ginv,
        sqrtg=sqrtg, weights=weights, spec=spec,
    )
    if np.any(grid.weights <= 0):
        raise ValueError("quadrature weights must be positive")
    if abs(grid.area - exact_area) > 1e-10 * exact_area:
        raise ValueError(
            f"quadrature area {grid.area!r} deviates from {exact_area!r}"
        )
    grid.geo = _geo_fields(spec, grid.flat_points(), grid.shape)
    return grid
