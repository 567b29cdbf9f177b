"""Periodic parametric surface grids with per-node geometric coefficients.

Supported surfaces: circle(a) with angle theta, and torus(R, r) with
tube angle theta and azimuth phi (node (i, j) sits at theta_i, phi_j).
The nodes come from the catalog charts (surfaces.chart_points); the
tangents and metric are written out here.
Geometric coefficient fields come from geometry.curvature_fields under
the SignedDistance extension (exact on the catalog), one geometry.BLOCK
of nodes per job, the jobs on every CPU (reports.ordered_map); a grid
keeps GEO_KEYS only: n, dn, M, S2, lapM, vg_geom, gradS2 and two d3n
contractions, C4_j = n_k n_{il} n_{il,jk} and n_iill.
A grid family is built once: `subgrid` takes a coarser grid's nodes and
their fields from every (n_fine/n)-th node of the finest grid, bit for
bit the grid build_grid makes at that size (a node's fields do not
depend on the block it is in, and with power-of-two sizes a node's angle
is the same float on every grid that has the node); only its quadrature
weights are its own.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .. import geometry as geo
from ..reports import ordered_map
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


def grid_shape(kind, size):
    """The node shape of a grid of size, refused as build_grid refuses it.

    size is an int (circle: n nodes; torus: n x n) or a pair for the
    torus; every node count must be a power of two >= 16.
    """
    if kind == "circle":
        if not isinstance(size, int):
            raise ValueError("circle grid size must be an int")
        shape = (size,)
    elif kind == "torus":
        shape = (size, size) if isinstance(size, int) else tuple(size)
    else:
        raise UnsupportedSurfaceError(f"no operator-lab grid for '{kind}'")
    for n in shape:
        _check_size(n)
    return shape


def _strides(shape, fine_shape):
    """The node strides that take a grid of shape from one of fine_shape, or
    None when it does not nest into it."""
    if len(shape) != len(fine_shape) or any(f % n for f, n in zip(fine_shape, shape)):
        return None
    return [f // n for f, n in zip(fine_shape, shape)]


def check_family(kind, sizes):
    """Refuse sizes whose grids do not all nest into the last, finest one
    (a ValueError naming them), each size checked as build_grid checks it."""
    shapes = [grid_shape(kind, size) for size in sizes]
    if any(_strides(shape, shapes[-1]) is None for shape in shapes):
        raise ValueError(f"grid sizes {list(sizes)} do not nest: each grid's node "
                         f"counts must divide the finest grid's")


def _geo_block(spec, points_flat, start):
    """GEO_KEYS at the geometry.BLOCK flat points from start."""
    block = geo.curvature_fields(spec, points_flat[:, start:start + geo.BLOCK],
                                 geo.ExtensionPolicy.SIGNED_DISTANCE)
    block["C4"] = np.einsum("il...,iljk...,k...->j...", block["dn"], block["d3n"], block["n"])
    block["n_iill"] = np.einsum("iill...->...", block["d3n"])
    return {key: block[key] for key in GEO_KEYS}


def _geo_fields(spec, points_flat, shape):
    """GEO_KEYS at the flat points, one block per job on every CPU; no
    grid-wide d2n or d3n table is made."""
    count = points_flat.shape[1]
    blocks = ordered_map(functools.partial(_geo_block, spec, points_flat),
                         range(0, count, geo.BLOCK))
    kept = {}
    for index, block in enumerate(blocks):
        start = index * geo.BLOCK
        for key, value in block.items():
            if key not in kept:
                kept[key] = np.empty(value.shape[:-1] + (count,))
            kept[key][..., start:start + geo.BLOCK] = value
    return {key: value.reshape(value.shape[:-1] + shape) for key, value in kept.items()}


def _grid(kind, params, spec, coords, points, grad_coefs, ginv, sqrtg, geo_fields=None):
    """The grid of these nodes and coefficients, with its own quadrature
    weights; the invariant sum of weights = closed-form area is checked to
    1e-10 relative."""
    weights = sqrtg
    for n in sqrtg.shape:
        weights = weights * (2 * np.pi / n)
    grid = ParamSurfaceGrid(
        kind=kind, params=dict(params), shape=sqrtg.shape, coords=tuple(coords),
        points=points, grad_coefs=grad_coefs, ginv_diag=ginv,
        sqrtg=sqrtg, weights=weights, geo=geo_fields, spec=spec,
    )
    if np.any(grid.weights <= 0):
        raise ValueError("quadrature weights must be positive")
    if kind == "circle":
        exact_area = 2 * np.pi * params["a"]
    else:
        exact_area = 4 * np.pi ** 2 * params["R"] * params["r"]
    if abs(grid.area - exact_area) > 1e-10 * exact_area:
        raise ValueError(
            f"quadrature area {grid.area!r} deviates from {exact_area!r}"
        )
    return grid


def build_grid(kind, params, size):
    """Build a circle or torus grid of size (as grid_shape takes it).

    The quadrature invariant (sum of weights = closed-form area) is checked
    to 1e-10 relative; the GEO_KEYS fields are made one geometry.BLOCK of
    nodes per job, the jobs on every CPU (reports.ordered_map).
    """
    shape = grid_shape(kind, size)
    if kind == "circle":
        a = params["a"]
        spec = builtin_surface("circle", {"a": a})
        coords, points = chart_points(spec, shape)
        th, = coords
        # (grad_S)_i = g^{tt} (x_t)_i d_t with x_t = a(-sin, cos)
        grad_coefs = (np.stack([-np.sin(th), np.cos(th)]) / a)[:, None, :]
        ginv = np.full((1,) + shape, 1.0 / a ** 2)
        sqrtg = np.full(shape, a)
    else:
        R, r = params["R"], params["r"]
        spec = builtin_surface("torus", {"R": R, "r": r})
        coords, points = chart_points(spec, shape)
        TH, PH = np.meshgrid(*coords, indexing="ij")
        rho = R + r * np.sin(TH)
        x_th = np.stack([r * np.cos(TH) * np.cos(PH), r * np.cos(TH) * np.sin(PH),
                         -r * np.sin(TH)])
        x_ph = np.stack([-rho * np.sin(PH), rho * np.cos(PH), np.zeros_like(PH)])
        grad_coefs = np.stack([x_th / r ** 2, x_ph / rho ** 2], axis=1)
        ginv = np.stack([np.full_like(rho, 1.0 / r ** 2), 1.0 / rho ** 2])
        sqrtg = r * rho
    grid = _grid(kind, params, spec, coords, points, grad_coefs, ginv, sqrtg)
    grid.geo = _geo_fields(spec, grid.flat_points(), grid.shape)
    return grid


def subgrid(fine, size):
    """The grid of size that build_grid(fine.kind, fine.params, size) makes,
    bit for bit, from every (n_fine/n)-th node of fine along each axis:
    nodes, coefficients and GEO_KEYS fields are copied, the weights made.

    A size whose node counts do not divide fine's is a ValueError.
    """
    shape = grid_shape(fine.kind, size)
    steps = _strides(shape, fine.shape)
    if steps is None:
        raise ValueError(f"a {'x'.join(map(str, shape))} grid does not nest into "
                         f"the {'x'.join(map(str, fine.shape))} grid")
    nodes = (Ellipsis,) + tuple(slice(None, None, step) for step in steps)

    def take(values):
        return np.ascontiguousarray(values[nodes])

    return _grid(fine.kind, fine.params, fine.spec,
                 [np.ascontiguousarray(c[::step]) for c, step in zip(fine.coords, steps)],
                 take(fine.points), take(fine.grad_coefs), take(fine.ginv_diag),
                 take(fine.sqrtg), {key: take(value) for key, value in fine.geo.items()})
