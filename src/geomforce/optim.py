"""Extrema of curvature fields on the constraint surface f = 0.

Every start climbs and descends as two columns of one batch of projected
gradient walks on exact jet gradients.  Stalled walks get Newton steps on
the exact Riemannian Hessian.  One pass then groups the hits, by orbit
(rho, z) on axisymmetric catalog surfaces and by location elsewhere, and
puts each record at its group's best hit turned to azimuth 0, where one
Hessian evaluation gives its value and class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .geometry import ExtensionPolicy

AXISYMMETRIC = ("sphere", "cylinder", "spheroid", "torus")

MAX_ITER = 200       # accepted moves per walk
MERGE_TOL = 1e-4     # times feature scale
STEP0 = 0.1          # times feature scale
STEP_FLOOR = 1e-12
NEWTON_ITERATIONS = 12
EIG_TOL = 1e-6
PINV_FLOOR = 1e-10   # relative |eigenvalue| below which a Newton direction is dropped


class NoCriticalPointFoundError(RuntimeError):
    """Every start diverged; carries per-start diagnostics."""

    def __init__(self, message, diagnostics):
        self.diagnostics = diagnostics
        super().__init__(message)


@dataclass
class CriticalPoint:
    location: np.ndarray
    value: float
    classification: str  # max | min | saddle | degenerate-orbit
    grad_norm: float
    multiplicity: int = 1
    orbit: str | None = None

    def to_dict(self):
        return {
            "location": [float(v) for v in self.location],
            "value": self.value,
            "class": self.classification,
            "grad_norm": self.grad_norm,
            "multiplicity": self.multiplicity,
            "orbit": self.orbit,
        }


@dataclass
class SearchConfig:
    starts: int = 24
    seed: int = 0
    tol: float = 1e-8


def _walk(spec, x, value, g_tan, field, policy, direction, tol, scale):
    """Projected gradient walks on the columns of x, in place.

    direction +1 climbs, -1 descends.  A column's step doubles on an
    accepted move, up to STEP0 * scale, and halves on a rejected one.  It
    converges at |g_tan| < tol and stalls at a step below STEP_FLOOR or
    after MAX_ITER moves.  Returns the converged mask.
    """
    step = np.full(value.shape, STEP0 * scale)
    moves = np.zeros(value.shape, dtype=int)
    converged = np.linalg.norm(g_tan, axis=0) < tol
    live = ~converged
    while np.any(live):
        k = np.flatnonzero(live)
        unit = g_tan[:, k] / np.linalg.norm(g_tan[:, k], axis=0)
        trial = geo.project_to_surface(spec, x[:, k] + direction[k] * step[k] * unit)
        v_new, g_new, _, _ = geo.field_derivatives(spec, trial, policy, field)
        up = direction[k] * (v_new - value[k]) > 0
        a, r = k[up], k[~up]
        x[:, a], value[a], g_tan[:, a] = trial[:, up], v_new[up], g_new[:, up]
        step[a] = np.minimum(step[a] * 2.0, STEP0 * scale)
        step[r] *= 0.5
        moves[a] += 1
        converged[a] = (moves[a] < MAX_ITER) & (np.linalg.norm(g_new[:, up], axis=0) < tol)
        live[a] = (moves[a] < MAX_ITER) & ~converged[a]
        live[r] = step[r] >= STEP_FLOOR
    return converged


def _newton(spec, x, field, policy, tol, scale):
    """Newton steps (Hs + n n^T) delta = -g_tan, whose delta is tangent.

    The solve is a pseudo-inverse: an eigen-direction with |lam| at most
    PINV_FLOOR times its column's largest |lam| gets no weight, so a flat
    direction along a degenerate orbit leaves the rest of the step intact
    (the n n^T term keeps one lam = 1, so the floor is never 0).  A column
    stops at |g_tan| < 1e-3 tol, on a non-finite step or after
    NEWTON_ITERATIONS steps.  Returns x, value and |g_tan| per column.
    """
    value, gnorm = np.empty((2, x.shape[1]))
    live = np.arange(x.shape[1])
    for it in range(NEWTON_ITERATIONS + 1):
        value[live], g_tan, n, hs = geo.field_derivatives(
            spec, x[:, live], policy, field, degree=2)
        gnorm[live] = np.linalg.norm(g_tan, axis=0)
        lam, vec = np.linalg.eigh(np.moveaxis(hs + n[:, None] * n[None], -1, 0))
        flat = np.abs(lam) <= PINV_FLOOR * np.max(np.abs(lam), axis=1, keepdims=True)
        coef = np.einsum("bji,jb->bi", vec, g_tan) / np.where(flat, np.inf, lam)
        delta = -np.einsum("bij,bj->bi", vec, coef)
        keep = (gnorm[live] >= 1e-3 * tol) & np.all(np.isfinite(delta), axis=1)
        live, delta = live[keep], delta[keep]
        if it == NEWTON_ITERATIONS or not live.size:
            break
        length = np.linalg.norm(delta, axis=1)
        over = length > 0.2 * scale  # distrust huge Newton steps
        delta[over] *= (0.2 * scale / length[over])[:, None]
        x[:, live] = geo.project_to_surface(spec, x[:, live] + delta.T)
    return x, value, gnorm


def _labels(n, hs):
    """max/min/saddle/degenerate-orbit per column from the signs of the
    tangent eigenvalues of the exact Riemannian Hessian (|eig| <= EIG_TOL:
    flat, so an orbit)."""
    eigs = geo.principal_curvatures_batch(n, hs)  # drops the n eigenvector
    flat = np.any(np.abs(eigs) <= EIG_TOL, axis=0)
    return np.select([flat, np.all(eigs < 0, axis=0), np.all(eigs > 0, axis=0)],
                     ["degenerate-orbit", "max", "min"], "saddle").tolist()


def classify_critical_point(spec, point, field, policy):
    """max/min/saddle/degenerate-orbit of the field at point (projected)."""
    point = geo.project_to_surface(spec, np.asarray(point, dtype=float))
    _, _, n, hs = geo.field_derivatives(spec, point[:, None], policy, field, degree=2)
    return _labels(n, hs)[0]


def find_critical_points(spec, field, policy=ExtensionPolicy.GRADIENT_NORMALIZED,
                         config=None):
    """Locate critical points of a curvature field on the surface.

    field is one of 'lapM', 'vg_geom', 'M'.  Deterministic for a fixed
    config seed.  Constant fields short-circuit to a single whole-surface
    degenerate-orbit record.
    """
    if field not in geo.FIELD_NAMES:
        raise ValueError(f"field must be one of {geo.FIELD_NAMES}")
    cfg = config or SearchConfig()
    scale = spec.feature_scale()
    starts = geo.sample_points(spec, "random", count=cfg.starts, seed=cfg.seed)
    values, g_tan, _, _ = geo.field_derivatives(spec, starts, policy, field)
    span = float(values.max() - values.min())
    if (span < 1e-10 * (1.0 + float(np.abs(values).max()))
            and np.all(np.linalg.norm(g_tan, axis=0) < cfg.tol)):
        return [CriticalPoint(
            location=starts[:, 0],
            value=float(values[0]),
            classification="degenerate-orbit",
            grad_norm=0.0,
            multiplicity=starts.shape[1],
            orbit="entire surface (constant field)",
        )]

    # column 2i climbs from start i, column 2i + 1 descends from it
    x, value, g_tan = (np.repeat(a, 2, axis=-1) for a in (starts, values, g_tan))
    direction = np.tile([1.0, -1.0], starts.shape[1])
    converged = _walk(spec, x, value, g_tan, field, policy, direction, cfg.tol, scale)
    gnorm = np.linalg.norm(g_tan, axis=0)
    stalled = np.flatnonzero(~converged)
    x[:, stalled], value[stalled], gnorm[stalled] = _newton(
        spec, x[:, stalled], field, policy, cfg.tol, scale)
    ok = gnorm < cfg.tol
    if not np.any(ok):
        diagnostics = [{"start": k // 2, "direction": float(direction[k]),
                        "grad_norm": float(gnorm[k]), "value": float(value[k])}
                       for k in range(len(value))]
        raise NoCriticalPointFoundError(
            f"no critical point of {field} found on '{spec.name}'", diagnostics
        )

    # one pass over the hits in key order, (rho, z) on an axisymmetric
    # surface and x otherwise: a hit joins the first group whose first key
    # is within tol, so the groups do not depend on the start order
    tol = MERGE_TOL * scale
    hits = x[:, ok]
    axisymmetric = spec.name in AXISYMMETRIC
    key = np.stack([np.hypot(hits[0], hits[1]), hits[2]]) if axisymmetric else hits
    groups = []
    for k in np.lexsort(key[::-1]):
        for group in groups:
            if np.linalg.norm(key[:, k] - key[:, group[0]]) < tol:
                group.append(k)
                break
        else:
            groups.append([k])

    # each record sits at its group's best hit, turned to azimuth 0
    hit_gnorm = gnorm[ok]
    reps = key[:, [min(group, key=lambda k: hit_gnorm[k]) for group in groups]]
    points = (np.stack([reps[0], np.zeros(len(groups)), reps[1]])
              if axisymmetric else reps)
    values, g_tan, n, hs = geo.field_derivatives(spec, points, policy, field, degree=2)
    records = []
    for j, (group, label) in enumerate(zip(groups, _labels(n, hs))):
        rec = CriticalPoint(location=points[:, j], value=float(values[j]),
                            classification=label,
                            grad_norm=float(np.linalg.norm(g_tan[:, j])),
                            multiplicity=len(group))
        spread = np.linalg.norm(hits[:, group] - hits[:, group[:1]], axis=0).max()
        # an orbit when the classifier saw a flat direction or the hits spread
        if axisymmetric and reps[0, j] > tol and (label == "degenerate-orbit"
                                                    or spread > tol):
            rho, z = reps[:, j]
            z = 0.0 if abs(z) < tol else z  # roundoff off the z = 0 plane
            rec.classification = "degenerate-orbit"
            rec.orbit = f"circle z={z:.6g}, rho={rho:.6g}"
        records.append(rec)
    # location (rho, 0, z) sorts as (rho, z)
    records.sort(key=lambda r: (round(r.value, 10), tuple(np.round(r.location, 8))))
    return records


def to_report(points):
    """JSON-ready report: signed ordering plus magnitude ranking.  Values
    equal to 1e-10 keep the order of points, so roundoff cannot swap them."""
    signed = [p.to_dict() for p in sorted(points, key=lambda p: round(p.value, 10))]
    by_magnitude = [p.to_dict() for p in
                    sorted(points, key=lambda p: -abs(round(p.value, 10)))]
    return {"critical_points": signed, "by_magnitude": by_magnitude}
