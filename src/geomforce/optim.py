"""Extrema of curvature fields on the constraint surface f = 0.

Every catalog surface whose curvature fields are not constant, the
spheroid and the torus, is a surface of revolution about z, where a field
depends on the meridian coordinate u alone: the first coordinate of the
surface's chart (latitude, tube angle).  By the principle of symmetric
criticality (Palais 1979) the critical sets are the poles and the orbits
over the critical points of v(u).  So the search runs on the meridian at
azimuth 0.  One batched field_derivatives call on MERIDIAN_SAMPLES chart
nodes gives v and the meridian slope v' = g_tan . t, t = (n_z, 0, -n_x).
A node where v' is exactly 0 is a root, and so is a pole; each sign change
of v' between neighbouring nodes brackets one more, and all brackets are
refined together by Brent's method (Brent 1973, ch. 4).  One degree-2
field_derivatives call at the roots gives each record's value and, from
the exact Riemannian Hessian, a pole's class; a root off the axis is a
degenerate-orbit circle.  Each record is one critical set, so its
multiplicity is 1; the search draws nothing at random, and its one setting
is tol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .geometry import ExtensionPolicy
from .surfaces import ANGLE, LATITUDE, chart

MERIDIAN_SAMPLES = 64  # meridian nodes; a sign change of v' between neighbours brackets a root
ROOT_TOL = 1e-14       # radians: width of a converged bracket, beyond 4 eps |u|
EIG_TOL = 1e-6
Z_FLOOR = 1e-9         # times feature scale: an orbit label's |z| below it is z = 0


class NoCriticalPointFoundError(RuntimeError):
    """No root of v' reached |g_tan| < tol; carries per-root diagnostics."""

    def __init__(self, message, diagnostics):
        self.diagnostics = diagnostics
        super().__init__(message)


@dataclass
class CriticalPoint:
    location: np.ndarray
    value: float
    classification: str  # max | min | saddle | degenerate-orbit
    grad_norm: float
    multiplicity: int = 1  # a record is one critical set
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


def _brent(slope, x0, x1, f0, f1):
    """The root of slope(u) in each bracket [x0, x1], f0 f1 < 0.

    All brackets are refined together by Brent's zeroin: a secant or
    inverse quadratic step where it is short enough, else bisection, until
    the bracket is narrower than ROOT_TOL + 4 eps |u| or slope is 0.
    slope takes and returns arrays.
    """
    roots, idx = np.empty(x1.shape), np.arange(x1.size)
    # cur is the best end, blk the other end of the bracket, pre the last cur
    cur, pre, blk, f_cur, f_pre, f_blk, s_pre, s_cur = x1, x0, x0, f1, f0, f0, x1 - x0, x1 - x0
    while True:
        flip = (f_pre != 0) & (f_cur != 0) & (np.signbit(f_pre) != np.signbit(f_cur))
        blk, f_blk, s_pre, s_cur = np.where(flip, [pre, f_pre, cur - pre, cur - pre],
                                            [blk, f_blk, s_pre, s_cur])
        pre, cur, blk, f_pre, f_cur, f_blk = np.where(
            np.abs(f_blk) < np.abs(f_cur), [cur, blk, cur, f_cur, f_blk, f_cur],
            [pre, cur, blk, f_pre, f_cur, f_blk])
        delta = 0.5 * ROOT_TOL + 2.0 * np.finfo(float).eps * np.abs(cur)
        s_bis = 0.5 * (blk - cur)
        done = (f_cur == 0) | (np.abs(s_bis) < delta)
        roots[idx[done]], idx = cur[done], idx[~done]
        if not idx.size:
            return roots
        cur, pre, blk, f_cur, f_pre, f_blk, s_pre, s_cur, delta, s_bis = np.array(
            [cur, pre, blk, f_cur, f_pre, f_blk, s_pre, s_cur, delta, s_bis])[:, ~done]
        with np.errstate(divide="ignore", invalid="ignore"):
            d_pre, d_blk = (f_pre - f_cur) / (pre - cur), (f_blk - f_cur) / (blk - cur)
            s_try = np.where(pre == blk, -f_cur * (cur - pre) / (f_cur - f_pre),
                             -f_cur * (f_blk * d_blk - f_pre * d_pre)
                             / (d_blk * d_pre * (f_blk - f_pre)))
        short = ((np.abs(s_pre) > delta) & (np.abs(f_cur) < np.abs(f_pre))
                 & (2.0 * np.abs(s_try) < np.minimum(np.abs(s_pre), 3.0 * np.abs(s_bis) - delta)))
        s_pre, s_cur = np.where(short, [s_cur, s_try], s_bis)
        pre, f_pre = cur, f_cur
        cur = cur + np.where(np.abs(s_cur) > delta, s_cur, np.copysign(delta, s_bis))
        f_cur = slope(cur)


def _meridian(spec):
    """The meridian nodes u and the map from u to points at azimuth 0.

    A latitude runs from pole to pole, and its ends sit on the axis
    (rho = 0 exactly); an angle closes, its last node being its first.
    """
    embed, kinds = chart(spec)
    span = ((0.0, 2.0 * np.pi) if kinds[0] == ANGLE else (-np.pi / 2, np.pi / 2)
            if kinds[0] == LATITUDE else kinds[0](spec.params))
    u = np.linspace(*span, MERIDIAN_SAMPLES + (kinds[0] == ANGLE))

    def points(u):
        x = np.stack(embed(spec.params, u, *[np.zeros_like(u)] * (len(kinds) - 1)))
        if kinds[0] == LATITUDE:
            x[0, np.abs(u) == np.pi / 2] = 0.0
        return x

    return u, points


def _slope(g_tan, n):
    """v' = g_tan . t along the meridian tangent t = (n_z, 0, -n_x) at azimuth 0."""
    return g_tan[0] * n[2] - g_tan[2] * n[0]


def _labels(n, hs):
    """max/min/saddle/degenerate-orbit per column from the signs of the
    tangent eigenvalues of the exact Riemannian Hessian (|eig| <= EIG_TOL:
    flat, so an orbit)."""
    eigs = geo.principal_curvatures_batch(n, hs)
    flat = np.any(np.abs(eigs) <= EIG_TOL, axis=0)
    return np.select([flat, np.all(eigs < 0, axis=0), np.all(eigs > 0, axis=0)],
                     ["degenerate-orbit", "max", "min"], "saddle").tolist()


def classify_critical_point(spec, point, field, policy):
    """max/min/saddle/degenerate-orbit of the field at point (projected)."""
    point = geo.project_to_surface(spec, np.asarray(point, dtype=float))
    _, _, n, hs = geo.field_derivatives(spec, point[:, None], policy, field, degree=2)
    return _labels(n, hs)[0]


def find_critical_points(spec, field, policy=ExtensionPolicy.GRADIENT_NORMALIZED,
                         tol=1e-8):
    """Critical sets of a curvature field on a catalog surface, one record each.

    field is one of 'lapM', 'vg_geom', 'M'.  A field constant on the
    meridian nodes short-circuits to a single whole-surface
    degenerate-orbit record.  A root whose |g_tan| is not below tol gives
    no record; NoCriticalPointFoundError when none is left.
    """
    if field not in geo.FIELD_NAMES:
        raise ValueError(f"field must be one of {geo.FIELD_NAMES}")
    u, points = _meridian(spec)
    x = points(u[:MERIDIAN_SAMPLES])
    values, g_tan, n, _ = geo.field_derivatives(spec, x, policy, field)
    span = float(values.max() - values.min())
    if (span < 1e-10 * (1.0 + float(np.abs(values).max()))
            and np.all(np.linalg.norm(g_tan, axis=0) < tol)):
        return [CriticalPoint(location=x[:, 0], value=float(values[0]),
                              classification="degenerate-orbit", grad_norm=0.0,
                              orbit="entire surface (constant field)")]

    v1 = _slope(g_tan, n)
    v1[x[0] == 0.0] = 0.0  # on the axis: a pole, where v' vanishes by symmetry
    roots = u[:MERIDIAN_SAMPLES][v1 == 0.0]
    v1 = np.append(v1, v1[:u.size - MERIDIAN_SAMPLES])  # a closed meridian's last node
    k = np.flatnonzero(v1[:-1] * v1[1:] < 0)

    def slope(u):
        return _slope(*geo.field_derivatives(spec, points(u), policy, field)[1:3])

    roots = np.concatenate([roots, _brent(slope, u[k], u[k + 1], v1[k], v1[k + 1])])
    x = points(roots)
    values, g_tan, n, hs = geo.field_derivatives(spec, x, policy, field, degree=2)
    gnorm = np.linalg.norm(g_tan, axis=0)
    z_floor = Z_FLOOR * spec.feature_scale()
    records = []
    for j, label in enumerate(_labels(n, hs)):
        if not gnorm[j] < tol:
            continue
        rec = CriticalPoint(location=x[:, j], value=float(values[j]),
                            classification=label, grad_norm=float(gnorm[j]))
        if x[0, j] != 0.0:  # off the axis: the orbit of a root of v'
            z = x[2, j] if abs(x[2, j]) >= z_floor else 0.0
            rec.classification = "degenerate-orbit"
            rec.orbit = f"circle z={z:.6g}, rho={x[0, j]:.6g}"
        records.append(rec)
    if not records:
        diagnostics = [{"location": x[:, j].tolist(), "grad_norm": float(gnorm[j]),
                        "value": float(values[j])} for j in range(roots.size)]
        raise NoCriticalPointFoundError(
            f"no critical point of {field} found on '{spec.name}'", diagnostics)
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
