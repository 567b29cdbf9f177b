"""Comparison reports between computed curvature fields and reference
closed forms.

The torus and spheroid come with published closed-form extremum values
for the Laplacian of the mean curvature.  Nothing here assumes those
forms are correct: the jets compute the fields under both extension
policies and the reports record agreement or the discrepancy pattern.
"""

from __future__ import annotations

import numpy as np

from . import geometry as geo
from .geometry import ExtensionPolicy
from .surfaces import builtin_surface, chart_points

TORUS_ANGLES = 64  # tube angles of the torus comparison, at phi = 0
REL_TOL = 1e-9  # agreement of the torus comparison and the split identity
SPHEROID_REL_TOL = 1e-6  # agreement of a spheroid extremum with its reference


def torus_reference_laplacian(R, r, theta):
    """Reference closed form R(r + R sin t) / (2 r^2 (R + r sin t)^3)."""
    s = np.sin(theta)
    return R * (r + R * s) / (2.0 * r ** 2 * (R + r * s) ** 3)


def spheroid_reference_pole(a, b):
    """Reference extremum value quoted at the poles: -(b^2 - a^2) b / a^6."""
    return -(b ** 2 - a ** 2) * b / a ** 6


def spheroid_reference_equator(a, b):
    """Reference extremum value quoted at the equator:
    (b^2 - a^2)(b^2 + 3 a^2) / (2 a b^6)."""
    return (b ** 2 - a ** 2) * (b ** 2 + 3 * a ** 2) / (2.0 * a * b ** 6)


def _match(computed, reference):
    scale = max(abs(reference), 1e-300)
    return bool(abs(computed - reference) <= SPHEROID_REL_TOL * scale)


def torus_laplacian_comparison(R=2.0, r=1.0):
    """Exact-jet lap M at TORUS_ANGLES tube angles vs the reference closed form.

    Either the values agree at every angle (matches=True) or the report
    carries both curves, the worst deviation, and the observed pattern
    (the reference form tracks half the Laplace-Beltrami part, not the
    full Laplacian).
    """
    spec = builtin_surface("torus", {"R": R, "r": r})
    (theta, _), pts = chart_points(spec, (TORUS_ANGLES, 1))  # at phi = 0
    fields = geo.curvature_fields(spec, pts[..., 0], ExtensionPolicy.SIGNED_DISTANCE)
    lap = fields["lapM"]
    lap_lb = fields["lapLB_M"]
    reference = torus_reference_laplacian(R, r, theta)
    rel = np.abs(lap - reference) / np.maximum(np.abs(reference), 1e-300)
    matches = bool(np.all(rel < REL_TOL))
    ratio = reference / np.where(np.abs(lap_lb) > 1e-300, lap_lb, np.nan)
    report = {
        "surface": "torus",
        "params": {"R": R, "r": r},
        "angles": theta.tolist(),
        "lapM_jets": lap.tolist(),
        "lapLB_jets": lap_lb.tolist(),
        "reference": reference.tolist(),
        "max_rel_deviation": float(rel.max()),
        "matches_reference": matches,
    }
    if not matches:
        half_lb_rel = np.abs(reference - 0.5 * lap_lb) / np.maximum(
            np.abs(reference), 1e-300)
        report["pattern"] = {
            "reference_over_lapLB": [float(v) for v in ratio],
            "reference_equals_half_lapLB": bool(np.all(half_lb_rel < REL_TOL)),
            "note": (
                "computed full Laplacian disagrees with the reference closed "
                "form; the reference equals one half of the Laplace-Beltrami "
                "part of the field at every sampled angle"
            ),
        }
    return report


def spheroid_extremum_comparison(a, b):
    """lap M at the poles and equator under both extensions vs references.

    The quadric is not a distance function, so the SignedDistance values
    come from exact jets of the distance solved through the foot-point
    equations (geometry.distance_jet).  No reference value is assumed
    correct; matches are recorded per policy.
    """
    spec = builtin_surface("spheroid", {"a": a, "b": b})
    locations = {
        "pole": (np.array([0.0, 0.0, b]), spheroid_reference_pole(a, b)),
        "equator": (np.array([a, 0.0, 0.0]), spheroid_reference_equator(a, b)),
    }
    report = {"surface": "spheroid", "params": {"a": a, "b": b}, "locations": {}}
    for name, (point, reference) in locations.items():
        gn = geo.curvature_sample(spec, point, ExtensionPolicy.GRADIENT_NORMALIZED)
        sd = geo.curvature_sample(spec, point, ExtensionPolicy.SIGNED_DISTANCE)
        entry = {
            "point": [float(v) for v in point],
            "reference": float(reference),
            "lapM_gradient_normalized": gn.lapM,
            "lapM_signed_distance": sd.lapM,
            "lapLB": gn.lapLB_M,
            "matches_gradient_normalized": _match(gn.lapM, reference),
            "matches_signed_distance": _match(sd.lapM, reference),
        }
        if not (entry["matches_gradient_normalized"]
                or entry["matches_signed_distance"]):
            entry["reference_over_lapLB"] = float(reference / gn.lapLB_M)
        report["locations"][name] = entry
    matched = [
        loc for loc, entry in report["locations"].items()
        if entry["matches_gradient_normalized"] or entry["matches_signed_distance"]
    ]
    report["summary"] = (
        f"reference values matched at: {', '.join(matched) if matched else 'none'}"
    )
    return report


def split_identity_report():
    """The normal/surface split of lap M on sphere, circle and torus.

    Reports the signed-distance as-printed residual lapM - lapLB - d_n(M^2/2
    - S2) and the sign-flipped variant at each point; a surface confirms
    the printed split only when the residual vanishes.
    """
    torus = builtin_surface("torus", {"R": 2.0, "r": 1.0})
    cases = [  # points as columns
        ("sphere", builtin_surface("sphere", {"a": 1.0}),
         np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]]).T),
        ("circle", builtin_surface("circle", {"a": 1.0}),
         np.array([[1.0, 0.0], [np.cos(1.1), np.sin(1.1)]]).T),
        ("torus", torus, chart_points(torus, (16, 1))[1][..., 0]),  # at phi = 0
    ]
    out = {"surfaces": []}
    for name, spec, points in cases:
        fields = geo.curvature_fields(spec, points, ExtensionPolicy.SIGNED_DISTANCE)
        n, lap_m, lap_lb = fields["n"], fields["lapM"], fields["lapLB_M"]
        v = fields["M"] * fields["gradM"] - fields["gradS2"]
        normal = sum(n[i] * v[i] for i in range(spec.dimension))  # d_n(M^2/2 - S2)
        rows = [{
            "point": points[:, j].tolist(),
            "lapM": float(lap_m[j]),
            "lapLB_M": float(lap_lb[j]),
            "normal_term": float(normal[j]),
            "residual": float(lap_m[j] - lap_lb[j] - normal[j]),
            "residual_flipped": float(lap_m[j] - lap_lb[j] + normal[j]),
        } for j in range(points.shape[1])]
        worst = max(abs(r["residual"]) for r in rows)
        worst_flipped = max(abs(r["residual_flipped"]) for r in rows)
        scale = max(max(abs(r["lapM"]) for r in rows), 1.0)
        status = "confirmed" if worst <= REL_TOL * scale else "finding"
        out["surfaces"].append({
            "surface": name,
            "rows": rows,
            "max_abs_residual": worst,
            "max_abs_residual_flipped": worst_flipped,
            "status": status,
            "note": (
                "printed split holds" if status == "confirmed" else
                "printed split fails; flipping the sign of the normal-derivative "
                "term closes the identity to machine precision"
                if worst_flipped <= REL_TOL * scale else
                "printed split fails and the sign flip does not close it"
            ),
        })
    return out
