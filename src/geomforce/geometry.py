"""Curvature fields of implicit surfaces from jets of f.

Everything here is derived from the unit normal extension n and its
derivative tables n_{i,j}, n_{i,j,k}, n_{i,j,k,l}.  Two off-surface
extensions are supported:

* GradientNormalized: n = grad f / |grad f| for the given f, exact via
  jet arithmetic.
* SignedDistance: n = grad d for the signed distance d, exact too.  When
  f already is a signed distance its jets are used directly; otherwise
  the jet of d comes from solving the foot-point equations in jet
  arithmetic (see distance_jet).

Sign conventions: M = -n_{i,i}, so a sphere of radius a with outward
normal has M = -2/a.  The quantum force density along n is
chi_geom = -lap M in units hbar^2 / (4 mu).

Internally all table computations carry a trailing batch axis so that
grids of thousands of points evaluate in vectorized numpy.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import jets
from .surfaces import UnknownSurfaceError

HBAR_SI = 1.054571817e-34  # J s

FIELD_NAMES = ("lapM", "vg_geom", "M")


class NoConvergenceError(RuntimeError):
    """Projection iteration failed; carries iteration count and residual."""

    def __init__(self, message, iterations, residual):
        self.iterations = iterations
        self.residual = residual
        super().__init__(f"{message} ({iterations} iterations, residual {residual:.3e})")


class OffSurfaceError(ValueError):
    """A point handed to a surface-point routine does not lie on f = 0."""


class ExtensionPolicy(enum.Enum):
    GRADIENT_NORMALIZED = "gn"
    SIGNED_DISTANCE = "sd"

    @classmethod
    def parse(cls, text):
        try:
            return POLICY_NAMES[text.lower()]
        except KeyError:
            raise ValueError(f"unknown extension policy '{text}'") from None


POLICY_NAMES = {"gn": ExtensionPolicy.GRADIENT_NORMALIZED,
                "gradient-normalized": ExtensionPolicy.GRADIENT_NORMALIZED,
                "sd": ExtensionPolicy.SIGNED_DISTANCE,
                "signed-distance": ExtensionPolicy.SIGNED_DISTANCE}


@dataclass(frozen=True)
class PhysicalScale:
    """SI scales attached to a model surface."""

    mass_kg: float
    hbar: float = HBAR_SI
    length_unit_m: float = 1.0

    def __post_init__(self):
        for name in ("mass_kg", "hbar", "length_unit_m"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


# Closest-point projection ----------------------------------------------------


def project_to_surface(spec, point, tol=1e-12, max_iter=100, angle_tol=1e-6):
    """Closest point on f = 0, for one point (N,) or a batch (N, B).

    Alternates a Newton step along grad f with a tangential closest-point
    correction.  Convergence requires |f(y)| < tol and (y - point)
    parallel to grad f(y) within angle_tol.
    """
    point = np.asarray(point, dtype=float)
    single = point.ndim == 1
    pts = point[:, None] if single else point
    y = pts.copy()
    scale = spec.feature_scale()
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(max_iter):
            g = spec.grad_f(y)
            g2 = np.sum(g * g, axis=0)
            fv = spec.f(y)
            y = y - g * (fv / g2)
            g = spec.grad_f(y)
            ghat = g / np.linalg.norm(g, axis=0)
            r = pts - y
            r_tan = r - ghat * np.sum(ghat * r, axis=0)
            y = y + r_tan
            f_res = np.abs(spec.f(y))
            tan_res = np.linalg.norm(r_tan, axis=0)
            dist = np.linalg.norm(pts - y, axis=0)
            ok = (f_res < tol) & (tan_res <= angle_tol * dist + 1e-13 * scale)
            if np.all(ok):
                return y[:, 0] if single else y
    worst = float(np.max(np.abs(spec.f(y))))
    raise NoConvergenceError(
        f"projection to '{spec.name}' did not converge", max_iter, worst
    )


# Normal derivative tables -----------------------------------------------------


@lru_cache(maxsize=None)
def _unit_index_tensors(nvars, degree, depth):
    """Index tensors mapping derivative axes to jet table positions.

    Entry k of the returned list has shape (nvars,) * (k + 1) and holds
    the flat index of the multi-index e_{a_0} + ... + e_{a_k} in the jet
    space (nvars, degree).
    """
    space = jets.jet_space(nvars, degree)
    out = []
    for nd in range(1, depth + 1):
        t = np.empty((nvars,) * nd, dtype=np.intp)
        for axes in itertools.product(range(nvars), repeat=nd):
            alpha = [0] * nvars
            for a in axes:
                alpha[a] += 1
            t[axes] = space.index_of[tuple(alpha)]
        out.append(t)
    return out


def _tables_from_distance_jet(djet, order):
    """SignedDistance tables from a jet of the distance: n_i = d_i d.

    Batched: djet coeffs (T, B) give tables with trailing batch axis.
    """
    nvars = djet.space.nvars
    tensors = _unit_index_tensors(nvars, djet.degree, order + 1)
    tabs = [djet.coeffs[t] for t in tensors]
    n, dn = tabs[0], tabs[1]
    d2n = tabs[2] if order >= 2 else None
    d3n = tabs[3] if order >= 3 else None
    return n, dn, d2n, d3n


def _tables_from_component_jets(njets, order):
    """Tables from one jet per normal component (GradientNormalized path)."""
    nvars = njets[0].space.nvars
    tensors = _unit_index_tensors(nvars, njets[0].degree, order)
    n = np.stack([j.coeffs[0] for j in njets])
    dn = np.stack([j.coeffs[tensors[0]] for j in njets])
    d2n = np.stack([j.coeffs[tensors[1]] for j in njets]) if order >= 2 else None
    d3n = np.stack([j.coeffs[tensors[2]] for j in njets]) if order >= 3 else None
    return n, dn, d2n, d3n


def _normalized_gradient_jets(spec, points, degree):
    """Jets of grad f / |grad f| components to the given degree."""
    fjet = spec.jet(points, degree + 1)
    g = [fjet.derivative(i) for i in range(spec.dimension)]
    inv_norm = _norm(g).reciprocal()
    return [gi * inv_norm for gi in g]


def _norm(components):
    """Jet of the Euclidean norm of a vector of jets."""
    norm2 = components[0] * components[0]
    for c in components[1:]:
        norm2 = norm2 + c * c
    return jets.apply_function("sqrt", norm2)


def distance_jet(spec, points, degree):
    """Jet of the signed distance d at on-surface point(s) (N,) or (N, B).

    When f is a distance function this is the jet of f.  Otherwise the
    foot point y(x) and multiplier t(x) solve y + t grad f(y) = x,
    f(y) = 0 with x = x0 + xi as the jet variable, by chord Newton from
    y = x0, t = 0 with the float Jacobian [[I, g], [g^T, 0]],
    g = grad f(x0).  Each step gains one order, so `degree` steps make
    d = t |grad f(y)| exact to that degree (truncated Taylor arithmetic
    through implicit functions: Griewank & Walther, Evaluating
    Derivatives, ch. 13).
    """
    if spec.is_signed_distance:
        return spec.jet(points, degree)
    fjet = spec.jet(points, degree + 1)
    grads = [fjet.derivative(i) for i in range(spec.dimension)]
    space = grads[0].space
    g = np.stack([gi.value for gi in grads])
    g2 = np.sum(g * g, axis=0)
    if np.any(g2 == 0.0):
        where = np.reshape(points, (spec.dimension, -1))[:, np.argmin(np.ravel(g2))]
        raise jets.DomainError(f"grad f vanishes at {where.tolist()} on "
                               f"'{spec.name}'; the signed distance has no jet there")
    xi = np.stack([jets.variable(space, i, np.zeros_like(g2)).coeffs
                   for i in range(spec.dimension)])
    u = np.zeros_like(xi)  # y - x0
    t = jets.Jet(space, np.zeros_like(xi[0]))
    for _ in range(degree):
        fy, *gy = jets.substitute([fjet] + grads, [jets.Jet(space, c) for c in u])
        r1 = u + np.stack([(t * gi).coeffs for gi in gy]) - xi
        r2 = fy.coeffs
        r2[0] = 0.0  # x0 is on the surface; f(x0) is roundoff
        dt = (np.einsum("i...,it...->t...", g, r1) - r2) / g2
        u = u - (r1 - g[:, None] * dt)
        t = jets.Jet(space, t.coeffs - dt)
    return t * _norm(gy)


@dataclass(frozen=True)
class NormalJet:
    """Derivative tables of the unit normal extension at a point.

    Arrays: n (N,), dn (N, N) with dn[i, j] = d n_i / d x_j, and when the
    order allows, d2n (N, N, N) and d3n (N, N, N, N) with trailing axes
    the derivative directions.  Both extensions give exact jets.
    """

    point: np.ndarray
    policy: ExtensionPolicy
    order: int
    n: np.ndarray
    dn: np.ndarray
    d2n: np.ndarray | None
    d3n: np.ndarray | None

    def unit_norm_defect(self):
        return abs(float(np.sum(self.n * self.n)) - 1.0)

    def tangency_defect(self):
        """max_j |sum_i n_i n_{i,j}|, zero when |n| = 1 exactly."""
        return float(np.max(np.abs(self.n @ self.dn)))


def _tables_batch(spec, points, policy, order):
    """(n, dn, d2n, d3n) with trailing batch axis."""
    if policy is ExtensionPolicy.SIGNED_DISTANCE:
        return _tables_from_distance_jet(distance_jet(spec, points, order + 1), order)
    njets = _normalized_gradient_jets(spec, points, order)
    return _tables_from_component_jets(njets, order)


def _require_on_surface(spec, points):
    """Raise OffSurfaceError naming the worst of the (N, B) points."""
    residual = np.abs(spec.f(points))
    worst = int(np.argmax(residual))
    if residual[worst] > 1e-9:
        raise OffSurfaceError(f"point {points[:, worst].tolist()} is not on the "
                              f"surface: |f| = {residual[worst]:.2e}")


def normal_jet(spec, point, policy, order=3):
    """Unit normal derivative tables at a surface point (|f| < 1e-9).

    order <= 3: tables hold n and its derivatives up to that order
    (dn always; d2n for order >= 2; d3n for order 3).
    """
    if order > 3:
        raise ValueError("normal jet order is capped at 3")
    point = np.asarray(point, dtype=float)
    _require_on_surface(spec, point[:, None])
    n, dn, d2n, d3n = _tables_batch(spec, point[:, None], policy, order)
    squeeze = lambda a: None if a is None else a[..., 0]
    return NormalJet(point=point, policy=policy, order=order,
                     n=squeeze(n), dn=squeeze(dn), d2n=squeeze(d2n),
                     d3n=squeeze(d3n))


# Curvature samples ------------------------------------------------------------


@dataclass(frozen=True)
class CurvatureSample:
    """Per-point geometric record.

    vg_geom = M^2/2 - S2 and chi_geom = -lap M are expressed in units of
    hbar^2 / (4 mu); kappa holds the N-1 principal curvatures.
    """

    x: np.ndarray
    n: np.ndarray
    shape: np.ndarray
    M: float
    S2: float
    kappa: np.ndarray
    lapM: float
    lapLB_M: float
    vg_geom: float
    chi_geom: float

    def to_dict(self):
        return {
            "x": [float(v) for v in self.x],
            "n": [float(v) for v in self.n],
            "M": self.M,
            "S2": self.S2,
            "kappa": [float(v) for v in self.kappa],
            "lapM": self.lapM,
            "lapLB_M": self.lapLB_M,
            "vg_geom": self.vg_geom,
            "chi_geom": self.chi_geom,
        }


def principal_curvatures_batch(n, dn):
    """Eigenvalues of the symmetrized shape tensor on the tangent space.

    n has shape (N, B), dn (N, N, B).  The eigenvector most parallel to
    n carries the spurious normal eigenvalue and is discarded; survivors
    come out sorted descending, shape (N-1, B).
    """
    nvars, batch = n.shape
    sym = 0.5 * (dn + dn.transpose(1, 0, 2))
    vals, vecs = np.linalg.eigh(np.moveaxis(sym, -1, 0))  # (B, N), (B, N, N)
    alignment = np.abs(np.einsum("bik,ib->bk", vecs, n))
    drop = np.argmax(alignment, axis=1)
    mask = np.ones((batch, nvars), dtype=bool)
    mask[np.arange(batch), drop] = False
    kept = vals[mask].reshape(batch, nvars - 1)
    return np.sort(kept, axis=1)[:, ::-1].T


def curvature_fields(spec, points, policy):
    """Vectorized curvature coefficient fields at on-surface points.

    Returns a dict of arrays keyed n, dn, d2n, d3n, M, S2, gradM, hessM,
    lapM, lapLB_M, gradS2, vg_geom, chi_geom (trailing batch axis), plus
    error_bound, always None since both extensions are exact.  This is
    the bulk interface used by grid builders.
    """
    points = np.asarray(points, dtype=float)
    _require_on_surface(spec, points)
    n, dn, d2n, d3n = _tables_batch(spec, points, policy, order=3)
    m = -np.einsum("ii...->...", dn)
    s2 = np.einsum("ij...,ij...->...", dn, dn)
    grad_m = -np.einsum("iik...->k...", d2n)
    hess_m = -np.einsum("iijk...->jk...", d3n)
    lap_m = np.einsum("jj...->...", hess_m)
    grad_s2 = 2.0 * np.einsum("il...,ilk...->k...", dn, d2n)
    eye = np.eye(spec.dimension)[..., None]
    proj = eye - n[:, None, :] * n[None, :, :]
    ndg = np.einsum("i...,i...->...", n, grad_m)
    dG = (
        -np.einsum("ik...,...->ki...", dn, ndg)
        - np.einsum("lk...,l...,i...->ki...", dn, grad_m, n)
        + np.einsum("il...,lk...->ki...", proj, hess_m)
    )
    lap_lb = np.einsum("ik...,ki...->...", proj, dG)
    return {
        "n": n, "dn": dn, "d2n": d2n, "d3n": d3n,
        "M": m, "S2": s2, "gradM": grad_m, "hessM": hess_m,
        "lapM": lap_m, "lapLB_M": lap_lb, "gradS2": grad_s2,
        "vg_geom": m * m / 2.0 - s2, "chi_geom": -lap_m,
        # always None (both extensions are exact); the key stays because the
        # spheroid gate in perfbench/workloads.py reads it and falls back to
        # 1e-9 when it is None, and that benchmark code is kept as it is
        "error_bound": None,
    }


def curvature_samples(spec, points, policy=ExtensionPolicy.SIGNED_DISTANCE):
    """CurvatureSample list for a batch of on-surface points (N, B)."""
    points = np.asarray(points, dtype=float)
    fields = curvature_fields(spec, points, policy)
    kappa = principal_curvatures_batch(fields["n"], fields["dn"])
    out = []
    for b in range(points.shape[1]):
        out.append(CurvatureSample(
            x=points[:, b],
            n=fields["n"][:, b],
            shape=fields["dn"][:, :, b],
            M=float(fields["M"][b]),
            S2=float(fields["S2"][b]),
            kappa=kappa[:, b],
            lapM=float(fields["lapM"][b]),
            lapLB_M=float(fields["lapLB_M"][b]),
            vg_geom=float(fields["vg_geom"][b]),
            chi_geom=float(fields["chi_geom"][b]),
        ))
    return out


def curvature_sample(spec, point, policy=ExtensionPolicy.SIGNED_DISTANCE):
    """Full curvature record at one surface point."""
    point = np.asarray(point, dtype=float)
    return curvature_samples(spec, point[:, None], policy)[0]


def lb_laplacian_mean_curvature(spec, point, policy=ExtensionPolicy.SIGNED_DISTANCE):
    """Laplace-Beltrami of M at the point (intrinsic surface Laplacian)."""
    return curvature_sample(spec, point, policy).lapLB_M


@dataclass(frozen=True)
class SplitReport:
    """Decomposition lap M = lap_LB M (+/-) d_n (M^2/2 - S2), both signs."""

    lapM: float
    lapLB_M: float
    normal_term: float
    residual: float          # lapM - lapLB_M - normal_term, as printed
    residual_flipped: float  # lapM - lapLB_M + normal_term


def split_report(spec, point, policy=ExtensionPolicy.SIGNED_DISTANCE):
    point = np.asarray(point, dtype=float)
    fields = curvature_fields(spec, point[:, None], policy)
    lap_m = float(fields["lapM"][0])
    lap_lb = float(fields["lapLB_M"][0])
    m = float(fields["M"][0])
    n = fields["n"][:, 0]
    normal_term = float(n @ (m * fields["gradM"][:, 0] - fields["gradS2"][:, 0]))
    return SplitReport(
        lapM=lap_m,
        lapLB_M=lap_lb,
        normal_term=normal_term,
        residual=lap_m - lap_lb - normal_term,
        residual_flipped=lap_m - lap_lb + normal_term,
    )


def split_residual(spec, point, policy=ExtensionPolicy.SIGNED_DISTANCE):
    """lapM - lapLB_M - n . grad(M^2/2 - S2).

    Zero confirms the printed normal/surface split; a stable nonzero
    value is a reportable finding, not a failure.
    """
    return split_report(spec, point, policy).residual


# SI force estimate ------------------------------------------------------------


@dataclass(frozen=True)
class ForceEstimate:
    vector_newton: np.ndarray
    magnitude_newton: float
    magnitude_piconewton: float


def si_force_magnitude(sample, scale):
    """Curvature-induced force chi = -(hbar^2 / 4 mu) lap M n in SI units.

    lapM is taken in model units and converted with the cube of the
    length unit.
    """
    lap_si = sample.lapM / scale.length_unit_m ** 3
    vector = -(scale.hbar ** 2 / (4.0 * scale.mass_kg)) * lap_si * sample.n
    magnitude = float(np.linalg.norm(vector))
    return ForceEstimate(vector, magnitude, magnitude * 1e12)


def curvature_force_scale(mass_kg, length_m, hbar=HBAR_SI):
    """Order-of-magnitude force hbar^2 / (mu a^3) in piconewtons."""
    return hbar ** 2 / (mass_kg * length_m ** 3) * 1e12


# Field sampling ----------------------------------------------------------------


def _parametric_points(spec, resolution):
    name = spec.name
    p = spec.params
    if isinstance(resolution, int):
        resolution = (resolution,) if name == "circle" else (resolution, resolution)
    if name == "circle":
        (n,) = resolution
        th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        return np.stack([p["a"] * np.cos(th), p["a"] * np.sin(th)])
    if name in ("sphere", "spheroid"):
        nt, nph = resolution
        a = p["a"]
        b = p.get("b", a)
        t = np.linspace(-np.pi / 2, np.pi / 2, nt + 2)[1:-1]  # open: skip poles
        ph = np.linspace(0.0, 2.0 * np.pi, nph, endpoint=False)
        T, PH = np.meshgrid(t, ph, indexing="ij")
        rho = a * np.cos(T)
        return np.stack([rho * np.cos(PH), rho * np.sin(PH),
                         b * np.sin(T)]).reshape(3, -1)
    if name == "torus":
        nth, nph = resolution
        th = np.linspace(0.0, 2.0 * np.pi, nth, endpoint=False)
        ph = np.linspace(0.0, 2.0 * np.pi, nph, endpoint=False)
        TH, PH = np.meshgrid(th, ph, indexing="ij")
        rho = p["R"] + p["r"] * np.sin(TH)
        return np.stack([rho * np.cos(PH), rho * np.sin(PH),
                         p["r"] * np.cos(TH)]).reshape(3, -1)
    if name == "cylinder":
        nth, nz = resolution
        th = np.linspace(0.0, 2.0 * np.pi, nth, endpoint=False)
        z = np.linspace(-p["a"], p["a"], nz)
        TH, Z = np.meshgrid(th, z, indexing="ij")
        return np.stack([p["a"] * np.cos(TH), p["a"] * np.sin(TH), Z]).reshape(3, -1)
    if name == "plane":
        nx, ny = resolution
        u = np.linspace(-1.0, 1.0, nx)
        v = np.linspace(-1.0, 1.0, ny)
        U, V = np.meshgrid(u, v, indexing="ij")
        return np.stack([U, V, np.zeros_like(U)]).reshape(3, -1)
    raise UnknownSurfaceError(f"no parametric grid for surface '{spec.name}'")


def _random_surface_points(spec, count, seed):
    rng = np.random.default_rng(seed)
    p = spec.params
    if spec.name == "circle":
        th = rng.uniform(0, 2 * np.pi, count)
        pts = np.stack([np.cos(th), np.sin(th)]) * p["a"]
    elif spec.name in ("sphere", "spheroid"):
        a = p["a"]
        b = p.get("b", a)
        t = np.arcsin(rng.uniform(-1, 1, count))
        ph = rng.uniform(0, 2 * np.pi, count)
        pts = np.stack([a * np.cos(t) * np.cos(ph), a * np.cos(t) * np.sin(ph),
                        b * np.sin(t)])
    elif spec.name == "torus":
        th = rng.uniform(0, 2 * np.pi, count)
        ph = rng.uniform(0, 2 * np.pi, count)
        rho = p["R"] + p["r"] * np.sin(th)
        pts = np.stack([rho * np.cos(ph), rho * np.sin(ph), p["r"] * np.cos(th)])
    elif spec.name == "cylinder":
        th = rng.uniform(0, 2 * np.pi, count)
        z = rng.uniform(-p["a"], p["a"], count)
        pts = np.stack([p["a"] * np.cos(th), p["a"] * np.sin(th), z])
    elif spec.name == "plane":
        u = rng.uniform(-1, 1, (2, count))
        pts = np.stack([u[0], u[1], np.zeros(count)])
    else:
        raise UnknownSurfaceError(f"random sampling needs a catalog surface, got '{spec.name}'")
    # small normal offset, then projected back: exercises the projection
    offset = rng.uniform(-0.05, 0.05, count) * spec.feature_scale()
    pts = pts + spec.grad_f(pts) * offset
    return project_to_surface(spec, pts)


def sample_field(spec, policy, sampling="grid", resolution=None, count=None, seed=0):
    """Curvature samples over the surface; deterministic given the seed.

    sampling='grid' places points on the catalog parametric grid at the
    given resolution; sampling='random' draws `count` seeded random
    points and projects them to the surface.
    """
    if sampling == "grid":
        if not resolution:
            return []
        pts = _parametric_points(spec, resolution)
    elif sampling == "random":
        if not count:
            return []
        pts = _random_surface_points(spec, count, seed)
    else:
        raise ValueError(f"unknown sampling mode '{sampling}'")
    pts = project_to_surface(spec, pts, tol=1e-12)
    return curvature_samples(spec, pts, policy)


def samples_to_csv(samples):
    """Flat CSV text with one row per sample and a header row."""
    if not samples:
        return ""
    nvars = len(samples[0].x)
    nk = len(samples[0].kappa)
    header = (
        [f"x{i}" for i in range(nvars)]
        + [f"n{i}" for i in range(nvars)]
        + ["M", "S2"]
        + [f"kappa{i}" for i in range(nk)]
        + ["lapM", "lapLB_M", "vg_geom", "chi_geom"]
    )
    rows = [",".join(header)]
    for s in samples:
        cells = (
            list(s.x) + list(s.n) + [s.M, s.S2] + list(s.kappa)
            + [s.lapM, s.lapLB_M, s.vg_geom, s.chi_geom]
        )
        rows.append(",".join(format(float(c), ".17g") for c in cells))
    return "\n".join(rows) + "\n"


# Scalar fields for optimization -------------------------------------------------


def _field_jet(spec, point, policy, field):
    """Jet (degree >= 1) of the chosen curvature field at a point."""
    n_degree = {"M": 2, "vg_geom": 2, "lapM": 4}[field]
    if policy is ExtensionPolicy.SIGNED_DISTANCE:
        djet = distance_jet(spec, point, n_degree + 1)
        njets = [djet.derivative(i) for i in range(spec.dimension)]
    else:
        njets = _normalized_gradient_jets(spec, point, n_degree)
    m_jet = -sum(nj.derivative(i) for i, nj in enumerate(njets))
    if field == "M":
        return m_jet
    if field == "vg_geom":
        s2 = None
        for nj in njets:
            for axis in range(spec.dimension):
                term = nj.derivative(axis)
                term = term * term
                s2 = term if s2 is None else s2 + term
        return m_jet * m_jet / 2.0 - s2
    lap = None
    for j in range(spec.dimension):
        term = m_jet.derivative(j).derivative(j)
        lap = term if lap is None else lap + term
    return lap


def field_value(spec, point, policy, field):
    sample = curvature_sample(spec, point, policy)
    return float(getattr(sample, field))


def field_value_and_gradient(spec, point, policy, field):
    """Field value and its ambient gradient at a surface point, from jets."""
    point = np.asarray(point, dtype=float)
    fj = _field_jet(spec, point, policy, field)
    grad = np.array([fj.derivative(i).value for i in range(spec.dimension)])
    return float(fj.value), grad


def tangent_frame(n):
    """Orthonormal basis of the tangent space (rows), from the normal."""
    nvars = len(n)
    basis = []
    for k in range(nvars):
        e = np.zeros(nvars)
        e[k] = 1.0
        v = e - n * (n @ e)
        for b in basis:
            v = v - b * (b @ v)
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            basis.append(v / norm)
        if len(basis) == nvars - 1:
            break
    return np.array(basis)
