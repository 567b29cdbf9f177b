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
grids of thousands of points evaluate in vectorized numpy.  Field samples
are the catalog charts' own points (surfaces.chart_points, through
sample_points); the charts are exact, so the points lie on f = 0 to
roundoff and are not projected.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import jets, reports
from .surfaces import chart_points

HBAR_SI = 1.054571817e-34  # J s

FIELD_NAMES = ("lapM", "vg_geom", "M")

# per-sample keys of the fields report, in JSON key and CSV column order
SAMPLE_KEYS = ("x", "n", "M", "S2", "kappa", "lapM", "lapLB_M", "vg_geom", "chi_geom")

PROJECTION_TOL = 1e-12       # |f| at a converged projection
PROJECTION_ANGLE_TOL = 1e-6  # angle of (y - point) to grad f(y) at convergence
BLOCK = 1024  # columns per normal-table pass, so that a block's jets stay in cache


class NoConvergenceError(RuntimeError):
    """Projection iteration failed.

    Carries the iteration count, the worst |f| over the unconverged
    points, that point's input, and how many of how many points failed.
    """

    def __init__(self, message, iterations, residual, point, failed, total):
        self.message = message
        self.iterations = iterations
        self.residual = residual
        self.point = point
        self.failed = failed
        self.total = total
        super().__init__(f"{message} for {failed} of {total} point(s), worst from {point} "
                         f"({iterations} iterations, residual {residual:.3e})")

    def __reduce__(self):  # the default passes only self.args, the one composed text
        return type(self), (self.message, self.iterations, self.residual, self.point,
                            self.failed, self.total)


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
    """SI scales attached to a model surface; hbar is HBAR_SI."""

    mass_kg: float
    length_unit_m: float = 1.0

    def __post_init__(self):
        for name in ("mass_kg", "length_unit_m"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")


# Closest-point projection ----------------------------------------------------


def project_to_surface(spec, point, max_iter=100):
    """Closest point on f = 0, for one point (N,) or a batch (N, B).

    Alternates a Newton step along grad f with a tangential closest-point
    correction.  Convergence requires |f(y)| < PROJECTION_TOL and
    (y - point) parallel to grad f(y) within PROJECTION_ANGLE_TOL.  A
    converged column is not iterated further, so no point's result
    depends on its batch.

    Raises one NoConvergenceError for the whole batch: how many columns
    failed, and the input of the worst, the first NaN |f|, else the first
    largest, in column order.
    """
    point = np.asarray(point, dtype=float)
    single = point.ndim == 1
    pts = point[:, None] if single else point
    y = pts.copy()
    live = np.arange(pts.shape[1])
    scale = spec.feature_scale()
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(max_iter):
            p, yl = pts[:, live], y[:, live]
            fv, g = spec.f_and_grad(yl)
            g2 = np.sum(g * g, axis=0)
            yl = yl - g * (fv / g2)
            g = spec.grad_f(yl)
            ghat = g / np.linalg.norm(g, axis=0)
            r = p - yl
            r_tan = r - ghat * np.sum(ghat * r, axis=0)
            y[:, live] = yl = yl + r_tan
            f_res = np.abs(spec.f(yl))
            tan_res = np.linalg.norm(r_tan, axis=0)
            dist = np.linalg.norm(p - yl, axis=0)
            ok = ((f_res < PROJECTION_TOL)
                  & (tan_res <= PROJECTION_ANGLE_TOL * dist + 1e-13 * scale))
            live = live[~ok]  # NaN is not ok
            if not live.size:
                return y[:, 0] if single else y
        residual = np.abs(spec.f(y[:, live]))
    worst = int(np.argmax(residual))  # the first NaN, if there is one
    raise NoConvergenceError(f"projection to '{spec.name}' did not converge", max_iter,
                             float(residual[worst]), pts[:, live[worst]].tolist(),
                             live.size, pts.shape[1])


# Normal derivative tables -----------------------------------------------------


def _tables_from_component_jets(njets, order):
    """Tables from one jet per normal component, with trailing batch axis."""
    n = np.stack([j.value for j in njets])
    dn, d2n, d3n = (np.stack([j.tensor(k) for j in njets]) if order >= k else None
                    for k in (1, 2, 3))
    return n, dn, d2n, d3n


def _f_and_grad_jets(spec, coordinate_jets):
    """Jets of f and grad f at the coordinate jets: one tape run over them and
    its adjoint sweep.  A float (the adjoint of a coordinate that f reads
    linearly or not at all) is lifted to a constant jet."""
    space, like = coordinate_jets[0].space, coordinate_jets[0].coeffs
    f, grad = spec.tape.value_and_gradient(coordinate_jets, jets.apply_function)
    lift = lambda v: v if isinstance(v, jets.Jet) else jets.constant(space, v, like=like)
    return lift(f), list(map(lift, grad))


def _normalized_gradient_jets(spec, points, degree):
    """Jets of grad f / |grad f| components to the given degree."""
    space = jets.jet_space(spec.dimension, degree)
    _, g = _f_and_grad_jets(spec, [jets.variable(space, i, x) for i, x in enumerate(points)])
    norm = _norm(g)
    return [gi / norm for gi in g]


def _norm(components):
    """Jet of the Euclidean norm of a vector of jets."""
    return jets.apply_function("sqrt", sum(c * c for c in components))


def distance_jet(spec, points, degree):
    """Jet of the signed distance d at on-surface point(s) (N,) or (N, B).

    When f is a distance function this is the jet of f.  Otherwise the
    foot point y(x) and multiplier t(x) solve y + t grad f(y) = x,
    f(y) = 0 with x = x0 + xi as the jet variable, by chord Newton from
    y = x0, t = 0 with the float Jacobian [[I, g], [g^T, 0]],
    g = grad f(x0).  Each step runs the tape on the foot-point jets y and
    takes grad f(y) from its adjoint sweep (g is the first sweep's value),
    and gains one order, so `degree` steps make d = t |grad f(y)| exact to
    that degree (truncated Taylor arithmetic through implicit functions:
    Griewank & Walther, Evaluating Derivatives, ch. 13).
    """
    if spec.is_signed_distance:
        return spec.jet(points, degree)
    points = np.asarray(points, dtype=float)
    space = jets.jet_space(spec.dimension, degree)
    x = np.stack([jets.variable(space, i, xi).coeffs for i, xi in enumerate(points)])
    y = np.zeros_like(x)
    y[:, 0] = points  # y - x0 has zero value at every step
    t = jets.Jet(space, np.zeros_like(x[0]))
    for step in range(degree):
        fy, gy = _f_and_grad_jets(spec, [jets.Jet(space, c) for c in y])
        if not step:
            g = np.stack([gi.value for gi in gy])
            g2 = np.sum(g * g, axis=0)
            if np.any(g2 == 0.0):
                where = np.reshape(points, (spec.dimension, -1))[:, np.argmin(np.ravel(g2))]
                raise jets.DomainError(f"grad f vanishes at {where.tolist()} on "
                                       f"'{spec.name}'; the signed distance has no jet there")
        r1 = y + np.stack([(t * gi).coeffs for gi in gy]) - x
        dt = (np.einsum("i...,it...->t...", g, r1) - fy.coeffs) / g2
        dt[0] = 0.0  # x0 is on the surface; f(x0) is roundoff
        y = y - (r1 - g[:, None] * dt)
        t = jets.Jet(space, t.coeffs - dt)
    return t * _norm(gy)


def _normal_components(spec, points, policy, degree):
    """The N normal component jets to `degree`: d_i d (SD) or grad f / |grad f| (GN)."""
    if policy is ExtensionPolicy.SIGNED_DISTANCE:
        djet = distance_jet(spec, points, degree + 1)
        return [djet.derivative(i) for i in range(spec.dimension)]
    return _normalized_gradient_jets(spec, points, degree)


def _tables_batch(spec, points, policy, order):
    """(n, dn, d2n, d3n) of the points (N, B), with trailing batch axis; a
    column's tables do not depend on its batch."""
    return _tables_from_component_jets(_normal_components(spec, points, policy, order), order)


def _require_on_surface(spec, points):
    """Raise OffSurfaceError naming the worst of the (N, B) points.

    A non-finite f (NaN or inf) counts as off the surface.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        residual = np.abs(spec.f(points))
    worst = int(np.argmax(residual))  # the first NaN, if there is one
    if not residual[worst] <= 1e-9:
        raise OffSurfaceError(f"point {points[:, worst].tolist()} is not on the "
                              f"surface: |f| = {residual[worst]:.2e}")


# Curvature samples ------------------------------------------------------------


@dataclass(frozen=True)
class CurvatureSample:
    """Curvature record at one point, as curvature_sample returns it.

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


def principal_curvatures_batch(n, dn):
    """Eigenvalues of the shape operator dn on the tangent space.

    n has shape (N, B), dn (N, N, B); out come the N-1 eigenvalues per
    column, sorted descending, shape (N-1, B).  The first N-1 columns of the
    reflection I - v v^T / (1 + |n_N|), v = n + sign(n_N) e_N, which maps n
    to -sign(n_N) e_N, are an orthonormal tangent basis E, and the
    eigenvalues are those of the symmetric part of E^T dn E: in closed form
    for N = 3, else by eigvalsh.  The full N x N matrix would not do, since
    under the GN extension dn n != 0 couples the normal to the tangent plane.
    """
    r, t = range(n.shape[0]), range(n.shape[0] - 1)
    v = n.copy()
    v[-1] += np.where(n[-1] < 0, -1.0, 1.0)
    e = [[float(i == a) - v[i] * v[a] / (1.0 + np.abs(n[-1])) for a in t] for i in r]
    w = [[sum(e[i][a] * dn[i, j] * e[j][b] for i in r for j in r) for b in t] for a in t]
    if len(t) == 2:
        mean = 0.5 * (w[0][0] + w[1][1])
        radius = np.hypot(0.5 * (w[0][0] - w[1][1]), 0.5 * (w[0][1] + w[1][0]))
        return np.stack([mean + radius, mean - radius])
    w = np.moveaxis(np.array(w), -1, 0)
    return np.linalg.eigvalsh(0.5 * (w + np.swapaxes(w, 1, 2)))[:, ::-1].T


def curvature_fields(spec, points, policy):
    """Vectorized curvature coefficient fields at on-surface points.

    Returns a dict of arrays keyed n, dn, d2n, d3n, M, S2, gradM, hessM,
    lapM, lapLB_M, gradS2, vg_geom, chi_geom (trailing batch axis), plus
    error_bound, always None since both extensions are exact.  This is
    the bulk interface of sample_blocks (and so curvature_sample), the
    oplab grid builder and the findings; each passes at most BLOCK
    columns, so that a call's jets stay in cache.

    Each contraction is elementwise products summed over the small axes in
    one fixed order, from zero, so a column's values do not depend on the
    batch it is in (einsum sums in an order that depends on the batch
    length); over a long batch einsum takes the same order.
    """
    points = np.asarray(points, dtype=float)
    _require_on_surface(spec, points)
    n, dn, d2n, d3n = _tables_batch(spec, points, policy, order=3)
    r = range(spec.dimension)
    m = -sum(dn[i, i] for i in r)
    s2 = sum(dn[i, j] * dn[i, j] for i in r for j in r)
    grad_m = -sum(d2n[i, i] for i in r)
    hess_m = -sum(d3n[i, i] for i in r)
    lap_m = sum(hess_m[j, j] for j in r)
    grad_s2 = 2.0 * sum(dn[i, l] * d2n[i, l] for i in r for l in r)
    eye = np.eye(spec.dimension)[..., None]
    proj = eye - n[:, None, :] * n[None, :, :]
    ndg = sum(n[i] * grad_m[i] for i in r)
    dG = (  # dG[k, i] = d_k G_i with G = P grad M
        -np.swapaxes(dn, 0, 1) * ndg
        - sum((dn[l] * grad_m[l])[:, None] * n[None] for l in r)
        + sum(hess_m[l][:, None] * proj[None, :, l] for l in r)
    )
    lap_lb = sum(proj[i, k] * dG[k, i] for i in r for k in r)
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


def _sample_columns(spec, points, policy):
    """curvature_fields at on-surface points (N, B) plus their x and kappa."""
    columns = curvature_fields(spec, points, policy)
    columns["x"] = points
    columns["kappa"] = principal_curvatures_batch(columns["n"], columns["dn"])
    return columns


def curvature_sample(spec, point, policy=ExtensionPolicy.SIGNED_DISTANCE):
    """Full curvature record at one surface point."""
    point = np.asarray(point, dtype=float)
    columns = _sample_columns(spec, point[:, None], policy)
    return CurvatureSample(shape=columns["dn"][..., 0], **{
        key: columns[key][:, 0] if columns[key].ndim == 2 else float(columns[key][0])
        for key in SAMPLE_KEYS})


# SI force estimate ------------------------------------------------------------


@dataclass(frozen=True)
class ForceEstimate:
    vector_newton: np.ndarray
    magnitude_newton: float
    magnitude_piconewton: float


def si_force_magnitude(sample, scale):
    """Curvature-induced force chi = -(hbar^2 / 4 mu) lap M n in SI units,
    hbar = HBAR_SI.

    lapM is taken in model units and converted with the cube of the
    length unit.
    """
    lap_si = sample.lapM / scale.length_unit_m ** 3
    vector = -(HBAR_SI ** 2 / (4.0 * scale.mass_kg)) * lap_si * sample.n
    magnitude = float(np.linalg.norm(vector))
    return ForceEstimate(vector, magnitude, magnitude * 1e12)


def curvature_force_scale(mass_kg, length_m):
    """Order-of-magnitude force hbar^2 / (mu a^3) in piconewtons, hbar = HBAR_SI."""
    return HBAR_SI ** 2 / (mass_kg * length_m ** 3) * 1e12


# Field sampling ----------------------------------------------------------------


def sample_points(spec, sampling="grid", resolution=None, count=None, seed=0):
    """On-surface points (N, B) of sample_field, the chart's own points: the
    nodes of the chart grid of the resolution, or `count` chart draws from
    np.random.default_rng(seed).  They lie on f = 0 to roundoff and are not
    projected; curvature_fields refuses a point with |f| > 1e-9.  An empty
    resolution or count gives no points."""
    if sampling not in ("grid", "random"):
        raise ValueError(f"unknown sampling mode '{sampling}'")
    if not (resolution if sampling == "grid" else count):
        return np.empty((spec.dimension, 0))
    if sampling == "grid":
        return chart_points(spec, resolution)[1].reshape(spec.dimension, -1)
    return chart_points(spec, count=count, rng=np.random.default_rng(seed))[1]


def sample_layout(dimension):
    """(key, width) of each of SAMPLE_KEYS in a fields report: N for x and n,
    N - 1 for kappa, 0 for a scalar."""
    widths = {"x": dimension, "n": dimension, "kappa": dimension - 1}
    return [(key, widths.get(key, 0)) for key in SAMPLE_KEYS]


def sample_header(dimension):
    """CSV header of a fields report: sample_layout with a vector key spread
    over numbered columns (x0, x1, ...)."""
    return [f"{key}{i}" if width else key
            for key, width in sample_layout(dimension) for i in range(width or 1)]


def sample_table(columns):
    """The (B, width sum) rows of sample columns, SAMPLE_KEYS in sample_layout order."""
    return np.vstack([columns[key] for key in SAMPLE_KEYS]).T


def sample_blocks(spec, points, policy, finish):
    """finish(columns) for each BLOCK columns of the on-surface points (N, B),
    yielded in order, where columns are the block's curvature_fields plus its
    x and kappa.  Blocks are made on every CPU (reports.ordered_map); a
    column's values do not depend on its block, so neither do the results."""
    return reports.ordered_map(
        lambda start: finish(_sample_columns(spec, points[:, start:start + BLOCK], policy)),
        range(0, points.shape[1], BLOCK))


def sample_field(spec, policy, sampling="grid", resolution=None, count=None, seed=0):
    """Curvature field columns at sample_points; deterministic given the seed.

    Returns the SAMPLE_KEYS columns, one per sample, or {} for no points,
    made in sample_blocks, bitwise as one curvature_fields pass.
    """
    points = sample_points(spec, sampling, resolution, count, seed)
    kept = sample_blocks(spec, points, policy,
                         lambda columns: [columns[key] for key in SAMPLE_KEYS])
    return {key: np.concatenate(parts, axis=-1) for key, parts in zip(SAMPLE_KEYS, zip(*kept))}


# Scalar fields for optimization -------------------------------------------------


def _field_jet(spec, points, policy, field, degree):
    """Jet of the chosen curvature field to `degree`, and the normal component jets."""
    n_degree = {"M": 1, "vg_geom": 1, "lapM": 3}[field] + degree
    njets = _normal_components(spec, points, policy, n_degree)
    m_jet = -sum(nj.derivative(i) for i, nj in enumerate(njets))
    if field == "M":
        return m_jet, njets
    if field == "vg_geom":
        s2 = sum(d * d for d in (nj.derivative(a) for nj in njets
                                 for a in range(spec.dimension)))
        return m_jet * m_jet / 2.0 - s2, njets
    return sum(m_jet.derivative(j).derivative(j) for j in range(spec.dimension)), njets


def field_derivatives(spec, points, policy, field, degree=1):
    """Value (B,), tangential gradient and unit normal (N, B) at points (N, B).

    For degree 2 the fourth entry is the Riemannian Hessian
    Hs = P (H - (n . g) dn) P (N, N, B), P = I - n n^T, exact from one set
    of jets (Absil, Mahony & Trumpf 2013), with Hs n = 0; else None.
    """
    fj, njets = _field_jet(spec, points, policy, field, degree)
    n, dn, _, _ = _tables_from_component_jets(njets, 1)
    g, *hess = (fj.tensor(k) for k in range(1, degree + 1))
    ng = np.sum(n * g, axis=0)
    proj = np.eye(spec.dimension)[..., None] - n[:, None] * n[None]
    hs = (np.einsum("ij...,jk...,kl...->il...", proj, hess[0] - ng * dn, proj)
          if hess else None)
    return fj.value, g - n * ng, n, hs

