"""Constrained classical motion on f = 0 and force-law residuals.

The integrator is a symmetric constraint-projection velocity-Verlet:
the free drift carries a momentum kick along grad f(x_n) whose
multiplier is solved so the new position lands on the surface, then the
momentum is projected to the tangent plane at the new point in closed
form.  For free motion on the constraint this keeps the kinetic energy
drift bounded at O(dt^2) with no secular loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .geometry import ExtensionPolicy
from .reports import csv_text

MAX_NEWTON = 50  # multiplier iterations per step


class ProjectionFailureError(RuntimeError):
    """Constraint multiplier solve did not converge."""


class StepTooLargeError(RuntimeError):
    """Projection moved the point by more than half the free drift."""


class IntegratorInputError(ValueError):
    """Initial state or integrator settings out of range."""


class TooFewStepsError(ValueError):
    """Residual series need at least 3 stored states."""


class ZeroVelocityError(ValueError):
    """Geodesic curvature is undefined for a resting particle."""


@dataclass(frozen=True)
class TrajectoryState:
    x: np.ndarray
    p: np.ndarray
    t: float


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    steps: int
    constraint_tol: float = 1e-12
    mass: float = 1.0

    def __post_init__(self):
        if not self.dt > 0:
            raise IntegratorInputError("dt must be positive")
        if self.steps < 1:
            raise IntegratorInputError("steps must be >= 1")
        if not self.mass > 0:
            raise IntegratorInputError("mass must be positive")


@dataclass
class Trajectory:
    ts: np.ndarray          # (K,)
    xs: np.ndarray          # (K, N)
    ps: np.ndarray          # (K, N)
    energy: np.ndarray      # (K,)
    f_residual: np.ndarray  # (K,)
    tangency_residual: np.ndarray  # (K,)
    mass: float
    dt: float

    def to_csv(self):
        nvars = self.xs.shape[1]
        header = (["t"] + [f"{name}{i}" for name in "xp" for i in range(nvars)]
                  + ["energy", "f_residual", "tangency_residual"])
        return csv_text(header, np.column_stack([self.ts, self.xs, self.ps, self.energy,
                                                 self.f_residual, self.tangency_residual]))


def integrate(spec, initial, config):
    """Integrate free constrained motion; returns the stored trajectory.

    The initial state must satisfy the constraint and tangency
    invariants.  Raises ProjectionFailureError when the multiplier solve
    stalls and StepTooLargeError when the constraint correction exceeds
    half the free drift (dt too large for the local curvature).
    """
    x = np.asarray(initial.x, dtype=float).copy()
    p = np.asarray(initial.p, dtype=float).copy()
    mu, dt = config.mass, config.dt
    fx, g = spec.f_and_grad(x)
    if abs(float(fx)) > max(config.constraint_tol, 1e-9):
        raise IntegratorInputError("initial position violates the constraint")
    nhat = g / np.linalg.norm(g)
    if abs(float(nhat @ p)) > 1e-9 * max(1.0, float(np.linalg.norm(p))):
        raise IntegratorInputError("initial momentum is not tangent")

    count = config.steps + 1
    ts = np.empty(count)
    xs = np.empty((count, len(x)))
    ps = np.empty((count, len(x)))
    energy = np.empty(count)
    f_res = np.empty(count)
    tan_res = np.empty(count)

    def record(k, t):
        ts[k] = t
        xs[k] = x
        ps[k] = p
        energy[k] = float(p @ p) / (2.0 * mu)
        f_res[k] = abs(float(fx))
        tan_res[k] = abs(float((g / np.linalg.norm(g)) @ p))

    record(0, initial.t)
    t = initial.t
    for k in range(1, count):
        x, p, fx, g = _rattle_step(spec, x, p, g, dt, mu, config.constraint_tol)
        t += dt
        record(k, t)
    return Trajectory(ts, xs, ps, energy, f_res, tan_res, mass=mu, dt=dt)


def _rattle_step(spec, x, p, g0, dt, mu, tol):
    """One step from x, p with g0 = grad f(x).

    Returns x_new, p_new and f, grad f at x_new, all from the Newton
    iterate that meets the constraint, so the caller records them and
    hands the gradient to the next step.
    """
    lam = 0.0
    x_new = x + dt * p / mu
    for _ in range(MAX_NEWTON):
        fv, g1 = spec.f_and_grad(x_new)
        if abs(fv) < tol:
            break
        slope = float(g1 @ g0) * (-dt / mu)
        if slope == 0.0:
            raise ProjectionFailureError("degenerate constraint direction")
        lam -= fv / slope
        x_new = x + dt * (p - lam * g0) / mu
    else:
        raise ProjectionFailureError(
            f"constraint solve stalled at |f| = {abs(float(spec.f(x_new))):.3e}"
        )
    free = dt * np.linalg.norm(p) / mu
    correction = np.linalg.norm(x_new - (x + dt * p / mu))
    if free > 0 and correction > 0.5 * free:
        raise StepTooLargeError(
            f"projection moved the point {correction:.3e}, more than half "
            f"the free drift {free:.3e}"
        )
    p_half = p - lam * g0
    n1 = g1 / np.linalg.norm(g1)
    p_new = p_half - n1 * float(n1 @ p_half)
    return x_new, p_new, fv, g1


@dataclass(frozen=True)
class ResidualSeries:
    values: np.ndarray  # per interior step
    max: float
    rms: float
    extra: np.ndarray | None = None  # per-step curvature for the geodesic form


def _interior_tables(spec, traj, policy):
    pts = traj.xs[1:-1].T
    n, dn, _, _ = geo._tables_batch(spec, pts, policy, order=1)
    return n, dn


def force_residual(spec, traj, mu=None, policy=ExtensionPolicy.SIGNED_DISTANCE):
    """dp/dt + n (p . grad n . p) / mu along the trajectory.

    Central-difference dp/dt at interior steps against the constrained
    force law; returns max and RMS norms of the vector residuals.
    """
    if len(traj.ts) < 3:
        raise TooFewStepsError("need at least 3 states for central differences")
    mu = traj.mass if mu is None else mu
    dt = traj.dt
    dpdt = (traj.ps[2:] - traj.ps[:-2]) / (2.0 * dt)
    n, dn = _interior_tables(spec, traj, policy)
    p_mid = traj.ps[1:-1]
    quad = np.einsum("ki,ijk,kj->k", p_mid, dn, p_mid)  # p . grad n . p per step
    residual = dpdt + (n * quad).T / mu
    norms = np.linalg.norm(residual, axis=1)
    return ResidualSeries(values=norms, max=float(norms.max()),
                          rms=float(np.sqrt(np.mean(norms ** 2))))


def geodesic_form_residual(spec, traj, mu=None, policy=ExtensionPolicy.SIGNED_DISTANCE):
    """|dv/dt + n v^2 kappa_n| with kappa_n the normal curvature along v.

    The local curvature 1/R is computed as vhat . grad n . vhat; its
    sign is recorded in `extra` rather than assumed.
    """
    if len(traj.ts) < 3:
        raise TooFewStepsError("need at least 3 states for central differences")
    mu = traj.mass if mu is None else mu
    dt = traj.dt
    vs = traj.ps / mu
    speed = np.linalg.norm(vs[1:-1], axis=1)
    if np.any(speed < 1e-300):
        raise ZeroVelocityError("zero velocity along trajectory")
    dvdt = (vs[2:] - vs[:-2]) / (2.0 * dt)
    n, dn = _interior_tables(spec, traj, policy)
    vhat = vs[1:-1] / speed[:, None]
    kappa_n = np.einsum("ki,ijk,kj->k", vhat, dn, vhat)
    residual = dvdt + (n * (speed ** 2 * kappa_n)).T
    norms = np.linalg.norm(residual, axis=1)
    return ResidualSeries(values=norms, max=float(norms.max()),
                          rms=float(np.sqrt(np.mean(norms ** 2))),
                          extra=kappa_n)
