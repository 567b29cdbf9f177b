"""Constrained classical motion on f = 0 and force-law residuals.

The integrator is a symmetric constraint-projection velocity-Verlet:
the free drift carries a momentum kick along grad f(x_n) whose
multiplier is solved so the new position lands on the surface, then the
momentum is projected to the tangent plane at the new point in closed
form.  For free motion on the constraint this keeps the kinetic energy
drift bounded at O(dt^2) with no secular loss.
"""

from __future__ import annotations

import collections
import functools
import math
import operator
from array import array
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import expr as ex
from . import geometry as geo
from .geometry import ExtensionPolicy
from .reports import ROW_BLOCK, csv_rows, csv_text, ordered_map

MAX_NEWTON = 50  # multiplier iterations per step


class ProjectionFailureError(RuntimeError):
    """Constraint multiplier solve did not converge."""


class StepTooLargeError(RuntimeError):
    """Projection moved the point by more than half the free drift."""


class IntegratorInputError(ValueError):
    """Initial state or integrator settings out of range."""


class TooFewStepsError(IntegratorInputError):
    """Residual series need at least 3 stored states."""


class ZeroVelocityError(IntegratorInputError):
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
    mass: float = 1.0
    constraint_tol: ClassVar[float] = 1e-12  # |f| a projected step must reach

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise IntegratorInputError(f"dt must be positive and finite, got {self.dt}")
        if self.steps < 1:
            raise IntegratorInputError("steps must be >= 1")
        if not 0 < self.mass < math.inf:
            raise IntegratorInputError(f"mass must be positive and finite, got {self.mass}")


def _csv_header(dimension):
    """The column names of the trajectory CSV."""
    return (["t"] + [f"{name}{i}" for name in "xp" for i in range(dimension)]
            + ["energy", "f_residual", "tangency_residual"])


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
    _tables: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def to_csv(self):
        """The trajectory CSV (reports.csv_text), as integrate writes it to its
        csv handle."""
        return csv_text(_csv_header(self.xs.shape[1]),
                        np.column_stack([self.ts, self.xs, self.ps, self.energy,
                                         self.f_residual, self.tangency_residual]))


def _columns(states, mu):
    """The Trajectory columns (ts, xs, ps, energy, f_residual,
    tangency_residual) of a (K, 2 + 3N) table of states, one row
    (t, x, p, f, grad f) each; each row's values depend on that row only."""
    n = (states.shape[1] - 2) // 3
    ts, fs = states[:, 0].copy(), states[:, 1 + 2 * n]
    xs, ps, gs = (np.ascontiguousarray(states[:, a:a + n]) for a in (1, 1 + n, 2 + 2 * n))
    return (ts, xs, ps, np.sum(ps * ps, axis=1) / (2.0 * mu), np.abs(fs),
            np.abs(np.sum(gs * ps, axis=1)) / np.sqrt(np.sum(gs * gs, axis=1)))


def _csv_block(mu, width, states):
    """CSV rows of a block of flat states (an array('d') of whole rows of
    width floats), as Trajectory.to_csv formats the same rows of the whole
    trajectory."""
    return csv_rows(np.column_stack(_columns(np.frombuffer(states).reshape(-1, width), mu)))


def integrate(spec, initial, config, csv=None):
    """Integrate free constrained motion; returns the stored trajectory.

    The initial state must satisfy the constraint and tangency
    invariants.  Raises ProjectionFailureError when the multiplier solve
    stalls and StepTooLargeError when the constraint correction exceeds
    half the free drift (dt too large for the local curvature); both
    name the step, its start time and its start point.

    The step loop (_state_blocks) carries x, p and grad f as Python floats,
    one float run of the tape per Newton iterate, and appends each state's
    floats (t, x, p, f, grad f) to one flat array('d').  It yields each
    ROW_BLOCK of finished rows, and integrate drains these blocks.  Given
    csv, an open text handle, it writes the trajectory CSV there, the text
    Trajectory.to_csv makes: the header, then the CSV rows (energy and
    residuals included) of each block, formatted through
    reports.ordered_map on the other CPUs while the loop goes on and
    written as they come, so that no text of the whole CSV is held.  The
    columns are made once from the whole table, row by row as for a block,
    so the bytes do not depend on the CPU count.
    """
    mu, dt, tol = config.mass, config.dt, config.constraint_tol
    x = [float(v) for v in initial.x]
    p = [float(v) for v in initial.p]
    f, g = _f_and_grad(spec.tape, x)
    if not abs(f) <= max(tol, 1e-9):
        raise IntegratorInputError("initial position violates the constraint")
    if not abs(_dot(g, p)) <= 1e-9 * math.hypot(*g) * max(1.0, math.hypot(*p)):
        raise IntegratorInputError("initial momentum is not tangent")

    t, width = float(initial.t), 2 + 3 * len(x)
    states = array("d", [t, *x, *p, f, *g])
    blocks = _state_blocks(spec.tape, x, p, g, t, config, states)
    if csv is None:
        collections.deque(blocks, maxlen=0)
    else:
        csv.write(",".join(_csv_header(len(x))) + "\n")
        csv.writelines(ordered_map(functools.partial(_csv_block, mu, width), blocks))
    return Trajectory(*_columns(np.frombuffer(states).reshape(-1, width), mu), mass=mu, dt=dt)


def _state_blocks(tape, x, p, g, t, config, states):
    """The step loop from the state x, p, grad f = g at time t, whose row
    states holds: appends each new state's row to states and yields each
    ROW_BLOCK of rows (array('d') copies) once the last of them is made."""
    mu, dt, tol = config.mass, config.dt, config.constraint_tol
    start, rows = 0, 1
    for k in range(1, config.steps + 1):
        try:
            x, p, f, g = _rattle_step(tape, x, p, g, dt, mu, tol)
        except (ProjectionFailureError, StepTooLargeError) as error:
            raise type(error)(f"step {k} from t = {t!r}, x = {x}: {error}") from None
        t += dt
        states.fromlist([t, *x, *p, f, *g])
        rows += 1
        if rows == ROW_BLOCK:
            yield states[start:]
            start, rows = len(states), 0
    if rows:
        yield states[start:]


def _f_and_grad(tape, x):
    """f and grad f at the float point x: one float run of the tape and its
    adjoint sweep.  Where Python float arithmetic raises (a division by zero)
    and an array run gives inf or NaN, both are NaN."""
    try:
        values = tape.run(x, ex.float_call)
        return values[tape.out], tape.gradient(values, ex.float_call)
    except ArithmeticError:
        return math.nan, [math.nan] * tape.nvars


def _dot(a, b):
    return sum(map(operator.mul, a, b))


def _rattle_step(tape, x, p, g0, dt, mu, tol):
    """One step from x, p with g0 = grad f(x), all float lists.

    Returns x_new, p_new and f, grad f at x_new, all from the Newton
    iterate that meets the constraint, so the caller stores them and
    hands the gradient to the next step.
    """
    lam = 0.0
    drift = [xi + dt * pi / mu for xi, pi in zip(x, p)]
    x_new = drift
    for _ in range(MAX_NEWTON):
        f, g1 = _f_and_grad(tape, x_new)
        if abs(f) < tol:
            break
        slope = _dot(g1, g0) * (-dt / mu)
        if slope == 0.0:
            raise ProjectionFailureError("degenerate constraint direction")
        lam -= f / slope
        x_new = [xi + dt * (pi - lam * gi) / mu for xi, pi, gi in zip(x, p, g0)]
    else:
        raise ProjectionFailureError(f"constraint solve stalled after {MAX_NEWTON} "
                                     f"iterations at |f| = {abs(f):.3e}")
    free = dt * math.hypot(*p) / mu
    correction = math.dist(x_new, drift)
    if free > 0 and correction > 0.5 * free:
        raise StepTooLargeError(
            f"projection moved the point {correction:.3e}, more than half "
            f"the free drift {free:.3e}"
        )
    norm = math.hypot(*g1)
    if not norm > 0.0:
        raise ProjectionFailureError(f"grad f = {g1} at the new point has no direction")
    p_half = [pi - lam * gi for pi, gi in zip(p, g0)]
    n1 = [gi / norm for gi in g1]
    along = _dot(n1, p_half)
    return x_new, [pi - ni * along for pi, ni in zip(p_half, n1)], f, g1


@dataclass(frozen=True)
class ResidualSeries:
    values: np.ndarray  # per interior step
    max: float
    rms: float
    extra: np.ndarray | None = None  # per-step curvature for the geodesic form


def _interior_tables(spec, traj):
    """Signed-distance n and dn at the interior states, kept on traj for
    both residuals."""
    if traj._tables[0] is not spec:
        traj._tables = (spec, *geo._tables_batch(
            spec, traj.xs[1:-1].T, ExtensionPolicy.SIGNED_DISTANCE, 1)[:2])
    return traj._tables[1:]


def force_residual(spec, traj):
    """dp/dt + n (p . grad n . p) / mu along the trajectory, mu = traj.mass.

    Central-difference dp/dt at interior steps against the constrained
    force law; returns max and RMS norms of the vector residuals.
    """
    if len(traj.ts) < 3:
        raise TooFewStepsError("need at least 3 states for central differences")
    mu, dt = traj.mass, traj.dt
    dpdt = (traj.ps[2:] - traj.ps[:-2]) / (2.0 * dt)
    n, dn = _interior_tables(spec, traj)
    p_mid = traj.ps[1:-1]
    quad = np.einsum("ki,ijk,kj->k", p_mid, dn, p_mid)  # p . grad n . p per step
    residual = dpdt + (n * quad).T / mu
    norms = np.linalg.norm(residual, axis=1)
    return ResidualSeries(values=norms, max=float(norms.max()),
                          rms=float(np.sqrt(np.mean(norms ** 2))))


def geodesic_form_residual(spec, traj):
    """|dv/dt + n v^2 kappa_n| with kappa_n the normal curvature along v
    and v = p / traj.mass.

    The local curvature 1/R is computed as vhat . grad n . vhat; its
    sign is recorded in `extra` rather than assumed.
    """
    if len(traj.ts) < 3:
        raise TooFewStepsError("need at least 3 states for central differences")
    dt = traj.dt
    vs = traj.ps / traj.mass
    speed = np.linalg.norm(vs[1:-1], axis=1)
    if np.any(speed < 1e-300):
        raise ZeroVelocityError("zero velocity along trajectory")
    dvdt = (vs[2:] - vs[:-2]) / (2.0 * dt)
    n, dn = _interior_tables(spec, traj)
    vhat = vs[1:-1] / speed[:, None]
    kappa_n = np.einsum("ki,ijk,kj->k", vhat, dn, vhat)
    residual = dvdt + (n * (speed ** 2 * kappa_n)).T
    norms = np.linalg.norm(residual, axis=1)
    return ResidualSeries(values=norms, max=float(norms.max()),
                          rms=float(np.sqrt(np.mean(norms ** 2))),
                          extra=kappa_n)
