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
import math
import operator
from array import array
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import expr as ex
from . import geometry as geo
from .geometry import ExtensionPolicy
from .reports import csv_rows, csv_text, ordered_map

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
    _norms: tuple = field(default=(None,), init=False, repr=False, compare=False)

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
    ts, fs = states[:, 0], states[:, 1 + 2 * n]
    xs, ps, gs = (states[:, a:a + n] for a in (1, 1 + n, 2 + 2 * n))
    return (ts, xs, ps, np.sum(ps * ps, axis=1) / (2.0 * mu), np.abs(fs),
            np.abs(np.sum(gs * ps, axis=1)) / np.sqrt(np.sum(gs * gs, axis=1)))


def integrate(spec, initial, config, csv=None):
    """Integrate free constrained motion; returns the stored trajectory.

    The initial state must satisfy the constraint and tangency
    invariants.  Raises ProjectionFailureError when the multiplier solve
    stalls and StepTooLargeError when the constraint correction exceeds
    half the free drift (dt too large for the local curvature); both
    name the step, its start time and its start point.

    The step loop (_state_blocks) carries x, p and grad f as Python floats,
    one float run of the tape per Newton iterate, and yields the states'
    floats (t, x, p, f, grad f) in blocks of geometry.BLOCK rows, each a
    fresh array('d').  The six Trajectory columns are made empty for all
    steps + 1 rows first, and each block's rows are filled from _columns of
    that block as it passes on, so no table of all the states is ever held.
    Given csv, an open text handle, integrate writes the trajectory CSV
    there, the text Trajectory.to_csv makes: the header, then csv_rows of
    each block's rows of the columns, formatted through reports.ordered_map
    on the other CPUs while the loop goes on.  After the loop hands over
    each block, the texts that are done are written, and a block made while
    reports.IN_FLIGHT blocks per worker wait first waits for the oldest:
    the parent holds a window of block texts, never the whole CSV.  Every
    column value depends on its row only, so the columns and the CSV bytes
    are those of the whole table and do not depend on the CPU count.
    """
    mu, dt, tol = config.mass, config.dt, config.constraint_tol
    x = [float(v) for v in initial.x]
    p = [float(v) for v in initial.p]
    f, g = _f_and_grad(spec.tape, x)
    if not abs(f) <= max(tol, 1e-9):
        raise IntegratorInputError("initial position violates the constraint")
    if not abs(_dot(g, p)) <= 1e-9 * math.hypot(*g) * max(1.0, math.hypot(*p)):
        raise IntegratorInputError("initial momentum is not tangent")

    n, rows = len(x), config.steps + 1
    columns = tuple(map(np.empty, (rows, (rows, n), (rows, n), rows, rows, rows)))
    blocks = _filling(columns, mu, 2 + 3 * n,
                      _state_blocks(spec.tape, x, p, f, g, float(initial.t), config))
    if csv is None:
        collections.deque(blocks, maxlen=0)
    else:
        csv.write(",".join(_csv_header(n)) + "\n")
        csv.writelines(ordered_map(csv_rows, map(np.column_stack, blocks)))
    return Trajectory(*columns, mass=mu, dt=dt)


def _filling(columns, mu, width, blocks):
    """For each block of flat states, its rows of the Trajectory columns,
    yielded once they are filled from it.  The block and the values made
    from it are dropped first, so that they are gone before the next block
    is made."""
    start = 0
    for block in blocks:
        stop = start + len(block) // width
        for column, value in zip(columns, _columns(np.frombuffer(block).reshape(-1, width), mu)):
            column[start:stop] = value
        del block, value
        yield tuple(column[start:stop] for column in columns)
        start = stop


def _state_blocks(tape, x, p, f, g, t, config):
    """The step loop from the state x, p (f and grad f = g there) at time t:
    yields that state's row and the rows of the new states in blocks of
    geometry.BLOCK rows, each a fresh array('d') passed on once its last row
    is made."""
    mu, dt, tol = config.mass, config.dt, config.constraint_tol
    block = array("d", [t, *x, *p, f, *g])
    rows = 1
    for k in range(1, config.steps + 1):
        try:
            x, p, f, g = _rattle_step(tape, x, p, g, dt, mu, tol)
        except (ProjectionFailureError, StepTooLargeError) as error:
            raise type(error)(f"step {k} from t = {t!r}, x = {x}: {error}") from None
        t += dt
        block.fromlist([t, *x, *p, f, *g])
        rows += 1
        if rows == geo.BLOCK:
            yield block
            block, rows = array("d"), 0
    if rows:
        yield block


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


def _residual_norms(spec, traj):
    """(force norms, geodesic norms, kappa_n, stopped) at the interior states,
    kept on traj for both residuals; stopped is whether any speed there is
    below 1e-300.

    One pass over the interior states, one geometry.BLOCK at a time: each
    block's signed-distance n and dn come from one _tables_batch call and
    serve both series, and only the per-step results are kept.  Every value
    depends on its row only, so the series are bitwise those of the whole
    table at once.
    """
    if traj._norms[0] is spec:
        return traj._norms[1:]
    mu, dt, ps = traj.mass, traj.dt, traj.ps
    count = len(traj.ts) - 2
    force, geodesic, kappa_n = (np.empty(count) for _ in range(3))
    stopped = False
    for start in range(0, count, geo.BLOCK):
        rows = slice(start, min(start + geo.BLOCK, count))
        mid = slice(rows.start + 1, rows.stop + 1)
        n, dn = geo._tables_batch(spec, traj.xs[mid].T, ExtensionPolicy.SIGNED_DISTANCE, 1)[:2]
        # the force law on p
        dpdt = (ps[rows.start + 2:rows.stop + 2] - ps[rows]) / (2.0 * dt)
        p_mid = ps[mid]
        quad = np.einsum("ki,ijk,kj->k", p_mid, dn, p_mid)  # p . grad n . p per step
        force[rows] = np.linalg.norm(dpdt + (n * quad).T / mu, axis=1)
        # the geodesic form on v = p / mu
        vs = ps[rows.start:rows.stop + 2] / mu
        speed = np.linalg.norm(vs[1:-1], axis=1)
        stopped = stopped or bool(np.any(speed < 1e-300))
        dvdt = (vs[2:] - vs[:-2]) / (2.0 * dt)
        with np.errstate(divide="ignore", invalid="ignore"):  # a resting particle
            vhat = vs[1:-1] / speed[:, None]
        kappa_n[rows] = np.einsum("ki,ijk,kj->k", vhat, dn, vhat)
        geodesic[rows] = np.linalg.norm(dvdt + (n * (speed ** 2 * kappa_n[rows])).T, axis=1)
    traj._norms = (spec, force, geodesic, kappa_n, stopped)
    return traj._norms[1:]


def force_residual(spec, traj):
    """dp/dt + n (p . grad n . p) / mu along the trajectory, mu = traj.mass.

    Central-difference dp/dt at interior steps against the constrained
    force law; returns max and RMS norms of the vector residuals.  The
    first of this and geodesic_form_residual on traj makes both series in
    one pass, one geometry.BLOCK of interior states at a time, and keeps
    only their per-step norms on traj for the other.
    """
    if len(traj.ts) < 3:
        raise TooFewStepsError("need at least 3 states for central differences")
    norms = _residual_norms(spec, traj)[0]
    return ResidualSeries(values=norms, max=float(norms.max()),
                          rms=float(np.sqrt(np.mean(norms ** 2))))


def geodesic_form_residual(spec, traj):
    """|dv/dt + n v^2 kappa_n| with kappa_n the normal curvature along v
    and v = p / traj.mass.

    The local curvature 1/R is computed as vhat . grad n . vhat; its
    sign is recorded in `extra` rather than assumed.  The series comes from
    the one pass over the interior states that force_residual shares; a
    speed below 1e-300 at an interior state raises ZeroVelocityError here
    only.
    """
    if len(traj.ts) < 3:
        raise TooFewStepsError("need at least 3 states for central differences")
    _, norms, kappa_n, stopped = _residual_norms(spec, traj)
    if stopped:
        raise ZeroVelocityError("zero velocity along trajectory")
    return ResidualSeries(values=norms, max=float(norms.max()),
                          rms=float(np.sqrt(np.mean(norms ** 2))),
                          extra=kappa_n)
