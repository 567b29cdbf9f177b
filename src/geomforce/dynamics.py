"""Constrained classical motion on f = 0 and force-law residuals.

The integrator is a symmetric constraint-projection velocity-Verlet:
the free drift carries a momentum kick along grad f(x_n) whose
multiplier is solved so the new position lands on the surface, then the
momentum is projected to the tangent plane at the new point in closed
form.  For free motion on the constraint this keeps the kinetic energy
drift bounded at O(dt^2) with no secular loss.  Each integrate call
generates the step as straight-line source from the surface's tape
(_step_source).
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import expr as ex
from . import geometry as geo
from .geometry import ExtensionPolicy
from .reports import csv_rows, ordered_map

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

    def csv_chunks(self):
        """The trajectory CSV in chunks: the header, then csv_rows of each
        geometry.BLOCK rows of the columns, formatted on every CPU
        (reports.ordered_map).  The workers slice the columns they inherit,
        so only block starts and texts are pickled."""
        columns = (self.ts, self.xs, self.ps, self.energy, self.f_residual,
                   self.tangency_residual)
        yield ",".join(_csv_header(self.xs.shape[1])) + "\n"
        yield from ordered_map(
            lambda start: csv_rows(np.column_stack([c[start:start + geo.BLOCK] for c in columns])),
            range(0, len(self.ts), geo.BLOCK))

    def to_csv(self):
        """The trajectory CSV as one text, the joined csv_chunks."""
        return "".join(self.csv_chunks())


def _columns(states, mu):
    """The Trajectory columns (ts, xs, ps, energy, f_residual,
    tangency_residual) of a (K, 2 + 3N) table of states, one row
    (t, x, p, f, grad f) each; each row's values depend on that row only."""
    n = (states.shape[1] - 2) // 3
    ts, fs = states[:, 0], states[:, 1 + 2 * n]
    xs, ps, gs = (states[:, a:a + n] for a in (1, 1 + n, 2 + 2 * n))
    return (ts, xs, ps, np.sum(ps * ps, axis=1) / (2.0 * mu), np.abs(fs),
            np.abs(np.sum(gs * ps, axis=1)) / np.sqrt(np.sum(gs * gs, axis=1)))


def integrate(spec, initial, config):
    """Integrate free constrained motion; returns the stored trajectory.

    The initial state must satisfy the constraint and tangency
    invariants.  Raises ProjectionFailureError when the multiplier solve
    stalls and StepTooLargeError when the constraint correction exceeds
    half the free drift (dt too large for the local curvature); both
    name the step, its start time and its start point.

    The step loop (_state_blocks) runs the step program made for this call
    (_step_program), which carries x, p and grad f as Python floats, and
    yields the states' floats (t, x, p, f, grad f) in blocks of
    geometry.BLOCK rows, each a fresh array('d').  The six Trajectory
    columns are made empty for all steps + 1 rows first, and each block's
    rows are filled from _columns of that block as it passes on, so no table
    of all the states is ever held.  Every column value depends on its row
    only, so the columns are those of the whole table.  The loop runs to its
    end before anything else: `classical --trajectory` then writes
    Trajectory.csv_chunks, and only then runs the residuals.
    """
    mu, dt, tol = config.mass, config.dt, config.constraint_tol
    x = [float(v) for v in initial.x]
    p = [float(v) for v in initial.p]
    n, rows = len(x), config.steps + 1
    try:
        f, g = spec.tape.value_and_gradient(x, ex.float_call)
    except ArithmeticError:  # a float division by zero: f is NaN there
        f, g = math.nan, [math.nan] * n
    if not abs(f) <= max(tol, 1e-9):
        raise IntegratorInputError("initial position violates the constraint")
    if not abs(sum(map(operator.mul, g, p))) <= 1e-9 * math.hypot(*g) * max(1.0, math.hypot(*p)):
        raise IntegratorInputError("initial momentum is not tangent")

    columns = tuple(map(np.empty, (rows, (rows, n), (rows, n), rows, rows, rows)))
    width, start = 2 + 3 * n, 0
    for block in _state_blocks(_step_program(spec.tape, config),
                               (float(initial.t), *x, *p, f, *g), config.steps):
        stop = start + len(block) // width
        for column, value in zip(columns, _columns(np.frombuffer(block).reshape(-1, width), mu)):
            column[start:stop] = value
        del block, value  # gone before the next block is made
        start = stop
    return Trajectory(*columns, mass=mu, dt=dt)


def _state_blocks(step, state, steps):
    """The step loop by the step program from the state row (t, x, p, f,
    grad f): yields that row and the rows of the next `steps` states in
    blocks of geometry.BLOCK rows, each a fresh array('d') passed on once its
    last row is made."""
    n = (len(state) - 2) // 3
    block = array("d", state)
    rows = 1
    for k in range(1, steps + 1):
        try:
            state = _rattle_step(step, state)
        except (ProjectionFailureError, StepTooLargeError) as error:
            raise type(error)(f"step {k} from t = {state[0]!r}, "
                              f"x = {list(state[1:n + 1])}: {error}") from None
        block.extend(state)
        rows += 1
        if rows == geo.BLOCK:
            yield block
            block, rows = array("d"), 0
    if rows:
        yield block


def _rattle_step(step, state):
    """The state row after `state` by the step program: the loop's one call
    per step."""
    return step(state)


def _step_program(tape, config):
    """The RATTLE step of tape's surface with config's dt, mass and
    constraint_tol, as a function from a state row (t, x, p, f, grad f), all
    floats, to the next (see _step_source)."""
    namespace = {"MAX_NEWTON": MAX_NEWTON, "ProjectionFailureError": ProjectionFailureError,
                 "StepTooLargeError": StepTooLargeError, "hypot": math.hypot,
                 "dist": math.dist, "nan": math.nan, **ex.FLOAT_FUNCTIONS}
    exec(compile(_step_source(tape), "<rattle step>", "exec"), namespace)
    return namespace["program"](tape.constants, config.dt, config.mass, config.constraint_tol)


def _step_source(tape):
    """The source of the RATTLE step (Hairer, Lubich & Wanner, Geometric
    Numerical Integration, 2nd ed., sec. VII.1) for one tape: straight-line
    code over the dimension n, with the tape's run and adjoint sweep
    (expr.straight_line, each function applied by its FLOAT_FUNCTIONS name)
    inlined in the Newton loop, so an iterate calls nothing but the
    functions.  The text holds only slot numbers, operator symbols,
    FUNCTIONS names and n; the constants, dt, mu and tol are bound when the
    step is made.

    The free drift d = x + dt p / mu carries a kick along g = grad f(x)
    whose multiplier lam is solved by Newton iterates, so the new point
    v (the tape's coordinate locals) lands on the surface, where f and
    e = grad f are taken.  Where the float run raises ArithmeticError (a
    division by zero, where an array run gives inf or NaN), f and every
    entry of e are NaN.  Then the momentum p - lam g is projected to the
    tangent plane at v along m = e / |e|.  A dot product is the sum
    0 + a0*b0 + a1*b1 + ..., in that order, and each step, error and message
    is the list-based step's of earlier versions, bit for bit.
    """
    n = tape.nvars
    constants, forward, sweep, value, gradient = ex.straight_line(
        tape, lambda name, argument: f"{name}({argument})")

    def axes(template):  # the template's text for each coordinate i
        return [template.format(i=i) for i in range(n)]

    def vector(name):
        return ", ".join(axes(name + "{i}"))

    def dot(a, b):
        return " + ".join(["0", *axes(f"{a}{{i}} * {b}{{i}}")])

    body = [
        f"t, {vector('x')}, {vector('p')}, _, {vector('g')} = state",
        *axes("d{i} = x{i} + dt * p{i} / mu"),
        f"{vector('v')} = {vector('d')}",
        "lam = 0.0",
        "for _ in range(MAX_NEWTON):",
        "    try:",
        *(f"        {line}" for line in forward + sweep),
        f"        f, {vector('e')} = {value}, {', '.join(gradient)}",
        "    except ArithmeticError:",
        f"        f = {' = '.join(axes('e{i}'))} = nan",
        "    if abs(f) < tol:",
        "        break",
        f"    slope = ({dot('e', 'g')}) * (-dt / mu)",
        "    if slope == 0.0:",
        "        raise ProjectionFailureError('degenerate constraint direction')",
        "    lam -= f / slope",
        *(f"    {line}" for line in axes("v{i} = x{i} + dt * (p{i} - lam * g{i}) / mu")),
        "else:",
        "    raise ProjectionFailureError(f'constraint solve stalled after {MAX_NEWTON} '",
        "                                 f'iterations at |f| = {abs(f):.3e}')",
        f"free = dt * hypot({vector('p')}) / mu",
        f"correction = dist(({vector('v')}), ({vector('d')}))",
        "if free > 0 and correction > 0.5 * free:",
        "    raise StepTooLargeError(f'projection moved the point {correction:.3e}, more than '",
        "                            f'half the free drift {free:.3e}')",
        f"norm = hypot({vector('e')})",
        "if not norm > 0.0:",
        f"    raise ProjectionFailureError(f'grad f = {{[{vector('e')}]}} at the new point '",
        "                                 'has no direction')",
        *axes("q{i} = p{i} - lam * g{i}"),
        *axes("m{i} = e{i} / norm"),
        f"along = {dot('m', 'q')}",
        f"return t + dt, {vector('v')}, {', '.join(axes('q{i} - m{i} * along'))}, f, {vector('e')}",
    ]
    return "\n".join([
        "def program(constants, dt, mu, tol):",
        *(f"    {line}" for line in constants),
        "    def step(state):",
        *(f"        {line}" for line in body),
        "    return step",
    ])


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
