import io
import json
import os
import re
import tracemalloc

import numpy as np
import pytest

from geomforce import dynamics as dyn
from geomforce import expr as ex
from geomforce import geometry as geo
from geomforce.cli import main
from geomforce.surfaces import builtin_surface, from_expression


def _circle_run(dt, steps):
    spec = builtin_surface("circle", {"a": 1.0})
    init = dyn.TrajectoryState(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.0)
    return spec, dyn.integrate(spec, init, dyn.IntegratorConfig(dt=dt, steps=steps))


def test_circle_uniform_rotation_conserves_energy():
    _, traj = _circle_run(1e-3, 10_000)
    assert np.abs(traj.energy - traj.energy[0]).max() < 1e-10
    assert traj.f_residual.max() < 1e-12
    assert traj.tangency_residual.max() < 1e-12


def test_sphere_great_circle_stays_planar():
    spec = builtin_surface("sphere", {"a": 1.0})
    init = dyn.TrajectoryState(np.array([1.0, 0.0, 0.0]),
                               np.array([0.0, 1.0, 0.0]), 0.0)
    traj = dyn.integrate(spec, init, dyn.IntegratorConfig(dt=1e-3, steps=5000))
    assert np.abs(traj.xs[:, 2]).max() < 1e-8
    assert traj.f_residual.max() < 1e-12


def test_torus_constraint_maintained():
    spec = builtin_surface("torus", {"R": 2.0, "r": 1.0})
    init = dyn.TrajectoryState(np.array([3.0, 0.0, 0.0]),
                               np.array([0.0, 0.0, -1.0]), 0.0)
    traj = dyn.integrate(spec, init, dyn.IntegratorConfig(dt=1e-3, steps=5000))
    assert traj.f_residual.max() < 1e-10


def test_force_residual_on_circle_is_tiny():
    spec, traj = _circle_run(1e-3, 2000)
    series = dyn.force_residual(spec, traj)
    assert series.max < 1e-11


def test_force_residual_second_order_convergence_on_skew_torus():
    spec = builtin_surface("torus", {"R": 2.0, "r": 1.0})
    init = dyn.TrajectoryState(np.array([3.0, 0.0, 0.0]),
                               np.array([0.0, 0.6, -0.8]), 0.0)
    maxima = []
    for dt in (4e-4, 2e-4, 1e-4):
        traj = dyn.integrate(spec, init, dyn.IntegratorConfig(dt=dt,
                                                              steps=int(0.4 / dt)))
        maxima.append(dyn.force_residual(spec, traj).max)
    orders = [np.log2(maxima[i] / maxima[i + 1]) for i in range(2)]
    assert min(orders) > 1.9
    assert maxima[-1] < 1e-6


def test_static_particle_residual_zero():
    spec = builtin_surface("circle", {"a": 1.0})
    init = dyn.TrajectoryState(np.array([1.0, 0.0]), np.array([0.0, 0.0]), 0.0)
    traj = dyn.integrate(spec, init, dyn.IntegratorConfig(dt=1e-3, steps=10))
    series = dyn.force_residual(spec, traj)
    assert series.max == pytest.approx(0.0, abs=1e-15)


def test_geodesic_curvature_recorded_on_circle():
    spec, traj = _circle_run(1e-3, 100)
    series = dyn.geodesic_form_residual(spec, traj)
    assert series.extra == pytest.approx(np.ones(len(traj.ts) - 2), abs=1e-10)
    assert series.max < 1e-11


def test_geodesic_curvature_on_sphere_great_circle():
    spec = builtin_surface("sphere", {"a": 2.0})
    init = dyn.TrajectoryState(np.array([2.0, 0.0, 0.0]),
                               np.array([0.0, 1.0, 0.0]), 0.0)
    traj = dyn.integrate(spec, init, dyn.IntegratorConfig(dt=1e-3, steps=200))
    series = dyn.geodesic_form_residual(spec, traj)
    assert series.extra == pytest.approx(np.full(len(traj.ts) - 2, 0.5), abs=1e-9)


def test_straight_line_on_plane():
    spec = builtin_surface("plane", {})
    init = dyn.TrajectoryState(np.array([0.0, 0.0, 0.0]),
                               np.array([1.0, 0.5, 0.0]), 0.0)
    traj = dyn.integrate(spec, init, dyn.IntegratorConfig(dt=1e-2, steps=100))
    series = dyn.geodesic_form_residual(spec, traj)
    assert series.extra == pytest.approx(np.zeros(len(traj.ts) - 2), abs=1e-14)
    assert series.max == pytest.approx(0.0, abs=1e-12)


def test_both_force_forms_agree_along_trajectories():
    spec = builtin_surface("torus", {"R": 2.0, "r": 1.0})
    init = dyn.TrajectoryState(np.array([3.0, 0.0, 0.0]),
                               np.array([0.0, 0.6, -0.8]), 0.0)
    traj = dyn.integrate(spec, init, dyn.IntegratorConfig(dt=2e-4,
                                                          steps=2000))
    eq1 = dyn.force_residual(spec, traj)
    eq2 = dyn.geodesic_form_residual(spec, traj)
    # same statement in two dressings (unit mass): residuals must agree
    assert eq1.max == pytest.approx(eq2.max, rel=1e-9)


def test_classical_makes_one_normal_table_pass(monkeypatch):
    # force_residual and geodesic_form_residual share the interior tables
    calls = []
    tables = geo._tables_batch

    def counted(*args, **kwargs):
        calls.append(args)
        return tables(*args, **kwargs)

    monkeypatch.setattr(geo, "_tables_batch", counted)
    assert main(["classical", "--surface", "torus", "--R", "2", "--r", "1", "--x0", "3,0,0",
                 "--p0", "0,0.6,0.8", "--steps", "300"]) == 0
    assert len(calls) == 1


def _whole_table_residuals(spec, traj):
    # both residual series as earlier versions made them, from the normal
    # tables of all interior states at once: the reference of the block pass
    mu, dt = traj.mass, traj.dt
    n, dn = geo._tables_batch(spec, traj.xs[1:-1].T, geo.ExtensionPolicy.SIGNED_DISTANCE, 1)[:2]
    dpdt = (traj.ps[2:] - traj.ps[:-2]) / (2.0 * dt)
    p_mid = traj.ps[1:-1]
    quad = np.einsum("ki,ijk,kj->k", p_mid, dn, p_mid)
    force = np.linalg.norm(dpdt + (n * quad).T / mu, axis=1)
    vs = traj.ps / mu
    speed = np.linalg.norm(vs[1:-1], axis=1)
    dvdt = (vs[2:] - vs[:-2]) / (2.0 * dt)
    vhat = vs[1:-1] / speed[:, None]
    kappa_n = np.einsum("ki,ijk,kj->k", vhat, dn, vhat)
    geodesic = np.linalg.norm(dvdt + (n * (speed ** 2 * kappa_n)).T, axis=1)
    return force, geodesic, kappa_n


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


@pytest.mark.parametrize("name,params,x0,p0", [
    ("torus", {"R": 2.0, "r": 1.0}, [3.0, 0.0, 0.0], [0.0, 0.6, 0.8]),
    ("circle", {"a": 1.3}, [1.3, 0.0], [0.0, 0.7]),
])
@pytest.mark.parametrize("extra_rows", [1, geo.BLOCK // 2])
def test_block_residuals_are_the_whole_table_formula(name, params, x0, p0, extra_rows):
    # 3 full blocks of interior states and a last one of 1 row or of half a block
    spec = builtin_surface(name, params)
    steps = 3 * geo.BLOCK + extra_rows + 1
    traj = dyn.integrate(spec, dyn.TrajectoryState(np.array(x0), np.array(p0), 0.0),
                         dyn.IntegratorConfig(dt=1e-3, steps=steps, mass=0.7))
    force, geodesic, kappa_n = _whole_table_residuals(spec, traj)
    eq2 = dyn.geodesic_form_residual(spec, traj)  # either order makes the one pass
    eq1 = dyn.force_residual(spec, traj)
    for series, norms in ((eq1, force), (eq2, geodesic)):
        assert len(series.values) == steps - 1
        assert _bits(series.values) == _bits(norms)
        assert _bits([series.max, series.rms]) == _bits([norms.max(),
                                                         np.sqrt(np.mean(norms ** 2))])
    assert eq1.extra is None and _bits(eq2.extra) == _bits(kappa_n)


def test_residuals_make_one_tables_call_per_block(monkeypatch):
    calls = []
    tables = geo._tables_batch

    def counted(spec, points, policy, order):
        calls.append(points.shape[1])
        return tables(spec, points, policy, order)

    monkeypatch.setattr(geo, "_tables_batch", counted)
    steps = 2 * geo.BLOCK + 300
    spec, traj = _torus_run(steps)
    dyn.force_residual(spec, traj)
    dyn.geodesic_form_residual(spec, traj)
    dyn.force_residual(spec, traj)
    assert calls == [geo.BLOCK, geo.BLOCK, 299]
    assert len(calls) == -(-(steps - 1) // geo.BLOCK)


def test_residuals_hold_one_block_of_tables():
    # the two series keep K floats each past the pass; the tables of all
    # 29,999 interior states at once peaked at 10.1e6 bytes here
    tracemalloc.start()
    try:
        spec, traj = _torus_run(30_000)
        tracemalloc.reset_peak()
        dyn.force_residual(spec, traj)
        dyn.geodesic_form_residual(spec, traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


def test_zero_velocity_rejected_by_geodesic_form():
    spec = builtin_surface("circle", {"a": 1.0})
    init = dyn.TrajectoryState(np.array([1.0, 0.0]), np.array([0.0, 0.0]), 0.0)
    traj = dyn.integrate(spec, init, dyn.IntegratorConfig(dt=1e-3, steps=10))
    with pytest.raises(dyn.ZeroVelocityError):
        dyn.geodesic_form_residual(spec, traj)
    # the pass both residuals share leaves the force law to a resting particle
    assert dyn.force_residual(spec, traj).max == 0.0
    with pytest.raises(dyn.ZeroVelocityError):
        dyn.geodesic_form_residual(spec, traj)


def test_too_few_steps_rejected():
    spec, traj = _circle_run(1e-3, 1)
    with pytest.raises(dyn.TooFewStepsError):
        dyn.force_residual(spec, traj)


def test_invalid_initial_conditions_rejected():
    spec = builtin_surface("circle", {"a": 1.0})
    with pytest.raises(ValueError, match="constraint"):
        dyn.integrate(spec, dyn.TrajectoryState(np.array([1.5, 0.0]),
                                                np.array([0.0, 1.0]), 0.0),
                      dyn.IntegratorConfig(dt=1e-3, steps=5))
    with pytest.raises(ValueError, match="tangent"):
        dyn.integrate(spec, dyn.TrajectoryState(np.array([1.0, 0.0]),
                                                np.array([1.0, 0.0]), 0.0),
                      dyn.IntegratorConfig(dt=1e-3, steps=5))


def test_step_too_large_detected():
    spec = builtin_surface("circle", {"a": 1.0})
    init = dyn.TrajectoryState(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.0)
    with pytest.raises((dyn.StepTooLargeError, dyn.ProjectionFailureError)):
        dyn.integrate(spec, init, dyn.IntegratorConfig(dt=1.9, steps=3))


def test_vanishing_gradient_at_the_new_point_is_a_projection_failure():
    # f = x^2 + y^2 is zero only at the origin, where grad f = 0: a resting
    # particle meets the constraint at once but the normal has no direction
    spec = from_expression("x^2 + y^2", 2)
    init = dyn.TrajectoryState(np.array([0.0, 0.0]), np.array([0.0, 0.0]), 0.0)
    with pytest.raises(dyn.ProjectionFailureError, match=r"^step 1 .* has no direction"):
        dyn.integrate(spec, init, dyn.IntegratorConfig(dt=1e-3, steps=3))


def test_config_validation():
    with pytest.raises(ValueError):
        dyn.IntegratorConfig(dt=-1.0, steps=5)
    with pytest.raises(ValueError):
        dyn.IntegratorConfig(dt=1e-3, steps=0)


def test_energy_convergence_order_under_dt_halving():
    spec = builtin_surface("torus", {"R": 2.0, "r": 1.0})
    init = dyn.TrajectoryState(np.array([3.0, 0.0, 0.0]),
                               np.array([0.0, 0.6, -0.8]), 0.0)
    drifts = []
    for dt in (2e-3, 1e-3, 5e-4):
        traj = dyn.integrate(spec, init,
                             dyn.IntegratorConfig(dt=dt, steps=int(1.0 / dt)))
        drifts.append(np.abs(traj.energy - traj.energy[0]).max())
    orders = [np.log2(drifts[i] / drifts[i + 1]) for i in range(2)]
    assert min(orders) > 1.9


def test_trajectory_csv_schema():
    spec, traj = _circle_run(1e-3, 5)
    lines = traj.to_csv().splitlines()
    assert lines[0] == "t,x0,x1,p0,p1,energy,f_residual,tangency_residual"
    assert len(lines) == 7



def _torus_run(steps):
    spec = builtin_surface("torus", {"R": 2.0, "r": 1.0})
    init = dyn.TrajectoryState(np.array([3.0, 0.0, 0.0]),
                               np.array([0.0, 0.6, 0.8]), 0.0)
    return spec, dyn.integrate(spec, init, dyn.IntegratorConfig(dt=1e-3, steps=steps))


class _Writes(io.StringIO):
    """A text handle that keeps each text written to it."""

    def __init__(self):
        super().__init__()
        self.texts = []

    def write(self, text):
        self.texts.append(text)
        return super().write(text)


COLUMNS = ("ts", "xs", "ps", "energy", "f_residual", "tangency_residual")


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64).tolist()


@pytest.mark.parametrize("steps", [1, geo.BLOCK - 2, geo.BLOCK - 1, geo.BLOCK, 2 * geo.BLOCK + 7])
def test_streamed_rows_are_the_rows_of_the_whole_table(steps):
    # one block of 2 rows, of BLOCK - 1, one full block, a last block of 1 row, of 8
    spec = builtin_surface("torus", {"R": 2.0, "r": 1.0})
    init = dyn.TrajectoryState(np.array([3.0, 0.0, 0.0]), np.array([0.0, 0.6, 0.8]), 0.0)
    config = dyn.IntegratorConfig(dt=1e-3, steps=steps, mass=0.7)
    handle = _Writes()
    plain, streamed = (dyn.integrate(spec, init, config, csv=csv) for csv in (None, handle))
    # the header, then one text per block of states, each written as it is made
    assert len(handle.texts) == 1 + -(-(steps + 1) // geo.BLOCK)
    for name in COLUMNS:
        a, b = getattr(plain, name), getattr(streamed, name)
        assert a.flags.c_contiguous and _bits(a) == _bits(b)
    assert plain.xs.shape == (steps + 1, 3)
    assert handle.getvalue() == plain.to_csv()


@pytest.mark.parametrize("steps", [2, geo.BLOCK - 1, geo.BLOCK, 3 * geo.BLOCK + 5])
def test_trajectory_columns_are_those_of_the_whole_table(steps):
    # the columns are filled one block of states at a time, bitwise as
    # _columns makes them from the table of all the states at once
    spec = builtin_surface("torus", {"R": 2.0, "r": 1.0})
    init = dyn.TrajectoryState(np.array([3.0, 0.0, 0.0]), np.array([0.0, 0.6, 0.8]), 0.0)
    config = dyn.IntegratorConfig(dt=1e-3, steps=steps, mass=0.7)
    traj = dyn.integrate(spec, init, config)
    x, p = init.x.tolist(), init.p.tolist()
    f, g = dyn._f_and_grad(spec.tape, x)
    blocks = list(dyn._state_blocks(spec.tape, x, p, f, g, 0.0, config))
    assert [len(block) for block in blocks[:-1]] == [11 * geo.BLOCK] * (len(blocks) - 1)
    table = np.concatenate([np.frombuffer(block) for block in blocks]).reshape(steps + 1, 11)
    for name, whole in zip(COLUMNS, dyn._columns(table, config.mass), strict=True):
        column = getattr(traj, name)
        assert column.flags.c_contiguous and column.shape == whole.shape
        assert _bits(column) == _bits(whole)


def test_streamed_csv_makes_the_columns_once_per_block(monkeypatch):
    # on one CPU the CSV rows are formatted in this process, from the
    # columns _filling made: _columns runs once per block, not twice
    calls = []
    columns = dyn._columns

    def counted(states, mu):
        calls.append(len(states))
        return columns(states, mu)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(dyn, "_columns", counted)
    spec = builtin_surface("torus", {"R": 2.0, "r": 1.0})
    init = dyn.TrajectoryState(np.array([3.0, 0.0, 0.0]), np.array([0.0, 0.6, 0.8]), 0.0)
    config = dyn.IntegratorConfig(dt=1e-3, steps=2 * geo.BLOCK + 7)
    handle = _Writes()
    traj = dyn.integrate(spec, init, config, csv=handle)
    assert calls == [geo.BLOCK, geo.BLOCK, 8]
    assert handle.getvalue() == traj.to_csv()


def _integrate_peak(csv):
    # the tracemalloc peak of a 30,000-step torus run, the pool's modules
    # imported before tracing
    import concurrent.futures.process  # noqa: F401
    import multiprocessing.sharedctypes  # noqa: F401

    spec = builtin_surface("torus", {"R": 2.0, "r": 1.0})
    init = dyn.TrajectoryState(np.array([3.0, 0.0, 0.0]), np.array([0.0, 0.6, 0.8]), 0.0)
    tracemalloc.start()
    try:
        dyn.integrate(spec, init, dyn.IntegratorConfig(dt=1e-3, steps=30_000), csv=csv)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_integrate_holds_the_columns_and_one_block_of_states():
    # the columns (2.4e6 bytes) and a block of states, never a table of
    # all the states (2.6e6 bytes more)
    assert _integrate_peak(None) < 3.2e6


def test_streamed_csv_holds_a_window_of_block_texts():
    # each block's CSV text reaches the handle while the loop runs, so the
    # parent holds the columns and a few block texts, not all 5.9e6 bytes
    # of the CSV (3.6e6 bytes peak on 1 and 2 CPUs)
    with open(os.devnull, "w") as handle:
        assert _integrate_peak(handle) < 4.5e6


def test_rattle_runs_the_tape_once_per_adjoint_sweep(monkeypatch):
    # each Newton iterate evaluates f and grad f at one point in one pass,
    # and the converged iterate's values serve the record and the next step
    calls = {"run": 0, "gradient": 0}

    def counted(name):
        original = getattr(ex.Tape, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(ex.Tape, name, counted(name))
    _torus_run(200)
    assert calls["run"] == calls["gradient"] > 200


def test_stored_residuals_belong_to_the_stored_state():
    spec, traj = _torus_run(200)
    for x, p, f_res, tan_res in zip(traj.xs, traj.ps, traj.f_residual,
                                    traj.tangency_residual):
        f, g = spec.f_and_grad(x)
        assert f_res == abs(float(f))
        assert tan_res == abs(np.sum(g * p)) / np.sqrt(np.sum(g * g))


def _array_rattle(spec, x, p, dt, steps, mu=1.0, tol=1e-12):
    # The RATTLE step of earlier versions on numpy 3-vectors, kept as the
    # reference of the float step loop: same formulas, numpy dots and norms.
    _, g0 = spec.f_and_grad(x)
    xs, ps = [x], [p]
    for _ in range(steps):
        lam = 0.0
        x_new = x + dt * p / mu
        for _ in range(dyn.MAX_NEWTON):
            fv, g1 = spec.f_and_grad(x_new)
            if abs(fv) < tol:
                break
            lam -= fv / (float(g1 @ g0) * (-dt / mu))
            x_new = x + dt * (p - lam * g0) / mu
        else:
            raise AssertionError("reference step stalled")
        p_half = p - lam * g0
        n1 = g1 / np.linalg.norm(g1)
        x, p, g0 = x_new, p_half - n1 * float(n1 @ p_half), g1
        xs.append(x)
        ps.append(p)
    return np.array(xs), np.array(ps)


@pytest.mark.parametrize("name,params,x0,p0", [
    ("torus", {"R": 2.0, "r": 1.0}, [3.0, 0.0, 0.0], [0.0, 0.6, 0.8]),
    ("spheroid", {"a": 1.0, "b": 2.0}, [1.0, 0.0, 0.0], [0.0, 0.6, 0.8]),
])
def test_float_steps_follow_the_array_steps(name, params, x0, p0):
    # the float loop sums dots in order where numpy calls BLAS, so the two
    # trajectories part at roundoff only
    spec = builtin_surface(name, params)
    dt, steps = 1e-3, 2000
    xs, ps = _array_rattle(spec, np.array(x0), np.array(p0), dt, steps)
    traj = dyn.integrate(spec, dyn.TrajectoryState(np.array(x0), np.array(p0), 0.0),
                         dyn.IntegratorConfig(dt=dt, steps=steps))
    assert np.abs(traj.xs - xs).max() < 1e-12
    assert np.abs(traj.ps - ps).max() < 1e-12
    assert np.abs(traj.energy - traj.energy[0]).max() <= dt ** 2
    assert traj.f_residual.max() < 1e-12
    assert traj.tangency_residual.max() <= 1e-12


def test_integrator_failures_name_the_step_time_and_point(capsys):
    spec = builtin_surface("circle", {"a": 1.0})
    init = dyn.TrajectoryState(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.0)
    with pytest.raises(dyn.ProjectionFailureError) as stalled:
        dyn.integrate(spec, init, dyn.IntegratorConfig(dt=1.9, steps=3))
    assert re.fullmatch(r"step 1 from t = 0\.0, x = \[1\.0, 0\.0\]: constraint solve "
                        r"stalled after 50 iterations at \|f\| = \d\.\d{3}e[+-]\d\d",
                        str(stalled.value))
    with pytest.raises(dyn.StepTooLargeError, match=re.escape("step 1 from t = 0.0, x = [1.0, 0.0]: "
                                                              "projection moved the point")):
        dyn.integrate(spec, init, dyn.IntegratorConfig(dt=0.9, steps=3))
    # near the rim of a flat oblate spheroid (curvature 400) a step fails
    # late; the message names the stored state that step started from
    spec = builtin_surface("spheroid", {"a": 1.0, "b": 0.05})
    init = dyn.TrajectoryState(np.array([0.0, 0.0, 0.05]), np.array([1.0, 0.0, 0.0]), 0.0)
    with pytest.raises(dyn.ProjectionFailureError) as late:
        dyn.integrate(spec, init, dyn.IntegratorConfig(dt=0.01, steps=300))
    k = int(re.match(r"step (\d+) ", str(late.value)).group(1))
    assert k > 1
    before = dyn.integrate(spec, init, dyn.IntegratorConfig(dt=0.01, steps=k - 1))
    assert str(late.value).startswith(f"step {k} from t = {float(before.ts[-1])!r}, "
                                      f"x = {before.xs[-1].tolist()}: ")
    code = main(["classical", "--surface", "circle", "--a", "1", "--x0", "1,0",
                 "--p0", "0,1", "--dt", "1.9", "--steps", "3"])
    diagnostic = json.loads(capsys.readouterr().err)
    assert code == 2
    assert diagnostic["error"] == "ProjectionFailureError"
    assert diagnostic["message"].startswith("step 1 from t = 0.0, x = [1.0, 0.0]: ")
