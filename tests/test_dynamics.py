import numpy as np
import pytest

from geomforce import dynamics as dyn
from geomforce import expr as ex
from geomforce.surfaces import builtin_surface


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


def test_zero_velocity_rejected_by_geodesic_form():
    spec = builtin_surface("circle", {"a": 1.0})
    init = dyn.TrajectoryState(np.array([1.0, 0.0]), np.array([0.0, 0.0]), 0.0)
    traj = dyn.integrate(spec, init, dyn.IntegratorConfig(dt=1e-3, steps=10))
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
        assert tan_res == abs(float((g / np.linalg.norm(g)) @ p))
