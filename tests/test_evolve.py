import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from geomforce.oplab import build_grid, evolve_wavepacket, hamiltonian, hbar_scaling_slopes
from geomforce.oplab.evolve import WavePacket, _states

TORUS_PACKET = WavePacket(center=(np.pi / 2, 0.3), sigma=0.45,
                          mean_momentum=6.0, azimuthal_momentum=8.0)


@pytest.fixture(scope="module")
def circle128():
    return build_grid("circle", {"a": 1.0}, 128)


@pytest.fixture(scope="module")
def torus64():
    return build_grid("torus", {"R": 2.0, "r": 1.0}, 64)


def test_circle_packet_force_decomposition_closes(circle128):
    packet = WavePacket(center=0.0, sigma=0.2, mean_momentum=10.0)
    trace = evolve_wavepacket(circle128, packet, dt=5e-4, steps=200)
    assert trace.norm_drift < 1e-12
    assert trace.closure_error() < 0.01


def test_stationary_eigenstate_terms_cancel(circle128):
    # a huge sigma collapses the envelope onto the single mode m0
    packet = WavePacket(center=0.0, sigma=10.0, mean_momentum=5.0)
    trace = evolve_wavepacket(circle128, packet, dt=1e-3, steps=60)
    assert np.abs(trace.dmean_p_dt).max() < 1e-11
    assert np.abs(trace.centripetal + trace.quantum).max() < 1e-11


def test_mean_momentum_magnitude_matches_packet(circle128):
    packet = WavePacket(center=0.0, sigma=0.2, mean_momentum=10.0)
    trace = evolve_wavepacket(circle128, packet, dt=1e-3, steps=10)
    assert np.linalg.norm(trace.mean_p[0]) == pytest.approx(10.0, rel=0.02)


def test_hbar_scaling_slopes_match_expected_orders():
    result = hbar_scaling_slopes({"a": 1.0})
    assert result["slope_quantum"] == pytest.approx(2.0, abs=0.1)
    assert result["slope_centripetal"] == pytest.approx(0.0, abs=0.1)


def test_trace_csv_schema(circle128):
    packet = WavePacket(center=0.0, sigma=0.25, mean_momentum=6.0)
    trace = evolve_wavepacket(circle128, packet, dt=1e-3, steps=4)
    lines = trace.to_csv().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t"
    assert "mean_p0" in header and "dmean_p_dt1" in header
    assert "centripetal_term0" in header and "quantum_term1" in header
    assert len(lines) == 6


def test_torus_splitting_is_unitary():
    grid = build_grid("torus", {"R": 2.0, "r": 1.0}, 64)
    packet = WavePacket(center=(np.pi / 2, 0.0), sigma=0.45,
                        mean_momentum=6.0, azimuthal_momentum=8.0)
    trace = evolve_wavepacket(grid, packet, dt=1e-3, steps=1000,
                              record_every=100)
    assert trace.norm_drift < 1e-14


def test_torus_splitting_tracks_energy():
    # an exact unitary propagator keeps <H> constant over the run
    from geomforce.oplab.evolve import _packet
    from geomforce.oplab.linops import inner

    grid = build_grid("torus", {"R": 2.0, "r": 1.0}, 64)
    packet = WavePacket(center=(np.pi / 2, 0.0), sigma=0.45,
                        mean_momentum=4.0, azimuthal_momentum=6.0)
    psi = _packet(grid, packet, 1.0)
    e0 = inner(grid.weights, psi, hamiltonian(grid, psi)).real
    *_, psi = _states(grid, psi, 5e-4, 400, 400, 1.0, 1.0)
    e1 = inner(grid.weights, psi, hamiltonian(grid, psi)).real
    assert e1 == pytest.approx(e0, rel=1e-12)


@pytest.mark.parametrize("kind, params, size", [
    ("torus", {"R": 2.0, "r": 1.0}, (16, 32)),
    ("torus", {"R": 2.0, "r": 1.0}, (32, 16)),
    ("circle", {"a": 0.7}, 32),
])
def test_states_match_dense_propagator(kind, params, size):
    # non-square torus grids in both orders catch a mix-up of the axes;
    # _states scales the reduced Hamiltonian by hbar^2 / mu itself
    hbar, mu, dt = 0.7, 1.3, 0.01
    grid = build_grid(kind, params, size)
    sqrt_w = np.sqrt(grid.weights.ravel())
    # the operators batch over a leading axis: H applied to every basis vector
    dim = grid.size
    basis = np.eye(dim).reshape((dim,) + grid.shape)
    h = (hbar ** 2 / mu) * hamiltonian(grid, basis).reshape(dim, dim).T
    sym = sqrt_w[:, None] * h / sqrt_w[None, :]
    energies, vecs = np.linalg.eigh(0.5 * (sym + sym.conj().T))
    rng = np.random.default_rng(3)
    psi0 = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    states = list(_states(grid, psi0, dt, 6, 2, hbar, mu))
    assert len(states) == 4
    for k, psi in zip(range(0, 7, 2), states):
        phase = np.exp(-1j * energies * (k * dt) / hbar)
        ref = ((vecs * phase) @ (vecs.conj().T @ (sqrt_w * psi0.ravel()))) / sqrt_w
        assert np.max(np.abs(psi.ravel() - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_recorded_states_do_not_depend_on_dt(torus64):
    coarse = evolve_wavepacket(torus64, TORUS_PACKET, dt=1e-3, steps=70)
    fine = evolve_wavepacket(torus64, TORUS_PACKET, dt=5e-4, steps=140, record_every=2)
    for name in ("mean_p", "centripetal", "quantum"):
        a, b = getattr(coarse, name), getattr(fine, name)
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(a))


@pytest.mark.parametrize("kind", ["circle", "torus"])
def test_closure_resolves_the_quantum_force(kind, circle128, torus64):
    # The quantum term is about 0.2 % of the force, so the 1 % gate cannot
    # see it.  This gate is 1 % of the quantum term's share: the traces
    # close to 6.7e-6 (circle) and 2.8e-6 (torus) against bounds near
    # 2e-5, and dropping the term gives 2.2e-3.  A term scaled by 1.01
    # still passes (1.6e-5, 1.9e-5): the central difference's O(dt^2)
    # error hides it, and only a fourth-order (5-point) closure would not.
    if kind == "circle":
        packet = WavePacket(center=0.0, sigma=0.2, mean_momentum=10.0)
        trace = evolve_wavepacket(circle128, packet, dt=5e-4, steps=200)
    else:
        trace = evolve_wavepacket(torus64, TORUS_PACKET, dt=5e-4, steps=140)
    share = (np.max(np.linalg.norm(trace.quantum, axis=1))
             / np.max(np.linalg.norm(trace.centripetal + trace.quantum, axis=1)))
    assert trace.closure_error() <= 0.01 * share
    dropped = dataclasses.replace(trace, quantum=np.zeros_like(trace.quantum))
    assert dropped.closure_error() > 0.01 * share


def test_ehrenfest_script_exits_3_on_a_refuted_closure(tmp_path):
    path = Path(__file__).resolve().parents[1] / "scripts" / "ehrenfest_experiment.py"
    spec = importlib.util.spec_from_file_location("ehrenfest_experiment", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    main = script.main
    out = str(tmp_path / "trace.csv")
    assert main(["--steps", "40", "--out", out]) == 0
    # a 50 ms step leaves a 6.5 % central-difference closure error
    assert main(["--steps", "10", "--dt", "5e-2", "--out", out]) == 3


@pytest.mark.parametrize("steps, record_every", [(0, 1), (1, 1), (5, 10), (3, 0)])
def test_runs_recording_fewer_than_three_states_are_refused(steps, record_every):
    grid = build_grid("circle", {"a": 1.0}, 64)
    packet = WavePacket(center=0.0, sigma=0.45, mean_momentum=6.0)
    with pytest.raises(ValueError, match=f"steps={steps} with record_every={record_every}"):
        evolve_wavepacket(grid, packet, dt=1e-3, steps=steps, record_every=record_every)


def test_shortest_run_records_three_states():
    grid = build_grid("circle", {"a": 1.0}, 64)
    packet = WavePacket(center=0.0, sigma=0.45, mean_momentum=6.0)
    trace = evolve_wavepacket(grid, packet, dt=1e-3, steps=2, record_every=1)
    assert trace.mean_p.shape == (3, 2)
    assert np.isfinite(trace.closure_error())
