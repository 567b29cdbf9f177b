import numpy as np
import pytest

from geomforce.oplab import build_grid, evolve_wavepacket, hbar_scaling_slopes
from geomforce.oplab.evolve import WavePacket


@pytest.fixture(scope="module")
def circle128():
    return build_grid("circle", {"a": 1.0}, 128)


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
    result = hbar_scaling_slopes({"a": 1.0}, size=256)
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
    assert trace.norm_drift < 1e-9


def test_torus_splitting_tracks_energy():
    # a correct unitary splitting keeps <H> nearly constant over the run
    from geomforce.oplab import hamiltonian
    from geomforce.oplab.evolve import _theta_propagator, _torus_packet
    from geomforce.oplab.linops import inner

    grid = build_grid("torus", {"R": 2.0, "r": 1.0}, 64)
    packet = WavePacket(center=(np.pi / 2, 0.0), sigma=0.45,
                        mean_momentum=4.0, azimuthal_momentum=6.0)
    psi = _torus_packet(grid, packet, 1.0)
    e0 = inner(grid.weights, psi, hamiltonian(grid, psi)).real
    dt = 5e-4
    rho = 2.0 + np.sin(grid.coords[0])
    m_ph = np.fft.fftfreq(64, d=1.0 / 64)
    vg = 0.25 * grid.geo["vg_geom"]
    e_row = 0.5 * (m_ph[None, :] ** 2 / rho[:, None] ** 2) + vg[:, 0][:, None]
    half_c = np.exp(-1j * 0.5 * dt * e_row)
    prop_a = _theta_propagator(grid, dt, 1.0, 1.0)
    for _ in range(400):
        psi = np.fft.ifft(half_c * np.fft.fft(psi, axis=1), axis=1)
        psi = prop_a @ psi
        psi = np.fft.ifft(half_c * np.fft.fft(psi, axis=1), axis=1)
    e1 = inner(grid.weights, psi, hamiltonian(grid, psi)).real
    assert e1 == pytest.approx(e0, rel=1e-4)
