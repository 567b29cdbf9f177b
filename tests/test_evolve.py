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
    from geomforce.oplab.evolve import _packet, _torus_states
    from geomforce.oplab.linops import inner

    grid = build_grid("torus", {"R": 2.0, "r": 1.0}, 64)
    packet = WavePacket(center=(np.pi / 2, 0.0), sigma=0.45,
                        mean_momentum=4.0, azimuthal_momentum=6.0)
    psi = _packet(grid, packet, 1.0)
    e0 = inner(grid.weights, psi, hamiltonian(grid, psi)).real
    *_, psi = _torus_states(grid, psi, 5e-4, 400, 400, 1.0, 1.0)
    e1 = inner(grid.weights, psi, hamiltonian(grid, psi)).real
    assert e1 == pytest.approx(e0, rel=1e-4)


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
