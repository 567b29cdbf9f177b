"""Unitary wave-packet evolution and Ehrenfest force bookkeeping.

evolve_wavepacket runs one recording loop over exact states on both
grid kinds.  operators.hamiltonian is block-diagonal in the Fourier
modes of the last grid axis (the circle angle, the torus azimuth); each
block is diagonalized once, and the state at a recorded step is the
phase exp(-i E t / hbar) on every eigenvector.  No time stepping: the
states do not depend on dt.

The operators are reduced (hbar = mu = 1); the hbar scan is not a change
of units, so the energies and forces are scaled by hbar^2 / mu here, <p> by hbar.

The recorded trace checks the momentum force law in expectation:
d<p_j>/dt against the symmetrized centripetal term plus the
curvature-gradient quantum term, read from operators.StateActions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from ..reports import csv_text
from .linops import LinOp, inner, norm_w
from .operators import StateActions, hamiltonian, quartics


NORM_TOL = 1e-6  # the largest |norm - 1| evolve_wavepacket accepts
SCALING_HBARS, SCALING_MU = (1.0, 0.5, 0.25), 1.0
SCALING_SIZE, SCALING_STEPS, SCALING_T_FINAL = 256, 100, 0.05


class NormDriftError(RuntimeError):
    """State norm drifted by more than NORM_TOL during evolution."""


@dataclass(frozen=True)
class WavePacket:
    center: float | tuple
    sigma: float
    mean_momentum: float
    azimuthal_momentum: float = 0.0  # torus only


@dataclass
class EhrenfestTrace:
    t: np.ndarray            # (K,)
    mean_p: np.ndarray       # (K, N)
    dmean_p_dt: np.ndarray   # (K-2, N), central differences at t[1:-1]
    centripetal: np.ndarray  # (K, N)
    quantum: np.ndarray      # (K, N)
    f_term: np.ndarray       # (K, N)
    norm_drift: float

    def closure_error(self):
        """Relative gap between d<p>/dt and the two recorded force terms."""
        rhs = (self.centripetal + self.quantum)[1:-1]
        gap = np.linalg.norm(self.dmean_p_dt - rhs, axis=1)
        scale = np.max(np.linalg.norm(rhs, axis=1))
        return float(gap.max() / max(scale, 1e-300))

    def to_csv(self):
        nvars = self.mean_p.shape[1]
        cols = ["t"] + [f"{name}{j}" for name in ("mean_p", "dmean_p_dt", "centripetal_term",
                                                  "quantum_term", "f_term") for j in range(nvars)]
        dp = np.full_like(self.mean_p, np.nan)  # no central difference at the ends
        dp[1:-1] = self.dmean_p_dt
        return csv_text(cols, np.column_stack([self.t, self.mean_p, dp, self.centripetal,
                                               self.quantum, self.f_term]))


def _packet(grid, packet, hbar):
    """Band-limited wrapped Gaussian over the grid's axes, unit norm.

    Each axis has integer mean mode round(momentum * radius / hbar), with
    radius a on the circle and r (tube angle), R (azimuth) on the torus.
    """
    radii = ((grid.params["a"],) if grid.kind == "circle"
             else (grid.params["r"], grid.params["R"]))
    momenta = (packet.mean_momentum, packet.azimuthal_momentum)
    centers = packet.center if isinstance(packet.center, tuple) else (packet.center, 0.0)
    envelopes = []
    for n, radius, momentum, center in zip(grid.shape, radii, momenta, centers):
        modes = np.fft.fftfreq(n, d=1.0 / n) - int(round(momentum * radius / hbar))
        # a product of two exponentials: exp of the sum moves the circle's bits
        envelopes.append(np.exp(-0.5 * packet.sigma ** 2 * modes ** 2)
                         * np.exp(-1j * modes * center))
    psi = np.fft.ifftn(reduce(np.multiply.outer, envelopes)) * grid.size
    return psi / norm_w(grid.weights, psi)


def _observables(grid, hbar, mu):
    n = grid.geo["n"]
    quantum = -0.25 * grid.geo["lapM"] * n
    scale = hbar * hbar / mu

    def measure(psi):
        a = StateActions(grid, psi)
        cent = -0.5 * (n * a.q + a.q_n)
        f_psi, _ = quartics(grid, psi, a.p, a.pp)
        w = grid.weights
        return (hbar * np.real(inner(w, psi, a.p)),
                scale * np.real(inner(w, psi, cent)),
                scale * np.real(inner(w, psi, quantum * psi)),
                scale * np.real(inner(w, psi, f_psi / 2j)))

    return measure


def evolve_wavepacket(grid, packet, dt, steps, hbar=1.0, mu=1.0, record_every=1):
    """Evolve a packet under the surface Hamiltonian; return the trace.

    States are exact in the eigenbasis of each last-axis Fourier mode
    (see _states), so dt only sets the recording times; norm drift is
    checked against NORM_TOL.
    The packet width must cover at least 4 grid spacings, and the run
    must record at least 3 states (steps >= 2 * record_every >= 2).
    """
    if record_every < 1 or steps < 2 * record_every:
        raise ValueError(
            f"steps={steps} with record_every={record_every} records fewer "
            "than 3 states; need record_every >= 1 and steps >= 2 * record_every"
        )
    spacing = max(2 * np.pi / n for n in grid.shape)
    if packet.sigma < 4 * spacing:
        raise ValueError(
            f"packet sigma {packet.sigma} is below 4 grid spacings "
            f"({4 * spacing:.4f}); refine the grid or widen the packet"
        )
    if grid.kind not in ("circle", "torus"):
        raise ValueError(f"no evolution scheme for grid kind '{grid.kind}'")
    measure = _observables(grid, hbar, mu)
    rows, drift = [], 0.0
    for psi in _states(grid, _packet(grid, packet, hbar), dt, steps, record_every, hbar, mu):
        drift = max(drift, abs(norm_w(grid.weights, psi) - 1.0))
        if drift > NORM_TOL:
            raise NormDriftError(f"norm drifted by {drift:.3e}")
        rows.append(measure(psi))
    t = np.arange(0, steps + 1, record_every) * dt
    mean_p, cent, quantum, f_term = (np.asarray(column) for column in zip(*rows))
    return EhrenfestTrace(t=t, mean_p=mean_p,
                          dmean_p_dt=(mean_p[2:] - mean_p[:-2]) / (2.0 * (t[1] - t[0])),
                          centripetal=cent, quantum=quantum, f_term=f_term,
                          norm_drift=drift)


def _states(grid, psi, dt, steps, record_every, hbar, mu):
    """psi at every recorded step, exact in each Fourier mode of the last axis.

    H's coefficients do not depend on the last grid axis, so H has one
    block H_m per Fourier mode of that axis (LinOp.mode_blocks: 1x1 on
    the circle, n_theta x n_theta on the torus).  The weight depends on
    the rest axes only, so sqrt(w) H_m / sqrt(w) is hermitian; one
    batched eigh diagonalizes all modes.
    """
    blocks = LinOp(lambda psi: hamiltonian(grid, psi), grid.shape).mode_blocks()
    nlast, dim, _ = blocks.shape
    sqrt_w = np.sqrt(grid.weights.reshape(dim, nlast)[:, 0])
    blocks *= sqrt_w[:, None]
    blocks /= sqrt_w
    energies, vecs = np.linalg.eigh(blocks)
    energies *= hbar * hbar / mu
    del blocks
    # eigen-coefficients of the packet, mode by mode: (nlast, dim)
    coeffs0 = np.einsum("mij,mi->mj", vecs.conj(),
                        (np.fft.fft(psi.reshape(dim, nlast), axis=1) * sqrt_w[:, None]).T)
    for k in range(0, steps + 1, record_every):
        spectrum = np.einsum("mij,mj->im", vecs, coeffs0 * np.exp(-1j * energies * (k * dt) / hbar))
        yield np.fft.ifft(spectrum / sqrt_w[:, None], axis=1).reshape(grid.shape)


def hbar_scaling_slopes(params, mean_momentum=10.0, sigma=0.2):
    """Log-log slopes of the quantum and centripetal term magnitudes vs hbar.

    The packet is evolved once per hbar in SCALING_HBARS, at mass
    SCALING_MU, on one circle grid (SCALING_SIZE nodes, SCALING_STEPS
    steps to SCALING_T_FINAL).
    The classical action is held fixed: the packet keeps the same mean
    momentum while the mode number scales like 1/hbar.  The quantum term
    should scale like hbar^2 (slope 2), the centripetal term like hbar^0
    (slope 0).
    """
    from .grid import build_grid

    grid = build_grid("circle", params, SCALING_SIZE)
    packet = WavePacket(center=0.0, sigma=sigma, mean_momentum=mean_momentum)
    quantum_rms, cent_rms = [], []
    for hb in SCALING_HBARS:
        trace = evolve_wavepacket(grid, packet, SCALING_T_FINAL / SCALING_STEPS,
                                  SCALING_STEPS, hbar=hb, mu=SCALING_MU)
        quantum_rms.append(float(np.sqrt(np.mean(
            np.linalg.norm(trace.quantum, axis=1) ** 2))))
        cent_rms.append(float(np.sqrt(np.mean(
            np.linalg.norm(trace.centripetal, axis=1) ** 2))))
    logh = np.log(np.asarray(SCALING_HBARS))
    slope_q = float(np.polyfit(logh, np.log(quantum_rms), 1)[0])
    slope_c = float(np.polyfit(logh, np.log(np.maximum(cent_rms, 1e-300)), 1)[0])
    return {
        "hbars": list(SCALING_HBARS),
        "quantum_rms": quantum_rms,
        "centripetal_rms": cent_rms,
        "slope_quantum": slope_q,
        "slope_centripetal": slope_c,
    }
