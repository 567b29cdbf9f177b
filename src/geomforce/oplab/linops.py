"""Fourier differentiation, weighted inner products and per-mode blocks.

Grid functions are arrays whose trailing axes are the periodic grid
axes; any leading axes (components, states) ride along, so one FFT pass
differentiates a whole stack.  That pass is an in-place pair: the
spectrum np.fft.fft returns is multiplied by i k and inverted by
np.fft.ifft into its own memory, so a derivative allocates one array,
not three.  LinOp wraps an array function of one grid function; for a
map whose coefficients do not depend on the last grid axis it gives the
map's block in each Fourier mode of that axis.
"""

from __future__ import annotations

import functools

import numpy as np


class LinOp:
    """Linear map of complex grid functions of the given grid shape."""

    def __init__(self, apply_fn, shape):
        self._apply = apply_fn
        self.shape = tuple(shape)

    def __call__(self, psi):
        return self._apply(np.asarray(psi, dtype=complex))

    def mode_blocks(self):
        """The (nlast, dim, dim) blocks of the map, one per last-axis mode.

        Valid only for a map whose coefficients do not depend on the last
        grid axis, as the Hamiltonian's on the circle and the torus (not a
        Cartesian p_j, whose coefficients turn with the azimuth).  It maps
        u(rest) exp(i m u_last) to (A_m u)(rest) exp(i m u_last), and
        blocks[m] = A_m, m in np.fft order.  Its image of a delta at rest
        node j and last node 0, transformed along the last axis, is column
        j of every A_m: one application per rest node, one on the circle.
        """
        *rest, nlast = self.shape
        dim = int(np.prod(rest))
        blocks = np.empty((nlast, dim, dim), dtype=complex)
        delta = np.zeros((dim, nlast), dtype=complex)
        for j in range(dim):
            delta[j, 0] = 1.0
            col = self(delta.reshape(self.shape)).reshape(dim, nlast)
            blocks[:, :, j] = np.fft.fft(col, axis=1).T
            delta[j, 0] = 0.0
        return blocks


@functools.lru_cache(maxsize=None)
def _wavenumbers(n, trailing):
    """i k of the n modes of an axis followed by `trailing` axes, read-only."""
    ik = (np.fft.fftfreq(n, d=1.0 / n) * 1j).reshape((n,) + (1,) * trailing)
    ik.flags.writeable = False
    return ik


def fourier_derivative(psi, axis, ndim):
    """d/du^axis (period 2*pi) of a stack whose last ndim axes are the grid.

    One fft/ifft pair differentiates every leading-axis component; the
    product with i k (made once per axis length and position) and the
    inverse transform write into the spectrum.
    """
    axis -= ndim
    n = psi.shape[axis]
    spectrum = np.fft.fft(psi, axis=axis)
    np.multiply(_wavenumbers(n, -1 - axis), spectrum, out=spectrum)
    return np.fft.ifft(spectrum, axis=axis, out=spectrum)


def inner(weights, phi, psi):
    """Weighted inner product <phi, psi> = sum w conj(phi) psi over the grid.

    Leading axes broadcast: a component stack gives one product per
    component.
    """
    value = np.sum(weights * np.conj(phi) * psi, axis=tuple(range(-weights.ndim, 0)))
    return complex(value) if value.ndim == 0 else value


def norm_w(weights, psi):
    """Weighted norm; one norm per component of a stack."""
    value = np.sqrt(np.real(inner(weights, psi, psi)))
    return float(value) if np.ndim(value) == 0 else value
