"""Fourier differentiation, weighted inner products and dense matrices.

Grid functions are arrays whose trailing axes are the periodic grid
axes; any leading axes (components, states) ride along, so one FFT pass
differentiates a whole stack.  That pass is an in-place pair: the
spectrum np.fft.fft returns is multiplied by i k and inverted by
np.fft.ifft into its own memory, so a derivative allocates one array,
not three.  LinOp wraps an array function of one grid function so it
can be materialized as a dense matrix, which is allowed up to 4096 grid
dimensions (eigen-decompositions stay on the circle and on the torus
tube angle).
"""

from __future__ import annotations

import numpy as np

DENSE_LIMIT = 4096


class LinOp:
    """Linear map of complex grid functions of the given grid shape."""

    def __init__(self, apply_fn, shape):
        self._apply = apply_fn
        self.shape = tuple(shape)

    def __call__(self, psi):
        return self._apply(np.asarray(psi, dtype=complex))

    def dense(self):
        """Materialize by applying to the coordinate basis."""
        dim = int(np.prod(self.shape))
        if dim > DENSE_LIMIT:
            raise ValueError(f"grid dimension {dim} exceeds dense limit {DENSE_LIMIT}")
        cols = np.empty((dim, dim), dtype=complex)
        basis = np.zeros(dim, dtype=complex)
        for j in range(dim):
            basis[j] = 1.0
            cols[:, j] = self(basis.reshape(self.shape)).ravel()
            basis[j] = 0.0
        return cols


def fourier_derivative(psi, axis, ndim):
    """d/du^axis (period 2*pi) of a stack whose last ndim axes are the grid.

    One fft/ifft pair differentiates every leading-axis component; the
    product with i k and the inverse transform write into the spectrum.
    """
    axis -= ndim
    n = psi.shape[axis]
    ik = (np.fft.fftfreq(n, d=1.0 / n) * 1j).reshape((n,) + (1,) * (-1 - axis))
    spectrum = np.fft.fft(psi, axis=axis)
    np.multiply(ik, spectrum, out=spectrum)
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
