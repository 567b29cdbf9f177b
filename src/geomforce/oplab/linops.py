"""Fourier differentiation, weighted inner products and linear operators.

Grid functions are arrays whose trailing axes are the periodic grid
axes; any leading axes (components, states) ride along, so one FFT pass
differentiates a whole stack.  LinOp wraps an array function as a single
operator for composition (+, -, scalar *, @, commutators) and dense
materialization, which is allowed up to 4096 grid dimensions
(eigen-decompositions stay on the circle).
"""

from __future__ import annotations

import numpy as np

DENSE_LIMIT = 4096


class LinOp:
    """Linear transformation of complex grid functions."""

    def __init__(self, apply_fn, shape, label=""):
        self._apply = apply_fn
        self.shape = tuple(shape)
        self.label = label

    def __call__(self, psi):
        return self._apply(np.asarray(psi, dtype=complex))

    def __add__(self, other):
        other = _coerce(other, self.shape)
        return LinOp(lambda p: self(p) + other(p), self.shape,
                     f"({self.label}+{other.label})")

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other, self.shape)
        return LinOp(lambda p: self(p) - other(p), self.shape,
                     f"({self.label}-{other.label})")

    def __neg__(self):
        return LinOp(lambda p: -self(p), self.shape, f"(-{self.label})")

    def __mul__(self, scalar):
        return LinOp(lambda p: scalar * self(p), self.shape,
                     f"({scalar}*{self.label})")

    __rmul__ = __mul__

    def __matmul__(self, other):
        return LinOp(lambda p: self(other(p)), self.shape,
                     f"({self.label}@{other.label})")

    @property
    def dense_materializable(self):
        return int(np.prod(self.shape)) <= DENSE_LIMIT

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


def _coerce(value, shape):
    if isinstance(value, LinOp):
        return value
    if np.isscalar(value):
        return LinOp(lambda p: value * p, shape, f"{value}")
    raise TypeError(f"cannot combine LinOp with {type(value)!r}")


def identity(shape):
    return LinOp(lambda p: p.copy(), shape, "I")


def multiplication(coef, label="m"):
    coef = np.asarray(coef)
    return LinOp(lambda p: coef * p, coef.shape, label)


def fourier_derivative(psi, axis, ndim):
    """d/du^axis (period 2*pi) of a stack whose last ndim axes are the grid.

    One fft/ifft pair differentiates every leading-axis component.
    """
    n = psi.shape[axis - ndim]
    ik = (np.fft.fftfreq(n, d=1.0 / n) * 1j).reshape((n,) + (1,) * (ndim - 1 - axis))
    return np.fft.ifft(ik * np.fft.fft(psi, axis=axis - ndim), axis=axis - ndim)


def spectral_derivative(shape, axis, label=None):
    """Exact Fourier differentiation along one periodic axis."""
    return LinOp(lambda psi: fourier_derivative(psi, axis, len(shape)), shape,
                 label or f"d_{axis}")


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
