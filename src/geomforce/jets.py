"""Truncated multivariate Taylor jets with raw partial-derivative storage.

A jet holds every partial derivative of a scalar field at a point up to a
total degree D, indexed by multi-index in graded ordering: ascending total
degree, descending lexicographic within a degree.  For N variables the
table has C(N + D, D) entries.  Coefficients are the raw values ``d^a f``
(not divided by a!); conversion to Taylor-normalized form is a helper.

Arithmetic (+, -, *, /, integer ^) and the elementary functions
sqrt/sin/cos/exp/log propagate derivatives exactly through truncated
power-series composition.  All operations broadcast over a trailing batch
axis, so jets can be evaluated for many points at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import expr as ex

MAX_DEGREE = 7


class DomainError(ValueError):
    """sqrt or log applied to a jet with non-positive leading value."""


class DivisionByZeroLeadingTerm(ZeroDivisionError):
    """Division (or negative power) by a jet whose value is zero."""


class OrderExceededError(ValueError):
    """Requested multi-index order exceeds the jet degree."""


def _enumerate_indices(nvars, degree):
    """Multi-indices |a| <= degree: ascending grade, descending lex inside."""
    out = []
    for total in range(degree + 1):
        grade = []

        def rec(prefix, remaining, slots):
            if slots == 1:
                grade.append(prefix + (remaining,))
                return
            for head in range(remaining, -1, -1):
                rec(prefix + (head,), remaining - head, slots - 1)

        rec((), total, nvars)
        out.extend(grade)
    return out


@lru_cache(maxsize=None)
def jet_space(nvars, degree):
    return JetSpace(nvars, degree)


class JetSpace:
    """Index tables shared by all jets of a given (nvars, degree)."""

    def __init__(self, nvars, degree):
        if not 2 <= nvars <= 4:
            raise ValueError(f"dimension must be 2..4, got {nvars}")
        if not 0 <= degree <= MAX_DEGREE:
            raise ValueError(f"degree must be 0..{MAX_DEGREE}, got {degree}")
        self.nvars = nvars
        self.degree = degree
        self.indices = _enumerate_indices(nvars, degree)
        self.index_of = {alpha: i for i, alpha in enumerate(self.indices)}
        self.size = len(self.indices)
        self.factorials = np.array(
            [math.prod(math.factorial(k) for k in alpha) for alpha in self.indices],
            dtype=float,
        )
        self._build_product_table()

    def _build_product_table(self):
        pairs = []
        for i, a in enumerate(self.indices):
            ta = sum(a)
            for j, b in enumerate(self.indices):
                if ta + sum(b) > self.degree:
                    continue
                k = self.index_of[tuple(x + y for x, y in zip(a, b))]
                pairs.append((k, i, j))
        pairs.sort()
        arr = np.array(pairs, dtype=np.intp)
        self._prod_k = arr[:, 0]
        self._prod_i = arr[:, 1]
        self._prod_j = arr[:, 2]
        # reduceat segment starts, one per distinct k (k values are 0..size-1)
        starts = np.searchsorted(self._prod_k, np.arange(self.size))
        self._prod_starts = starts

    def multiply_normalized(self, a, b):
        """Truncated convolution of Taylor-normalized coefficient arrays."""
        terms = a[self._prod_i] * b[self._prod_j]
        return np.add.reduceat(terms, self._prod_starts, axis=0)

    @lru_cache(maxsize=None)
    def derivative_map(self, axis):
        """Indices such that raw_out[m] = raw_in[map[m]] for the d/dx_axis jet."""
        sub = jet_space(self.nvars, self.degree - 1)
        unit = tuple(1 if k == axis else 0 for k in range(self.nvars))
        return np.array(
            [self.index_of[tuple(x + y for x, y in zip(alpha, unit))]
             for alpha in sub.indices],
            dtype=np.intp,
        )


@dataclass(frozen=True)
class Jet:
    """Derivative table of a scalar field at a point.

    coeffs holds raw partials d^a f in the space's multi-index order; shape
    (T,) for a single point or (T, B) for a batch.
    """

    space: JetSpace
    coeffs: np.ndarray

    @property
    def degree(self):
        return self.space.degree

    @property
    def value(self):
        return self.coeffs[0]

    def normalized(self):
        """Taylor coefficients d^a f / a! (pure conversion helper)."""
        return self.coeffs / _colvec(self.space.factorials, self.coeffs)

    def partial(self, alpha):
        return jet_partial(self, alpha)

    def derivative(self, axis):
        """Jet of d f / d x_axis, one degree lower."""
        if self.degree == 0:
            raise OrderExceededError("cannot differentiate a degree-0 jet")
        sub = jet_space(self.space.nvars, self.degree - 1)
        return Jet(sub, self.coeffs[self.space.derivative_map(axis)])

    # arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        return Jet(self.space, self.coeffs + other.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return Jet(self.space, self.coeffs - other.coeffs)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return Jet(self.space, -self.coeffs)

    def __mul__(self, other):
        if np.isscalar(other):
            return Jet(self.space, self.coeffs * other)
        other = self._coerce(other)
        fact = _colvec(self.space.factorials, self.coeffs)
        prod = self.space.multiply_normalized(self.coeffs / fact, other.coeffs / fact)
        return Jet(self.space, prod * fact)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if np.isscalar(other):
            return Jet(self.space, self.coeffs / other)
        return self * self._coerce(other).reciprocal()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.reciprocal()

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, np.integer)):
            raise TypeError("jet exponent must be an integer")
        if exponent < 0:
            return (self ** (-exponent)).reciprocal()
        result = constant(self.space, 1.0, like=self.coeffs)
        base = self
        e = int(exponent)
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def reciprocal(self):
        c0 = np.asarray(self.value, dtype=float)
        if np.any(c0 == 0.0):
            raise DivisionByZeroLeadingTerm("reciprocal of jet with zero value")
        series = np.empty((self.degree + 1,) + c0.shape)
        series[0] = 1.0 / c0
        for i in range(1, self.degree + 1):
            series[i] = -series[i - 1] / c0
        return _compose(self, series)

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.space is not self.space:
                raise ValueError("jets from different spaces")
            return other
        return constant(self.space, other, like=self.coeffs)


def _colvec(vec, coeffs):
    return vec[:, None] if coeffs.ndim == 2 else vec


def constant(space, value, like=None):
    shape = (space.size,) if like is None or like.ndim == 1 else (space.size, like.shape[1])
    coeffs = np.zeros(shape)
    coeffs[0] = value
    return Jet(space, coeffs)


def variable(space, axis, value):
    """Jet of the coordinate x_axis at the given value(s)."""
    value = np.asarray(value, dtype=float)
    shape = (space.size,) + value.shape
    coeffs = np.zeros(shape)
    coeffs[0] = value
    if space.degree >= 1:
        unit = tuple(1 if k == axis else 0 for k in range(space.nvars))
        coeffs[space.index_of[unit]] = 1.0
    return Jet(space, coeffs)


def _compose(g, series):
    """Sum_k series[k] * (g - g0)^k, truncated; series shape (D+1,) + batch."""
    space = g.space
    h_coeffs = g.coeffs.copy()
    h_coeffs[0] = 0.0
    h = Jet(space, h_coeffs)
    coeffs = np.zeros_like(g.coeffs)
    coeffs[0] = series[space.degree]
    result = Jet(space, coeffs)
    for k in range(space.degree - 1, -1, -1):
        result = result * h
        result.coeffs[0] += series[k]  # fresh array from the product, safe in place
    return result


def _elementary_series(name, c0, degree):
    """Taylor coefficients f^(k)(c0)/k! of the named elementary function."""
    c0 = np.asarray(c0, dtype=float)
    k = np.arange(degree + 1)
    if name == "exp":
        return np.exp(c0) / _fact(k, c0)
    if name == "log":
        if np.any(c0 <= 0.0):
            raise DomainError("log of jet with non-positive value")
        out = np.empty((degree + 1,) + c0.shape)
        out[0] = np.log(c0)
        for i in range(1, degree + 1):
            out[i] = ((-1.0) ** (i - 1)) / (i * c0 ** i)
        return out
    if name == "sqrt":
        if np.any(c0 <= 0.0):
            raise DomainError("sqrt of jet with non-positive value")
        out = np.empty((degree + 1,) + c0.shape)
        out[0] = np.sqrt(c0)
        for i in range(1, degree + 1):
            out[i] = out[i - 1] * (0.5 - (i - 1)) / (i * c0)
        return out
    if name in ("sin", "cos"):
        cycle = [np.sin(c0), np.cos(c0), -np.sin(c0), -np.cos(c0)]
        offset = 0 if name == "sin" else 1
        out = np.stack([cycle[(i + offset) % 4] for i in range(degree + 1)])
        return out / _fact(k, c0)
    raise ValueError(f"unsupported function {name}")


def _fact(k, c0):
    f = np.array([math.factorial(int(i)) for i in k], dtype=float)
    return f.reshape((-1,) + (1,) * np.ndim(c0))


def apply_function(name, g):
    return _compose(g, _elementary_series(name, g.value, g.degree))


def substitute(outer, shifts):
    """Jets of g(x0 + u) for each jet g in `outer`, all taken at x0.

    shifts holds one zero-valued jet u_k per variable of the outer jets,
    all of one space of degree D; every outer jet has degree >= D.  Since
    u^alpha vanishes beyond degree D for |alpha| > D, the truncated sum
    sum_{|alpha| <= D} d^alpha g(x0) u^alpha / alpha! is exact.  The
    monomials u^alpha are built once and shared by all outer jets.
    """
    space = shifts[0].space
    if any(np.any(u.value != 0.0) for u in shifts):
        raise ValueError("substituted shifts must have zero value")
    grades = jet_space(len(shifts), space.degree)
    monomials = [constant(space, 1.0, like=shifts[0].coeffs)]
    for alpha in grades.indices[1:]:
        k = next(i for i, a in enumerate(alpha) if a)
        lower = alpha[:k] + (alpha[k] - 1,) + alpha[k + 1:]
        monomials.append(monomials[grades.index_of[lower]] * shifts[k])
    stack = np.stack([m.coeffs for m in monomials])
    out = []
    for g in outer:
        rows = [g.space.index_of[alpha] for alpha in grades.indices]
        taylor = g.coeffs[rows] / _colvec(grades.factorials, g.coeffs)
        out.append(Jet(space, np.einsum("a...,at...->t...", taylor, stack)))
    return out


# Expression evaluation -------------------------------------------------------


def _variable_axes(nvars):
    axes = {}
    for alias_tuple in ex.VARIABLE_NAMES[nvars]:
        for i, name in enumerate(alias_tuple):
            axes[name] = i
    return axes


def evaluate_jet(node, point, degree, params=None):
    """Jet of the expression at a point, exact to the requested degree.

    point has shape (N,) for one point or (N, B) for a batch; N in 2..4
    selects which coordinate names are in scope.
    """
    params = dict(params or {})
    point = np.asarray(point, dtype=float)
    nvars = point.shape[0]
    space = jet_space(nvars, degree)
    axes = _variable_axes(nvars)
    ex.check_bindings(node, axes.keys(), params)
    template = np.zeros((space.size,) if point.ndim == 1 else (space.size, point.shape[1]))

    def const(value):
        coeffs = template.copy()
        coeffs[0] = value
        return Jet(space, coeffs)

    def rec(n):
        if isinstance(n, ex.Num):
            return const(n.value)
        if isinstance(n, ex.Name):
            if n.ident in axes:
                return variable(space, axes[n.ident], point[axes[n.ident]])
            return const(float(params[n.ident]))
        if isinstance(n, ex.Neg):
            return -rec(n.arg)
        if isinstance(n, ex.BinOp):
            left, right = rec(n.left), rec(n.right)
            if n.op == "+":
                return left + right
            if n.op == "-":
                return left - right
            if n.op == "*":
                return left * right
            return left / right
        if isinstance(n, ex.Pow):
            return rec(n.base) ** n.exponent
        if isinstance(n, ex.Call):
            return apply_function(n.func, rec(n.arg))
        raise TypeError(repr(n))

    return rec(node)


def jet_partial(jet, alpha):
    """Raw partial derivative d^alpha at the jet's base point."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != jet.space.nvars:
        raise ValueError(f"multi-index length {len(alpha)} != dimension {jet.space.nvars}")
    if any(a < 0 for a in alpha):
        raise ValueError("multi-index entries must be non-negative")
    if sum(alpha) > jet.degree:
        raise OrderExceededError(f"|alpha|={sum(alpha)} exceeds jet degree {jet.degree}")
    return jet.coeffs[jet.space.index_of[alpha]]
