"""Truncated multivariate Taylor jets in Taylor-normalized storage.

A jet holds the Taylor coefficients d^a f / a! of a scalar field at a
point up to a total degree D, indexed by multi-index in graded ordering:
ascending total degree, descending lexicographic within a degree.  For N
variables the table has C(N + D, D) entries, and the entries of one total
degree k (the grade-k homogeneous part) are contiguous.  The storage is
this module's business: `partial`, `jet_partial` and `Jet.tensor` return
raw partials d^a f.

Products are truncated convolutions of the coefficients; an integer
power reaches a jet as products (`expr.compile_tape`).  Quotients and
sqrt/exp/log/sin/cos fill the result one grade at a time from the grades
below it, by the Taylor recurrences of Griewank & Walther, Evaluating
Derivatives, 2nd ed. 2008, ch. 13, Table 13.2.  They hold for
multivariate jets because the Euler operator x . grad multiplies the
grade-k part by k (Neidinger 2005, "Directions for computing truncated
multivariate Taylor series", Math. Comp. 74:321-340).  Each grade takes
one sum over the inner pairs, whose two factors both have grade >= 1.

Every such sum has one order, c_k = ((0.0 + t_1) + t_2) + ... over the
pairs (i, j) of output k in ascending i, t = a_i b_j, whatever the batch:
up to WIDE batch columns one gather of the pairs padded to (slots,
outputs, B) summed along the slots, wider a loop adding slot by slot.

All operations broadcast over a trailing batch axis, so jets can be
evaluated for many points at once.  The jet of a surface expression comes
from running its compiled tape with `variable` inputs and `apply_function`
as the function call (`SurfaceSpec.jet`); the jets of grad f come from the
tape's adjoint sweep over such a run (`geometry._f_and_grad_jets`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_DEGREE = 7
WIDE = 64  # batch columns above which a product sums slot by slot


class DomainError(ValueError):
    """sqrt or log applied to a jet with non-positive leading value."""


class DivisionByZeroLeadingTerm(ZeroDivisionError):
    """Division by a jet whose value is zero."""


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
        self.grade = np.array([sum(alpha) for alpha in self.indices])
        bounds = np.searchsorted(self.grade, np.arange(degree + 2))
        self.grades = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        self._build_product_table()

    def _build_product_table(self):
        pairs = np.array(sorted(  # j over grades <= degree - grade(i), a prefix of indices
            (self.index_of[tuple(x + y for x, y in zip(a, b))], i, j)
            for i, a in enumerate(self.indices)
            for j, b in enumerate(self.indices[:self.grades[self.degree - sum(a)].stop])))
        self._product = _slot_table(pairs, self.size)
        # inner pairs by output grade; every entry of grade >= 2 has one
        gk, gi, gj = self.grade[pairs.T]
        self._inner = {k: _slot_table(pairs[(gk == k) & (gi > 0) & (gj > 0)], self.size)
                       for k in range(2, self.degree + 1)}

    def multiply_normalized(self, a, b):
        """Truncated convolution of Taylor-normalized coefficient arrays."""
        return _sum_slots(self._product, a, b)

    def inner_sum(self, k, a, b):
        """Grade-k part of the product of a and b over the inner pairs only.

        That is the sum of a_i b_j over grade(i), grade(j) >= 1 with
        grade(i) + grade(j) = k, which reads a and b below grade k only.
        """
        if k < 2:
            return 0.0
        return _sum_slots(self._inner[k], a, b)

    @lru_cache(maxsize=None)
    def derivative_map(self, axis):
        """(index, scale): d/dx_axis has coefficients coeffs[index] * scale.

        The coefficient of x^a in the derivative is (a_axis + 1) times the
        coefficient of x^(a + e_axis).
        """
        sub = jet_space(self.nvars, self.degree - 1)
        index = [self.index_of[alpha[:axis] + (alpha[axis] + 1,) + alpha[axis + 1:]]
                 for alpha in sub.indices]
        scale = [alpha[axis] + 1.0 for alpha in sub.indices]
        return np.array(index, dtype=np.intp), np.array(scale)

    @lru_cache(maxsize=None)
    def tensor_map(self, order):
        """(index, factorial) tensors of shape (nvars,) * order.

        Entry (a_1, ..., a_order) is the flat index of the multi-index
        e_{a_1} + ... + e_{a_order} and that multi-index's factorial.
        """
        index = np.empty((self.nvars,) * order, dtype=np.intp)
        for axes in itertools.product(range(self.nvars), repeat=order):
            index[axes] = self.index_of[tuple(axes.count(i) for i in range(self.nvars))]
        return index, self.factorials[index]


def _slot_table(pairs, size):
    """Slots of the (k, i, j) rows of pairs, sorted by k then i, of consecutive k:
    index (2, P, outputs) holds each output's pairs in slots 0..P-1 as rows of
    [a; b; 0], padded with its zero row.  Slot p of `rows` adds into the first
    `count` outputs by descending pair count; `inverse` restores k."""
    k, i, j = pairs.T
    k = k - k[0]
    slot = np.arange(len(k)) - np.searchsorted(k, k)  # place in k's run
    index = np.full((2, slot.max() + 1, k[-1] + 1), 2 * size, dtype=np.intp)
    index[:, slot, k] = i, j + size
    order = np.argsort(-np.bincount(k), kind="stable")
    rows = [(count, *index[:, p, order[:count]] - [[0], [size]])
            for p, count in enumerate(np.count_nonzero(index[0] < 2 * size, axis=1))]
    return index, rows, np.argsort(order)


def _sum_slots(table, a, b):
    """Each output's sum of a_i b_j over its slots, in the module doc's order."""
    index, rows, inverse = table
    if a.ndim == 1 or a.shape[1] <= WIDE:
        ab = np.concatenate([a, b, np.zeros((1,) + a.shape[1:])])
        terms = ab[index]  # one (2, P, outputs, B) gather
        terms[0] *= terms[1]
        return np.add.reduce(terms[0], axis=0, initial=0.0)  # C order: slot rows in turn
    c = np.zeros((len(inverse),) + a.shape[1:])
    for count, i, j in rows:
        c[:count] += a[i] * b[j]
    return c[inverse]


@dataclass(frozen=True)
class Jet:
    """Taylor coefficients of a scalar field at a point.

    coeffs holds d^a f / a! in the space's multi-index order; shape (T,)
    for a single point or (T, B) for a batch.
    """

    space: JetSpace
    coeffs: np.ndarray

    @property
    def degree(self):
        return self.space.degree

    @property
    def value(self):
        return self.coeffs[0]

    def partial(self, alpha):
        return jet_partial(self, alpha)

    def tensor(self, order):
        """Derivative tensor d^order f / dx_a1 ... dx_a_order, raw partials,
        of shape (N,) * order + batch."""
        index, factorial = self.space.tensor_map(order)
        coeffs = self.coeffs[index]
        return coeffs * factorial.reshape(factorial.shape + (1,) * (self.coeffs.ndim - 1))

    def derivative(self, axis):
        """Jet of d f / d x_axis, one degree lower."""
        if self.degree == 0:
            raise OrderExceededError("cannot differentiate a degree-0 jet")
        sub = jet_space(self.space.nvars, self.degree - 1)
        index, scale = self.space.derivative_map(axis)
        return Jet(sub, self.coeffs[index] * _colvec(scale, self.coeffs))

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
        return Jet(self.space, self.space.multiply_normalized(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if np.isscalar(other):
            return Jet(self.space, self.coeffs / other)
        other = self._coerce(other)
        return Jet(self.space, _quotient(self.space, self.coeffs, other.coeffs))

    def __rtruediv__(self, other):
        return self._coerce(other) / self

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


def _quotient(space, a, b):
    """Coefficients of a / b: Q_k = (A_k - B_k Q_0 - sum_inner B_j Q_{k-j}) / B_0."""
    b0 = b[0]
    if np.any(b0 == 0.0):
        raise DivisionByZeroLeadingTerm("division by a jet with zero value")
    q = np.empty_like(b)
    q[0] = a[0] / b0
    for k, s in enumerate(space.grades[1:], 1):
        q[s] = (a[s] - b[s] * q[0] - space.inner_sum(k, b, q)) / b0
    return q


def apply_function(name, g):
    """Jet of the named elementary function of g, one grade at a time.

    exp, log, sin and cos go through the Euler operator: with W = x . grad
    (W g has coefficients k g_k at grade k), W exp(g) = exp(g) W g,
    W log(g) = W g / g, and W sin(g) = cos(g) W g, W cos(g) = -sin(g) W g.
    """
    space, c = g.space, g.coeffs
    c0 = c[0]
    if name in ("sqrt", "log") and np.any(c0 <= 0.0):
        raise DomainError(f"{name} of jet with non-positive value")
    out = np.empty_like(c)
    if name == "sqrt":  # S^2 = g
        out[0] = np.sqrt(c0)
        for k, s in enumerate(space.grades[1:], 1):
            out[s] = (c[s] - space.inner_sum(k, out, out)) / (2.0 * out[0])
        return Jet(space, out)
    weight = _colvec(space.grade.astype(float), c)
    wg = weight * c
    if name == "log":
        out[0] = np.log(c0)
        out[1:] = _quotient(space, wg, c)[1:] / weight[1:]
    elif name == "exp":
        out[0] = np.exp(c0)
        for k, s in enumerate(space.grades[1:], 1):
            out[s] = (wg[s] * out[0] + space.inner_sum(k, wg, out)) / k
    elif name in ("sin", "cos"):
        sin, cos = out, np.empty_like(c)
        sin[0], cos[0] = np.sin(c0), np.cos(c0)
        for k, s in enumerate(space.grades[1:], 1):
            sin[s] = (wg[s] * cos[0] + space.inner_sum(k, wg, cos)) / k
            cos[s] = -(wg[s] * sin[0] + space.inner_sum(k, wg, sin)) / k
        out = sin if name == "sin" else cos
    else:
        raise ValueError(f"unsupported function {name}")
    return Jet(space, out)


def jet_partial(jet, alpha):
    """Raw partial derivative d^alpha at the jet's base point."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != jet.space.nvars:
        raise ValueError(f"multi-index length {len(alpha)} != dimension {jet.space.nvars}")
    if any(a < 0 for a in alpha):
        raise ValueError("multi-index entries must be non-negative")
    if sum(alpha) > jet.degree:
        raise OrderExceededError(f"|alpha|={sum(alpha)} exceeds jet degree {jet.degree}")
    index = jet.space.index_of[alpha]
    return jet.coeffs[index] * jet.space.factorials[index]