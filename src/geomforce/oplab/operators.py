"""Geometric momentum and Hamiltonian operators on surface grids.

The operators are in reduced units (hbar = mu = 1): the physical p is
hbar times p here and the physical H is hbar^2 / mu times H here.

Three array functions carry the lab.  On a grid with N embedding
dimensions, `gradient` returns the Cartesian surface gradient
(grad_S)_i = sum_a g^{aa} (dx/du^a)_i d_a as an (N,)+shape stack,
`momentum` the hermitian p_j = -i ((grad_S)_j + M n_j / 2) as an
(N,)+shape stack, and `divergence` contracts an (N, ...) stack A into
sum_l p_l A_l.  All three accept leading axes and take one fft/ifft
pair per parametric axis however many components they carry.  The
Hamiltonian (Laplace-Beltrami or momentum form), the centripetal
quadratic and the quartics F_j, G_j are built from them.  A commutator
is a pair of such functions applied in both orders.  The real coefficient
fields they multiply complex states by are cached on the grid as complex
arrays (`cached`), made where they are first asked for; the momentum's
carry its -i.

StateActions is the lab's one source of operator actions on a state
(p psi, p_l p_k psi, p^2 psi, both H psi, Q psi, ...): the identity
verdicts, the circle anchors and the Ehrenfest observables all read
them from it, each computed once per state.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .linops import fourier_derivative, inner, norm_w


def _lift(field, nlead):
    """View a (K,)+shape field so it broadcasts over nlead stack axes."""
    return field.reshape(field.shape[:1] + (1,) * nlead + field.shape[1:])


def cached(grid, key, make):
    """grid.cache[key], made by make() the first time the process asks for it.

    A cache asked for first in a worker is made there, after the fork, so
    the parent does not hold it.
    """
    if key not in grid.cache:
        grid.cache[key] = make()
    return grid.cache[key]


def _complex(field):
    """A real field as a complex array: it multiplies complex arrays exactly
    as the real field does, minus the cast on every product."""
    return np.asarray(field, dtype=complex)


def _gradient_coefficients(grid):
    """Per-axis gradient coefficients c[:, a], as complex arrays."""
    return cached(grid, "gradient", lambda: [
        np.ascontiguousarray(grid.grad_coefs[:, a], dtype=complex)
        for a in range(len(grid.shape))])


def _momentum_coefficients(grid):
    """-i c[:, a] per axis and -i M n / 2, as complex arrays.

    Multiplying by -i only swaps and negates the parts of a complex
    number, so p x = sum_a (-i c_a) d_a x + (-i M n / 2) x has the bits of
    -i (sum_a c_a d_a x + M n x / 2), without the pass that multiplies by -i.
    """
    def make():
        fields = [grid.grad_coefs[:, a] for a in range(len(grid.shape))]
        fields.append(0.5 * grid.geo["M"] * grid.geo["n"])
        coefs = []
        for values in fields:
            coef = np.zeros(values.shape, dtype=complex)
            coef.imag = -values
            coefs.append(coef)
        return coefs

    return cached(grid, "momentum", make)


def _tangential(grid, x, nlead, coefs):
    """sum_a coefs[a][i] d_a x for every component i.

    x is one field broadcast to every i (nlead leading axes) or an
    (N,)+lead+shape stack whose entry i gets component i.  A stack's
    terms are formed in their derivatives' memory and summed into the
    first.  The coefficient stays the left operand: complex products are
    not commutative bit for bit.
    """
    naxes = len(grid.shape)
    coefs = [_lift(c, nlead) for c in coefs]
    in_place = x.shape == np.broadcast_shapes(coefs[0].shape, x.shape)
    out = None
    for a, c in enumerate(coefs):
        term = fourier_derivative(x, a, naxes)
        term = np.multiply(c, term, out=term) if in_place else c * term
        if out is None:
            out = term
        else:
            out += term
    return out


def _apply(grid, x, nlead):
    """-i (sum_a c[i, a] d_a x + M n_i x / 2); x as in _tangential."""
    *coefs, half_mn = _momentum_coefficients(grid)
    out = _tangential(grid, x, nlead, coefs)
    out += _lift(half_mn, nlead) * x
    return out


def gradient(grid, psi):
    """Cartesian grad_S psi as an (N,)+psi.shape stack."""
    psi = np.asarray(psi, dtype=complex)
    return _tangential(grid, psi, psi.ndim - len(grid.shape), _gradient_coefficients(grid))


def momentum(grid, psi):
    """p psi = -i (grad_S psi + M n psi / 2) as an (N,)+psi.shape stack."""
    psi = np.asarray(psi, dtype=complex)
    return _apply(grid, psi, psi.ndim - len(grid.shape))


def divergence(grid, stack):
    """sum_l p_l A_l for an (N,)+lead+shape stack A; returns lead+shape."""
    stack = np.asarray(stack, dtype=complex)
    return _apply(grid, stack, stack.ndim - 1 - len(grid.shape)).sum(axis=0)


def laplace_beltrami(grid, psi):
    """Spectral (1/sqrt g) d_a (sqrt g g^{ab} d_b psi) for diagonal metrics."""
    naxes = len(grid.shape)
    out = 0.0
    for a in range(naxes):
        flux = (grid.sqrtg * grid.ginv_diag[a]) * fourier_derivative(psi, a, naxes)
        out = out + fourier_derivative(flux, a, naxes)
    return (1.0 / grid.sqrtg) * out


def hamiltonian(grid, psi, form="lb", p2_psi=None):
    """Surface Hamiltonian applied to psi (leading axes allowed).

    lb:       -lap_LB / 2 + vg_geom / 4
    momentum: sum_j p_j p_j / 2 - S2 / 4; p2_psi, when given, is
              sum_j p_j p_j psi = divergence(grid, momentum(grid, psi))
              already computed.
    """
    psi = np.asarray(psi, dtype=complex)
    if form == "lb":
        return -0.5 * laplace_beltrami(grid, psi) + (0.25 * grid.geo["vg_geom"]) * psi
    if form == "momentum":
        if p2_psi is None:
            p2_psi = divergence(grid, momentum(grid, psi))
        return 0.5 * p2_psi - (0.25 * grid.geo["S2"]) * psi
    raise ValueError(f"unknown Hamiltonian form '{form}'")


def centripetal(grid, psi, p_psi=None):
    """Q psi = sum_{i,k} p_i n_{i,k} p_k psi (hermitian ordering)."""
    if p_psi is None:
        p_psi = momentum(grid, psi)
    dn = grid.geo["dn"]
    dn = dn.reshape(dn.shape[:2] + (1,) * (p_psi.ndim - dn.ndim + 1) + dn.shape[2:])
    return divergence(grid, np.einsum("ik...,k...->i...", dn, p_psi))


def _quartic_coefficients(grid):
    """n, dn, dn transposed and the inner stack c[j, l, k] = n_{j,l} n_k of
    the quartics, as complex arrays."""
    def make():
        n, dn = _complex(grid.geo["n"]), _complex(grid.geo["dn"])
        dn_t = np.swapaxes(dn, 0, 1)
        real_t = np.swapaxes(grid.geo["dn"], 0, 1)
        stack = _complex(real_t[:, :, None] * grid.geo["n"][None, None])
        return n, dn, dn_t, stack

    return cached(grid, "quartics", make)


def quartics(grid, psi, p_psi, pp_psi):
    """F_j psi and G_j psi for one state, as two (N,)+shape stacks.

    F_j = (i / 2) Q[c] with c_{lk} = n_{j,l} n_k and
    G_j = -(i / 2) Q[c] with c_{lk} = n_j n_{k,l}, where
    Q[c] = sum_{l,k} {c p_l p_k + p_l c p_k + p_k c p_l + p_k p_l c}.
    p_psi = p psi and pp_psi[l, k] = p_l p_k psi are shared, and so are
    the innermost passes inner[j, k] = sum_l p_l (n_{j,l} n_k psi), which
    are F's last term and, transposed, G's.  Each quartic folds its three
    outer p passes into one divergence.
    """
    n, dn, dn_t, stack = _quartic_coefficients(grid)
    inner = divergence(grid, stack * psi)
    n_p = np.einsum("k...,k...->...", n, p_psi)
    f_p = np.einsum("jl...,l...->j...", dn, p_psi)
    f_psi = (np.einsum("jl...,k...,lk...->j...", dn, n, pp_psi)
             + divergence(grid, dn_t * n_p + n[:, None] * f_p[None]
                          + np.swapaxes(inner, 0, 1)))
    dn_p = (np.einsum("km...,k...->m...", dn, p_psi)
            + np.einsum("mk...,k...->m...", dn, p_psi))
    g_psi = (n * np.einsum("kl...,lk...->...", dn, pp_psi)
             + divergence(grid, dn_p[:, None] * n[None] + inner))
    return 0.5j * f_psi, -0.5j * g_psi


class StateActions:
    """The operator actions shared on one state.

    Each is computed the first time it is read and kept for the state.
    """

    reads_pp = False  # set True on a state whose pp is read: p2 is then its trace

    def __init__(self, grid, psi):
        self.grid, self.psi = grid, psi

    @cached_property
    def p(self):
        """p psi, an (N,)+shape stack."""
        return momentum(self.grid, self.psi)

    @cached_property
    def pp(self):
        """pp[l, k] = p_l p_k psi."""
        return momentum(self.grid, self.p)

    @cached_property
    def p2(self):
        """p^2 psi = sum_l p_l p_l psi: the trace of pp, bit for bit, when pp
        is read, else one divergence of p."""
        if not self.reads_pp:
            return divergence(self.grid, self.p)
        pp = self.pp
        return sum((pp[l, l] for l in range(1, len(pp))), pp[0, 0])

    @cached_property
    def p2_p(self):
        """p^2 p_k psi, an (N,)+shape stack."""
        return divergence(self.grid, self.pp)

    @cached_property
    def h_lb(self):
        return hamiltonian(self.grid, self.psi, "lb")

    @cached_property
    def h_mom(self):
        return hamiltonian(self.grid, self.psi, "momentum", self.p2)

    @cached_property
    def q(self):
        """Q psi, the centripetal quadratic."""
        return centripetal(self.grid, self.psi, self.p)

    @cached_property
    def q_n(self):
        """Q (n_j psi) for every component j."""
        return centripetal(self.grid, self.grid.geo["n"] * self.psi)


# test space ---------------------------------------------------------------------

TEST_STATES = 8  # states a residual is taken over
HERMITICITY_PAIRS = 6  # pairs (0, 1), (2, 3), ... a hermiticity defect is taken over
BAND_FRACTION = 1.0 / 3.0  # of the modes: products with smooth fields do not alias


def random_band_states(grid, count=TEST_STATES, seed=0):
    """Unit-norm states with Fourier support on the lowest BAND_FRACTION of modes.

    The states are generated once per grid and seed (a longer request
    extends the same sequence) and returned read-only.
    """
    key = ("states", seed)
    states = grid.cache.get(key, [])
    if len(states) < count:
        states = _band_states(grid, count, seed)
        grid.cache[key] = states
    return states[:count]


def _band_states(grid, count, seed):
    rng = np.random.default_rng(seed)
    cut = [max(1, int((n // 2) * BAND_FRACTION)) for n in grid.shape]
    mesh = np.meshgrid(*[np.fft.fftfreq(n, d=1.0 / n) for n in grid.shape],
                       indexing="ij")
    mask = np.ones(grid.shape, dtype=bool)
    for m, c in zip(mesh, cut):
        mask &= np.abs(m) <= c
    states = []
    for _ in range(count):
        coeffs = np.zeros(grid.shape, dtype=complex)
        values = rng.standard_normal(mask.sum()) + 1j * rng.standard_normal(mask.sum())
        coeffs[mask] = values
        psi = np.fft.ifftn(coeffs)
        psi /= norm_w(grid.weights, psi)
        psi.flags.writeable = False
        states.append(psi)
    return states


def relative_residuals(weights, a_psi, b_psi):
    """||(A - B) psi|| / ||B psi|| per component of two equal stacks.

    The denominator is floored at machine scale; when both actions are
    numerically zero the operators compare as equal (residual 0).
    """
    eps = np.finfo(float).eps
    na, nb = norm_w(weights, a_psi), norm_w(weights, b_psi)
    num = norm_w(weights, a_psi - b_psi)
    floor = 100.0 * eps * np.maximum(np.maximum(na, nb), 1.0)
    return np.where((num <= floor) & (nb <= floor), 0.0, num / np.maximum(nb, floor))


# Residuals below this floor are roundoff; their order carries no signal.
ROUNDOFF_FLOOR = 512 * np.finfo(float).eps


def worst_entry(table):
    """(largest residual, its witness state) of a (pairs, states) table.

    The witness is the first state whose largest residual over the pairs
    is within max(ROUNDOFF_FLOOR, 64 eps max) of the table's maximum, or
    the first NaN state, so residuals that tie at roundoff do not pick it.
    """
    per_state = np.atleast_2d(table).max(axis=0)
    worst = float(per_state.max())
    tie = max(ROUNDOFF_FLOOR, 64.0 * np.finfo(float).eps * worst)
    return worst, int(np.argmax(np.isnan(per_state) | (per_state >= worst - tie)))


def pair_defect(weights, phi, psi, a_phi, a_psi):
    """|<phi, A psi> - <A phi, psi>| / max(||A psi||, ||A phi||, 1) of one
    test pair, worst component; run_identity_suite's HERMITICITY residual is
    its max over the HERMITICITY_PAIRS pairs."""
    defect = np.abs(inner(weights, phi, a_psi) - inner(weights, a_phi, psi))
    scale = np.maximum(np.maximum(norm_w(weights, a_psi), norm_w(weights, a_phi)), 1.0)
    return float(np.max(defect / scale))
