"""Numerical adjudication of momentum/Hamiltonian operator identities.

Each identity is built twice from independent ingredients (commutators
of discretized operators on one side, closed-form coefficient fields
from exact jets on the other) and compared on band-limited test states
across a family of grid refinements.  The outcome is a verdict, never an
assertion: confirmed needs a small residual at the finest grid plus a
non-increasing residual series, refuted needs residuals stably far above
tolerance, and anything else is inconclusive.

The suite is state-major: each grid gets one pass over its test states,
and every requested identity reads the same operators.StateActions of
a state (p psi, p_l p_k psi, p^2 psi, p^2 p_k psi, both H psi, Q psi and
Q(n psi)), each computed once per state.  Each group's sides become
residual rows as they are built and are dropped.  The pass takes the
states in pairs, so HERMITICITY judges its pairs from the same actions.
Each pair is one job: the pair jobs of every grid of the family run on
every CPU through one reports.ordered_map, and the parent merges each
grid's results in pair order, so they do not depend on the CPU count.
The circle anchors read the same actions.  run_identity_suite builds
only the finest grid of its family and takes each coarser grid from it
(grid.subgrid), runs the pass once per grid for all its identities and
judges each identity from those results; check_identity runs the pass
for its one identity on the grids it is given.  Both refuse a family of
fewer than 3 grids or an unknown identity id (an UnknownIdentityError)
before any work, and run_identity_suite refuses a family whose grids do
not nest into the finest.  The test space (TEST_STATES states,
HERMITICITY_PAIRS pairs) is operators'.

Both sides of every identity carry the same powers of hbar and mu, so
they are built in reduced units (hbar = mu = 1) and no verdict depends
on the units; run_identity_suite scales the anchors' energies.

Identity ids (written with hbar, as printed in the paper):

* EQ3_MAIN      [p_j, H]/(i hbar) vs the symmetrized centripetal force
                plus the curvature-gradient quantum force.
* EQ8_PP        [p_i, p_j] vs its symmetrized first-order form.
* EQ10_SCALAR   [p_j, scalar] vs the printed +2 i hbar expression; also
                compared against -i hbar (grad_S)_j scalar to settle the
                sign question.
* EQ11_F_SIMPL  the four-term quartic F_j vs its printed simplification.
* EQ13_G_SIMPL  the four-term quartic G_j vs its printed simplification.
* H_FORMS       the two Hamiltonian forms.
* HERMITICITY   weighted symmetry of p_j and H.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from ..reports import ordered_map
from .grid import build_grid, check_family, subgrid
from .linops import LinOp, fourier_derivative, norm_w
from .operators import (
    HERMITICITY_PAIRS,
    ROUNDOFF_FLOOR,
    TEST_STATES,
    StateActions,
    cached,
    divergence,
    hamiltonian,
    momentum,
    pair_defect,
    quartics,
    random_band_states,
    relative_residuals,
    worst_entry,
)

IDENTITY_IDS = (
    "EQ3_MAIN",
    "EQ8_PP",
    "EQ10_SCALAR",
    "EQ11_F_SIMPL",
    "EQ13_G_SIMPL",
    "H_FORMS",
    "HERMITICITY",
)


class UnknownIdentityError(ValueError):
    """An identity id that is not in IDENTITY_IDS."""


@dataclass
class IdentityVerdict:
    identity: str
    grids: list
    residuals: list
    slope: float
    verdict: str
    witness: dict | None = None
    notes: list = field(default_factory=list)

    def to_dict(self):
        return {
            "identity": self.identity,
            "grids": self.grids,
            "residuals": self.residuals,
            "slope": self.slope,
            "verdict": self.verdict,
            "witness": self.witness,
            "notes": self.notes,
        }


def _coefficients(grid):
    """The coefficient fields of EQ10 and the quartics, made once per grid."""
    def make():
        g = grid.geo
        w = 0.5 * g["gradS2"]  # W_j = n_{i,l} n_{i,l,j}
        return {"n": g["n"], "W": w, "n_dot_W": np.einsum("k...,k...->...", g["n"], w),
                "C4": g["C4"], "n_iill": g["n_iill"], "S2": g["S2"]}

    return cached(grid, "coefficients", make)


# Each builder returns sides(actions): the arrays one identity compares on
# one test state, as component stacks with one entry per operator pair.


def _sides_eq3(grid):
    n = grid.geo["n"]
    quantum = -0.25 * grid.geo["lapM"] * n

    def sides(a):
        lhs = (1.0 / 1j) * (momentum(grid, a.h_mom)
                            - hamiltonian(grid, a.p, "momentum", a.p2_p))
        rhs = -0.5 * (n * a.q + a.q_n) + quantum * a.psi
        return lhs, rhs

    return sides


def _sides_eq8(grid):
    n, dn = grid.geo["n"], grid.geo["dn"]
    first, second = np.triu_indices(grid.ndim_embed, 1)

    def coefficients():  # made on first use, in the process that builds the sides
        return np.stack([n[j] * dn[i] - n[i] * dn[j]
                         for i, j in zip(first, second)]).astype(complex)

    def sides(a):
        coefs = cached(grid, "EQ8_PP", coefficients)
        lhs = a.pp[first, second] - a.pp[second, first]
        rhs = 0.5j * (np.einsum("pl...,l...->p...", coefs, a.p)
                      + divergence(grid, np.swapaxes(coefs, 0, 1) * a.psi))
        return lhs, rhs

    return sides


def _sides_eq10(grid):
    """Commutator, printed form and reference form per component."""
    c = _coefficients(grid)
    scalar = 0.25 * c["S2"]
    tangential_w = c["W"] - c["n"] * c["n_dot_W"]
    printed = 0.5j * tangential_w

    def sides(a):
        lhs = momentum(grid, scalar * a.psi) - scalar * a.p
        return lhs, printed * a.psi, -printed * a.psi

    return sides


def _sides_quartics(grid):
    """F_j and G_j against their printed simplifications, and [p_j, p^2]
    against F_j + G_j; EQ11 and EQ13 read the same tables."""
    c = _coefficients(grid)
    n = c["n"]
    printed11 = -1j * c["W"]
    cubic = c["W"] - 2.0 * n * c["C4"] - n * c["n_iill"]

    def sides(a):
        f_psi, g_psi = quartics(grid, a.psi, a.p, a.pp)
        printed13 = -2j * (n * a.q + a.q_n) - 1j * cubic * a.psi
        return (f_psi, printed11 * a.psi, g_psi, printed13,
                momentum(grid, a.p2) - a.p2_p, f_psi + g_psi)

    return sides


# table group -> (builder, the residual pairs over its sides), in the
# order a state's sides are built: the quartics' temporaries are the
# largest, so they come before any other side is held.
_BUILDERS = {
    "QUARTICS": (_sides_quartics, ((0, 1), (2, 3), (4, 5))),
    "EQ3_MAIN": (_sides_eq3, ((0, 1),)),
    "EQ8_PP": (_sides_eq8, ((0, 1),)),
    "EQ10_SCALAR": (_sides_eq10, ((0, 1), (0, 2), (1, 2))),
    "H_FORMS": (lambda grid: lambda a: (a.h_lb, a.h_mom), ((0, 1),)),
}
_QUARTIC_TABLES = ("EQ11_F_SIMPL", "EQ13_G_SIMPL", "construction")
_PP_GROUPS = frozenset({"QUARTICS", "EQ3_MAIN", "EQ8_PP"})  # sides that read p_l p_k psi


def _group(identity_id):
    return "QUARTICS" if identity_id in _QUARTIC_TABLES else identity_id


def _pair_jobs(grid, groups, seed):
    """The jobs of one grid's pass over its test states for the given groups,
    one per pair of states, in pair order.

    A job returns the pair's HERMITICITY defect, {group: one list of
    residual rows per state} and, on state 0, whether EQ10's sides are
    nonzero ("EQ10_probe").  It judges the pair, then builds each group's
    sides on each state, turns them into residual rows and drops them; a
    state whose sides read p_l p_k psi takes p^2 psi as its trace.
    The side builders and the states are made here, before any job runs;
    the complex coefficient caches the sides and the operators multiply a
    state by (operators.cached) are made by the first job of the grid that
    a process runs, so in a worker, not in the parent before the fork.
    """
    built = [(group, build(grid), pairs)
             for group, (build, pairs) in _BUILDERS.items() if group in groups]
    sided = TEST_STATES if built else 0
    reads_pp = not _PP_GROUPS.isdisjoint(groups)
    paired = 2 * HERMITICITY_PAIRS if "HERMITICITY" in groups else 0
    states = random_band_states(grid, max(sided, paired), seed)

    def hermiticity_stack(a):
        return np.concatenate([a.p, [a.h_lb, a.h_mom]])

    def record(a, index, out):
        for group, sides_of, pairs in built:
            sides = sides_of(a)
            if index == 0 and group == "EQ10_SCALAR":  # lhs or printed side nonzero
                out["EQ10_probe"] = bool((norm_w(grid.weights, sides[0]) > 1e-10).any()
                                         or (norm_w(grid.weights, sides[1]) > 1e-10).any())
            out[group].append([np.ravel(relative_residuals(grid.weights, sides[i], sides[j]))
                               for i, j in pairs])
            del sides  # before the next group's sides are built

    def pair_job(k):
        out = {group: [] for group, _, _ in built}
        pair = [StateActions(grid, psi) for psi in states[k:k + 2]]
        for index, acts in enumerate(pair, k):
            acts.reads_pp = reads_pp and index < sided
        if k < paired:
            out["HERMITICITY"] = pair_defect(
                grid.weights, pair[0].psi, pair[1].psi,
                hermiticity_stack(pair[0]), hermiticity_stack(pair[1]))
        # popped, so a state's actions go once its rows are recorded
        for index in range(k, min(k + 2, sided)):
            record(pair.pop(0), index, out)
        return out

    return [functools.partial(pair_job, k) for k in range(0, len(states), 2)]


def _merge_pairs(jobs):
    """One grid's pass from its pair jobs' results, taken in pair order:
    {group: residual tables} for the table groups, the largest HERMITICITY
    pair defect and "EQ10_probe"."""
    out, rows = {}, {}
    for job in jobs:
        for key, value in job.items():
            if key == "HERMITICITY":
                out[key] = max(out.get(key, 0.0), value)
            elif key == "EQ10_probe":
                out[key] = value
            else:
                rows.setdefault(key, []).extend(value)
    for group, state_rows in rows.items():  # [state][residual pair] -> [pair] tables
        out[group] = [np.stack(row, axis=1) for row in zip(*state_rows)]
    return out


def _grid_passes(grids, groups, seed):
    """One pass over the test states of each grid for the given groups.

    The pair jobs of all the grids run on every CPU through one
    reports.ordered_map, so the pool is forked once; the finest grid's
    longest jobs go first, so they do not form the tail.  Workers inherit
    the grids (their geometry made before, by build_grid and subgrid),
    side builders, states and jobs; only job indices go to them and only
    residual rows come back; each makes its own coefficient caches.  Each
    grid's results are merged in pair order, so they do not depend on the
    CPU count.
    """
    order = sorted(range(len(grids)), key=lambda k: -grids[k].shape[0])
    jobs = {k: _pair_jobs(grids[k], groups, seed) for k in order}
    queue = [job for k in order for job in jobs[k]]
    # the items are indices into queue; closed on the way out, which shuts the pool down
    with contextlib.closing(ordered_map(lambda index: queue[index](),
                                        range(len(queue)))) as done:
        merged = {k: _merge_pairs(itertools.islice(done, len(jobs[k]))) for k in order}
    return [merged[k] for k in range(len(grids))]


def _check_request(grid_count, identities):
    """Refuse a family of fewer than 3 grids or an unknown identity id, before
    any grid is built or pass run."""
    if grid_count < 3:
        raise ValueError("need a grid family of at least 3 sizes")
    unknown = sorted(set(identities) - set(IDENTITY_IDS))
    if unknown:
        raise UnknownIdentityError(f"unknown identities {unknown}; "
                                   f"known: {', '.join(IDENTITY_IDS)}")


def _fit_slope(sizes, residuals):
    """d log(residual) / d log(n); meaningless at the roundoff floor."""
    r = np.asarray(residuals, dtype=float)
    if r.max() < 1e-13:
        return 0.0
    x = np.log(np.asarray(sizes, dtype=float))
    y = np.log(np.maximum(r, 1e-16))
    return float(np.polyfit(x, y, 1)[0])


def _judge(residuals, tol):
    r = np.asarray(residuals, dtype=float)
    monotone = all(r[k + 1] <= r[k] * 1.25 + 1e-14
                   or max(r[k], r[k + 1]) < ROUNDOFF_FLOOR
                   for k in range(len(r) - 1))
    if r[-1] < tol and monotone:
        return "confirmed"
    stable = (r > 100.0 * tol).all() and (r.max() / max(r.min(), 1e-300) < 10.0)
    if stable:
        return "refuted"
    return "inconclusive"


def check_identity(grids, identity_id, tol=1e-10, seed=0):
    """Adjudicate one identity over a family of at least 3 grids, each
    grid's pass run for this identity alone."""
    _check_request(len(grids), [identity_id])
    results = _grid_passes(grids, [_group(identity_id)], seed)
    return _verdict(grids, identity_id, results, tol, seed)


def _verdict(grids, identity_id, results, tol, seed):
    """The verdict on one identity from the grids' _grid_passes results."""
    sizes = [g.shape[0] for g in grids]
    grid_labels = ["x".join(str(s) for s in g.shape) for g in grids]
    notes = []
    group = _group(identity_id)

    if identity_id == "HERMITICITY":
        residuals = [r["HERMITICITY"] for r in results]
        return IdentityVerdict("HERMITICITY", grid_labels, residuals,
                               _fit_slope(sizes, residuals), _judge(residuals, tol),
                               {"seed": seed}, notes)

    tables = [r[group] for r in results]
    if group == "QUARTICS":
        worst = [worst_entry(t[_QUARTIC_TABLES.index(identity_id)]) for t in tables]
        notes.append("construction check: [p_j, p^2] vs F_j + G_j (defined forms) "
                     f"residual {tables[-1][2].max():.3e} at finest grid")
    elif identity_id == "EQ10_SCALAR":
        names = ("lhs_vs_printed", "lhs_vs_reference", "printed_vs_reference")
        pair_residuals = {k: [float(t[i].max()) for t in tables]
                          for i, k in enumerate(names)}
        worst = [worst_entry(t[0]) for t in tables]
        if not any(r["EQ10_probe"] for r in results):
            notes.append(
                "degenerate on this surface: both sides vanish identically "
                "(scalar field is constant), so the sign question is not "
                "exercised here"
            )
        else:
            agree = min(pair_residuals, key=lambda k: pair_residuals[k][-1])
            notes.append(
                "sign adjudication: residuals at finest grid are "
                + ", ".join(f"{k}={v[-1]:.3e}" for k, v in pair_residuals.items())
                + f"; agreeing pair: {agree}"
            )
        notes.append(
            "reference form is -i*hbar*(grad_S)_j applied to the scalar; "
            "printed form has the opposite sign of the reference"
        )
    else:
        worst = [worst_entry(t[0]) for t in tables]

    residuals = [value for value, _ in worst]
    witness = {"grid": grid_labels[-1], "state_index": worst[-1][1], "seed": seed}
    return IdentityVerdict(identity_id, grid_labels, residuals,
                           _fit_slope(sizes, residuals), _judge(residuals, tol),
                           witness, notes)


# Circle anchors -----------------------------------------------------------------


ANCHOR_MODES = 10  # circle levels checked: m = -ANCHOR_MODES .. ANCHOR_MODES
# the anchor numbers that are energies, in units hbar^2 / mu (the rest are ratios)
DIMENSIONAL_ANCHORS = ("eigenvalue_defect", "eigenvalue_gap_defect", "geometric_potential")


def circle_anchor_report(grid, seed=0):
    """Hard closed-form checks on the circle, in reduced units.

    H is diagonal in the Fourier modes, so its mode-m eigenvalue E_m is
    the mode's 1x1 block (LinOp.mode_blocks, one application of H); E_m
    is compared with the closed-form m^2 / (2 a^2) + V_G and the gap
    E_m - E_0 with m^2 / (2 a^2), for |m| <= ANCHOR_MODES.  The p^2
    action is compared against (-d^2_theta + 1/4) / a^2, and n.p against
    multiplication by -i M / 2.
    """
    if grid.kind != "circle":
        raise ValueError("anchors are defined on the circle grid")
    if grid.size <= 2 * ANCHOR_MODES:
        raise ValueError(f"the anchors need more than {2 * ANCHOR_MODES} circle nodes")
    a = grid.params["a"]
    vg = 0.25 * float(grid.geo["vg_geom"][0])

    ms = np.arange(-ANCHOR_MODES, ANCHOR_MODES + 1)
    energies = LinOp(lambda psi: hamiltonian(grid, psi, "lb"), grid.shape).mode_blocks()[ms, 0, 0]
    kinetic = ms ** 2 / (2.0 * a ** 2)
    eig_defect = float(np.max(np.abs(energies - (kinetic + vg))))
    gap_defect = float(np.max(np.abs(energies - energies[ANCHOR_MODES] - kinetic)))

    w = grid.weights
    p2_defects, ndotp_defects, hform_residuals = [], [], []
    for psi in random_band_states(grid, 6, seed):
        acts = StateActions(grid, psi)
        d2_psi = fourier_derivative(fourier_derivative(psi, 0, 1), 0, 1)
        closed = (1.0 / a ** 2) * (-d2_psi + 0.25 * psi)
        p2_defects.append(norm_w(w, acts.p2 - closed) / norm_w(w, closed))
        np_psi = np.sum(grid.geo["n"] * acts.p, axis=0)
        closed_np = -0.5j * grid.geo["M"] * psi
        ndotp_defects.append(norm_w(w, np_psi - closed_np)
                             / max(norm_w(w, closed_np), 1e-300))
        hform_residuals.append(relative_residuals(w, acts.h_lb, acts.h_mom))
    # np.max, unlike max, keeps a NaN defect
    p2_defect, ndotp_defect, hform_res = (
        float(np.max(d)) for d in (p2_defects, ndotp_defects, hform_residuals))
    return {
        "eigenvalue_defect": eig_defect,
        "eigenvalue_gap_defect": gap_defect,
        "geometric_potential": vg,
        "p_squared_defect": p2_defect,
        "n_dot_p_defect": ndotp_defect,
        "h_forms_residual": hform_res,
    }


def run_identity_suite(kind, params, sizes, hbar=1.0, mu=1.0, tol=None,
                       identities=None, seed=0):
    """Run the full verdict suite on one surface across a grid family.

    Returns a JSON-ready report with one verdict per identity id, circle
    anchors when applicable, and a list of hard failures (construction
    -level properties that did not confirm).  hbar and mu are echoed and
    scale the DIMENSIONAL_ANCHORS by hbar^2 / mu once they are gated.
    sizes must be strictly increasing (the slopes are fit over distinct
    sizes, and the anchors take the second grid) and nest: only the
    finest grid is built (build_grid), and each coarser one is its
    subgrid.  A ValueError says so before any grid is built.
    """
    if tol is None:
        tol = 1e-10 if kind == "circle" else 1e-8
    identities = list(identities or IDENTITY_IDS)
    _check_request(len(sizes), identities)
    if any(a >= b for a, b in zip(sizes, sizes[1:])):  # slopes fit over distinct sizes
        raise ValueError(f"grid sizes must be strictly increasing, got {list(sizes)}")
    check_family(kind, sizes)
    fine = build_grid(kind, params, sizes[-1])
    grids = [subgrid(fine, s) for s in sizes[:-1]] + [fine]
    groups = [_group(i) for i in identities]
    results = _grid_passes(grids, groups, seed)
    verdicts = [_verdict(grids, ident, results, tol, seed) for ident in identities]
    report = {
        "surface": kind,
        "params": {k: float(v) for k, v in params.items()},
        "grids": ["x".join(str(s) for s in g.shape) for g in grids],
        "hbar": hbar,
        "mu": mu,
        "tol": tol,
        "identities": [v.to_dict() for v in verdicts],
    }
    hard = [v.identity for v in verdicts
            if v.identity in ("H_FORMS", "HERMITICITY") and v.verdict != "confirmed"]
    if kind == "circle":
        anchors = circle_anchor_report(grids[min(1, len(grids) - 1)], seed)
        bounds = {"eigenvalue_defect": 1e-10, "p_squared_defect": 1e-12,
                  "h_forms_residual": 1e-12, "n_dot_p_defect": 1e-12}
        if not all(anchors[key] <= bound for key, bound in bounds.items()):  # NaN fails
            hard.append("CIRCLE_ANCHORS")
        scale = hbar * hbar / mu
        report["anchors"] = {key: scale * value if key in DIMENSIONAL_ANCHORS else value
                             for key, value in anchors.items()}
    report["hard_failures"] = hard
    report["flags"] = [note for v in verdicts if v.identity == "EQ10_SCALAR"
                       for note in v.notes]
    return report
