import importlib
import os
import tracemalloc

import numpy as np
import pytest

from geomforce import geometry
from geomforce.oplab import (
    LinOp,
    build_grid,
    divergence,
    hamiltonian,
    momentum,
    random_band_states,
)
from geomforce.oplab import identities
from geomforce.oplab.grid import GEO_KEYS, UnsupportedSurfaceError, subgrid
from geomforce.oplab.identities import (
    IDENTITY_IDS,
    RepeatedIdentityError,
    check_identity,
    circle_anchor_report,
    run_identity_suite,
)
from geomforce.oplab.linops import fourier_derivative, inner, norm_w
from geomforce.oplab.operators import StateActions, relative_residuals, worst_entry

import closed_forms as cf


def commutator(a, b):
    """[A, B] psi = A B psi - B A psi for two array functions."""
    return lambda psi: a(b(psi)) - b(a(psi))


@pytest.fixture(scope="module")
def circle64():
    return build_grid("circle", {"a": 1.0}, 64)


@pytest.fixture(scope="module")
def torus32():
    return build_grid("torus", {"R": 2.0, "r": 1.0}, 32)


@pytest.fixture(scope="module")
def circle_family():
    return [build_grid("circle", {"a": 1.0}, s) for s in (32, 64, 128)]


@pytest.fixture(scope="module")
def torus_family():
    return [build_grid("torus", {"R": 2.0, "r": 1.0}, s) for s in (16, 32, 64)]


@pytest.fixture(scope="module")
def suite_verdicts():
    """The suite's H_FORMS and HERMITICITY verdicts on 16/32/64 grids, by surface."""
    return {kind: {v["identity"]: v for v in run_identity_suite(
                kind, params, [16, 32, 64], identities=["H_FORMS", "HERMITICITY"])["identities"]}
            for kind, params in (("circle", {"a": 1.0}), ("torus", {"R": 2.0, "r": 1.0}))}


def residual_at(verdict, grid_label):
    return dict(zip(verdict["grids"], verdict["residuals"]))[grid_label]


# grids ---------------------------------------------------------------------------


def test_circle_area_exact(circle64):
    assert circle64.area == pytest.approx(2 * np.pi, abs=1e-12)
    assert np.all(circle64.weights > 0)


def test_torus_area_matches_closed_form(torus32):
    assert torus32.area == pytest.approx(4 * np.pi ** 2 * 2.0, rel=1e-12)


def test_small_or_odd_sizes_rejected():
    with pytest.raises(ValueError):
        build_grid("circle", {"a": 1.0}, 8)
    with pytest.raises(ValueError):
        build_grid("circle", {"a": 1.0}, 48)
    with pytest.raises(UnsupportedSurfaceError):
        build_grid("sphere", {"a": 1.0}, 32)


def test_torus_grid_coefficients_match_parametric_oracle(torus32):
    th = torus32.coords[0]
    h1, h2 = cf.torus_curvatures(2.0, 1.0, th)
    assert np.allclose(torus32.geo["M"][:, 0], -(h1 + h2), atol=1e-11)
    assert np.allclose(torus32.geo["lapM"][:, 0],
                       cf.torus_lap_sd(2.0, 1.0, th), atol=1e-10)


def test_torus_grid_keeps_the_lab_fields_only():
    """A 128 x 128 torus grid holds its kept fields (3.0e6 bytes) and one
    block's tables at a time: a tracemalloc peak of 9.9e6 bytes, where
    keeping the full-grid curvature_fields tables (d3n alone 10.6e6 bytes)
    peaked at 34.4e6."""
    tracemalloc.start()
    try:
        grid = build_grid("torus", {"R": 2, "r": 1}, 128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert set(grid.geo) == set(GEO_KEYS) == {
        "n", "dn", "M", "S2", "lapM", "vg_geom", "gradS2", "C4", "n_iill"}
    assert peak < 14e6


@pytest.mark.parametrize("kind, params, size", [("circle", {"a": 1.0}, 64),
                                                ("torus", {"R": 2.0, "r": 1.0}, 64)])
def test_grid_fields_equal_one_full_batch_pass(kind, params, size):
    """The fields made a block at a time equal, bit for bit, one
    curvature_fields pass over all the nodes and its einsums (4 blocks on
    the torus)."""
    grid = build_grid(kind, params, size)
    full = geometry.curvature_fields(grid.spec, grid.flat_points(),
                                     geometry.ExtensionPolicy.SIGNED_DISTANCE)
    full["C4"] = np.einsum("il...,iljk...,k...->j...", full["dn"], full["d3n"], full["n"])
    full["n_iill"] = np.einsum("iill...->...", full["d3n"])
    for key in GEO_KEYS:
        assert np.array_equal(grid.geo[key], full[key].reshape(grid.geo[key].shape)), key


FAMILY_CASES = [("circle", {"a": 1.0}), ("circle", {"a": 2.0 ** -6}),
                ("torus", {"R": 2.0, "r": 1.0}), ("torus", {"R": 3.0, "r": 0.5}),
                ("torus", {"R": 2.0 ** 21, "r": 2.0 ** 20})]


@pytest.mark.parametrize("kind, params", FAMILY_CASES)
def test_subgrids_equal_the_grids_built_at_their_size(kind, params):
    """A family's coarser grids are taken from its finest: every node and
    field, bit for bit, is the one build_grid makes at that size."""
    fine = build_grid(kind, params, 128)
    for size in (16, 32, 64):
        got, built = subgrid(fine, size), build_grid(kind, params, size)
        assert got.shape == built.shape
        for name in ("points", "grad_coefs", "ginv_diag", "sqrtg", "weights"):
            assert getattr(got, name).shape == getattr(built, name).shape, (size, name)
            assert getattr(got, name).tobytes() == getattr(built, name).tobytes(), (size, name)
        for axis, built_axis in zip(got.coords, built.coords):
            assert axis.tobytes() == built_axis.tobytes()
        assert set(got.geo) == set(GEO_KEYS)
        for key in GEO_KEYS:
            assert got.geo[key].shape == built.geo[key].shape, (size, key)
            assert got.geo[key].tobytes() == built.geo[key].tobytes(), (size, key)


def test_a_pair_subgrid_takes_each_axis_at_its_own_stride():
    params = {"R": 2.0, "r": 1.0}
    got = subgrid(build_grid("torus", params, (64, 32)), (16, 32))
    built = build_grid("torus", params, (16, 32))
    for key in GEO_KEYS:
        assert got.geo[key].tobytes() == built.geo[key].tobytes(), key
    assert got.weights.tobytes() == built.weights.tobytes()
    with pytest.raises(ValueError, match="does not nest"):
        subgrid(build_grid("torus", params, (64, 32)), (16, 64))


def test_suite_builds_only_the_finest_grid(monkeypatch):
    built = []
    original = identities.build_grid

    def counted(kind, params, size):
        built.append(size)
        return original(kind, params, size)

    monkeypatch.setattr(identities, "build_grid", counted)
    report = run_identity_suite("circle", {"a": 1.0}, [16, 32, 64], identities=["H_FORMS"])
    assert built == [64]
    assert report["grids"] == ["16", "32", "64"]


# surface gradient, the tangential part of the momentum -------------------------


def _tangential(grid, psi):
    """grad_S psi = i p psi - M n psi / 2, an (N,)+shape stack."""
    return 1j * momentum(grid, psi) - 0.5 * grid.geo["M"] * grid.geo["n"] * psi


def test_circle_gradient_component_on_cosine(circle64):
    th = circle64.coords[0]
    psi = np.cos(th).astype(complex)
    # (grad_S)_x cos = (-sin) d_theta cos = sin^2
    got = _tangential(circle64, psi)[0]
    assert np.allclose(got.real, np.sin(th) ** 2, atol=1e-13)
    assert np.allclose(got.imag, 0.0, atol=1e-13)


def test_gradient_annihilates_constants(circle64):
    psi = np.ones(64, dtype=complex)
    for g_psi in _tangential(circle64, psi):
        assert norm_w(circle64.weights, g_psi) < 1e-14


def test_gradient_is_tangent(torus32):
    n = torus32.geo["n"]
    for psi in random_band_states(torus32, 3, seed=1):
        g_psi = _tangential(torus32, psi)
        total = sum(n[j] * g_psi[j] for j in range(3))
        assert norm_w(torus32.weights, total) < 1e-13


# momentum --------------------------------------------------------------------------


def test_normal_dot_momentum_is_multiplication(circle64):
    n = circle64.geo["n"]
    m = circle64.geo["M"]
    for psi in random_band_states(circle64, 4, seed=0):
        p_psi = momentum(circle64, psi)
        got = sum(n[j] * p_psi[j] for j in range(2))
        want = -0.5j * m * psi
        assert norm_w(circle64.weights, got - want) < 1e-12


def test_momentum_hermitian(suite_verdicts):
    for kind, grid in (("circle", "64"), ("torus", "32x32")):
        # every component of the stack [p, H_lb, H_mom] at once: the worst one counts
        assert residual_at(suite_verdicts[kind]["HERMITICITY"], grid) < 1e-11


def test_flat_limit_of_momentum():
    # large circle: on a localized packet the geometric correction M n / 2
    # becomes negligible against the kinetic scale, so p_x approaches the
    # flat-space momentum -i d/ds in the local tangent chart
    a = 1e6
    grid = build_grid("circle", {"a": a}, 8192)
    th = grid.coords[0]
    psi = np.exp(1j * 3000 * th) * np.exp(-((th - np.pi / 2) ** 2) / (2 * 0.02 ** 2))
    psi = psi.astype(complex)
    psi /= norm_w(grid.weights, psi)
    flat = -1j * (-np.sin(th)) * fourier_derivative(psi, 0, 1) / a
    got = momentum(grid, psi)[0]
    assert norm_w(grid.weights, got - flat) / norm_w(grid.weights, flat) < 1e-5


# Hamiltonians ----------------------------------------------------------------------


def test_circle_hamiltonian_spectrum_closed_form(circle64):
    report = circle_anchor_report(circle64)
    assert report["eigenvalue_defect"] < 1e-10
    assert report["eigenvalue_gap_defect"] < 1e-10
    assert report["geometric_potential"] == pytest.approx(-0.125)
    assert report["p_squared_defect"] < 1e-12
    assert report["n_dot_p_defect"] < 1e-12
    assert report["h_forms_residual"] < 1e-12


@pytest.mark.parametrize("size", [32, 64])
def test_anchor_eigenvalue_defect_scales_with_the_length_unit(size):
    # a = 2^k scales every energy by 4^-k exactly, so the defect in units of
    # eps E_max is the same at every k: E_m is read mode by mode, with no
    # eigensolver or pairing to add k-dependent roundoff
    eps = np.finfo(float).eps
    ratios = set()
    for k in (-6, 0, 6):
        a = 2.0 ** k
        report = circle_anchor_report(build_grid("circle", {"a": a}, size))
        ratios.add(report["eigenvalue_defect"]
                   / (eps * identities.ANCHOR_MODES ** 2 / (2.0 * a ** 2)))
    assert len(ratios) == 1
    assert ratios.pop() <= 12


def test_anchors_refuse_a_grid_that_aliases_their_modes():
    with pytest.raises(ValueError, match="circle nodes"):
        circle_anchor_report(build_grid("circle", {"a": 1.0}, 16))


def test_nan_anchor_defects_reach_the_report(monkeypatch):
    grid = build_grid("circle", {"a": 1.0}, 32)
    grid.geo["M"] = np.where(np.arange(32) == 3, np.nan, grid.geo["M"])
    report = circle_anchor_report(grid)
    assert report["eigenvalue_defect"] < 1e-10
    for key in ("p_squared_defect", "n_dot_p_defect", "h_forms_residual"):
        assert np.isnan(report[key])
    monkeypatch.setattr(identities, "circle_anchor_report", lambda *args: report)
    suite = run_identity_suite("circle", {"a": 1.0}, [16, 32, 64], identities=["H_FORMS"])
    assert suite["hard_failures"] == ["CIRCLE_ANCHORS"]


def test_h_forms_spectral_convergence_on_torus(suite_verdicts):
    residuals = suite_verdicts["torus"]["H_FORMS"]["residuals"]  # 16, 32, 64
    assert residuals[0] > residuals[1] > residuals[2]
    assert residuals[2] < 1e-10


def test_hamiltonian_hermitian(suite_verdicts):
    # both forms are in the stack [p, H_lb, H_mom]
    assert residual_at(suite_verdicts["torus"]["HERMITICITY"], "32x32") < 1e-11


# operator algebra -------------------------------------------------------------------


def test_commutator_with_itself_vanishes(circle64):
    p = lambda psi: momentum(circle64, psi)[0]
    c = commutator(p, p)
    for psi in random_band_states(circle64, 3, seed=2):
        assert norm_w(circle64.weights, c(psi)) < 1e-12


def test_commutator_derivative_with_sine(circle64):
    th = circle64.coords[0]
    c = commutator(lambda psi: fourier_derivative(psi, 0, 1),
                   lambda psi: np.sin(th) * psi)
    for psi in random_band_states(circle64, 3, seed=3):
        assert norm_w(circle64.weights, c(psi) - np.cos(th) * psi) < 1e-12


def test_commutator_antisymmetry(circle64):
    a = lambda psi: momentum(circle64, psi)[0]
    b = lambda psi: hamiltonian(circle64, psi)
    c1 = commutator(a, b)
    c2 = commutator(b, a)
    for psi in random_band_states(circle64, 3, seed=4):
        assert norm_w(circle64.weights, c1(psi) + c2(psi)) < 1e-12


def test_operators_are_linear(torus32):
    h = lambda psi: hamiltonian(torus32, psi)
    rng = np.random.default_rng(0)
    psi, phi = random_band_states(torus32, 2, seed=5)
    alpha, beta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    lhs = h(alpha * psi + beta * phi)
    rhs = alpha * h(psi) + beta * h(phi)
    assert norm_w(torus32.weights, lhs - rhs) < 1e-12


@pytest.mark.parametrize("kind, params, size", [
    ("circle", {"a": 1.0}, 64),
    ("torus", {"R": 2.0, "r": 1.0}, (16, 32)),
], ids=["circle64", "torus16x32"])
def test_mode_blocks_reproduce_the_operator(kind, params, size):
    # applied mode by mode, the blocks are the operator: its coefficients do
    # not depend on the last axis
    grid = build_grid(kind, params, size)
    h = LinOp(lambda psi: hamiltonian(grid, psi, "momentum"), grid.shape)
    blocks = h.mode_blocks()
    nlast, dim, _ = blocks.shape
    for psi in random_band_states(grid, 3, seed=6):
        spectrum = np.fft.fft(psi.reshape(dim, nlast), axis=1)
        applied = np.einsum("mij,jm->im", blocks, spectrum)
        got = np.fft.ifft(applied, axis=1).reshape(grid.shape)
        assert np.allclose(got, h(psi), rtol=0.0, atol=1e-12)


# test-space residuals ----------------------------------------------------------------


def test_residual_zero_for_equal_operators(circle64):
    w = circle64.weights
    h = lambda psi: hamiltonian(circle64, psi)
    table = [relative_residuals(w, h(psi), h(psi)) for psi in random_band_states(circle64)]
    assert worst_entry(table)[0] == 0.0


def test_residual_recovers_epsilon_perturbation(circle64):
    w = circle64.weights
    h = lambda psi: hamiltonian(circle64, psi)
    eps = 1e-6
    states = random_band_states(circle64, 8, seed=0)
    value, _ = worst_entry([relative_residuals(w, h(psi) + eps * psi, h(psi))
                            for psi in states])
    norms = [norm_w(w, h(psi)) for psi in states]
    expected = eps / min(norms)
    assert value == pytest.approx(expected, rel=2.0)


def test_residual_deterministic_under_seed(circle64):
    w = circle64.weights
    a = lambda psi: hamiltonian(circle64, psi, form="lb")
    b = lambda psi: hamiltonian(circle64, psi, form="momentum")
    r1, r2 = (worst_entry([relative_residuals(w, a(psi), b(psi))
                           for psi in random_band_states(circle64, seed=11)])
              for _ in range(2))
    assert r1 == r2


# identity verdicts -------------------------------------------------------------------


def test_circle_identity_verdicts(circle_family):
    expected = {
        "EQ3_MAIN": "confirmed",
        "EQ8_PP": "confirmed",
        "EQ10_SCALAR": "confirmed",  # degenerate: both sides vanish
        "EQ11_F_SIMPL": "refuted",
        "EQ13_G_SIMPL": "refuted",
        "H_FORMS": "confirmed",
        "HERMITICITY": "confirmed",
    }
    for ident, want in expected.items():
        verdict = check_identity(circle_family, ident, tol=1e-10)
        assert verdict.verdict == want, (ident, verdict.residuals)


def test_eq10_circle_flags_degeneracy(circle_family):
    verdict = check_identity(circle_family, "EQ10_SCALAR", tol=1e-10)
    assert any("degenerate" in note for note in verdict.notes)


def test_eq11_circle_residual_is_factor_two(circle_family):
    verdict = check_identity(circle_family, "EQ11_F_SIMPL", tol=1e-10)
    # defined F_j equals half the printed simplification on the circle
    assert verdict.residuals[-1] == pytest.approx(0.5, abs=1e-6)


def test_torus_identity_verdicts(torus_family):
    v3 = check_identity(torus_family, "EQ3_MAIN", tol=1e-8)
    assert v3.verdict == "confirmed"
    assert v3.residuals[0] > v3.residuals[-1]
    assert v3.slope < -4  # spectral decay

    v8 = check_identity(torus_family, "EQ8_PP", tol=1e-8)
    assert v8.verdict == "confirmed"

    v10 = check_identity(torus_family, "EQ10_SCALAR", tol=1e-8)
    assert v10.verdict == "refuted"
    assert v10.residuals[-1] == pytest.approx(2.0, abs=1e-3)
    note = next(n for n in v10.notes if "agreeing pair" in n)
    assert "lhs_vs_reference" in note.split("agreeing pair:")[1]


def test_verdict_requires_three_grids(circle64):
    with pytest.raises(ValueError):
        check_identity([circle64, circle64], "EQ3_MAIN")


def _no_work(monkeypatch):
    # a bad request is refused before a grid is built or a pass is run
    def fail(*args, **kwargs):
        raise AssertionError("work done before the request was checked")

    monkeypatch.setattr(identities, "build_grid", fail)
    monkeypatch.setattr(identities, "ordered_map", fail)


def test_suite_refuses_fewer_than_three_grids_before_any_work(monkeypatch):
    _no_work(monkeypatch)
    with pytest.raises(ValueError, match="at least 3"):
        run_identity_suite("torus", {"R": 2.0, "r": 1.0}, [16, 32])


@pytest.mark.parametrize("sizes", [[64, 16, 32], [32, 32, 64]])
def test_suite_refuses_sizes_that_do_not_increase_before_any_work(sizes, monkeypatch):
    _no_work(monkeypatch)
    with pytest.raises(ValueError, match="strictly increasing"):
        run_identity_suite("circle", {"a": 1.0}, sizes)


def test_suite_refuses_a_family_that_does_not_nest_before_any_work(monkeypatch):
    # only pair sizes can make one: a 16x64 grid is no subgrid of a 64x32 one
    _no_work(monkeypatch)
    with pytest.raises(ValueError, match=r"\[\(16, 64\), \(32, 32\), \(64, 32\)\] do not nest"):
        run_identity_suite("torus", {"R": 2.0, "r": 1.0}, [(16, 64), (32, 32), (64, 32)])


def test_unknown_identity_is_named_before_any_work(circle64, monkeypatch):
    _no_work(monkeypatch)
    with pytest.raises(ValueError, match=r"unknown identities \['EQ3'\]"):
        run_identity_suite("torus", {"R": 2.0, "r": 1.0}, [16, 32, 64],
                           identities=["EQ3", "HERMITICITY"])
    with pytest.raises(ValueError, match=r"unknown identities \['EQ3'\]"):
        check_identity([circle64] * 3, "EQ3")


def test_repeated_identity_is_named_before_any_work(monkeypatch):
    _no_work(monkeypatch)
    with pytest.raises(RepeatedIdentityError, match=r"identities \['EQ3_MAIN'\] asked for more"):
        run_identity_suite("circle", {"a": 1.0}, [16, 32, 64],
                           identities=["EQ3_MAIN", "HERMITICITY", "EQ3_MAIN"])


def test_suite_report_schema():
    report = run_identity_suite("circle", {"a": 1.0}, [16, 32, 64])
    assert {v["identity"] for v in report["identities"]} == set(IDENTITY_IDS)
    assert report["hard_failures"] == []
    assert "anchors" in report
    for v in report["identities"]:
        assert set(v) == {"identity", "grids", "residuals", "slope",
                          "verdict", "witness", "notes"}
        assert v["verdict"] in ("confirmed", "refuted", "inconclusive")


@pytest.mark.parametrize("module", ["geomforce", "geomforce.oplab"])
def test_public_exports_resolve(module):
    package = importlib.import_module(module)
    assert [name for name in package.__all__ if not hasattr(package, name)] == []


def test_inner_product_and_norm(circle64):
    psi = random_band_states(circle64, 1, seed=7)[0]
    assert inner(circle64.weights, psi, psi).real == pytest.approx(1.0, abs=1e-12)
    assert norm_w(circle64.weights, psi) == pytest.approx(1.0, abs=1e-12)


def test_verdict_judgement_rules():
    from geomforce.oplab.identities import _judge

    assert _judge([1e-3, 1e-6, 1e-12], 1e-10) == "confirmed"
    assert _judge([0.0, 0.0, 0.0], 1e-10) == "confirmed"
    assert _judge([0.5, 0.5, 0.5], 1e-10) == "refuted"
    # non-monotone residuals that end below tolerance stay inconclusive
    assert _judge([1e-12, 1e-4, 1e-12], 1e-10) == "inconclusive"
    # residuals above tolerance but shrinking: neither confirmed nor stable
    assert _judge([1e-2, 1e-4, 1e-6], 1e-10) == "inconclusive"


def test_roundoff_floor_residuals_do_not_break_monotonicity():
    from geomforce.oplab.identities import ROUNDOFF_FLOOR, _judge

    # growth between residuals that all sit at roundoff is noise
    assert _judge([1.2e-14, 2.2e-14, 3.8e-14], 1e-10) == "confirmed"
    assert _judge([1e-3, 1e-12, 2e-12], 1e-10) == "inconclusive"
    assert _judge([1e-3, 0.5 * ROUNDOFF_FLOOR, 0.9 * ROUNDOFF_FLOOR], 1e-10) == "confirmed"
    assert _judge([0.5 * ROUNDOFF_FLOOR, 4.0 * ROUNDOFF_FLOOR], 1e-10) == "inconclusive"


def test_witness_does_not_depend_on_roundoff_ties():
    from geomforce.oplab.operators import worst_entry

    # three states tie at 0.5 in different pairs; a few ulps must not move
    # the witness, which is the first of them
    table = np.full((3, 8), 1e-3)
    table[0, 5] = table[1, 2] = table[2, 7] = 0.5
    rng = np.random.default_rng(0)
    for _ in range(20):
        perturbed = table + rng.integers(-2, 3, table.shape) * np.spacing(table)
        assert worst_entry(perturbed) == (perturbed.max(), 2)


def test_circle_suite_seed_two_confirms_at_roundoff():
    # seed 2 puts EQ3_MAIN and EQ8_PP at 1e-14..4e-14, growing with the grid
    report = run_identity_suite("circle", {"a": 1.0}, [32, 64, 128], seed=2)
    by_id = {v["identity"]: v for v in report["identities"]}
    for ident in ("EQ3_MAIN", "EQ8_PP", "EQ10_SCALAR", "H_FORMS", "HERMITICITY"):
        assert by_id[ident]["verdict"] == "confirmed", (ident, by_id[ident]["residuals"])
    for ident in ("EQ11_F_SIMPL", "EQ13_G_SIMPL"):
        assert by_id[ident]["verdict"] == "refuted"
    assert report["hard_failures"] == []


# stack operators -------------------------------------------------------------------


def test_momentum_stack_matches_componentwise_formula(torus32):
    c = torus32.grad_coefs
    half_mn = 0.5 * torus32.geo["M"] * torus32.geo["n"]
    for psi in random_band_states(torus32, 2, seed=8):
        stack = 0.7 * momentum(torus32, psi)  # the physical p at hbar = 0.7
        assert stack.shape == (3,) + torus32.shape
        for j in range(3):
            want = -0.7j * (c[j, 0] * fourier_derivative(psi, 0, 2)
                            + c[j, 1] * fourier_derivative(psi, 1, 2) + half_mn[j] * psi)
            assert np.max(np.abs(stack[j] - want)) < 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("kind, params, size", [("circle", {"a": 1.0}, 64),
                                                ("torus", {"R": 2.0, "r": 1.0}, 32)])
def test_folded_forms_keep_every_bit(kind, params, size):
    """p with -i folded into its coefficients equals -i (sum_a c_a d_a psi +
    M n psi / 2), and p^2 psi read as the trace of p_l p_k psi equals the
    divergence of p psi, bit for bit."""
    grid = build_grid(kind, params, size)
    naxes = len(grid.shape)
    c = grid.grad_coefs.astype(complex)
    half_mn = (0.5 * grid.geo["M"] * grid.geo["n"]).astype(complex)
    for psi in random_band_states(grid, 3, seed=12):
        unfolded = c[:, 0] * fourier_derivative(psi, 0, naxes)
        for a in range(1, naxes):
            unfolded += c[:, a] * fourier_derivative(psi, a, naxes)
        unfolded += half_mn * psi
        assert np.array_equal(momentum(grid, psi), -1j * unfolded)
        acts = StateActions(grid, psi)
        acts.reads_pp = True
        assert np.array_equal(acts.p2, divergence(grid, acts.p))


def test_stack_operators_accept_leading_axes(torus32):
    states = np.stack(random_band_states(torus32, 2, seed=9))
    stack = momentum(torus32, states)
    assert stack.shape == (3, 2) + torus32.shape
    for s, psi in enumerate(states):
        assert np.array_equal(stack[:, s], momentum(torus32, psi))
    total = divergence(torus32, stack)
    for s in range(2):
        assert np.array_equal(total[s], divergence(torus32, stack[:, s]))


def test_divergence_matches_single_component_momenta(torus32):
    fields = random_band_states(torus32, 3, seed=10)
    stack = np.stack(fields)
    want = sum(1.3 * momentum(torus32, fields[l])[l] for l in range(3))  # hbar = 1.3
    got = 1.3 * divergence(torus32, stack)
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_quartics_match_operator_composition(torus32):
    from geomforce.oplab.operators import quartics

    ps = [lambda x, l=l: momentum(torus32, x)[l] for l in range(3)]
    n, dn = torus32.geo["n"], torus32.geo["dn"]
    psi = random_band_states(torus32, 1, seed=11)[0]

    def quartic(coef):
        out = 0.0
        for l in range(3):
            for k in range(3):
                c = coef(l, k)
                out = (out + c * ps[l](ps[k](psi)) + ps[l](c * ps[k](psi))
                       + ps[k](c * ps[l](psi)) + ps[k](ps[l](c * psi)))
        return out

    p_psi = momentum(torus32, psi)
    f_psi, g_psi = quartics(torus32, psi, p_psi, momentum(torus32, p_psi))
    for j in range(3):
        want_f = 0.5j * quartic(lambda l, k: dn[j, l] * n[k])
        want_g = -0.5j * quartic(lambda l, k: n[j] * dn[k, l])
        assert np.max(np.abs(f_psi[j] - want_f)) < 1e-12 * np.max(np.abs(want_f))
        assert np.max(np.abs(g_psi[j] - want_g)) < 1e-12 * np.max(np.abs(want_g))


@pytest.fixture(scope="module")
def torus_suite():
    return run_identity_suite("torus", {"R": 2.0, "r": 1.0}, [32, 64, 128])


def test_torus_suite_pins_refuted_residuals(torus_suite):
    by_id = {v["identity"]: v for v in torus_suite["identities"]}
    # finest-grid residuals of the printed simplifications, seed 0
    pinned = {"EQ10_SCALAR": 2.000000000000001,
              "EQ11_F_SIMPL": 0.5000000000000052,
              "EQ13_G_SIMPL": 0.49936276467477786}
    for ident, value in pinned.items():
        v = by_id[ident]
        assert v["verdict"] == "refuted"
        assert v["residuals"][-1] == pytest.approx(value, rel=1e-12), ident
    assert by_id["EQ11_F_SIMPL"]["witness"]["state_index"] == 0
    assert by_id["EQ13_G_SIMPL"]["witness"]["state_index"] == 5
    tol = torus_suite["tol"]
    for ident in ("EQ3_MAIN", "EQ8_PP", "H_FORMS", "HERMITICITY"):
        assert by_id[ident]["verdict"] == "confirmed"
        assert by_id[ident]["residuals"][-1] < tol
    for v in by_id.values():
        assert np.isfinite(v["slope"])
    assert by_id["EQ3_MAIN"]["slope"] < -4
    assert torus_suite["hard_failures"] == []


def _children_cpu_s():
    import resource

    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def test_torus_suite_fft_budget(monkeypatch):
    # one pass per test state: p psi, p p psi, p^2 psi, H psi and Q psi are
    # computed once and read by every identity.  Identity by identity the
    # suite made 3,288 calls over 23,955,456 points at these sizes, and the
    # shared pass 1,728 over 15,998,976 while p^2 psi was a divergence of
    # p psi on every state; the bound is the pass's measured count with p^2
    # psi the trace of p_l p_k psi on the 8 states whose sides read that.
    # On one CPU the pass runs in this process, so the patched transforms
    # see every call.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    calls, points = [0], [0]
    fft, ifft = np.fft.fft, np.fft.ifft

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[0] += 1
            points[0] += args[0].size
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.fft, "fft", counted(fft))
    monkeypatch.setattr(np.fft, "ifft", counted(ifft))
    before = _children_cpu_s()
    run_identity_suite("torus", {"R": 2.0, "r": 1.0}, [16, 32, 64])
    assert _children_cpu_s() == before  # no transform was made in a worker
    assert calls[0] <= 1632, calls[0]
    assert points[0] <= 15482880, points[0]


@pytest.mark.parametrize("kind, params", [("torus", {"R": 2.0, "r": 1.0}),
                                          ("circle", {"a": 1.0})])
def test_verdicts_do_not_depend_on_the_identities_asked_for(kind, params):
    # an identity judged alone, or with HERMITICITY only, reads the same
    # state actions as in the full suite: every bit of its entry agrees
    sizes = [16, 32, 64]
    full = run_identity_suite(kind, params, sizes)
    for entry in full["identities"]:
        ident = entry["identity"]
        fresh = [build_grid(kind, params, s) for s in sizes]
        alone = check_identity(fresh, ident, tol=full["tol"]).to_dict()
        assert alone == entry, ident
        # a repeated id is refused, so HERMITICITY is asked for once
        paired = run_identity_suite(kind, params, sizes,
                                    identities=list(dict.fromkeys([ident, "HERMITICITY"])))
        assert paired["identities"][0] == entry, ident
