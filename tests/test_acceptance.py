"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s) and
enforces the stated tolerances and runtime budgets.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from geomforce import dynamics as dyn
from geomforce import findings
from geomforce import geometry as geo
from geomforce import optim
from geomforce.cli import main as cli_main
from geomforce.geometry import ExtensionPolicy
from geomforce.oplab import build_grid, evolve_wavepacket, hbar_scaling_slopes, run_identity_suite
from geomforce.oplab.evolve import WavePacket
from geomforce.oplab.identities import circle_anchor_report
from geomforce.surfaces import builtin_surface

import closed_forms as cf

GN = ExtensionPolicy.GRADIENT_NORMALIZED
SD = ExtensionPolicy.SIGNED_DISTANCE


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget_seconds:
        print(f"ACCEPTANCE {number:2d} FAIL: {description} "
              f"(runtime {elapsed:.2f}s over budget {budget_seconds}s)")
        raise AssertionError(f"runtime {elapsed:.2f}s exceeds {budget_seconds}s")
    print(f"ACCEPTANCE {number:2d} PASS: {description} [{elapsed:.2f}s]")


def test_criterion_1_sphere_null_force():
    with criterion(1, "sphere curvature force vanishes at 100 points, both policies", 1.0):
        for a in (1.0, 2.5):
            spec = builtin_surface("sphere", {"a": a})
            for policy in (SD, GN):
                samples = geo.sample_field(spec, policy, sampling="random",
                                           count=100, seed=0)
                assert samples["lapM"].shape == (100,)
                worst = float(np.max(np.abs(samples["lapM"])))
                assert worst < 1e-10, (a, policy, worst)


def test_criterion_2_torus_closed_form():
    with criterion(2, "torus lap M vs reference closed form at 64 angles "
                      "(agreement or finding with discrepancy pattern)", 1.0):
        report = findings.torus_laplacian_comparison(2.0, 1.0)
        if report["matches_reference"]:
            assert report["max_rel_deviation"] < 1e-9
        else:
            # finding record: both value curves present plus the pattern
            assert len(report["lapM_jets"]) == 64
            assert len(report["reference"]) == 64
            assert report["pattern"]["reference_equals_half_lapLB"]
            # the jet values themselves are pinned by the parametric oracle
            theta = np.array(report["angles"])
            assert np.allclose(report["lapM_jets"],
                               cf.torus_lap_sd(2.0, 1.0, theta), atol=1e-10)


def test_criterion_3_si_force_estimate(capsys):
    with criterion(3, "force subcommand reproduces the 1.1e-2 pN scale", 5.0):
        code = cli_main(["force", "--surface", "generic",
                        "--curvature-scale", "1e-8m", "--mass", "1e-30"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        expected = geo.HBAR_SI ** 2 / (1e-30 * 1e-24) * 1e12
        assert payload["force_scale_pN"] == pytest.approx(expected, rel=0.01)
        assert payload["force_scale_pN"] == pytest.approx(1.1e-2, rel=0.02)


def test_criterion_4_spheroid_extrema():
    with criterion(4, "spheroid extrema: prolate poles, oblate equator orbit, "
                      "values recorded under both policies", 30.0):
        prolate = builtin_surface("spheroid", {"a": 1.0, "b": 2.0})
        points = optim.find_critical_points(prolate, "lapM", GN)
        locs = np.array([p.location for p in points])
        for pole in ([0.0, 0.0, 2.0], [0.0, 0.0, -2.0]):
            assert np.linalg.norm(locs - pole, axis=1).min() < 1e-6

        oblate = builtin_surface("spheroid", {"a": 2.0, "b": 1.0})
        points = optim.find_critical_points(oblate, "lapM", GN)
        equator = [p for p in points
                   if abs(p.location[2]) < 1e-6
                   and abs(np.hypot(*p.location[:2]) - 2.0) < 1e-6]
        assert equator and equator[0].classification == "degenerate-orbit"

        # reference-value comparison under both extension policies, with
        # match/mismatch recorded (for these surfaces: mismatch, with the
        # Laplace-Beltrami ratio pattern recorded)
        for a, b, where in ((1.0, 2.0, "pole"), (2.0, 1.0, "equator")):
            report = findings.spheroid_extremum_comparison(a, b)
            entry = report["locations"][where]
            assert "matches_gradient_normalized" in entry
            assert "matches_signed_distance" in entry
            assert entry["lapM_gradient_normalized"] == pytest.approx(
                cf.SPHEROID_LAP[(a, b)][where]["gn"], rel=1e-9)
            assert entry["lapM_signed_distance"] == pytest.approx(
                cf.SPHEROID_LAP[(a, b)][where]["sd"], rel=1e-9)

        # every symbolic signed-distance value, through curvature_sample
        for (a, b), want in cf.SPHEROID_LAP.items():
            spec = builtin_surface("spheroid", {"a": a, "b": b})
            for where, point in (("pole", [0.0, 0.0, b]), ("equator", [a, 0.0, 0.0])):
                sample = geo.curvature_sample(spec, np.array(point), SD)
                assert sample.lapM == pytest.approx(want[where]["sd"], rel=1e-9)


def test_criterion_5_geometric_potential_cross_check():
    with criterion(5, "V_G consistency with the principal-curvature form at "
                      "200 random points (sphere, torus, spheroid)", 5.0):
        cases = [
            (builtin_surface("sphere", {"a": 1.0}), 67),
            (builtin_surface("torus", {"R": 2.0, "r": 1.0}), 67),
            (builtin_surface("spheroid", {"a": 1.0, "b": 2.0}), 66),
        ]
        total = 0
        for spec, count in cases:
            samples = geo.sample_field(spec, SD, sampling="random",
                                       count=count, seed=1)
            for (k1, k2), vg_geom in zip(samples["kappa"].T, samples["vg_geom"]):
                # derived two-curvature identity: M^2/2 - S2 = -(k1-k2)^2/2,
                # equivalent to V_G = -(hbar^2/2 mu)(H^2 - K)
                assert vg_geom == pytest.approx(-0.5 * (k1 - k2) ** 2,
                                                abs=1e-8)
                total += 1
        assert total == 200


def test_criterion_6_classical_force_law():
    with criterion(6, "constrained force law: order >= 1.9 convergence, "
                      "max residual < 1e-6 at dt = 1e-4, both forms agree", 30.0):
        runs = [
            ("circle", builtin_surface("circle", {"a": 1.0}),
             np.array([1.0, 0.0]), np.array([0.0, 1.0])),
            ("sphere", builtin_surface("sphere", {"a": 1.0}),
             np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])),
            ("torus", builtin_surface("torus", {"R": 2.0, "r": 1.0}),
             np.array([3.0, 0.0, 0.0]), np.array([0.0, 0.6, -0.8])),
        ]
        floor = 1e-10
        for name, spec, x0, p0 in runs:
            maxima = []
            for dt in (4e-4, 2e-4, 1e-4):
                traj = dyn.integrate(spec, dyn.TrajectoryState(x0, p0, 0.0),
                                     dyn.IntegratorConfig(dt=dt,
                                                          steps=int(0.4 / dt)))
                eq1 = dyn.force_residual(spec, traj)
                maxima.append(eq1.max)
            assert maxima[-1] < 1e-6, (name, maxima)
            if max(maxima) > floor:
                orders = [np.log2(maxima[i] / maxima[i + 1]) for i in range(2)]
                assert min(orders) >= 1.9, (name, maxima, orders)
            # else: residuals at the roundoff floor on exact circular orbits,
            # converged beyond measurable order
            eq2 = dyn.geodesic_form_residual(spec, traj)
            assert eq2.max == pytest.approx(eq1.max, rel=1e-6, abs=1e-12)


def test_criterion_7_circle_operator_anchors():
    with criterion(7, "circle anchors: closed-form spectrum 1e-10, p^2 action "
                      "1e-12, H forms 1e-12, hermiticity 1e-11 (hard)", 10.0):
        grid = build_grid("circle", {"a": 1.0}, 64)
        report = circle_anchor_report(grid)
        # Closed-form spectrum of the surface Hamiltonian (both forms pinned
        # below): hbar^2 m^2/(2 mu a^2) + V_G, so the eigenvalue GAPS are
        # exactly m^2/2 at unit scales and the absolute levels carry the
        # constant geometric potential V_G = -1/8.
        assert report["eigenvalue_defect"] < 1e-10
        assert report["eigenvalue_gap_defect"] < 1e-10
        assert report["geometric_potential"] == pytest.approx(-1.0 / 8.0)
        assert report["p_squared_defect"] < 1e-12
        assert report["h_forms_residual"] < 1e-12
        assert report["n_dot_p_defect"] < 1e-12
        # the suite's stack [p, H_lb, H_mom] counts its worst component
        suite = run_identity_suite("circle", {"a": 1.0}, [16, 32, 64],
                                   identities=["HERMITICITY"])
        assert suite["identities"][0]["residuals"][-1] < 1e-11  # on the 64-node grid


def test_criterion_8_identity_suite():
    with criterion(8, "identity verdicts on circle 32/64/128 and torus "
                      "32^2/64^2/128^2, EQ10 sign question flagged", 300.0):
        science_ids = ("EQ3_MAIN", "EQ8_PP", "EQ10_SCALAR",
                       "EQ11_F_SIMPL", "EQ13_G_SIMPL")
        circle = run_identity_suite("circle", {"a": 1.0}, [32, 64, 128])
        by_id = {v["identity"]: v for v in circle["identities"]}
        for ident in science_ids:
            verdict = by_id[ident]
            assert verdict["verdict"] in ("confirmed", "refuted"), ident
            r = verdict["residuals"]
            assert all(r[k + 1] <= r[k] * 1.25 + 1e-13
                       for k in range(len(r) - 1)), (ident, r)
        assert circle["hard_failures"] == []

        torus = run_identity_suite("torus", {"R": 2.0, "r": 1.0},
                                   [32, 64, 128])
        tby = {v["identity"]: v for v in torus["identities"]}
        for ident in science_ids:
            assert np.isfinite(tby[ident]["slope"])
        # confirmed identities decay spectrally on the torus
        assert tby["EQ3_MAIN"]["verdict"] == "confirmed"
        assert tby["EQ3_MAIN"]["slope"] < -4
        assert tby["EQ8_PP"]["verdict"] == "confirmed"
        # the sign question: flagged explicitly with the agreeing pair
        flags = " ".join(torus["flags"])
        assert "agreeing pair" in flags
        assert "lhs_vs_reference" in flags
        assert tby["EQ10_SCALAR"]["verdict"] == "refuted"
        assert torus["hard_failures"] == []


def test_criterion_9_split_identity():
    with criterion(9, "normal/surface split of lap M: sphere < 1e-10, "
                      "circle and torus recorded with finding status", 1.0):
        report = findings.split_identity_report()
        by_name = {s["surface"]: s for s in report["surfaces"]}
        assert by_name["sphere"]["max_abs_residual"] < 1e-10
        assert by_name["sphere"]["status"] == "confirmed"
        for name in ("circle", "torus"):
            entry = by_name[name]
            assert entry["status"] in ("confirmed", "finding")
            assert entry["rows"], name
            for row in entry["rows"]:
                assert np.isfinite(row["residual"])
        # circle worked value: residual -2 at unit radius
        assert by_name["circle"]["rows"][0]["residual"] == pytest.approx(
            -2.0, abs=1e-9)
        assert len(by_name["torus"]["rows"]) == 16


def test_criterion_10_ehrenfest_trace():
    with criterion(10, "Ehrenfest decomposition closes within 1% and hbar "
                       "scaling slopes are 2.0/0.0 within 0.1", 120.0):
        grid = build_grid("circle", {"a": 1.0}, 128)
        packet = WavePacket(center=0.0, sigma=0.2, mean_momentum=10.0)
        trace = evolve_wavepacket(grid, packet, dt=5e-4, steps=200)
        assert trace.closure_error() < 0.01
        scaling = hbar_scaling_slopes({"a": 1.0})
        assert scaling["slope_quantum"] == pytest.approx(2.0, abs=0.1)
        assert scaling["slope_centripetal"] == pytest.approx(0.0, abs=0.1)
