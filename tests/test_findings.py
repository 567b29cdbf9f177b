import numpy as np
import pytest

from geomforce import findings

import closed_forms as cf


def test_torus_reference_formula_values():
    assert findings.torus_reference_laplacian(2.0, 1.0, np.pi / 2) == \
        pytest.approx(1.0 / 9.0)
    assert findings.torus_reference_laplacian(2.0, 1.0, -np.pi / 2) == \
        pytest.approx(-1.0)


def test_torus_comparison_records_half_lb_pattern():
    report = findings.torus_laplacian_comparison(2.0, 1.0, n_angles=64)
    assert not report["matches_reference"]
    assert report["max_rel_deviation"] > 1.0
    assert report["pattern"]["reference_equals_half_lapLB"]
    lap = np.array(report["lapM_jets"])
    theta = np.array(report["angles"])
    assert np.allclose(lap, cf.torus_lap_sd(2.0, 1.0, theta), atol=1e-10)


def test_spheroid_reference_values():
    assert findings.spheroid_reference_pole(1.0, 2.0) == pytest.approx(-6.0)
    assert findings.spheroid_reference_equator(2.0, 1.0) == pytest.approx(-9.75)


@pytest.mark.parametrize("a,b,where", [(1.0, 2.0, "pole"), (2.0, 1.0, "equator")])
def test_spheroid_comparison_against_symbolic_constants(a, b, where):
    report = findings.spheroid_extremum_comparison(a, b)
    entry = report["locations"][where]
    want = cf.SPHEROID_LAP[(a, b)][where]
    assert entry["lapM_gradient_normalized"] == pytest.approx(want["gn"], rel=1e-10)
    assert entry["lapM_signed_distance"] == pytest.approx(want["sd"], rel=1e-9)
    assert entry["lapLB"] == pytest.approx(want["lb"], rel=1e-9)


def test_spheroid_comparison_matches_neither_policy():
    # the quoted closed forms do not equal either extension's Laplacian;
    # the report must say so rather than hard-code a truth
    report = findings.spheroid_extremum_comparison(1.0, 2.0)
    for entry in report["locations"].values():
        assert not entry["matches_gradient_normalized"]
        assert not entry["matches_signed_distance"]
    assert "none" in report["summary"]


def test_split_identity_report_statuses():
    report = findings.split_identity_report()
    by_name = {s["surface"]: s for s in report["surfaces"]}
    assert by_name["sphere"]["status"] == "confirmed"
    assert by_name["sphere"]["max_abs_residual"] < 1e-10
    assert by_name["circle"]["status"] == "finding"
    assert by_name["circle"]["rows"][0]["residual"] == pytest.approx(-2.0, abs=1e-9)
    assert by_name["torus"]["status"] == "finding"
    assert by_name["torus"]["max_abs_residual_flipped"] < 1e-9
    assert "sign" in by_name["torus"]["note"]
