import inspect

import numpy as np
import pytest

from geomforce import geometry as geo
from geomforce import optim
from geomforce.geometry import ExtensionPolicy
from geomforce.surfaces import builtin_surface, from_expression

import closed_forms as cf

GN = ExtensionPolicy.GRADIENT_NORMALIZED
SD = ExtensionPolicy.SIGNED_DISTANCE


def _locations(points):
    return np.array([p.location for p in points])


def test_prolate_spheroid_poles_found():
    spec = builtin_surface("spheroid", {"a": 1.0, "b": 2.0})
    points = optim.find_critical_points(spec, "lapM", GN)
    locs = _locations(points)
    for pole in ([0.0, 0.0, 2.0], [0.0, 0.0, -2.0]):
        dist = np.linalg.norm(locs - pole, axis=1).min()
        assert dist < 1e-6
    pole_records = [p for p in points if abs(abs(p.location[2]) - 2.0) < 1e-6]
    for rec in pole_records:
        assert rec.value == pytest.approx(cf.SPHEROID_LAP[(1.0, 2.0)]["pole"]["gn"],
                                          rel=1e-8)
        assert rec.grad_norm < 1e-8


def test_prolate_pole_is_the_magnitude_extremum_dense_sweep_oracle():
    # dense parametric sweep of the same field, independent of the optimizer
    spec = builtin_surface("spheroid", {"a": 1.0, "b": 2.0})
    t = np.linspace(-np.pi / 2 + 1e-3, np.pi / 2 - 1e-3, 2000)
    pts = np.stack([np.cos(t), np.zeros_like(t), 2.0 * np.sin(t)])
    fields = geo.curvature_fields(spec, pts, GN)
    sweep_max = np.abs(fields["lapM"]).max()
    points = optim.find_critical_points(spec, "lapM", GN)
    best = max(abs(p.value) for p in points)
    assert best >= sweep_max - 1e-6
    # the sweep extremum sits at the pole ends
    assert np.abs(fields["lapM"][[0, -1]]).max() == pytest.approx(sweep_max, rel=1e-3)


def test_oblate_spheroid_equator_orbit():
    spec = builtin_surface("spheroid", {"a": 2.0, "b": 1.0})
    points = optim.find_critical_points(spec, "lapM", GN)
    equator = [p for p in points
               if abs(p.location[2]) < 1e-6
               and abs(np.hypot(*p.location[:2]) - 2.0) < 1e-6]
    assert equator
    rec = equator[0]
    assert rec.value == pytest.approx(cf.SPHEROID_LAP[(2.0, 1.0)]["equator"]["gn"],
                                      rel=1e-8)
    assert rec.classification == "degenerate-orbit"
    assert rec.orbit == "circle z=0, rho=2"


def test_prolate_sd_search_records():
    spec = builtin_surface("spheroid", {"a": 1.0, "b": 2.0})
    points = optim.find_critical_points(spec, "lapM", SD)
    ref = cf.SPHEROID_LAP[(1.0, 2.0)]
    # one record per critical set, so every multiplicity is 1
    want = [("degenerate-orbit", "circle z=-1.65733, rho=0.559748", 1, -3.02060581221850),
            ("degenerate-orbit", "circle z=1.65733, rho=0.559748", 1, -3.02060581221850),
            ("degenerate-orbit", "circle z=0, rho=1", 1, ref["equator"]["sd"]),
            ("max", None, 1, ref["pole"]["sd"]),
            ("max", None, 1, ref["pole"]["sd"])]
    got = [(p.classification, p.orbit, p.multiplicity, p.value) for p in points]
    assert [row[:3] for row in got] == [row[:3] for row in want]
    for g, w in zip(got, want):
        assert g[3] == pytest.approx(w[3], rel=1e-12), w
    assert [np.sign(p.location[2]) for p in points[3:]] == [-1.0, 1.0]
    for rec in points[3:]:
        assert abs(abs(rec.location[2]) - 2.0) < 1e-6
        assert list(rec.location[:2]) == [0.0, 0.0]


def test_records_depend_on_the_critical_sets_not_on_the_hits():
    # five sets, each record at its set's azimuth-0 point
    spec = builtin_surface("spheroid", {"a": 1.0, "b": 2.0})
    points = optim.find_critical_points(spec, "lapM", GN)
    assert len(points) == 5
    for rec in points:
        if rec.orbit is not None:
            assert rec.location[1] == 0.0


def test_records_do_not_depend_on_the_starts_or_the_seed():
    # the search draws nothing at random: tol is its one setting (the CLI's
    # --starts and --seed are checked and echoed only)
    params = list(inspect.signature(optim.find_critical_points).parameters)
    assert params == ["spec", "field", "policy", "tol"]


def test_a_degenerate_orbit_is_one_converged_record():
    # the tangent Hessian is flat along the equator orbit; the search still
    # gives every critical set one record, each converged: both poles, the
    # equator and the two z = +-0.457 circles
    spec = builtin_surface("spheroid", {"a": 2.0, "b": 1.0})
    points = optim.find_critical_points(spec, "lapM", GN)
    assert [p.orbit for p in points] == [
        "circle z=-0.457216, rho=1.77871", "circle z=0.457216, rho=1.77871",
        None, None, "circle z=0, rho=2"]
    assert [p.multiplicity for p in points] == [1] * 5
    assert all(p.grad_norm < 1e-8 for p in points)


@pytest.mark.parametrize("a, b", [(1.0, 2.0), (2.0, 1.0)], ids=["prolate", "oblate"])
def test_quartic_flat_poles_are_reported_once_on_the_axis(a, b):
    # vg_geom is flat to fourth order at the umbilic poles, where its
    # gradient falls as rho^3; each pole is one record at rho = 0 exactly,
    # with no orbit near it
    spec = builtin_surface("spheroid", {"a": a, "b": b})
    points = optim.find_critical_points(spec, "vg_geom", SD)
    rho = np.array([np.hypot(*p.location[:2]) for p in points])
    poles = [p for p in points if abs(abs(p.location[2]) - b) < 1e-6]
    assert [np.sign(p.location[2]) for p in poles] == [-1.0, 1.0]
    for rec in poles:
        assert list(rec.location[:2]) == [0.0, 0.0]
        assert rec.orbit is None
        assert rec.value == pytest.approx(0.0, abs=1e-12)
    assert np.count_nonzero(rho < 0.1 * a) == 2


def test_a_root_on_a_meridian_node_is_counted_once(monkeypatch):
    # 65 latitude nodes put node 32 at u = 0.0, on the oblate equator
    spec = builtin_surface("spheroid", {"a": 2.0, "b": 1.0})
    want = optim.find_critical_points(spec, "lapM", GN)
    monkeypatch.setattr(optim, "MERIDIAN_SAMPLES", 65)
    assert np.linspace(-np.pi / 2, np.pi / 2, optim.MERIDIAN_SAMPLES)[32] == 0.0
    got = optim.find_critical_points(spec, "lapM", GN)
    assert [p.orbit for p in got] == [p.orbit for p in want]
    assert [p.orbit for p in got].count("circle z=0, rho=2") == 1
    for g, w in zip(got, want):
        assert g.value == pytest.approx(w.value, rel=1e-12)
        assert np.abs(g.location - w.location).max() <= 1e-12


def test_torus_inner_circle_orbit():
    spec = builtin_surface("torus", {"R": 2.0, "r": 1.0})
    points = optim.find_critical_points(spec, "lapM", SD)
    inner = [p for p in points
             if abs(np.hypot(*p.location[:2]) - 1.0) < 1e-6
             and abs(p.location[2]) < 1e-6]
    assert inner
    rec = inner[0]
    assert rec.classification == "degenerate-orbit"
    assert rec.value == pytest.approx(-2.0, abs=1e-9)
    assert rec.orbit == "circle z=0, rho=1"
    # dense sweep oracle: the inner circle is the magnitude extremum
    theta = np.linspace(0, 2 * np.pi, 4000, endpoint=False)
    sweep = cf.torus_lap_sd(2.0, 1.0, theta)
    assert np.abs(sweep).max() == pytest.approx(2.0, abs=1e-6)
    assert theta[np.argmax(np.abs(sweep))] == pytest.approx(3 * np.pi / 2, abs=1e-2)


def test_constant_field_on_sphere_returns_whole_surface_orbit():
    spec = builtin_surface("sphere", {"a": 1.0})
    points = optim.find_critical_points(spec, "lapM", SD)
    assert len(points) == 1
    assert points[0].classification == "degenerate-orbit"
    assert "entire surface" in points[0].orbit
    assert abs(points[0].value) < 1e-10


def test_one_start_finds_a_real_critical_point():
    # the field is not constant, so no record is the whole surface
    spec = builtin_surface("spheroid", {"a": 1.0, "b": 2.0})
    points = optim.find_critical_points(spec, "lapM", GN)
    assert points
    for rec in points:
        assert "entire surface" not in (rec.orbit or "")
        assert rec.grad_norm < 1e-8


def test_no_root_below_tol_raises_with_diagnostics():
    # the torus has no poles, and its two orbits' |g_tan| sit at roundoff
    spec = builtin_surface("torus", {"R": 2.0, "r": 1.0})
    with pytest.raises(optim.NoCriticalPointFoundError) as info:
        optim.find_critical_points(spec, "lapM", SD, tol=1e-30)
    rows = info.value.diagnostics
    assert sorted(round(np.hypot(*row["location"][:2]), 9) for row in rows) == [1.0, 3.0]
    assert all(row["grad_norm"] >= 1e-30 for row in rows)


def test_plane_mean_curvature_degenerate():
    spec = builtin_surface("plane", {})
    label = optim.classify_critical_point(spec, np.array([0.2, -0.3, 0.0]),
                                          "M", SD)
    assert label == "degenerate-orbit"


def test_classification_labels_match_dense_sweep_signs():
    # prolate pole: lapM = 54 > values nearby, so it is a local max
    spec = builtin_surface("spheroid", {"a": 1.0, "b": 2.0})
    label = optim.classify_critical_point(spec, np.array([0.0, 0.0, 2.0]),
                                          "lapM", GN)
    assert label == "max"


def test_determinism_under_fixed_seed():
    spec = builtin_surface("torus", {"R": 2.0, "r": 1.0})
    a = optim.find_critical_points(spec, "lapM", SD)
    b = optim.find_critical_points(spec, "lapM", SD)
    assert len(a) == len(b)
    for pa, pb in zip(a, b):
        assert np.allclose(pa.location, pb.location)
        assert pa.value == pb.value
        assert pa.multiplicity == pb.multiplicity


def test_every_returned_point_satisfies_first_order_conditions():
    spec = builtin_surface("spheroid", {"a": 2.0, "b": 1.0})
    for rec in optim.find_critical_points(spec, "vg_geom", GN, tol=1e-8):
        assert abs(float(spec.f(rec.location))) < 1e-9
        assert rec.grad_norm < 1e-8


def test_unknown_field_rejected():
    spec = builtin_surface("sphere", {"a": 1.0})
    with pytest.raises(ValueError):
        optim.find_critical_points(spec, "curvature", SD)


def test_report_has_signed_and_magnitude_orderings():
    spec = builtin_surface("torus", {"R": 2.0, "r": 1.0})
    points = optim.find_critical_points(spec, "lapM", SD)
    report = optim.to_report(points)
    values = [row["value"] for row in report["critical_points"]]
    assert values == sorted(values)
    magnitudes = [abs(row["value"]) for row in report["by_magnitude"]]
    assert magnitudes == sorted(magnitudes, reverse=True)
    for row in report["critical_points"]:
        assert set(row) == {"location", "value", "class", "grad_norm",
                            "multiplicity", "orbit"}


def test_report_keeps_the_record_order_of_equal_values():
    # the z = -1.1547 and z = +1.1547 circles of vg_geom share one value up
    # to 2e-16; the report lists them in record order, not by that roundoff
    spec = builtin_surface("spheroid", {"a": 1.0, "b": 2.0})
    points = optim.find_critical_points(spec, "vg_geom", SD)
    report = optim.to_report(points)
    assert report["critical_points"] == [p.to_dict() for p in points]
    assert [p["orbit"] for p in report["critical_points"][:2]] == [
        "circle z=-1.1547, rho=0.816497", "circle z=1.1547, rho=0.816497"]
    assert [p["orbit"] for p in report["by_magnitude"][:2]] == [
        "circle z=-1.1547, rho=0.816497", "circle z=1.1547, rho=0.816497"]


def _second_difference_hessian(spec, x, field, policy, frame, h):
    """Reference oracle: second differences of the field in a tangent frame."""
    dim = len(frame)

    def fval(p):
        sample = geo.curvature_sample(spec, geo.project_to_surface(spec, p), policy)
        return getattr(sample, field)

    f0 = fval(x)
    hess = np.zeros((dim, dim))
    for i in range(dim):
        fp = fval(x + h * frame[i])
        fm = fval(x - h * frame[i])
        hess[i, i] = (fp - 2.0 * f0 + fm) / h ** 2
        for j in range(i + 1, dim):
            fpp = fval(x + h * (frame[i] + frame[j]))
            fpm = fval(x + h * (frame[i] - frame[j]))
            fmp = fval(x - h * (frame[i] - frame[j]))
            fmm = fval(x - h * (frame[i] + frame[j]))
            hess[i, j] = hess[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h ** 2)
    return hess


TRIAXIAL = from_expression("x^2/a^2 + y^2/b^2 + z^2/c^2 - 1", 3,
                           {"a": 1.0, "b": 1.5, "c": 2.0}, name="triaxial")


@pytest.mark.parametrize("policy", [GN, SD], ids=["gn", "sd"])
@pytest.mark.parametrize("spec", [
    builtin_surface("spheroid", {"a": 1.0, "b": 2.0}),
    builtin_surface("spheroid", {"a": 2.0, "b": 1.0}),
    builtin_surface("torus", {"R": 2.0, "r": 1.0}),
    TRIAXIAL,
], ids=["prolate", "oblate", "torus", "triaxial"])
def test_exact_riemannian_hessian_matches_second_differences(spec, policy):
    if spec is TRIAXIAL:
        rng = np.random.default_rng(3)
        points = geo.project_to_surface(spec, rng.uniform(0.3, 1.5, (3, 2)))
    else:
        points = geo.sample_points(spec, "random", count=2, seed=11)
    h = 1e-4 * spec.feature_scale()
    for field in geo.FIELD_NAMES:
        _, _, n, hs = geo.field_derivatives(spec, points, policy, field, degree=2)
        for b in range(points.shape[1]):
            frame = np.linalg.svd(n[None, :, b])[2][1:]  # tangent basis (rows)
            exact = frame @ hs[:, :, b] @ frame.T
            oracle = _second_difference_hessian(spec, points[:, b], field, policy,
                                                frame, h)
            scale = np.abs(hs[:, :, b]).max()
            assert np.abs(exact - oracle).max() <= 1e-5 * scale, (field, b)
            assert np.abs(hs[:, :, b] @ n[:, b]).max() <= 1e-12 * scale


@pytest.mark.parametrize("name, params, policy, point", [
    ("spheroid", {"a": 2.0, "b": 1.0}, GN, [2.0 * np.cos(0.7), 2.0 * np.sin(0.7), 0.0]),
    ("torus", {"R": 2.0, "r": 1.0}, SD, [np.cos(0.7), np.sin(0.7), 0.0]),
], ids=["oblate-equator", "torus-inner-circle"])
def test_exact_hessian_is_flat_along_an_orbit(name, params, policy, point):
    spec = builtin_surface(name, params)
    _, _, n, hs = geo.field_derivatives(spec, np.array(point)[:, None], policy,
                                        "lapM", degree=2)
    eigs = np.abs(geo.principal_curvatures_batch(n, hs)[:, 0])
    assert eigs.min() <= 1e-10 * eigs.max()


def test_batched_brackets_match_single_bracket_refinement():
    spec = builtin_surface("spheroid", {"a": 1.0, "b": 2.0})
    u, points = optim._meridian(spec)

    def slope(u):
        return optim._slope(*geo.field_derivatives(spec, points(u), GN, "lapM")[1:3])

    v1 = slope(u)
    v1[[0, -1]] = 0.0  # the poles
    k = np.flatnonzero(v1[:-1] * v1[1:] < 0)
    assert len(k) == 3  # the equator and the z = +-1.534 circles
    together = optim._brent(slope, u[k], u[k + 1], v1[k], v1[k + 1])
    for i, j in enumerate(k):
        alone = optim._brent(slope, u[[j]], u[[j + 1]], v1[[j]], v1[[j + 1]])
        assert alone[0] == together[i]
        assert u[j] < alone[0] < u[j + 1]
    assert np.abs(slope(together)).max() < 1e-12
