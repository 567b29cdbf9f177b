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
    points = optim.find_critical_points(
        spec, "lapM", GN, optim.SearchConfig(starts=24, seed=0))
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
    points = optim.find_critical_points(
        spec, "lapM", GN, optim.SearchConfig(starts=16, seed=1))
    best = max(abs(p.value) for p in points)
    assert best >= sweep_max - 1e-6
    # the sweep extremum sits at the pole ends
    assert np.abs(fields["lapM"][[0, -1]]).max() == pytest.approx(sweep_max, rel=1e-3)


def test_oblate_spheroid_equator_orbit():
    spec = builtin_surface("spheroid", {"a": 2.0, "b": 1.0})
    points = optim.find_critical_points(
        spec, "lapM", GN, optim.SearchConfig(starts=24, seed=0))
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
    points = optim.find_critical_points(
        spec, "lapM", SD, optim.SearchConfig(starts=24, seed=0))
    ref = cf.SPHEROID_LAP[(1.0, 2.0)]
    want = [("degenerate-orbit", "circle z=-1.65733, rho=0.559748", 10, -3.02060581221850),
            ("degenerate-orbit", "circle z=1.65733, rho=0.559748", 14, -3.02060581221850),
            ("degenerate-orbit", "circle z=0, rho=1", 18, ref["equator"]["sd"]),
            ("max", None, 5, ref["pole"]["sd"]),
            ("max", None, 1, ref["pole"]["sd"])]
    got = [(p.classification, p.orbit, p.multiplicity, p.value) for p in points]
    assert [row[:3] for row in got] == [row[:3] for row in want]
    for g, w in zip(got, want):
        assert g[3] == pytest.approx(w[3], rel=1e-12), w
    assert [np.sign(p.location[2]) for p in points[3:]] == [-1.0, 1.0]
    for rec in points[3:]:
        assert abs(abs(rec.location[2]) - 2.0) < 1e-6


def _prolate_gn_search(seed):
    spec = builtin_surface("spheroid", {"a": 1.0, "b": 2.0})
    return optim.find_critical_points(spec, "lapM", GN,
                                      optim.SearchConfig(starts=24, seed=seed))


def test_records_depend_on_the_critical_sets_not_on_the_hits():
    # seeds 0 and 41 land on the same five sets through different hits; each
    # record sits at its set's azimuth-0 point, so the locations agree
    a, b = _prolate_gn_search(0), _prolate_gn_search(41)
    assert len(a) == len(b) == 5
    assert [p.orbit for p in a] == [p.orbit for p in b]
    assert np.abs(_locations(a) - _locations(b)).max() <= 1e-9
    for rec in a + b:
        if rec.orbit is not None:
            assert rec.location[1] == 0.0


def test_records_do_not_depend_on_the_start_order(monkeypatch):
    want = [p.to_dict() for p in _prolate_gn_search(0)]
    sample_points = geo.sample_points
    perm = np.random.default_rng(1).permutation(24)
    monkeypatch.setattr(geo, "sample_points",
                        lambda *args, **kw: sample_points(*args, **kw)[:, perm])
    assert [p.to_dict() for p in _prolate_gn_search(0)] == want
    monkeypatch.setattr(geo, "sample_points",
                        lambda *args, **kw: sample_points(*args, **kw)[:, ::-1])
    assert [p.to_dict() for p in _prolate_gn_search(0)] == want


def test_walks_ending_on_a_degenerate_orbit_converge():
    # the tangent Hessian is flat along the equator orbit; Newton must not
    # let that roundoff eigenvalue stall the walk, so every climb and every
    # descent of every start lands on a hit
    spec = builtin_surface("spheroid", {"a": 2.0, "b": 1.0})
    points = optim.find_critical_points(spec, "lapM", GN,
                                        optim.SearchConfig(starts=24, seed=3))
    assert sum(p.multiplicity for p in points) == 2 * 24


def test_torus_inner_circle_orbit():
    spec = builtin_surface("torus", {"R": 2.0, "r": 1.0})
    points = optim.find_critical_points(
        spec, "lapM", SD, optim.SearchConfig(starts=16, seed=5))
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
    for starts in (8, 1):
        points = optim.find_critical_points(
            spec, "lapM", SD, optim.SearchConfig(starts=starts, seed=2))
        assert len(points) == 1
        assert points[0].classification == "degenerate-orbit"
        assert "entire surface" in points[0].orbit
        assert abs(points[0].value) < 1e-10


def test_one_start_finds_a_real_critical_point():
    # one start has a value span of 0; the field is still not constant
    spec = builtin_surface("spheroid", {"a": 1.0, "b": 2.0})
    cfg = optim.SearchConfig(starts=1, seed=0)
    points = optim.find_critical_points(spec, "lapM", GN, cfg)
    assert points
    for rec in points:
        assert "entire surface" not in (rec.orbit or "")
        assert rec.grad_norm < cfg.tol


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
    cfg = optim.SearchConfig(starts=10, seed=9)
    a = optim.find_critical_points(spec, "lapM", SD, cfg)
    b = optim.find_critical_points(spec, "lapM", SD, cfg)
    assert len(a) == len(b)
    for pa, pb in zip(a, b):
        assert np.allclose(pa.location, pb.location)
        assert pa.value == pb.value
        assert pa.multiplicity == pb.multiplicity


def test_every_returned_point_satisfies_first_order_conditions():
    spec = builtin_surface("spheroid", {"a": 2.0, "b": 1.0})
    cfg = optim.SearchConfig(starts=12, seed=4, tol=1e-8)
    for rec in optim.find_critical_points(spec, "vg_geom", GN, cfg):
        assert abs(float(spec.f(rec.location))) < 1e-9
        assert rec.grad_norm < cfg.tol


def test_unknown_field_rejected():
    spec = builtin_surface("sphere", {"a": 1.0})
    with pytest.raises(ValueError):
        optim.find_critical_points(spec, "curvature", SD)


def test_report_has_signed_and_magnitude_orderings():
    spec = builtin_surface("torus", {"R": 2.0, "r": 1.0})
    points = optim.find_critical_points(
        spec, "lapM", SD, optim.SearchConfig(starts=10, seed=5))
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
    points = optim.find_critical_points(spec, "vg_geom", SD,
                                        optim.SearchConfig(starts=8, seed=5))
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


def test_batched_walk_matches_single_column_walks():
    spec = builtin_surface("spheroid", {"a": 1.0, "b": 2.0})
    scale, tol = spec.feature_scale(), 1e-8
    starts = geo.sample_points(spec, "random", count=24, seed=0)
    values, g_tan, _, _ = geo.field_derivatives(spec, starts, GN, "lapM")
    x, value, g = (np.repeat(a, 2, axis=-1) for a in (starts, values, g_tan))
    direction = np.tile([1.0, -1.0], 24)
    converged = optim._walk(spec, x, value, g, "lapM", GN, direction, tol, scale)
    for k in range(48):
        x1 = starts[:, k // 2:k // 2 + 1].copy()
        v1, g1, _, _ = geo.field_derivatives(spec, x1, GN, "lapM")
        ok1 = optim._walk(spec, x1, v1, g1, "lapM", GN, direction[k:k + 1], tol, scale)
        assert ok1[0] == converged[k]
        assert np.abs(x1[:, 0] - x[:, k]).max() <= 1e-10
