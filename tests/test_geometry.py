import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomforce import geometry as geo
from geomforce import jets
from geomforce.cli import main as cli_main
from geomforce.expr import unparse
from geomforce.geometry import ExtensionPolicy
from geomforce.reports import csv_rows
from geomforce.surfaces import builtin_surface, chart_points, from_expression

import closed_forms as cf

GN = ExtensionPolicy.GRADIENT_NORMALIZED
SD = ExtensionPolicy.SIGNED_DISTANCE


@pytest.fixture(scope="module")
def torus():
    return builtin_surface("torus", {"R": 2.0, "r": 1.0})


@pytest.fixture(scope="module")
def sphere():
    return builtin_surface("sphere", {"a": 1.0})


@pytest.fixture(scope="module")
def circle():
    return builtin_surface("circle", {"a": 1.0})


def torus_point(theta, phi=0.0, R=2.0, r=1.0):
    rho = R + r * np.sin(theta)
    return np.array([rho * np.cos(phi), rho * np.sin(phi), r * np.cos(theta)])


# projections ------------------------------------------------------------------


def test_project_sphere_radially(sphere):
    assert np.allclose(geo.project_to_surface(sphere, np.array([2.0, 0.0, 0.0])),
                       [1.0, 0.0, 0.0], atol=1e-12)


def test_project_torus_to_tube_circle(torus):
    assert np.allclose(geo.project_to_surface(torus, np.array([4.0, 0.0, 0.0])),
                       [3.0, 0.0, 0.0], atol=1e-12)


def test_project_spheroid_axis_point_to_pole():
    spec = builtin_surface("spheroid", {"a": 1.0, "b": 2.0})
    got = geo.project_to_surface(spec, np.array([0.0, 0.0, 5.0]))
    assert np.allclose(got, [0.0, 0.0, 2.0], atol=1e-10)


def test_projection_failure_reports_iterations():
    spec = builtin_surface("sphere", {"a": 1.0})
    with pytest.raises(geo.NoConvergenceError) as err:
        geo.project_to_surface(spec, np.array([0.0, 0.0, 0.0]), max_iter=5)
    assert err.value.iterations == 5
    # the columns (2, 0, 0) and (0, 0.5, 0) converge; the centre fails with NaN
    points = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.0, 0.0]])
    with pytest.raises(geo.NoConvergenceError) as err:
        geo.project_to_surface(spec, points, max_iter=5)
    assert err.value.point == [0.0, 0.0, 0.0]
    assert (err.value.failed, err.value.total) == (1, 3)
    assert np.isnan(err.value.residual)
    assert "1 of 3 point(s), worst from [0.0, 0.0, 0.0]" in str(err.value)


QUARTIC = "x^4 + y^4 + z^4 - 1"


def _quartic_batch(far_columns, origin_columns=()):
    """3 * BLOCK + 5 points of x^4 + y^4 + z^4 = 1: columns just outside it,
    ones near radius 2.5 (where the projection cycles) at far_columns, and
    the origin (grad f = 0, so NaN) at origin_columns."""
    rng = np.random.default_rng(5)
    u = rng.standard_normal((3, 3 * geo.BLOCK + 5))
    points = 1.02 * u / np.sum(u ** 4, axis=0) ** 0.25
    points[:, far_columns] = 2.5 * u[:, far_columns] / np.linalg.norm(u[:, far_columns], axis=0)
    points[:, list(origin_columns)] = 0.0
    return points


def _no_convergence(spec, points, max_iter=100):
    with pytest.raises(geo.NoConvergenceError) as err:
        geo.project_to_surface(spec, points, max_iter=max_iter)
    e = err.value
    return e.iterations, e.residual, e.point, e.failed, e.total


def test_one_error_for_failures_in_two_blocks(monkeypatch):
    # failures in the first and the third of four blocks; the worst is the
    # second failure of the third block
    spec = from_expression(QUARTIC, 3)
    far = [3, 7, 2 * geo.BLOCK + 6, 2 * geo.BLOCK + 8]
    points = _quartic_batch(far)
    got = _no_convergence(spec, points)
    worst = []  # (|f|, input) of each column that fails on its own, in column order
    for k in range(points.shape[1]):
        try:
            geo.project_to_surface(spec, points[:, k])
        except geo.NoConvergenceError as alone:
            worst.append((alone.residual, alone.point))
    assert [w[1] for w in worst] == points[:, far].T.tolist()
    residual, point = max(worst, key=lambda w: w[0])  # the first of the largest
    assert point == points[:, far[3]].tolist()
    assert got == (100, residual, point, len(far), 3 * geo.BLOCK + 5)
    monkeypatch.setattr(geo, "BLOCK", points.shape[1])
    assert _no_convergence(spec, points) == got  # as one batch


def test_a_nan_in_a_later_block_is_the_worst(monkeypatch):
    # after 5 iterations the far columns of the first block still have a finite
    # |f|; the origin in the third block has NaN, and NaN is the worst
    spec = from_expression(QUARTIC, 3)
    points = _quartic_batch([3, 40], origin_columns=[2 * geo.BLOCK + 9])
    iterations, residual, point, failed, total = got = _no_convergence(spec, points, 5)
    assert (iterations, point, total) == (5, [0.0, 0.0, 0.0], 3 * geo.BLOCK + 5)
    assert np.isnan(residual) and failed >= 3
    monkeypatch.setattr(geo, "BLOCK", points.shape[1])
    whole = _no_convergence(spec, points, 5)
    assert np.isnan(whole[1]) and whole[:1] + whole[2:] == got[:1] + got[2:]


def _same_bits(a, b):
    return a.shape == b.shape and a.view(np.uint64).tolist() == b.view(np.uint64).tolist()


def test_sampled_points_are_their_columns_projected_alone(torus):
    # random: three full blocks and one of 5 columns; each column's input is
    # its chart draw moved along grad f by its offset, drawn whole
    count = 3 * geo.BLOCK + 5
    rng = np.random.default_rng(9)
    draws = chart_points(torus, count=count, rng=rng)[1]
    offset = rng.uniform(-0.05, 0.05, count) * torus.feature_scale()
    inputs = draws + torus.grad_f(draws) * offset
    points = geo.sample_points(torus, "random", count=count, seed=9)
    alone = np.stack([geo.project_to_surface(torus, x) for x in inputs.T], axis=1)
    assert _same_bits(points, alone)
    # grid: 48 x 32 nodes, one full block and one of 512 columns
    nodes = chart_points(torus, (48, 32))[1].reshape(3, -1)
    points = geo.sample_points(torus, "grid", resolution=(48, 32))
    alone = np.stack([geo.project_to_surface(torus, x) for x in nodes.T], axis=1)
    assert nodes.shape[1] == geo.BLOCK + 512 and _same_bits(points, alone)


def test_sample_points_hold_no_batch_wide_temporaries(torus):
    # grad f and the projection over all 65,536 columns at once peak at
    # 24.6e6 bytes; the draws, the offsets and the result take 3.7e6
    tracemalloc.start()
    try:
        geo.sample_points(torus, "random", count=65536, seed=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


# normal tables ----------------------------------------------------------------


def test_sphere_normal_tables_by_hand(sphere):
    s = geo.curvature_sample(sphere, np.array([1.0, 0.0, 0.0]), SD)
    assert np.allclose(s.n, [1.0, 0.0, 0.0], atol=1e-14)
    assert np.allclose(s.shape, np.diag([0.0, 1.0, 1.0]), atol=1e-12)


def test_circle_normal_trace(circle):
    for theta in (0.0, 0.7, 2.0):
        p = np.array([np.cos(theta), np.sin(theta)])
        s = geo.curvature_sample(circle, p, SD)
        assert np.allclose(s.n, p, atol=1e-13)
        assert np.trace(s.shape) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("policy", [GN, SD])
def test_unit_norm_and_tangency_invariants(torus, policy):
    for theta in np.linspace(0, 2 * np.pi, 7):
        s = geo.curvature_sample(torus, torus_point(theta), policy)
        assert abs(float(np.sum(s.n * s.n)) - 1.0) < 1e-10
        assert np.max(np.abs(s.n @ s.shape)) < 1e-8  # n_i n_{i,j} = 0 when |n| = 1


def test_signed_distance_normals_are_straight(torus):
    # d_n n = n_j n_{i,j} = 0 under the signed-distance extension
    s = geo.curvature_sample(torus, torus_point(1.3), SD)
    assert np.max(np.abs(s.shape @ s.n)) < 1e-12


def test_normal_tables_require_a_surface_point(sphere):
    with pytest.raises(geo.OffSurfaceError, match="not on the surface"):
        geo.curvature_sample(sphere, np.array([1.5, 0.0, 0.0]), SD)


@pytest.mark.parametrize("name,params,point", [
    ("circle", {"a": 1.0}, [np.cos(0.4), np.sin(0.4)]),
    ("sphere", {"a": 1.0}, [0.0, 0.6, 0.8]),
    ("torus", {"R": 2.0, "r": 1.0}, torus_point(0.9, phi=0.3)),
], ids=["circle", "sphere", "torus"])
def test_numeric_distance_jets_match_exact_for_sdf_surface(name, params, point):
    # the foot-point Newton jets against the f-jet tables: rebuild each
    # distance surface as a plain expression without the distance flag
    exact = builtin_surface(name, params)
    raw = from_expression(unparse(exact.expression), exact.dimension, params)
    assert exact.is_signed_distance and not raw.is_signed_distance
    p = np.array(point)[:, None]
    want = geo._tables_batch(exact, p, SD, 3)
    got = geo._tables_batch(raw, p, SD, 3)
    for table, g, w in zip(("n", "dn", "d2n", "d3n"), got, want):
        assert np.allclose(g, w, rtol=0.0, atol=1e-12), table


# curvature samples --------------------------------------------------------------


def test_circle_curvature_closed_forms(circle):
    want = cf.circle_fields(1.0)
    s = geo.curvature_sample(circle, np.array([np.cos(0.4), np.sin(0.4)]), SD)
    assert s.M == pytest.approx(want["M"], abs=1e-12)
    assert s.S2 == pytest.approx(want["S2"], abs=1e-12)
    assert s.vg_geom == pytest.approx(want["vg_geom"], abs=1e-12)
    assert s.lapM == pytest.approx(want["lapM"], abs=1e-11)
    assert s.lapLB_M == pytest.approx(0.0, abs=1e-11)
    assert s.kappa == pytest.approx([1.0])
    assert s.chi_geom == pytest.approx(1.0, abs=1e-11)


def test_sphere_quantum_force_vanishes(sphere):
    for point in ([1.0, 0.0, 0.0], [0.0, 0.6, 0.8]):
        for policy in (GN, SD):
            s = geo.curvature_sample(sphere, np.array(point), policy)
            assert abs(s.lapM) < 1e-10
            assert s.M == pytest.approx(-2.0, abs=1e-11)
            assert s.vg_geom == pytest.approx(0.0, abs=1e-11)


def test_torus_fields_match_parametric_oracle(torus):
    thetas = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    for theta in thetas:
        s = geo.curvature_sample(torus, torus_point(theta), SD)
        h1, h2 = cf.torus_curvatures(2.0, 1.0, theta)
        assert s.M == pytest.approx(-(h1 + h2), abs=1e-11)
        assert s.S2 == pytest.approx(h1 ** 2 + h2 ** 2, abs=1e-11)
        assert s.lapM == pytest.approx(cf.torus_lap_sd(2.0, 1.0, theta), abs=1e-10)
        assert s.lapLB_M == pytest.approx(cf.torus_lap_lb(2.0, 1.0, theta), abs=1e-10)
        assert sorted(s.kappa) == pytest.approx(sorted([h1, h2]), abs=1e-10)


# a spheroid of revolution about the last axis, (rho^2)/a^2 + x_N^2/b^2 = 1, in
# N = 2, 3, 4 dimensions; its meridian curvature has multiplicity 1 and its
# parallel curvature N - 2
_SPHEROIDS = {
    2: from_expression("x^2/a^2 + y^2/b^2 - 1", 2, {"a": 1.0, "b": 2.0}),
    3: builtin_surface("spheroid", {"a": 1.0, "b": 2.0}),
    4: from_expression("(x1^2 + x2^2 + x3^2)/a^2 + x4^2/b^2 - 1", 4, {"a": 1.0, "b": 2.0}),
}


@pytest.mark.parametrize("policy", [GN, SD], ids=["gn", "sd"])
@pytest.mark.parametrize("dimension", [2, 3, 4])
def test_principal_curvatures_match_the_spheroid_closed_form(dimension, policy):
    # under GN, dn n != 0 at the surface; only the tangent block of dn is
    # the shape operator (GN kappa1 at latitude -pi/3 of the 1:2 spheroid
    # once read 0.94704 against 0.86392)
    spec = _SPHEROIDS[dimension]
    t = np.linspace(-1.4, 1.4, 9)
    t[0] = -np.pi / 3
    direction = np.array([0.48, 0.6, 0.64][:dimension - 1])[:, None] + 0.1 * t
    direction /= np.linalg.norm(direction, axis=0)
    points = np.vstack([direction * np.cos(t), 2.0 * np.sin(t)])
    fields = geo.curvature_fields(spec, points, policy)
    kappa = geo.principal_curvatures_batch(fields["n"], fields["dn"])
    meridian, parallel = cf.spheroid_curvatures(1.0, 2.0, t)
    want = np.sort([meridian] + [parallel] * (dimension - 2), axis=0)[::-1]
    assert kappa.shape == (dimension - 1, len(t))
    assert np.abs(kappa - want).max() <= 1e-13
    assert np.abs(kappa.sum(axis=0) + fields["M"]).max() <= 1e-13


def test_torus_outer_equator_spot_values(torus):
    s = geo.curvature_sample(torus, torus_point(np.pi / 2), SD)
    assert s.lapM == pytest.approx(-10.0 / 27.0, abs=1e-12)
    assert s.lapLB_M == pytest.approx(2.0 / 9.0, abs=1e-12)


def test_lb_laplacian_is_extension_independent(torus):
    p = torus_point(0.8)
    lb_sd = geo.curvature_sample(torus, p, SD).lapLB_M
    lb_gn = geo.curvature_sample(torus, p, GN).lapLB_M
    assert lb_sd == pytest.approx(lb_gn, abs=1e-9)


def test_on_surface_mean_curvature_policy_independent():
    spec = builtin_surface("spheroid", {"a": 1.0, "b": 2.0})
    for point in (np.array([0.0, 0.0, 2.0]), np.array([1.0, 0.0, 0.0])):
        m_gn = geo.curvature_sample(spec, point, GN).M
        m_sd = geo.curvature_sample(spec, point, SD).M
        assert m_gn == pytest.approx(m_sd, abs=1e-8)


def test_vg_equals_minus_half_squared_curvature_difference(torus):
    # V_G consistency: M^2/2 - S2 = -(k1 - k2)^2 / 2 for two curvatures
    for theta in np.linspace(0, 2 * np.pi, 9):
        s = geo.curvature_sample(torus, torus_point(theta), SD)
        k1, k2 = s.kappa
        assert s.vg_geom == pytest.approx(-0.25 * (k1 - k2) ** 2 * 2, abs=1e-9)
        # equivalent da Costa surface form: V_G = -(hbar^2/2mu)(H^2 - K)
        h_mean = 0.5 * (k1 + k2)
        gauss = k1 * k2
        assert 0.25 * s.vg_geom == pytest.approx(-0.5 * (h_mean ** 2 - gauss),
                                                 abs=1e-9)


# physical scale / force -----------------------------------------------------------


def test_physical_scale_validation():
    with pytest.raises(ValueError):
        geo.PhysicalScale(mass_kg=-1.0)
    with pytest.raises(ValueError):
        geo.PhysicalScale(mass_kg=1.0, hbar=0.0)


def test_force_scale_reproduces_order_of_magnitude():
    # hbar^2 / (mu a^3) at mu = 1e-30 kg, a = 10 nm
    assert geo.curvature_force_scale(1e-30, 1e-8) == pytest.approx(1.112e-2,
                                                                   rel=1e-2)


def test_si_force_zero_for_zero_laplacian(sphere):
    s = geo.curvature_sample(sphere, np.array([1.0, 0.0, 0.0]), SD)
    force = geo.si_force_magnitude(s, geo.PhysicalScale(mass_kg=1e-30,
                                                        length_unit_m=1e-8))
    assert force.magnitude_piconewton == pytest.approx(0.0, abs=1e-12)


def test_si_force_cubic_length_scaling(circle):
    s = geo.curvature_sample(circle, np.array([1.0, 0.0]), SD)
    f1 = geo.si_force_magnitude(s, geo.PhysicalScale(1e-30, length_unit_m=1e-8))
    f2 = geo.si_force_magnitude(s, geo.PhysicalScale(1e-30, length_unit_m=2e-8))
    assert f1.magnitude_piconewton == pytest.approx(8.0 * f2.magnitude_piconewton,
                                                    rel=1e-12)
    assert np.allclose(f1.vector_newton,
                       -0.25 * geo.HBAR_SI ** 2 / 1e-30 * s.lapM / 1e-24 * s.n)


# sampling -------------------------------------------------------------------------


def test_sample_field_deterministic(torus):
    s1 = geo.sample_field(torus, SD, sampling="random", count=10, seed=3)
    s2 = geo.sample_field(torus, SD, sampling="random", count=10, seed=3)
    assert all(np.allclose(a, b) for a, b in zip(s1["x"].T, s2["x"].T))
    s3 = geo.sample_field(torus, SD, sampling="random", count=10, seed=4)
    assert not np.allclose(s1["x"][:, 0], s3["x"][:, 0])


def test_sample_field_empty(torus):
    assert geo.sample_field(torus, SD, sampling="random", count=0) == {}
    assert geo.sample_field(torus, SD, sampling="grid", resolution=0) == {}
    assert geo.sample_field(torus, SD, sampling="grid", resolution=(0, 5)) == {}


def test_sample_field_points_on_surface(torus):
    samples = geo.sample_field(torus, SD, sampling="random", count=25, seed=1)
    assert samples["x"].shape[1] == 25
    for x in samples["x"].T:
        assert abs(float(torus.f(x))) < 1e-9


# column blocks --------------------------------------------------------------------


@pytest.mark.parametrize("policy", [GN, SD], ids=["gn", "sd"])
@pytest.mark.parametrize("name,params", [("torus", {"R": 2.0, "r": 1.0}),
                                         ("spheroid", {"a": 1.0, "b": 2.0})])
def test_blocked_fields_equal_per_column_evaluation(name, params, policy):
    # A column's tables do not depend on its batch: in a batch of
    # B = BLOCK + 1 columns, one more than any caller passes, each column's
    # normal tables are the ones it gets on its own.  The contractions after
    # the tables sum in a fixed order, not einsum's batch-length-dependent
    # one (which gave S2 and lapLB_M other last bits at B = 1), so every
    # field of a column is the one it gets alone as well.
    spec = builtin_surface(name, params)
    points = geo.sample_points(spec, "random", count=geo.BLOCK + 1, seed=6)
    tables = geo._tables_batch(spec, points, policy, 3)
    fields = geo.curvature_fields(spec, points, policy)
    for b in (0, 1, geo.BLOCK // 2, geo.BLOCK - 2, geo.BLOCK - 1, geo.BLOCK):
        column = geo._tables_batch(spec, points[:, b:b + 1], policy, 3)
        for table, alone in zip(tables, column):
            assert np.array_equal(table[..., b:b + 1], alone), b
        alone = geo.curvature_fields(spec, points[:, b:b + 1], policy)
        for key, value in alone.items():
            assert value is None if key == "error_bound" else np.array_equal(
                fields[key][..., b:b + 1], value), (key, b)


@pytest.mark.parametrize("name,params,policy", [("torus", {"R": 2.0, "r": 1.0}, SD),
                                                ("spheroid", {"a": 1.0, "b": 2.0}, GN)],
                         ids=["torus-sd", "spheroid-gn"])
def test_streamed_samples_equal_one_unblocked_pass(name, params, policy, monkeypatch):
    # two full blocks and a partial third, against one pass over all columns
    spec = builtin_surface(name, params)
    count = 2 * geo.BLOCK + 37
    samples = geo.sample_field(spec, policy, sampling="random", count=count, seed=4)
    assert set(samples) == set(geo.SAMPLE_KEYS)
    points = geo.sample_points(spec, "random", count=count, seed=4)
    monkeypatch.setattr(geo, "BLOCK", count)
    whole = geo.curvature_fields(spec, points, policy)
    whole.update(x=points, kappa=geo.principal_curvatures_batch(whole["n"], whole["dn"]))
    for key in geo.SAMPLE_KEYS:
        assert np.array_equal(samples[key], whole[key]), key


def test_sample_field_holds_one_block_of_tables(torus):
    # holding every block's n..d3n tables and the full curvature_fields
    # output until the end, as one unblocked pass does, peaks at 15.2 MiB here
    tracemalloc.start()
    try:
        geo.sample_field(torus, SD, sampling="random", count=8 * geo.BLOCK, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20


def test_off_surface_point_in_the_second_block_is_named(torus):
    points = geo.sample_points(torus, "random", count=geo.BLOCK + 5, seed=2)
    points[:, 3] *= 1.01  # off the surface too, in the first block, but less so
    points[:, geo.BLOCK + 3] *= 1.2
    assert int(np.argmax(np.abs(torus.f(points)))) == geo.BLOCK + 3
    named = re.escape(str(points[:, geo.BLOCK + 3].tolist()))
    with pytest.raises(geo.OffSurfaceError, match=named):
        geo.curvature_fields(torus, points, SD)


def test_tube_angle_grid_matches_closed_forms(torus):
    samples = geo.sample_field(torus, SD, sampling="grid", resolution=(64, 1))
    assert samples["x"].shape[1] == 64
    for x, lap_m in zip(samples["x"].T, samples["lapM"]):
        # recover the tube angle from the embedding: sin t = rho - R
        sin_t = np.hypot(x[0], x[1]) - 2.0
        assert lap_m == pytest.approx(
            float(-2.0 * (4.0 + 2.0 * sin_t - 1.0) / (2.0 + sin_t) ** 3), abs=1e-9)


def test_csv_serialization_schema(circle):
    samples = geo.sample_field(circle, SD, sampling="grid", resolution=4)
    text = ",".join(geo.sample_header(circle.dimension)) + "\n"
    text += csv_rows(geo.sample_table(samples))
    header = text.splitlines()[0].split(",")
    assert header == ["x0", "x1", "n0", "n1", "M", "S2", "kappa0",
                      "lapM", "lapLB_M", "vg_geom", "chi_geom"]
    assert len(text.splitlines()) == 5


def test_fields_json_and_csv_carry_the_same_rows(capsys):
    args = ["fields", "--surface", "torus", "--R", "2", "--r", "1",
            "--sampling", "random", "--count", "20", "--seed", "2"]
    assert cli_main(args) == 0
    records = json.loads(capsys.readouterr().out)["samples"]
    assert cli_main(args + ["--format", "csv"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert list(records[0].keys()) == ["x", "n", "M", "S2", "kappa", "lapM",
                                       "lapLB_M", "vg_geom", "chi_geom"]
    columns = []
    for key, value in records[0].items():
        columns += [f"{key}{i}" for i in range(len(value))] \
            if isinstance(value, list) else [key]
    assert header.split(",") == columns
    assert len(rows) == len(records) == 20
    for record, row in zip(records, rows):
        flat = [v for value in record.values()
                for v in (value if isinstance(value, list) else [value])]
        assert [float(c) for c in row.split(",")] == flat


# spheroid numeric signed distance ---------------------------------------------------


def test_spheroid_numeric_sd_matches_symbolic_constants():
    spec = builtin_surface("spheroid", {"a": 1.0, "b": 2.0})
    want = cf.SPHEROID_LAP[(1.0, 2.0)]
    pole = geo.curvature_sample(spec, np.array([0.0, 0.0, 2.0]), SD)
    assert pole.lapM == pytest.approx(want["pole"]["sd"], rel=1e-9)
    gn_pole = geo.curvature_sample(spec, np.array([0.0, 0.0, 2.0]), GN)
    assert gn_pole.lapM == pytest.approx(want["pole"]["gn"], rel=1e-11)
    eq = geo.curvature_sample(spec, np.array([1.0, 0.0, 0.0]), SD)
    assert eq.lapM == pytest.approx(want["equator"]["sd"], rel=1e-9)
    gn_eq = geo.curvature_sample(spec, np.array([1.0, 0.0, 0.0]), GN)
    assert gn_eq.lapM == pytest.approx(want["equator"]["gn"], rel=1e-11)


# exact signed-distance jets for non-distance f ------------------------------------


def _ellipsoid(a, b, c):
    return from_expression("x^2/a^2 + y^2/b^2 + z^2/c^2 - 1", 3,
                           {"a": a, "b": b, "c": c})


def _ellipsoid_points(axes, directions):
    """Radial scaling of (3, B) directions onto the ellipsoid with these axes."""
    axes = np.asarray(axes, dtype=float)[:, None]
    return directions / np.sqrt(np.sum(directions ** 2 / axes ** 2, axis=0))


@pytest.mark.parametrize("spec,axes", [
    (builtin_surface("spheroid", {"a": 1.0, "b": 2.0}), (1.0, 1.0, 2.0)),
    (builtin_surface("spheroid", {"a": 2.0, "b": 1.0}), (2.0, 2.0, 1.0)),
    (_ellipsoid(1.0, 1.5, 2.0), (1.0, 1.5, 2.0)),
], ids=["prolate", "oblate", "triaxial"])
def test_signed_distance_split_without_closed_forms(spec, axes):
    # in 3-D the signed-distance extension obeys
    # lapM = lapLB_M - (k1 + k2)(k1 - k2)^2, whatever the surface
    rng = np.random.default_rng(11)
    points = _ellipsoid_points(axes, rng.normal(size=(3, 12)))
    points = geo.project_to_surface(spec, points)
    fields = geo.curvature_fields(spec, points, SD)
    kappa = geo.principal_curvatures_batch(fields["n"], fields["dn"])
    for (k1, k2), lap_m, lap_lb in zip(kappa.T, fields["lapM"], fields["lapLB_M"]):
        normal = (k1 + k2) * (k1 - k2) ** 2
        scale = abs(lap_lb) + abs(normal)
        assert abs(lap_m - (lap_lb - normal)) <= 1e-9 * scale


@given(st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(0.5, 2.0),
       st.floats(-1.0, 1.0), st.floats(0.0, 2.0 * np.pi))
@settings(max_examples=40, deadline=None)
def test_distance_jet_is_eikonal_on_random_ellipsoids(a, b, c, z, phi):
    spec = _ellipsoid(a, b, c)
    r = np.sqrt(1.0 - z * z)
    point = _ellipsoid_points([a, b, c], np.array([[r * np.cos(phi)],
                                                   [r * np.sin(phi)], [z]]))
    point = geo.project_to_surface(spec, point)[:, 0]
    djet = geo.distance_jet(spec, point, 4)
    assert djet.value == 0.0
    grad = [djet.derivative(i) for i in range(3)]
    defect = grad[0] * grad[0] + grad[1] * grad[1] + grad[2] * grad[2] - 1.0
    assert defect.degree == 3
    assert np.max(np.abs(defect.coeffs)) <= 1e-12 * np.max(np.abs(djet.coeffs))


def test_distance_jet_refuses_a_vanishing_gradient():
    cone = from_expression("x^2 + y^2 - z^2", 3)
    with pytest.raises(jets.DomainError, match="vanishes"):
        geo.curvature_sample(cone, np.zeros(3), SD)


@pytest.mark.parametrize("a,b", [(1.0, 2.0), (2.0, 1.0)], ids=["prolate", "oblate"])
def test_degree_7_distance_jet_inverts_the_normal_offset_map(a, b):
    # Phi(t, phi, s) = P(t, phi) + s n(t, phi) moves s along the unit normal,
    # so d(Phi) = s near the surface; x, y, z stand for t, phi, s
    spec = builtin_surface("spheroid", {"a": a, "b": b})
    params = {"a": a, "b": b}
    norm = "sqrt(cos(x)^2/a^2 + sin(x)^2/b^2)"
    phi_text = [f"a*cos(x)*cos(y) + z*cos(x)*cos(y)/(a*{norm})",
                f"a*cos(x)*sin(y) + z*cos(x)*sin(y)/(a*{norm})",
                f"b*sin(x) + z*sin(x)/(b*{norm})"]
    base = np.array([0.37, 1.1, 0.0])
    offsets = [from_expression(text, 3, params).jet(base, 7) for text in phi_text]
    point = np.array([u.value for u in offsets])
    for u in offsets:
        u.coeffs[0] = 0.0  # Phi - P(t0, phi0)
    djet = geo.distance_jet(spec, point, 7)
    assert djet.degree == 7
    # d(Phi) = sum over alpha of d_alpha u^alpha, by plain jet products
    space = offsets[0].space
    monomials = {(0, 0, 0): jets.constant(space, 1.0)}
    composed = jets.constant(space, 0.0)
    for alpha, coeff in zip(space.indices, djet.coeffs):
        if alpha not in monomials:
            k = next(i for i, ak in enumerate(alpha) if ak)
            lower = alpha[:k] + (alpha[k] - 1,) + alpha[k + 1:]
            monomials[alpha] = monomials[lower] * offsets[k]
        composed = composed + monomials[alpha] * float(coeff)
    want = jets.variable(space, 2, 0.0)
    residual = np.max(np.abs(composed.coeffs - want.coeffs))
    assert residual <= 1e-13 * np.max(np.abs(djet.coeffs))


def test_linear_f_gives_an_exact_distance_jet():
    # every adjoint of x + 2y - z is a float constant; the SD path lifts it
    plane = from_expression("x + 2*y - z", 3)
    djet = geo.distance_jet(plane, np.array([1.0, 0.5, 2.0]), 4)
    linear = djet.space.grades[1]  # the x, y, z coefficients
    assert djet.value == 0.0
    assert np.allclose(djet.coeffs[linear], np.array([1.0, 2.0, -1.0]) / np.sqrt(6.0),
                       rtol=0.0, atol=1e-15)
    assert np.all(djet.coeffs[linear.stop:] == 0.0)


def test_a_coordinate_f_does_not_read_gets_a_zero_gradient_jet():
    # grad_z f is the float 0.0 on this elliptic cylinder; at the end of its
    # major axis the curvature is 2 / 1^2, so M = -2
    cylinder = from_expression("x^2/4 + y^2 - 1", 3)
    for policy in (SD, GN):
        sample = geo.curvature_sample(cylinder, np.array([2.0, 0.0, 0.3]), policy)
        assert sample.M == pytest.approx(-2.0, rel=1e-14)


@pytest.mark.parametrize("order", [1, 3])
@pytest.mark.parametrize("name,params", [
    ("torus", {"R": 2.0, "r": 1.0}),
    ("spheroid", {"a": 1.0, "b": 2.0}),
    ("sphere", {"a": 1.0}),
])
def test_sd_tables_are_the_raw_partials_of_the_distance_jet(name, params, order):
    # n_i = d_i d, so each table is a plain gather of the distance jet:
    # n[i] = d_i d, dn[i, j] = d_i d_j d, and so on
    spec = builtin_surface(name, params)
    points = geo.sample_points(spec, "random", count=16, seed=4)
    djet = geo.distance_jet(spec, points, order + 1)

    def partials(depth):
        out = np.empty((3,) * depth + (points.shape[1],))
        for axes in itertools.product(range(3), repeat=depth):
            out[axes] = djet.partial(tuple(axes.count(i) for i in range(3)))
        return out

    tables = geo._tables_batch(spec, points, SD, order)
    for depth, table in enumerate(tables, start=1):
        if depth > order + 1:
            assert table is None
        else:
            assert np.array_equal(table, partials(depth))


def test_exact_sd_field_gradient_on_the_spheroid():
    spec = builtin_surface("spheroid", {"a": 1.0, "b": 2.0})
    pole = np.array([0.0, 0.0, 2.0])
    value, grad, _, _ = geo.field_derivatives(spec, pole[:, None], SD, "lapM")
    assert value[0] == pytest.approx(cf.SPHEROID_LAP[(1.0, 2.0)]["pole"]["sd"], rel=1e-9)
    assert np.linalg.norm(grad[:2, 0]) < 1e-9  # the tangent plane at the pole is z = const

    def lap_m(point):
        return geo.curvature_sample(spec, point, SD).lapM

    x = geo.project_to_surface(spec, np.array([0.5, 0.3, 1.2]))
    value, grad, _, _ = geo.field_derivatives(spec, x[:, None], SD, "lapM")
    value, grad = value[0], grad[:, 0]
    assert value == pytest.approx(lap_m(x), rel=1e-12)
    values, grads, _, _ = geo.field_derivatives(spec, np.stack([pole, x], axis=1),
                                                SD, "lapM")
    assert values[1] == value and np.array_equal(grads[:, 1], grad)
    normal = spec.grad_f(x) / np.linalg.norm(spec.grad_f(x))
    h = 1e-4
    for t in np.linalg.svd(normal[None])[2][1:]:  # tangent basis
        plus = lap_m(geo.project_to_surface(spec, x + h * t))
        minus = lap_m(geo.project_to_surface(spec, x - h * t))
        assert (plus - minus) / (2 * h) == pytest.approx(grad @ t, abs=1e-5)


def test_no_convergence_error_survives_pickling():
    import pickle

    error = geo.NoConvergenceError("projection to 'torus' did not converge", 100, 0.25,
                                   [3.0, 0.0, 0.5], 2, 952)
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is geo.NoConvergenceError and str(copy) == str(error)
    assert (copy.iterations, copy.residual, copy.point, copy.failed, copy.total) == \
        (100, 0.25, [3.0, 0.0, 0.5], 2, 952)
