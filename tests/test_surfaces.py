import numpy as np
import pytest

from geomforce import expr as ex
from geomforce import geometry as geo
from geomforce.surfaces import (
    InvalidParametersError,
    UnknownSurfaceError,
    builtin_surface,
    from_expression,
)

from test_expr import FD_SAMPLES
from test_jets import random_expressions


def test_sphere_is_signed_distance_expression():
    spec = builtin_surface("sphere", {"a": 1.0})
    assert spec.is_signed_distance
    assert ex.unparse(spec.expression).startswith("sqrt(")
    assert spec.f(np.array([1.0, 0.0, 0.0])) == pytest.approx(0.0, abs=1e-15)


def test_torus_gradient_is_unit_near_surface():
    spec = builtin_surface("torus", {"R": 2.0, "r": 1.0})
    rng = np.random.default_rng(0)
    th = rng.uniform(0, 2 * np.pi, 100)
    ph = rng.uniform(0, 2 * np.pi, 100)
    rad = 1.0 + rng.uniform(-0.3, 0.3, 100)
    rho = 2.0 + rad * np.sin(th)
    pts = np.stack([rho * np.cos(ph), rho * np.sin(ph), rad * np.cos(th)])
    g = spec.grad_f(pts)
    assert np.abs(np.linalg.norm(g, axis=0) - 1.0).max() < 1e-12


def test_spheroid_is_not_signed_distance():
    spec = builtin_surface("spheroid", {"a": 1.0, "b": 2.0})
    assert not spec.is_signed_distance
    g = spec.grad_f(np.array([1.0, 0.0, 0.0]))
    assert abs(np.linalg.norm(g) - 1.0) > 0.1


def test_torus_requires_tube_inside_ring():
    with pytest.raises(InvalidParametersError):
        builtin_surface("torus", {"R": 1.0, "r": 2.0})
    with pytest.raises(InvalidParametersError):
        builtin_surface("torus", {"R": 1.0, "r": 1.0})


def test_unknown_surface():
    with pytest.raises(UnknownSurfaceError):
        builtin_surface("klein-bottle", {})


def test_parameters_validated():
    with pytest.raises(InvalidParametersError):
        builtin_surface("sphere", {"a": -1.0})
    with pytest.raises(InvalidParametersError):
        builtin_surface("sphere", {})
    with pytest.raises(InvalidParametersError):
        builtin_surface("sphere", {"a": 1.0, "extra": 2.0})
    # a square that underflows to 0 or overflows to inf leaves the float range
    with pytest.raises(InvalidParametersError):
        builtin_surface("spheroid", {"a": 1e-200, "b": 1.0})
    with pytest.raises(InvalidParametersError):
        builtin_surface("spheroid", {"a": 1.0, "b": 1e200})


def test_circle_lives_in_the_plane():
    spec = builtin_surface("circle", {"a": 2.0})
    assert spec.dimension == 2
    assert spec.f(np.array([2.0, 0.0])) == pytest.approx(0.0, abs=1e-15)


def test_expression_surface_with_bindings():
    spec = from_expression("x^2/a^2 + y^2 - 1", 2, {"a": 2.0})
    assert spec.f(np.array([2.0, 0.0])) == pytest.approx(0.0)
    with pytest.raises(ex.UnknownIdentifierError):
        from_expression("x + missing", 2)


def test_x1_x2_aliases_accepted():
    spec = from_expression("x1^2 + x2^2 - 1", 2)
    assert spec.f(np.array([0.0, 1.0])) == pytest.approx(0.0)


def test_feature_scale_uses_smallest_parameter():
    spec = builtin_surface("torus", {"R": 2.0, "r": 0.5})
    assert spec.feature_scale() == 0.5
    assert builtin_surface("plane", {}).feature_scale() == 1.0


# the compiled tape: adjoint gradient, coordinate spellings, constants -------

CATALOG_PARAMS = {"circle": {"a": 1.3}, "sphere": {"a": 1.2}, "cylinder": {"a": 0.8},
                  "spheroid": {"a": 1.0, "b": 2.0}, "torus": {"R": 2.0, "r": 1.0},
                  "plane": {}}


# charts: the grid in closed form, seeded random samples ---------------------

def _closed_form_grid(name, p, n, m):
    """Coordinate-major grid points of each catalog parametrization, by hand."""
    i, j = np.meshgrid(np.arange(n), np.arange(m), indexing="ij")
    angle = lambda k, size: 2.0 * np.pi * k / size
    if name == "circle":
        th = angle(np.arange(n), n)
        return np.stack([p["a"] * np.cos(th), p["a"] * np.sin(th)])
    if name in ("sphere", "spheroid"):
        t, ph = -np.pi / 2 + np.pi * (i + 1) / (n + 1), angle(j, m)
        x = [p["a"] * np.cos(t) * np.cos(ph), p["a"] * np.cos(t) * np.sin(ph),
             p.get("b", p["a"]) * np.sin(t)]
    elif name == "torus":
        th, ph = angle(i, n), angle(j, m)
        rho = p["R"] + p["r"] * np.sin(th)
        x = [rho * np.cos(ph), rho * np.sin(ph), p["r"] * np.cos(th)]
    elif name == "cylinder":
        th, z = angle(i, n), p["a"] * (2.0 * j / (m - 1) - 1.0)
        x = [p["a"] * np.cos(th), p["a"] * np.sin(th), z]
    else:
        x = [2.0 * i / (n - 1) - 1.0, 2.0 * j / (m - 1) - 1.0, np.zeros(i.shape)]
    return np.stack(x).reshape(3, -1)


@pytest.mark.parametrize("name", sorted(CATALOG_PARAMS))
def test_chart_samples_cover_the_catalog(name):
    spec = builtin_surface(name, CATALOG_PARAMS[name])
    policy = geo.ExtensionPolicy.GRADIENT_NORMALIZED
    n, m = 6, 5
    resolution = n if spec.dimension == 2 else (n, m)
    grid = geo.sample_field(spec, policy, sampling="grid", resolution=resolution)
    want = _closed_form_grid(name, spec.params, n, m)
    assert grid["x"].shape == want.shape == (spec.dimension, n if spec.dimension == 2 else n * m)
    assert np.allclose(grid["x"], want, rtol=0.0, atol=1e-13 * spec.feature_scale())
    random = geo.sample_field(spec, policy, sampling="random", count=17, seed=5)
    assert random["x"].shape == (spec.dimension, 17)
    for samples in (grid, random):
        assert np.all(np.abs(spec.f(samples["x"])) <= geo.PROJECTION_TOL)
    again = geo.sample_field(spec, policy, sampling="random", count=17, seed=5)
    assert again.keys() == random.keys()
    assert all(np.array_equal(again[key], random[key]) for key in random)
    other = geo.sample_field(spec, policy, sampling="random", count=17, seed=6)
    assert not np.allclose(other["x"], random["x"])


def _assert_gradient_is_degree_1_jet(spec, points):
    jet = spec.jet(points, 1)
    want = np.array([jet.derivative(i).value for i in range(spec.dimension)])
    got = spec.grad_f(points)
    assert got.shape == points.shape
    scale = np.max(np.abs(want))
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * scale), spec.name


@pytest.mark.parametrize("name", sorted(CATALOG_PARAMS))
def test_adjoint_gradient_is_the_degree_1_jet_on_the_catalog(name):
    spec = builtin_surface(name, CATALOG_PARAMS[name])
    rng = np.random.default_rng(11)
    points = rng.uniform(-2.0, 2.0, (spec.dimension, 16))
    _assert_gradient_is_degree_1_jet(spec, points)
    for b in range(points.shape[1]):
        _assert_gradient_is_degree_1_jet(spec, points[:, b])


def _sample_cases(rng):
    """(text, point) pairs: FD_SAMPLES at points drawn from rng, then a
    unary-minus case; with random_expressions() they call all five functions
    and divide."""
    cases = [(text, rng.uniform(0.2, 1.5, 2)) for text in FD_SAMPLES]
    cases.append(("-x^3 / y - exp(-y)", np.array([0.7, 1.1])))  # unary minus
    return cases


def test_adjoint_gradient_is_the_degree_1_jet_on_sample_expressions():
    rng = np.random.default_rng(5)
    for text, point in _sample_cases(rng) + random_expressions():
        spec = from_expression(text, 2)
        _assert_gradient_is_degree_1_jet(spec, point)
        batch = point[:, None] + rng.uniform(-0.2, 0.2, (2, 5))
        _assert_gradient_is_degree_1_jet(spec, batch)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _assert_float_run_equals_array_run(spec, points):
    # every run adds, multiplies and divides correctly rounded (powers are
    # products) and calls numpy's functions, so f and grad f of a point have
    # the same bits alone (numpy scalars), in the (N, B) batch and in a run
    # on Python floats
    batch_f, batch_g = spec.f_and_grad(points)
    for b, point in enumerate(points.T):
        f, g = spec.tape.value_and_gradient(point.tolist(), ex.float_call)
        assert type(f) is float and all(type(v) is float for v in g), spec.name
        for got_f, got_g in ((f, g), spec.f_and_grad(point)):
            assert _bits(got_f) == _bits(batch_f[b]), (spec.name, point)
            assert _bits(got_g) == _bits(batch_g[:, b]), (spec.name, point)


@pytest.mark.parametrize("name", sorted(CATALOG_PARAMS))
def test_float_run_equals_the_array_run_on_the_catalog(name):
    spec = builtin_surface(name, CATALOG_PARAMS[name])
    on = geo.sample_points(spec, "random", count=100, seed=8)
    off = np.random.default_rng(8).uniform(-3.0, 3.0, (spec.dimension, 100))
    _assert_float_run_equals_array_run(spec, np.concatenate([on, off], axis=1))


POWER_EXPRESSIONS = ["x^3 + y^5 - x*y^-2 + z^4 - 1", "x^4 + y^4 + z^4 - 1"]


def test_float_run_equals_the_array_run_on_random_expressions():
    # every function's adjoint rule and both of division's, bit for bit
    rng = np.random.default_rng(9)
    for text, point in random_expressions() + _sample_cases(np.random.default_rng(5)):
        spec = from_expression(text, 2)
        _assert_float_run_equals_array_run(spec, point[:, None] + rng.uniform(-0.2, 0.2, (2, 3)))
    for text in POWER_EXPRESSIONS:
        spec = from_expression(text, 3)
        _assert_float_run_equals_array_run(spec, rng.uniform(-2.0, 2.0, (3, 200)))


def test_coordinate_spellings_compile_alike():
    torus = "sqrt((sqrt({0}^2 + {1}^2) - R)^2 + {2}^2) - r"
    params = {"R": 2.0, "r": 1.0}
    xyz = from_expression(torus.format("x", "y", "z"), 3, params)
    numbered = from_expression(torus.format("x1", "x2", "x3"), 3, params)
    assert xyz.tape == numbered.tape
    points = np.random.default_rng(2).uniform(-3.0, 3.0, (3, 7))
    for pts in (points, points[:, 0]):
        assert np.array_equal(xyz.f(pts), numbered.f(pts))
        assert np.array_equal(xyz.grad_f(pts), numbered.grad_f(pts))
        assert np.array_equal(xyz.jet(pts, 4).coeffs, numbered.jet(pts, 4).coeffs)


def test_constant_expression_broadcasts_over_a_batch():
    spec = from_expression("5", 3)
    points = np.random.default_rng(4).uniform(-1.0, 1.0, (3, 6))
    assert np.array_equal(spec.f(points), np.full(6, 5.0))
    assert np.array_equal(spec.grad_f(points), np.zeros((3, 6)))
    jet = spec.jet(points, 2)
    assert jet.coeffs.shape == (10, 6)
    assert np.array_equal(jet.value, np.full(6, 5.0))
    assert np.all(jet.coeffs[1:] == 0.0)
    assert np.array_equal(spec.grad_f(points[:, 0]), np.zeros(3))
