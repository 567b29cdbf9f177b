import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomforce import expr as ex
from geomforce import jets
from geomforce.surfaces import builtin_surface

from closed_forms import richardson_partial


def _jet(text, point, degree, params=None):
    return jets.evaluate_jet(ex.parse_expression(text), np.asarray(point, float),
                             degree, params)


def test_square_at_three():
    j = _jet("x^2", [3.0, 0.0], 2)
    assert j.partial((0, 0)) == 9.0
    assert j.partial((1, 0)) == 6.0
    assert j.partial((2, 0)) == 2.0


def test_sphere_distance_jet_by_hand():
    j = _jet("sqrt(x^2 + y^2 + z^2) - 1", [1.0, 0.0, 0.0], 2)
    assert j.partial((0, 0, 0)) == pytest.approx(0.0, abs=1e-15)
    assert j.partial((1, 0, 0)) == pytest.approx(1.0, abs=1e-14)
    assert j.partial((0, 2, 0)) == pytest.approx(1.0, abs=1e-14)


def test_constant_jet():
    j = _jet("5", [0.0, 0.0, 0.0], 3)
    assert j.partial((0, 0, 0)) == 5.0
    assert np.all(j.coeffs[1:] == 0.0)


def test_mixed_partial_of_xy():
    j = _jet("x*y", [2.0, 3.0], 2)
    assert j.partial((1, 1)) == pytest.approx(1.0)


def test_sine_third_derivative_at_zero():
    j = _jet("sin(x)", [0.0, 0.0], 3)
    assert j.partial((3, 0)) == pytest.approx(-1.0, abs=1e-15)


def test_torus_jet_matches_finite_differences_to_degree_5():
    spec = builtin_surface("torus", {"R": 2.0, "r": 1.0})
    point = np.array([3.0, 0.0, 0.0])
    j = spec.jet(point, 5)

    def fun(p):
        return float(spec.f(p))

    # the oracle itself carries roundoff ~ c * eps / (h/2)^order, so the
    # absolute floor grows with the derivative order; the jets are exact
    eps = np.finfo(float).eps
    space = j.space
    for alpha in space.indices:
        order = sum(alpha)
        if order == 0 or order > 4:
            continue  # FD oracle stencils cover orders 1..4
        oracle = richardson_partial(fun, point, alpha, 1e-2)
        got = j.partial(alpha)
        floor = 100.0 * eps / (5e-3) ** order
        assert got == pytest.approx(oracle, rel=1e-6, abs=max(floor, 1e-9)), alpha


def test_order_exceeded():
    j = _jet("x", [1.0, 0.0], 2)
    with pytest.raises(jets.OrderExceededError):
        j.partial((3, 0))


def test_domain_errors():
    with pytest.raises(jets.DomainError):
        _jet("sqrt(x)", [-1.0, 0.0], 2)
    with pytest.raises(jets.DomainError):
        _jet("log(x)", [0.0, 0.0], 2)
    with pytest.raises(jets.DivisionByZeroLeadingTerm):
        _jet("1 / x", [0.0, 0.0], 2)


def test_degree_bounds():
    with pytest.raises(ValueError):
        _jet("x", [1.0, 0.0], 8)
    j = _jet("x + 1", [1.0, 0.0], 0)
    assert j.value == 2.0


def test_table_length_matches_binomial():
    for nvars in (2, 3, 4):
        for degree in (0, 2, 5):
            space = jets.jet_space(nvars, degree)
            assert space.size == math.comb(nvars + degree, degree)


def test_graded_ordering_is_documented_shape():
    space = jets.jet_space(3, 2)
    assert space.indices[:4] == [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert space.indices[4:] == [(2, 0, 0), (1, 1, 0), (1, 0, 1),
                                 (0, 2, 0), (0, 1, 1), (0, 0, 2)]


def test_batch_evaluation_matches_per_point():
    spec = builtin_surface("torus", {"R": 2.0, "r": 1.0})
    rng = np.random.default_rng(1)
    pts = np.stack([rng.uniform(2.2, 3.0, 6), rng.uniform(-0.4, 0.4, 6),
                    rng.uniform(-0.5, 0.5, 6)])
    jb = spec.jet(pts, 4)
    for b in range(pts.shape[1]):
        js = spec.jet(pts[:, b], 4)
        assert np.allclose(jb.coeffs[:, b], js.coeffs, rtol=1e-13, atol=1e-13)


def test_taylor_normalized_conversion():
    j = _jet("x^3", [2.0, 0.0], 3)
    norm = j.normalized()
    idx = j.space.index_of[(3, 0)]
    assert norm[idx] == pytest.approx(1.0)  # 6 / 3!
    assert j.partial((3, 0)) == pytest.approx(6.0)


# Leibniz closure for polynomials ----------------------------------------------

_coeff = st.integers(min_value=-3, max_value=3)


@st.composite
def _poly_pair(draw):
    # random bivariate polynomials of total degree <= 2 as expression text
    terms = ["1", "x", "y", "x*y", "x^2", "y^2"]
    def build():
        parts = []
        for t in terms:
            c = draw(_coeff)
            if c:
                parts.append(f"{c} * {t}")
        return " + ".join(parts) if parts else "0"
    return build(), build()


@given(_poly_pair(), st.floats(-2, 2), st.floats(-2, 2))
@settings(max_examples=60, deadline=None)
def test_leibniz_product_rule_exact_for_polynomials(pair, x, y):
    fx, gx = pair
    point = np.array([x, y])
    degree = 4
    jf = _jet(fx, point, degree)
    jg = _jet(gx, point, degree)
    direct = _jet(f"({fx}) * ({gx})", point, degree)
    product = jf * jg
    assert np.allclose(product.coeffs, direct.coeffs, rtol=1e-12, atol=1e-9)


def test_fifty_random_expressions_match_richardson_oracle():
    rng = np.random.default_rng(42)
    atoms = ["x", "y", "x^2", "y^2", "x*y", "sin(x)", "cos(y)",
             "exp(x/4)", "sqrt(x + 3)", "1 + x^2"]
    ops = [" + ", " - ", " * "]
    checked = 0
    for _ in range(50):
        parts = rng.choice(atoms, size=3)
        glue = rng.choice(ops, size=2)
        text = f"({parts[0]}){glue[0]}({parts[1]}){glue[1]}({parts[2]})"
        point = rng.uniform(0.3, 1.2, 2)
        j = _jet(text, point, 4)
        fn = ex.to_callable(ex.parse_expression(text), ("x", "y"))

        def fun(p):
            return float(fn(p))

        for alpha in j.space.indices:
            if not 1 <= sum(alpha) <= 4:
                continue
            oracle = richardson_partial(fun, point, alpha, 1e-2)
            got = j.partial(alpha)
            assert got == pytest.approx(oracle, rel=1e-6, abs=2e-5), (text, alpha)
            checked += 1
    assert checked > 500


def test_division_and_negative_powers_agree():
    j1 = _jet("1 / (1 + x^2)", [0.5, 0.0], 5)
    j2 = _jet("(1 + x^2)^-1", [0.5, 0.0], 5)
    assert np.allclose(j1.coeffs, j2.coeffs, rtol=1e-12)


def test_jet_derivative_extraction():
    j = _jet("x^2 * y", [2.0, 3.0], 3)
    dx = j.derivative(0)
    assert dx.degree == 2
    assert dx.partial((0, 0)) == pytest.approx(12.0)  # 2xy at (2,3)
    assert dx.partial((1, 0)) == pytest.approx(6.0)   # 2y
    assert dx.partial((0, 1)) == pytest.approx(4.0)   # 2x


def test_substitute_equals_jet_of_the_composed_expression():
    # g(x0 + u(w)) at a point w where both shifts u vanish exactly
    x0 = {"x": 0.3, "y": -0.7}
    shifts = {"x": "sin(x - 0.2) + (y - 0.3)^2",
              "y": "(x - 0.2)*(y + 1) + exp(y - 0.3) - 1"}
    outer = ("x^2*y + sin(x*y)", "2*x*y + y*cos(x*y)")  # g and dg/dx

    def composed(text):
        return re.sub(r"\b[xy]\b", lambda m: f"({x0[m[0]]} + {shifts[m[0]]})", text)

    single = (np.array([0.3, -0.7]), np.array([0.2, 0.3]))
    batch = tuple(np.repeat(v[:, None], 3, axis=1) for v in single)
    for base, w in (single, batch):
        g = _jet(outer[0], base, 5)
        u = [_jet(shifts[k], w, 4) for k in "xy"]
        got = jets.substitute([g, g.derivative(0)], u)
        for jet, text in zip(got, outer):
            want = _jet(composed(text), w, 4)
            assert jet.space is want.space
            assert np.allclose(jet.coeffs, want.coeffs, rtol=1e-12, atol=1e-12)


def test_substitute_needs_zero_valued_shifts():
    g = _jet("x*y", [1.0, 2.0], 2)
    u = [_jet("x", [0.5, 0.0], 2), _jet("y", [0.5, 0.0], 2)]
    with pytest.raises(ValueError, match="zero value"):
        jets.substitute([g], u)
