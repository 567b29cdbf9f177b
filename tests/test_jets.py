import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomforce import jets
from geomforce.surfaces import builtin_surface, from_expression

from closed_forms import richardson_partial


def _jet(text, point, degree, params=None):
    point = np.asarray(point, float)
    return from_expression(text, point.shape[0], params).jet(point, degree)


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


# Exact oracle: sympy partials at a rational point ------------------------------

_ORACLE_CASES = [
    ("sqrt(1 + x*y)", 7),
    ("exp(x*y - x)", 7),
    ("log(2 + x - y^2)", 7),
    ("sin(x*y + y)", 7),
    ("cos(x - y^2)", 7),
    ("(x + y^3)/(1 + x*y)", 7),
    ("(1 + x*y)^0 + (1 + x*y)^2 + (1 + x - y)^3 + (1 + x*y)^-2", 7),
    ("sqrt(2 + x*y*z) + exp(x - z) + log(3 + x*z) + sin(y - z) - cos(x*y)"
     " + (x + y*z)/(1 + z) + (1 + x*y*z)^-2", 5),
    ("sqrt(2 + x1*x2 + x3*x4) + exp(x1 - x4) + sin(x2*x3) - log(3 + x1*x3)"
     " + cos(x4*x2) + x1/(2 + x3 - x2*x4) + (x1 + x2*x4)^-2 + (x3 - x1)^3", 5),
    ("x^5*y^-3 + (1 + x - y)^7 - (2 + x*y)^-5", 7),
    ("(x - y^2)^6 / (3 + x)^4 + y^9", 7),
]


@pytest.mark.parametrize("text,degree", _ORACLE_CASES)
def test_jets_match_exact_sympy_partials(text, degree):
    sp = pytest.importorskip("sympy")
    names = sorted(set(re.findall(r"\b(?:x\d|[xyz])\b", text)))
    syms = sp.symbols(names)
    point = [sp.Rational(1, 2), sp.Rational(1, 3), sp.Rational(-1, 4), sp.Rational(1, 5)]
    at = dict(zip(syms, point))
    f = sp.sympify(text.replace("^", "**"), locals=dict(zip(names, syms)))
    j = _jet(text, [float(at[s]) for s in syms], degree)
    # d^alpha f from d^(alpha - e_k) f, k the first nonzero entry of alpha
    derivative = {j.space.indices[0]: f}
    want = []
    for alpha in j.space.indices:
        if alpha not in derivative:
            k = next(i for i, a in enumerate(alpha) if a)
            lower = alpha[:k] + (alpha[k] - 1,) + alpha[k + 1:]
            derivative[alpha] = sp.diff(derivative[lower], syms[k])
        want.append(float(sp.N(derivative[alpha].xreplace(at), 20)))
    want = np.array(want)
    got = np.array([j.partial(alpha) for alpha in j.space.indices])
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


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
    # coeffs store d^a f / a!; partial and tensor convert back to d^a f
    j = _jet("x^3 * y^2", [2.0, 3.0], 5)
    raw = {(3, 2): 12.0, (2, 2): 12.0 * 2.0, (3, 1): 12.0 * 3.0, (1, 0): 3.0 * 4.0 * 9.0}
    for alpha, partial in raw.items():
        factorial = math.factorial(alpha[0]) * math.factorial(alpha[1])
        assert j.coeffs[j.space.index_of[alpha]] == pytest.approx(partial / factorial)
        assert j.partial(alpha) == pytest.approx(partial)
    assert j.tensor(2)[0, 1] == j.tensor(2)[1, 0] == pytest.approx(3.0 * 4.0 * 2.0 * 3.0)
    assert j.derivative(0).partial((2, 2)) == pytest.approx(12.0)


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


def random_expressions():
    """50 seeded (text, point) pairs of three glued atoms in x and y."""
    rng = np.random.default_rng(42)
    atoms = ["x", "y", "x^2", "y^2", "x*y", "sin(x)", "cos(y)",
             "exp(x/4)", "sqrt(x + 3)", "1 + x^2"]
    ops = [" + ", " - ", " * "]
    out = []
    for _ in range(50):
        parts = rng.choice(atoms, size=3)
        glue = rng.choice(ops, size=2)
        text = f"({parts[0]}){glue[0]}({parts[1]}){glue[1]}({parts[2]})"
        out.append((text, rng.uniform(0.3, 1.2, 2)))
    return out


def test_fifty_random_expressions_match_richardson_oracle():
    checked = 0
    for text, point in random_expressions():
        j = _jet(text, point, 4)
        fn = from_expression(text, 2).f

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
    # x^-n compiles to 1.0 / x^n, the same tape as the quotient
    quotient, power = (from_expression(text, 2) for text in ("1 / (1 + x^2)", "(1 + x^2)^-1"))
    assert quotient.tape == power.tape
    assert np.array_equal(quotient.jet([0.5, 0.0], 5).coeffs, power.jet([0.5, 0.0], 5).coeffs)


def test_jet_derivative_extraction():
    j = _jet("x^2 * y", [2.0, 3.0], 3)
    dx = j.derivative(0)
    assert dx.degree == 2
    assert dx.partial((0, 0)) == pytest.approx(12.0)  # 2xy at (2,3)
    assert dx.partial((1, 0)) == pytest.approx(6.0)   # 2y
    assert dx.partial((0, 1)) == pytest.approx(4.0)   # 2x


def _sequential(space, a, b, inner_grade=None):
    """Sums in the documented order: c_k = ((0.0 + t_1) + t_2) + ... over
    output k's pairs (i, j) in ascending i, t = a_i b_j, one add at a time
    (elementwise over the batch columns).  inner_grade k keeps the pairs of
    grade-k outputs with both factors of grade >= 1."""
    out = [np.zeros_like(a[0]) for _ in space.indices]
    for i, alpha in enumerate(space.indices):
        for j, beta in enumerate(space.indices):
            if sum(alpha) + sum(beta) > space.degree:
                continue
            if inner_grade is not None and not (sum(alpha) and sum(beta)
                                                and sum(alpha) + sum(beta) == inner_grade):
                continue
            k = space.index_of[tuple(x + y for x, y in zip(alpha, beta))]
            out[k] = out[k] + a[i] * b[j]
    if inner_grade is not None:
        out = out[space.grades[inner_grade]]
    return np.array(out)


@pytest.mark.parametrize("nvars,degree", [(2, 4), (3, 4), (3, 5), (3, 7)])
@pytest.mark.parametrize("width", [None, 1, 7, 64, 65, 1024])
def test_products_sum_in_the_documented_order(nvars, degree, width):
    # terms over forty orders of magnitude, so that another summation order
    # (np.add.reduceat's) gives other last bits; then all terms -0.0, whose
    # sums are +0.0 only when started from 0.0
    space = jets.jet_space(nvars, degree)
    rng = np.random.default_rng(width or 0)
    shape = (space.size,) if width is None else (space.size, width)
    spread = rng.standard_normal(shape) * np.exp(rng.uniform(-20.0, 20.0, shape))
    bits = lambda x: np.asarray(x).view(np.uint64)
    for a, b in ((spread, rng.standard_normal(shape)), (np.full(shape, -0.0), np.ones(shape))):
        assert np.array_equal(bits(space.multiply_normalized(a, b)), bits(_sequential(space, a, b)))
        for k in range(2, degree + 1):
            assert np.array_equal(bits(space.inner_sum(k, a, b)),
                                  bits(_sequential(space, a, b, k))), k
