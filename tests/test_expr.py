import math
import operator
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomforce import expr as ex
from geomforce.surfaces import SurfaceSpec, from_expression


def test_polynomial_parses_to_top_level_subtraction():
    tree = ex.parse_expression("x^2 + y^2 + z^2 - 1")
    assert isinstance(tree, ex.BinOp)
    assert tree.op == "-"


def test_torus_expression_parses_with_parameters():
    tree = ex.parse_expression("sqrt((sqrt(x^2+y^2)-R)^2 + z^2) - r")
    assert ex.identifiers(tree) == {"x", "y", "z", "R", "r"}


def test_double_caret_is_a_syntax_error_at_offset_2():
    with pytest.raises(ex.ParseError) as err:
        ex.parse_expression("x^^2")
    assert err.value.position == 2


def test_empty_expression_rejected():
    with pytest.raises(ex.ParseError):
        ex.parse_expression("   ")


def test_non_integer_exponent_rejected():
    with pytest.raises(ex.NonIntegerExponentError):
        ex.parse_expression("x^2.5")
    with pytest.raises(ex.NonIntegerExponentError):
        ex.parse_expression("x^(2)")


def test_negative_integer_exponent_allowed():
    tree = ex.parse_expression("x^-2")
    assert isinstance(tree, ex.Pow) and tree.exponent == -2


def test_unknown_function_rejected():
    with pytest.raises(ex.UnknownIdentifierError):
        ex.parse_expression("abs(x)")


def test_precedence_caret_over_unary_minus():
    # -x^2 must parse as -(x^2), and -x^2^3 as -(x^(2^3))
    tree = ex.parse_expression("-x^2")
    assert isinstance(tree, ex.Neg)
    assert isinstance(tree.arg, ex.Pow)
    assert ex.parse_expression("-x^2^3") == ex.Neg(ex.Pow(ex.Name("x"), 8))


def test_left_associative_subtraction():
    tree = ex.parse_expression("1 - 2 - 3")
    assert isinstance(tree.left, ex.BinOp) and tree.left.op == "-"


def _eval(tree, point=(0.0, 0.0), params=None):
    spec = SurfaceSpec("tree", tree, 2, params or {})
    return float(spec.f(np.asarray(point, dtype=float)))


def test_evaluation_matches_python_semantics():
    assert _eval(ex.parse_expression("2 + 3 * 4")) == 14.0
    assert _eval(ex.parse_expression("2 * 3^2")) == 18.0
    assert _eval(ex.parse_expression("12 / 4 / 3")) == 1.0
    assert _eval(ex.parse_expression("sin(x) + cos(x)"), (0.0, 0.0)) == 1.0


def test_unbound_identifier_is_reported_at_bind_time():
    tree = ex.parse_expression("x + q")
    with pytest.raises(ex.UnknownIdentifierError, match="q"):
        SurfaceSpec("tree", tree, 2, {})


def test_constant_folds_outside_the_float_range_are_named():
    cases = [("x - 1e300 * 1e300", {}, "'1e+300 * 1e+300'"),
             ("x - exp(-a)", {"a": 1000.0}, "'exp(-a)' with a=1000.0"),
             ("x - 1 / (b - b)", {"b": 1.0}, "with b=1.0 leaves")]
    for text, params, named in cases:
        with pytest.raises(ex.InvalidParametersError, match=re.escape(named)):
            from_expression(text, 2, params)
    # an exact zero from nonzero operands is not an underflow
    spec = from_expression("x - (a - a) - log(a)", 2, {"a": 3.0})
    assert spec.f([1.0, 0.0]) == 1.0 - math.log(3.0)


def test_parameters_bake_into_callables():
    tree = ex.parse_expression("a * x + b")
    spec = SurfaceSpec("tree", tree, 2, {"a": 2.0, "b": 5.0})
    assert spec.f(np.array([3.0, 0.0])) == 11.0


# round-trip property ---------------------------------------------------------

_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(ex.Num),
    st.sampled_from(["x", "y", "a", "b"]).map(ex.Name),
)


def _compound(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children).map(
            lambda t: ex.BinOp(t[0], t[1], t[2])
        ),
        children.map(ex.Neg),
        st.tuples(children, st.integers(min_value=-4, max_value=6)).map(
            lambda t: ex.Pow(t[0], t[1])
        ),
        st.tuples(st.sampled_from(ex.FUNCTIONS), children).map(
            lambda t: ex.Call(t[0], t[1])
        ),
    )


_trees = st.recursive(_leaf, _compound, max_leaves=25)


@given(_trees)
@settings(max_examples=300, deadline=None)
def test_unparse_parse_round_trip(tree):
    text = ex.unparse(tree)
    assert ex.parse_expression(text) == tree


@given(_trees)
@settings(max_examples=100, deadline=None)
def test_unparse_is_idempotent_through_parse(tree):
    text = ex.unparse(tree)
    assert ex.unparse(ex.parse_expression(text)) == text


FD_SAMPLES = [
    "x^2 * y + sin(x)",
    "sqrt(x^2 + y^2 + 1)",
    "exp(x / 2) * cos(y)",
    "log(x + 3) - y^3",
    "(x + y)^4 / (1 + x^2)",
]


def test_differentiate_matches_finite_differences():
    rng = np.random.default_rng(7)
    for text in FD_SAMPLES:
        spec = from_expression(text, 2)
        fn = spec.f
        for _ in range(5):
            p = rng.uniform(0.2, 1.5, 2)
            h = 1e-6
            fd = (fn(p + [h, 0]) - fn(p - [h, 0])) / (2 * h)
            assert math.isclose(float(spec.grad_f(p)[0]), float(fd), rel_tol=1e-7, abs_tol=1e-9)


def test_exponents_out_of_range_are_rejected_with_their_offset():
    # the tower is checked before it is built: 2^65536 would have 19,729 digits
    for text, position in [("x^2^2^2^2^2 + y^2", 1), ("y + x^2^70", 5),
                           ("x^3^40", 1), ("x^-2^63", 1), ("x^1e400", 2),
                           ("x^9223372036854775808", 2)]:
        with pytest.raises(ex.ParseError, match="out of range") as err:
            ex.parse_expression(text)
        assert err.value.position == position, text
    assert ex.parse_expression("x^3^39").exponent == 3 ** 39
    assert ex.parse_expression("x^1^-5").exponent == 1
    with pytest.raises(ex.NonIntegerExponentError):
        ex.parse_expression("x^0^-1")  # 1/0


def test_integer_powers_compile_to_products():
    mul, truediv = operator.mul, operator.truediv
    tape = ex.compile_tape(ex.parse_expression("x^5 - y^-3 + x^2 * y^0"), 2)
    # slots: x, y, the constant 1.0, then code from slot 3
    assert tape.constants == (1.0,)
    assert tape.code == (
        (mul, 0, 0), (mul, 3, 3), (mul, 4, 0),  # x^5 = (x*x)*(x*x)*x
        (mul, 1, 1), (mul, 6, 1), (truediv, 2, 7),  # y^-3 = 1.0 / ((y*y)*y)
        (operator.sub, 5, 8), (mul, 3, 2),  # x^2 * y^0 = (x*x) * 1.0
        (operator.add, 9, 10))
    assert tape.out == 11
    # a 62-bit exponent: 61 squarings and at most 61 more products
    assert len(ex.compile_tape(ex.parse_expression("x^3^39"), 2).code) <= 122
    with pytest.raises(ex.InvalidParametersError, match=re.escape("'a^-3' with a=0.0")):
        from_expression("x - a^-3", 2, {"a": 0.0})


def test_exponent_chain_is_right_associative():
    tree = ex.parse_expression("x^3^2")
    assert isinstance(tree, ex.Pow) and tree.exponent == 9
    with pytest.raises(ex.NonIntegerExponentError):
        ex.parse_expression("x^2^-1")  # tower folds to 1/2
