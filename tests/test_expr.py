import math
import operator
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomforce import expr as ex
from geomforce.surfaces import SurfaceSpec, from_expression


def test_polynomial_parses_to_top_level_subtraction():
    tree = ex.parse_expression("x^2 + y^2 + z^2 - 1")
    assert tree.postfix[-1] == ("-", None)


def test_torus_expression_parses_with_parameters():
    tree = ex.parse_expression("sqrt((sqrt(x^2+y^2)-R)^2 + z^2) - r")
    assert ex.identifiers(tree) == {"x", "y", "z", "R", "r"}


def test_every_expression_loop_reads_the_postfix_entries():
    tree = ex.parse_expression("-x^2^3 + sin(-(y)) / (z - 2)^-2")
    assert len(tree.postfix) == 12  # the parse command's node count
    assert ex.identifiers(tree) == {"x", "y", "z"}
    got = ex.substitute(tree, {"x": ex.parse_expression("y + 1"),
                               "z": ex.Expression((("num", 3.0),))})
    assert got == ex.parse_expression("-(y + 1)^2^3 + sin(-(y)) / (3 - 2)^-2")


def test_postfix_lists_the_operands_before_their_entry():
    postfix = ex.parse_expression("-x^2 + sin(y) / z").postfix
    assert postfix == (("name", "x"), ("^", 2), ("neg", None), ("name", "y"), ("call", "sin"),
                       ("name", "z"), ("/", None), ("+", None))
    assert [ex.ARITY[kind] for kind, _ in postfix] == [0, 1, 1, 0, 1, 0, 2, 2]


def test_long_sums_fold_without_recursion():
    # each term is one level of a left-deep tree
    text = " + ".join(["x"] * 5000)
    tree = ex.parse_expression(text)
    assert ex.unparse(tree) == text
    assert ex.unparse(ex.parse_expression(ex.unparse(tree))) == text
    assert len(tree.postfix) == 9999
    assert ex.identifiers(tree) == {"x"}
    tape = ex.compile_tape(tree, 2)
    assert len(tape.code) == 4999 and tape.code[-1] == (operator.add, 2 + 4997, 0)
    assert tape.value([2.0, 0.0], ex.float_call) == 10000.0
    scaled = ex.substitute(tree, {"x": ex.parse_expression("2 * y")})
    assert ex.unparse(scaled) == " + ".join(["2.0 * y"] * 5000)
    # a spec of such a tree compares, hashes, prints and pickles
    spec = from_expression(text + " - z", 3)
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec and copy is not spec
    assert hash(copy.expression) == hash(spec.expression)
    assert repr(copy) == repr(spec)
    assert copy.tape == spec.tape


def test_nesting_is_capped_at_its_offset():
    cap = ex.MAX_NESTING
    for open_, close in [("(", ")"), ("sin(", ")"), ("-", "")]:
        assert ex.identifiers(ex.parse_expression(open_ * cap + "x" + close * cap)) == {"x"}
        with pytest.raises(ex.ParseError, match=f"deeper than {cap}") as err:
            ex.parse_expression("y + " + open_ * (cap + 1) + "x" + close * (cap + 1))
        assert err.value.position == 4 + cap * len(open_)
    # levels close again: a long chain of shallow groups parses
    assert ex.identifiers(ex.parse_expression(" + ".join(["(-(x))"] * (2 * cap)))) == {"x"}


def test_a_literal_that_rounds_to_inf_is_refused_at_its_offset():
    for text, position in [("1e309*x", 0), ("x - 2e308", 4), ("x^2 + 1.8e308 * y", 6)]:
        with pytest.raises(ex.ParseError, match="out of range") as err:
            ex.parse_expression(text)
        assert err.value.position == position, text
    biggest = ex.parse_expression("1.7976931348623157e308 * x")
    assert ex.unparse(ex.parse_expression(ex.unparse(biggest))) == ex.unparse(biggest)


def test_the_base_of_a_zeroth_power_is_not_compiled():
    # x^0 is 1.0: its base makes no instruction, and a base that would leave
    # the float range is not folded
    tape = ex.compile_tape(ex.parse_expression("sin(x)^0 + y + sin(x)"), 2)
    assert tape.constants == (1.0,)
    assert tape.code == ((operator.add, 2, 1), ("sin", 0, None), (operator.add, 3, 4))
    tape = ex.compile_tape(ex.parse_expression("sqrt(-a)^0 * x"), 2, {"a": 1.0})
    assert tape.code == ((operator.mul, 2, 0),)


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
    assert tree.postfix == (("name", "x"), ("^", -2))


def test_unknown_function_rejected():
    with pytest.raises(ex.UnknownIdentifierError):
        ex.parse_expression("abs(x)")


def test_precedence_caret_over_unary_minus():
    # -x^2 must parse as -(x^2), and -x^2^3 as -(x^(2^3))
    tree = ex.parse_expression("-x^2")
    assert tree.postfix == (("name", "x"), ("^", 2), ("neg", None))
    assert ex.parse_expression("-x^2^3") == ex.Expression((("name", "x"), ("^", 8), ("neg", None)))


def test_left_associative_subtraction():
    tree = ex.parse_expression("1 - 2 - 3")
    assert tree.postfix == (("num", 1.0), ("num", 2.0), ("-", None), ("num", 3.0), ("-", None))


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
             ("x - 1 / (b - b)", {"b": 1.0}, "with b=1.0 leaves"),
             ("x - sqrt(-a^0)", {"a": 2.0}, "'sqrt(-a^0)' with a=2.0")]
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

# postfix tuples: the operands' entries, then the entry that reads them
_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(lambda v: (("num", v),)),
    st.sampled_from(["x", "y", "a", "b"]).map(lambda name: (("name", name),)),
)


def _compound(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children).map(
            lambda t: t[1] + t[2] + ((t[0], None),)
        ),
        children.map(lambda arg: arg + (("neg", None),)),
        st.tuples(children, st.integers(min_value=-4, max_value=6)).map(
            lambda t: t[0] + (("^", t[1]),)
        ),
        st.tuples(st.sampled_from(ex.FUNCTIONS), children).map(
            lambda t: t[1] + (("call", t[0]),)
        ),
    )


_trees = st.recursive(_leaf, _compound, max_leaves=25).map(ex.Expression)


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
    assert ex.parse_expression("x^3^39").postfix[-1] == ("^", 3 ** 39)
    assert ex.parse_expression("x^1^-5").postfix[-1] == ("^", 1)
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


def test_tapes_pickle_and_compare_as_plain_data():
    # the programs are made from the instructions: they are in no field's
    # repr or comparison, nor in the pickled state
    spec = from_expression("sqrt((sqrt(x^2 + y^2) - R)^2 + z^2) - r", 3, {"R": 2.0, "r": 1.0})
    point = [3.0, 0.25, -0.5]
    expected = spec.tape.value_and_gradient(point, ex.float_call)
    assert b"value" not in pickle.dumps(spec.tape)
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec and copy.tape == spec.tape and repr(copy.tape) == repr(spec.tape)
    assert "value" not in repr(spec.tape)
    assert copy.tape.value is not spec.tape.value
    assert copy.tape.value_and_gradient(point, ex.float_call) == expected
    other = ex.compile_tape(spec.expression, 3, spec.params)
    assert other == spec.tape and hash(other) == hash(spec.tape)
    assert other.value_and_gradient is not spec.tape.value_and_gradient


def _float_bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def test_tape_constants_keep_their_bits():
    # no constant passes through text: -0.0, the least subnormal and the
    # largest float reach the programs as the floats themselves
    params = {"a": -0.0, "b": 5e-324, "c": 1.7976931348623157e308}
    tape = from_expression("x * a - y * b * c", 2, params).tape
    assert _float_bits(tape.constants) == _float_bits(list(params.values()))
    a, b, c = params.values()
    points = np.array([[1.0, 0.0], [1.0, 1.0], [-3.0, 0.75], [1e308, 0.5], [1.0, 1e300]]).T
    for inputs in [*points.T.tolist(), points]:
        x, y = inputs
        f = x * a - y * b * c
        # the sweep: 0.0 + 1.0 into x * a, 0.0 + -1.0 into (y * b) * c
        grad = [0.0 + (0.0 + 1.0) * a, 0.0 + (0.0 + (0.0 + -1.0) * c) * b]
        assert _float_bits(tape.value(inputs, ex.numpy_call)) == _float_bits(f)
        got_f, got_grad = tape.value_and_gradient(inputs, ex.numpy_call)
        assert _float_bits(got_f) == _float_bits(f)
        assert _float_bits(got_grad) == _float_bits(grad)


# d f(a) / d a of each function, from its argument a and value y, as the
# adjoint sweep computes it
ADJOINT_RULES = {
    "sqrt": lambda a, y: 0.5 / y,
    "sin": lambda a, y: np.cos(a),
    "cos": lambda a, y: -np.sin(a),
    "exp": lambda a, y: y,
    "log": lambda a, y: 1.0 / a,
}


def test_adjoint_rules_are_their_written_arithmetic():
    x, y = np.random.default_rng(13).uniform(0.1, 3.0, (2, 1000))
    for name, rule in ADJOINT_RULES.items():
        fx = getattr(np, name)(x)
        grad = [0.0 + (0.0 + 1.0 * y) * rule(x, fx), 0.0 + 1.0 * fx]
        _, got = from_expression(f"{name}(x) * y", 2).tape.value_and_gradient([x, y],
                                                                               ex.numpy_call)
        assert _float_bits(got) == _float_bits(grad), name
    _, got = from_expression("x / y", 2).tape.value_and_gradient([x, y], ex.numpy_call)
    assert _float_bits(got) == _float_bits([0.0 + 1.0 * (1.0 / y), 0.0 + 1.0 * (-(x / y) / y)])


def test_exponent_chain_is_right_associative():
    tree = ex.parse_expression("x^3^2")
    assert tree.postfix == (("name", "x"), ("^", 9))
    with pytest.raises(ex.NonIntegerExponentError):
        ex.parse_expression("x^2^-1")  # tower folds to 1/2


def test_float_sqrt_has_the_bits_of_the_array_run():
    # math.sqrt and numpy's sqrt are both correctly rounded; below 0 both give NaN
    rng = np.random.default_rng(11)
    randoms = rng.standard_normal(2000) * 10.0 ** rng.integers(-300, 300, 2000)
    values = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, math.inf, -math.inf, math.nan,
              -math.nan, -2.5, 1.7976931348623157e308, *randoms.tolist()]
    with np.errstate(invalid="ignore"):
        expected = [float(np.sqrt(v)) for v in values]
    got = [ex.float_call("sqrt", v) for v in values]
    assert np.array(got).view(np.uint64).tolist() == np.array(expected).view(np.uint64).tolist()
