"""Implicit surface expressions: parser, unparser and compiled tape.

Grammar (EBNF):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' int)*          # integer exponents only, right assoc
    base   := number | ident | ident '(' expr ')' | '(' expr ')' | '-' factor

Identifiers are either coordinate variables (``x, y, z`` or ``x1..x4``),
bound parameters, or one of the supported function names
(sqrt, sin, cos, exp, log).  Exponents are integer literals, and a folded
exponent tower stays below 2^63 in magnitude.

`compile_tape` turns a tree into a `Tape`, a flat tuple of (op, a, b)
instructions over numbered slots, which is the one evaluator of an
expression.  Its ops are + - * / and the five functions: an integer power
is multiplied out by repeated squaring, so float arrays, numpy scalars,
Python floats and jets all do the same correctly rounded arithmetic.
`Tape.run` executes it over any of those (f, or exact derivatives over
Taylor jets), and `Tape.gradient` sweeps a run backwards for grad f of
the same kind (reverse-mode differentiation; Griewank & Walther,
Evaluating Derivatives, 2nd ed., ch. 3 and 13).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace

import numpy as np


FUNCTIONS = ("sqrt", "sin", "cos", "exp", "log")
MAX_EXPONENT = 2 ** 63  # |n| below it: x^n compiles to at most 125 instructions

#: coordinate aliases accepted per dimension
VARIABLE_NAMES = {
    2: (("x", "y"), ("x1", "x2")),
    3: (("x", "y", "z"), ("x1", "x2", "x3")),
    4: (("x1", "x2", "x3", "x4"),),
}


class ParseError(ValueError):
    """Malformed expression text.

    Carries the character offset and a short description of what was
    expected there.
    """

    def __init__(self, message, position, expected=None):
        self.position = position
        self.expected = expected
        detail = f"{message} at offset {position}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)


class NonIntegerExponentError(ParseError):
    """'^' exponent was not an integer literal."""


class UnknownIdentifierError(ValueError):
    """Identifier is neither a declared variable nor a bound parameter."""


class InvalidParametersError(ValueError):
    """Surface parameters are out of range, or a constant subexpression
    of them leaves the float range."""


# AST nodes ------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


Node = Num | Name | Neg | BinOp | Pow | Call


# Tokenizer ------------------------------------------------------------------

_OPS = "+-*/^()"


def _tokenize(text):
    """Yield (kind, value, position) triples; kinds: num, ident, op."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            seen_e = False
            while j < n:
                cj = text[j]
                if cj.isdigit() or cj == ".":
                    j += 1
                elif cj in "eE" and not seen_e and j + 1 < n and (
                    text[j + 1].isdigit() or text[j + 1] in "+-"
                ):
                    seen_e = True
                    j += 2 if text[j + 1] in "+-" else 1
                else:
                    break
            lit = text[i:j]
            try:
                value = float(lit)
            except ValueError:
                raise ParseError(f"bad number literal '{lit}'", i) from None
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character '{c}'", i)
    tokens.append(("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, value, position = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"found '{value or 'end of input'}'", position, expected=f"'{op}'")
        return self.advance()

    def parse(self):
        node = self.expr()
        kind, value, position = self.peek()
        if kind != "eof":
            raise ParseError(f"trailing input '{value}'", position, expected="end of input")
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                node = BinOp(value, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                node = BinOp(value, node, self.factor())
            else:
                return node

    def factor(self):
        node = self.base()
        exponents = []
        while True:
            kind, value, position = self.peek()
            if kind == "op" and value == "^":
                self.advance()
                exponents.append((self.exponent_literal(), position))
            else:
                break
        if exponents:
            # right associativity: x^2^3 == x^(2^3); the folded tower must
            # stay an integer (2^-1 in exponent position is rejected) of
            # magnitude below MAX_EXPONENT (|e|^acc is not built past it)
            acc = exponents[-1][0]
            for e, position in reversed(exponents[:-1]):
                if acc < 0 and abs(e) != 1:
                    raise NonIntegerExponentError(
                        f"exponent tower {e}^{acc} is not an integer", position,
                        expected="integer exponent")
                acc = int(e ** acc) if abs(e) < 2 or acc < 63 else MAX_EXPONENT
                if abs(acc) >= MAX_EXPONENT:
                    raise ParseError("exponent tower out of range", position,
                                     expected="|exponent| < 2^63")
            node = Pow(node, acc)
        return node

    def exponent_literal(self):
        kind, value, position = self.peek()
        negate = False
        if kind == "op" and value == "-":
            negate = True
            self.advance()
            kind, value, position = self.peek()
        if kind != "num":
            raise NonIntegerExponentError(
                f"found '{value or 'end of input'}'", position, expected="integer literal"
            )
        if not abs(value) < MAX_EXPONENT:
            raise ParseError(f"exponent {value} out of range", position,
                             expected="|exponent| < 2^63")
        if value != int(value):
            raise NonIntegerExponentError(
                f"non-integer exponent {value}", position, expected="integer literal"
            )
        self.advance()
        exponent = int(value)
        return -exponent if negate else exponent

    def base(self):
        kind, value, position = self.advance()
        if kind == "num":
            return Num(value)
        if kind == "op" and value == "-":  # binds looser than '^': -x^2^3 is -(x^8)
            return Neg(self.factor())
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "ident":
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                if value not in FUNCTIONS:
                    raise UnknownIdentifierError(
                        f"unknown function '{value}' at offset {position}; "
                        f"supported: {', '.join(FUNCTIONS)}"
                    )
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(value, arg)
            return Name(value)
        raise ParseError(f"found '{value or 'end of input'}'", position,
                         expected="number, identifier or '('")


def parse_expression(text):
    """Parse expression text into an AST.

    Raises ParseError (with position), NonIntegerExponentError, or
    UnknownIdentifierError for unknown function names.
    """
    if not text or not text.strip():
        raise ParseError("empty expression", 0, expected="expression")
    return _Parser(text).parse()


# Unparser -------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _prec(node):
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return _PREC["neg"]
    if isinstance(node, Pow):
        return _PREC["^"]
    return _PREC["atom"]


def unparse(node):
    """Render an AST back to text; parse(unparse(t)) is structurally t."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Name):
        return node.ident
    if isinstance(node, Call):
        return f"{node.func}({unparse(node.arg)})"
    if isinstance(node, Neg):
        inner = unparse(node.arg)
        if _prec(node.arg) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Pow):
        inner = unparse(node.base)
        if _prec(node.base) <= _PREC["^"]:
            inner = f"({inner})"
        exp = str(node.exponent) if node.exponent >= 0 else f"-{-node.exponent}"
        return f"{inner}^{exp}"
    if isinstance(node, BinOp):
        left = unparse(node.left)
        right = unparse(node.right)
        if _prec(node.left) < _PREC[node.op]:
            left = f"({left})"
        # left-associative: parenthesize right child at equal precedence
        if _prec(node.right) <= _PREC[node.op]:
            right = f"({right})"
        return f"{left} {node.op} {right}"
    raise TypeError(f"not an expression node: {node!r}")


# Analysis helpers -----------------------------------------------------------


def identifiers(node):
    """Set of identifier names referenced by the tree (excludes functions)."""
    if isinstance(node, Name):
        return {node.ident}
    if isinstance(node, Num):
        return set()
    if isinstance(node, Neg):
        return identifiers(node.arg)
    if isinstance(node, Call):
        return identifiers(node.arg)
    if isinstance(node, Pow):
        return identifiers(node.base)
    return identifiers(node.left) | identifiers(node.right)




def substitute(node, replacements):
    """The tree with each Name in `replacements` replaced by its subtree."""
    if isinstance(node, Name):
        return replacements.get(node.ident, node)
    if isinstance(node, (Neg, Call)):
        return replace(node, arg=substitute(node.arg, replacements))
    if isinstance(node, Pow):
        return replace(node, base=substitute(node.base, replacements))
    if isinstance(node, BinOp):
        return replace(node, left=substitute(node.left, replacements),
                       right=substitute(node.right, replacements))
    return node


# Compiled tape ----------------------------------------------------------------

_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv}
_NUMPY_FUNCTIONS = {name: getattr(np, name) for name in FUNCTIONS}
# splits an (N,) point into scalars over twice as fast as iterating it
_COORDINATES = {n: operator.itemgetter(*range(n)) for n in VARIABLE_NAMES}

# d f(a) / d a of each function from its argument a, its value y and the
# run's `call`
_FUNCTION_DERIVATIVES = {
    "sqrt": lambda a, y, call: 0.5 / y,
    "sin": lambda a, y, call: call("cos", a),
    "cos": lambda a, y, call: -call("sin", a),
    "exp": lambda a, y, call: y,
    "log": lambda a, y, call: 1.0 / a,
}


def numpy_call(name, value):
    """The `call` of an array run: the numpy function of that name."""
    return _NUMPY_FUNCTIONS[name](value)


def float_call(name, value):
    """The `call` of a run on Python floats: the numpy function of that name,
    returned as a float, so that it gives the bits, NaN and inf of an array
    run (numpy's exp and log differ from `math` in the last bit)."""
    return float(_NUMPY_FUNCTIONS[name](value))


@dataclass(frozen=True)
class Tape:
    """Straight-line program of one expression over numbered slots.

    Slots 0..nvars-1 hold the coordinates, the next ones `constants`, and
    instruction k of `code` writes the slot after those.  An instruction
    (op, a, b) applies an operator function (add, sub, mul, truediv) to
    slots a and b, or, with b None, the FUNCTIONS name op to slot a.
    `out` is the expression's slot.
    """

    nvars: int
    constants: tuple
    code: tuple
    out: int

    def run(self, inputs, call):
        """Every slot's value in slot order, from a sequence of one input per
        coordinate.  Operators dispatch through the Python arithmetic of the
        values, so one tape runs over float arrays, over Python floats and
        over jets; functions go through call(name, value)."""
        values = [*_COORDINATES[self.nvars](inputs), *self.constants]
        append = values.append
        for op, a, b in self.code:
            append(call(op, values[a]) if b is None else op(values[a], values[b]))
        return values

    def gradient(self, values, call):
        """[d out / d x_i] over the coordinates: one adjoint sweep back over
        the slot values of a run made with `call`.  The rules are arithmetic
        on those values, so a float, array or jet run gives grad f of its
        kind; a coordinate that f reads linearly or not at all keeps a float
        adjoint."""
        adjoint = [0.0] * len(values)
        adjoint[self.out] = 1.0
        k = len(values)
        for op, a, b in reversed(self.code):
            k -= 1
            g = adjoint[k]
            if op is operator.mul:
                adjoint[a] = adjoint[a] + g * values[b]
                adjoint[b] = adjoint[b] + g * values[a]
            elif op is operator.add:
                adjoint[a] = adjoint[a] + g
                adjoint[b] = adjoint[b] + g
            elif op is operator.sub:
                adjoint[a] = adjoint[a] + g
                adjoint[b] = adjoint[b] + -g  # not jet - float, which keeps -0.0 terms
            elif op is operator.truediv:
                adjoint[a] = adjoint[a] + g * (1.0 / values[b])
                adjoint[b] = adjoint[b] + g * (-values[k] / values[b])
            else:
                adjoint[a] = adjoint[a] + g * _FUNCTION_DERIVATIVES[op](values[a], values[k], call)
        return adjoint[:self.nvars]


def _fold(node, op, operands, params):
    """op on constants, as a float run computes it.  A fold that overflows,
    underflows, divides by zero or is invalid raises InvalidParametersError
    naming `node` and its parameters."""
    a = np.float64(operands[0])
    try:
        with np.errstate(all="raise"):
            return float(numpy_call(op, a) if len(operands) == 1 else op(a, operands[1]))
    except FloatingPointError as error:
        names = sorted(identifiers(node) & set(params))
        bound = f" with {', '.join(f'{k}={params[k]!r}' for k in names)}" if names else ""
        raise InvalidParametersError(f"constant subexpression '{unparse(node)}'{bound} "
                                     f"leaves the float range: {error}") from None


def compile_tape(node, dimension, params=None):
    """Compile a tree into a Tape over the coordinates of `dimension`.

    Coordinate aliases resolve to axis slots and bound parameters to float
    constants; constant subtrees are folded, and repeated subexpressions
    share one slot.  -x runs as x * -1.0, exact for floats and jets.  x^n
    runs as products by repeated squaring (x^5 = (x*x)*(x*x)*x), x^0 as
    1.0 and x^-n as 1.0 / x^n.  Raises UnknownIdentifierError naming every
    other identifier, and InvalidParametersError naming a constant subtree
    whose fold leaves the float range.
    """
    params = {key: float(value) for key, value in (params or {}).items()}
    axes = {name: axis for names in VARIABLE_NAMES[dimension]
            for axis, name in enumerate(names)}
    free = identifiers(node) - set(axes) - set(params)
    if free:
        raise UnknownIdentifierError(f"unbound identifier(s): {', '.join(sorted(free))}")
    # rec() returns a 1-tuple (value,) for a constant subtree, else a
    # provisional slot: the axis, ~j for constant j, dimension + k for code k
    constants, code, slot_of = [], [], {}

    def slot(operand):
        if not isinstance(operand, tuple):
            return operand
        key = repr(operand[0])  # 0.0 vs -0.0
        if key not in slot_of:
            slot_of[key] = ~len(constants)
            constants.append(operand[0])
        return slot_of[key]

    def emit(node, op, a, b=None):
        if isinstance(a, tuple) and (b is None or isinstance(b, tuple)):
            return (_fold(node, op, a if b is None else a + b, params),)
        key = (op, slot(a), slot(b))
        if key not in slot_of:
            slot_of[key] = dimension + len(code)
            code.append(key)
        return slot_of[key]

    def power(n, base, exponent):  # exponent != 0
        if exponent < 0:
            return emit(n, operator.truediv, (1.0,), power(n, base, -exponent))
        if exponent == 1:
            return base
        half = power(n, base, exponent // 2)
        square = emit(n, operator.mul, half, half)
        return emit(n, operator.mul, square, base) if exponent & 1 else square

    def rec(n):
        if isinstance(n, Num):
            return (float(n.value),)
        if isinstance(n, Name):
            return axes[n.ident] if n.ident in axes else (params[n.ident],)
        if isinstance(n, BinOp):
            return emit(n, _OPERATORS[n.op], rec(n.left), rec(n.right))
        if isinstance(n, Neg):
            return emit(n, operator.mul, rec(n.arg), (-1.0,))
        if isinstance(n, Pow):
            return power(n, rec(n.base), n.exponent) if n.exponent else (1.0,)
        return emit(n, n.func, rec(n.arg))

    out = slot(rec(node))

    def final(s):  # the constants go in between the coordinates and the code
        if s is None or 0 <= s < dimension:
            return s
        return dimension + ~s if s < 0 else s + len(constants)

    code = tuple((op, final(a), final(b)) for op, a, b in code)
    return Tape(dimension, tuple(constants), code, final(out))
