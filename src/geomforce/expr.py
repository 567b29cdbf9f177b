"""Implicit surface expressions: parser, unparser and compiled tape.

Grammar (EBNF):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' int)*          # integer exponents only, right assoc
    base   := number | ident | ident '(' expr ')' | '(' expr ')' | '-' factor

Identifiers are either coordinate variables (``x, y, z`` or ``x1..x4``),
bound parameters, or one of the supported function names
(sqrt, sin, cos, exp, log).  Number literals are finite floats, exponents
are integer literals, and a folded exponent tower stays below 2^63 in
magnitude.  At most MAX_NESTING groups, calls and unary minuses are open at
once, and sums and products of any length are parsed by loops.  `fold`, an
explicit-stack walk over the child table CHILDREN, is the one traversal of
a tree, so `unparse`, `identifiers`, `substitute` and `compile_tape` take
trees of any depth.

`compile_tape` turns a tree into a `Tape`, a flat tuple of (op, a, b)
instructions over numbered slots, which is the one evaluator of an
expression.  Its ops are + - * / and the five functions: an integer power
is multiplied out by repeated squaring, so float arrays, numpy scalars,
Python floats and jets all do the same correctly rounded arithmetic.
Each Tape is turned once into two straight-line Python functions (source
transformation; Griewank & Walther, Evaluating Derivatives, 2nd ed.,
ch. 6): `Tape.value` runs it over any of those inputs (f, or exact
derivatives over Taylor jets), and `Tape.value_and_gradient` adds the
adjoint sweep back over that run for grad f of the same kind (reverse-mode
differentiation; ch. 3 and 13).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np


FUNCTIONS = ("sqrt", "sin", "cos", "exp", "log")
MAX_EXPONENT = 2 ** 63  # |n| below it: x^n compiles to at most 125 instructions
MAX_NESTING = 100  # '(' groups, calls and unary minuses open at once

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
            if math.isinf(value):  # it would unparse as the name 'inf'
                raise ParseError(f"number literal '{lit}' out of range", i,
                                 expected="a finite float")
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
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # groups, calls and unary minuses open

    def nested(self, parse, position):  # parse() one level deeper, at most MAX_NESTING
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", position,
                             expected=f"at most {MAX_NESTING} open groups, calls or unary minuses")
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

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

    def at_op(self, ops):
        kind, value, _ = self.peek()
        return kind == "op" and value in ops

    def expr(self):
        node = self.term()
        while self.at_op("+-"):
            node = BinOp(self.advance()[1], node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.at_op("*/"):
            node = BinOp(self.advance()[1], node, self.factor())
        return node

    def factor(self):
        node = self.base()
        exponents = []
        while self.at_op("^"):
            position = self.advance()[2]
            exponents.append((self.exponent_literal(), position))
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
        negate = self.at_op("-")
        if negate:
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
            return Neg(self.nested(self.factor, position))
        if kind == "op" and value == "(":
            node = self.nested(self.expr, position)
            self.expect_op(")")
            return node
        if kind == "ident":
            if self.at_op("("):
                if value not in FUNCTIONS:
                    raise UnknownIdentifierError(
                        f"unknown function '{value}' at offset {position}; "
                        f"supported: {', '.join(FUNCTIONS)}"
                    )
                self.advance()
                arg = self.nested(self.expr, position)
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


def _grouped(part, below):
    """The text of a (text, precedence) part, in parentheses if it binds looser than `below`."""
    text, prec = part
    return f"({text})" if prec < below else text


def _unparsed(node, parts):
    """(text, precedence) of a node from the (text, precedence) parts of its children."""
    if isinstance(node, Num):
        return repr(node.value), _PREC["atom"]
    if isinstance(node, Name):
        return node.ident, _PREC["atom"]
    if isinstance(node, Call):
        return f"{node.func}({parts[0][0]})", _PREC["atom"]
    if isinstance(node, Neg):
        return f"-{_grouped(parts[0], _PREC['neg'])}", _PREC["neg"]
    if isinstance(node, Pow):
        return f"{_grouped(parts[0], _PREC['^'] + 1)}^{node.exponent}", _PREC["^"]
    if isinstance(node, BinOp):
        prec = _PREC[node.op]
        # left-associative: parenthesize the right child at equal precedence
        return f"{_grouped(parts[0], prec)} {node.op} {_grouped(parts[1], prec + 1)}", prec
    raise TypeError(f"not an expression node: {node!r}")


def unparse(node):
    """Render an AST back to text; parse(unparse(t)) is structurally t."""
    return fold(node, _unparsed)[0]


# Analysis helpers -----------------------------------------------------------


#: the child fields of each node type that has children (Num and Name have none)
CHILDREN = {Neg: ("arg",), Call: ("arg",), Pow: ("base",), BinOp: ("left", "right")}


def fold(node, visit, leaf=None):
    """The root's visit(n, [results of n's children]), the children (in
    CHILDREN order) visited before their node, on an explicit stack: a tree
    of any depth folds.  A node n for which leaf(n) holds is visited as a leaf."""
    stack, results = [(node, None)], []
    while stack:
        n, kids = stack.pop()
        if kids is None:
            kids = [] if leaf and leaf(n) else [getattr(n, f) for f in CHILDREN.get(type(n), ())]
            stack.append((n, kids))
            stack.extend((kid, None) for kid in reversed(kids))
        else:
            results.append(visit(n, [results.pop() for _ in kids][::-1]))
    return results[0]


def identifiers(node):
    """Set of identifier names referenced by the tree (excludes functions)."""
    return fold(node, lambda n, names: {n.ident} if isinstance(n, Name) else set().union(*names))


def substitute(node, replacements):
    """The tree with each Name in `replacements` replaced by its subtree."""
    return fold(node, lambda n, parts: replacements.get(n.ident, n) if isinstance(n, Name)
                else replace(n, **dict(zip(CHILDREN.get(type(n), ()), parts))))


# Compiled tape ----------------------------------------------------------------

_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv}
_SYMBOLS = {op: symbol for symbol, op in _OPERATORS.items()}
_NUMPY_FUNCTIONS = {name: getattr(np, name) for name in FUNCTIONS}

# the adjoint of each function as source: g times d f(a) / d a, from g, the
# argument's slot a, the value's slot y and the run's `call`
_ADJOINT_TERMS = {
    "sqrt": "{g} * (0.5 / {y})",
    "sin": "{g} * call('cos', {a})",
    "cos": "{g} * -call('sin', {a})",
    "exp": "{g} * {y}",
    "log": "{g} * (1.0 / {a})",
}


def numpy_call(name, value):
    """The `call` of an array run: the numpy function of that name."""
    return _NUMPY_FUNCTIONS[name](value)


_INVALID = math.inf - math.inf  # the NaN of an invalid operation, as numpy's sqrt of x < 0


def float_call(name, value):
    """The `call` of a run on Python floats, with the bits, NaN and inf of an
    array run: sqrt is math.sqrt (both are correctly rounded), NaN below 0;
    the others are the numpy function of that name, returned as a float
    (numpy's exp, log, sin and cos can differ from `math` in the last bit)."""
    if name == "sqrt":
        return _INVALID if value < 0.0 else math.sqrt(value)
    return float(_NUMPY_FUNCTIONS[name](value))


@dataclass(frozen=True)
class Tape:
    """Straight-line program of one expression over numbered slots.

    Slots 0..nvars-1 hold the coordinates, the next ones `constants`, and
    instruction k of `code` writes the slot after those.  An instruction
    (op, a, b) applies an operator function (add, sub, mul, truediv) to
    slots a and b, or, with b None, the FUNCTIONS name op to slot a.
    `out` is the expression's slot.

    Construction turns the instructions into two straight-line Python
    functions (`_programs`), the tape's only runs:

    - value(inputs, call) is f, from a sequence of one input per coordinate;
    - value_and_gradient(inputs, call) is f and the list of d f / d x_i over
      the coordinates, from the same run and one adjoint sweep back over it.

    Operators are Python arithmetic on the values, so the programs run over
    float arrays, Python floats and jets; functions go through
    call(name, value).  The sweep's rules are arithmetic on the run's
    values, so it gives grad f of the run's kind; a coordinate that f reads
    linearly or not at all keeps a float adjoint.  The programs take no part
    in repr or equality, and a pickle holds only the instructions: unpickling
    makes the programs again.
    """

    nvars: int
    constants: tuple
    code: tuple
    out: int
    value: object = field(init=False, repr=False, compare=False)
    value_and_gradient: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        value, value_and_gradient = _programs(self)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "value_and_gradient", value_and_gradient)

    def __reduce__(self):
        return Tape, (self.nvars, self.constants, self.code, self.out)


def _programs(tape):
    """The (value, value_and_gradient) functions of a tape (see Tape).

    Their source is straight-line code, one statement per operation: slot s
    is the local v<s> and its adjoint a<s>, the constants are read from
    `tape.constants` when the functions are made, and the text holds only
    slot numbers, the four operator symbols and FUNCTIONS names.  The sweep
    goes back over the instructions and adds each term to the adjoints of
    its operands, as adjoint = adjoint + term, starting from 0.0 (from 1.0
    at `out`); the adds of zero adjoints past `out` are made too, so each
    operation is made in a fixed order on every kind of input.  Constants
    get no adjoint: nothing reads one, and on arrays its product could
    overflow where f and grad f do not.
    """
    nvars, first = tape.nvars, tape.nvars + len(tape.constants)
    code = [(k, op, _slot(a, k), None if b is None else _slot(b, k))
            for k, (op, a, b) in enumerate(tape.code, first)]
    forward = [f"v{i} = inputs[{i}]" for i in range(nvars)]
    for k, op, a, b in code:
        if b is None and op not in FUNCTIONS:
            raise ValueError(f"instruction {k}: unknown function {op!r}")
        forward.append(f"v{k} = call({op!r}, v{a})" if b is None else
                       f"v{k} = v{a} {_SYMBOLS[op]} v{b}")
    out = _slot(tape.out, first + len(tape.code))
    adjoint, sweep = {out: "1.0"}, []

    def add(s, term):
        if nvars <= s < first:  # a constant's slot
            return
        sweep.append(f"a{s} = {adjoint.get(s, '0.0')} + {term}")
        adjoint[s] = f"a{s}"

    for k, op, a, b in reversed(code):
        g = adjoint.get(k, "0.0")
        if b is None:
            add(a, _ADJOINT_TERMS[op].format(g=g, a=f"v{a}", y=f"v{k}"))
        elif op is operator.mul:
            add(a, f"{g} * v{b}")
            add(b, f"{g} * v{a}")
        elif op is operator.add:
            add(a, g)
            add(b, g)
        elif op is operator.sub:
            add(a, g)
            add(b, f"-{g}")  # not jet - float, which keeps -0.0 terms
        else:
            add(a, f"{g} * (1.0 / v{b})")
            add(b, f"{g} * (-v{k} / v{b})")
    gradient = ", ".join(adjoint.get(i, "0.0") for i in range(nvars))
    source = "\n".join([
        "def programs(constants):",
        *(f"    v{s} = constants[{j}]" for j, s in enumerate(range(nvars, first))),
        "    def value(inputs, call):",
        *(f"        {line}" for line in forward),
        f"        return v{out}",
        "    def value_and_gradient(inputs, call):",
        *(f"        {line}" for line in forward + sweep),
        f"        return v{out}, [{gradient}]",
        "    return value, value_and_gradient",
    ])
    namespace = {}
    exec(compile(source, "<tape>", "exec"), namespace)
    return namespace["programs"](tape.constants)


def _slot(s, k):
    """Slot s as an int, checked to be below k (the slot an instruction writes)."""
    s = int(operator.index(s))
    if not 0 <= s < k:
        raise ValueError(f"slot {s} is not below {k}")
    return s


def _fold_constant(node, op, operands, params):
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
    1.0 (its base is not compiled) and x^-n as 1.0 / x^n.  Raises
    UnknownIdentifierError naming every other identifier, and
    InvalidParametersError naming a constant subtree whose fold leaves the
    float range.
    """
    params = {key: float(value) for key, value in (params or {}).items()}
    axes = {name: axis for names in VARIABLE_NAMES[dimension]
            for axis, name in enumerate(names)}
    free = identifiers(node) - set(axes) - set(params)
    if free:
        raise UnknownIdentifierError(f"unbound identifier(s): {', '.join(sorted(free))}")
    # visit() returns a 1-tuple (value,) for a constant subtree, else a
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
            return (_fold_constant(node, op, a if b is None else a + b, params),)
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

    def visit(n, parts):
        if isinstance(n, Num):
            return (float(n.value),)
        if isinstance(n, Name):
            return axes[n.ident] if n.ident in axes else (params[n.ident],)
        if isinstance(n, BinOp):
            return emit(n, _OPERATORS[n.op], *parts)
        if isinstance(n, Neg):
            return emit(n, operator.mul, parts[0], (-1.0,))
        if isinstance(n, Pow):
            return power(n, parts[0], n.exponent) if n.exponent else (1.0,)
        return emit(n, n.func, parts[0])

    out = slot(fold(node, visit, leaf=lambda n: isinstance(n, Pow) and not n.exponent))

    def final(s):  # the constants go in between the coordinates and the code
        if s is None or 0 <= s < dimension:
            return s
        return dimension + ~s if s < 0 else s + len(constants)

    code = tuple((op, final(a), final(b)) for op, a, b in code)
    return Tape(dimension, tuple(constants), code, final(out))
