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
once, and sums and products of any length are parsed by loops.

An `Expression` is one flat tuple of (kind, payload) entries in postfix
order, each operand before the entry that reads it, and ARITY gives each
kind's operand count.  The parser appends an entry as each operand is
finished, and `unparse` and `compile_tape` are each one stack loop over the
entries: nothing recurses over an expression, so one of any depth parses,
compiles, compares, hashes, prints and pickles.

`compile_tape` turns an expression into a `Tape`, a flat tuple of (op, a, b)
instructions over numbered slots, which is the one evaluator of an
expression.  Its ops are + - * / and the five functions: an integer power
is multiplied out by repeated squaring, so float arrays, numpy scalars,
Python floats and jets all do the same correctly rounded arithmetic.
Each Tape is turned once into two straight-line Python functions (source
transformation; Griewank & Walther, Evaluating Derivatives, 2nd ed.,
ch. 6): `Tape.value` runs it over any of those inputs (f, or exact
derivatives over Taylor jets), and `Tape.value_and_gradient` adds the
adjoint sweep back over that run for grad f of the same kind (reverse-mode
differentiation; ch. 3 and 13).  `straight_line` writes the statements of
both, and the RATTLE step of `dynamics` inlines the same statements.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

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


# Expressions ------------------------------------------------------------------

#: operand count of each entry kind: a number or name, -, x^n or a call, and + - * /
ARITY = {"num": 0, "name": 0, "neg": 1, "^": 1, "call": 1, "+": 2, "-": 2, "*": 2, "/": 2}


@dataclass(frozen=True)
class Expression:
    """An expression as a tuple of (kind, payload) entries in postfix order.

    The payload of "num" is the float, of "name" the identifier, of "^" the
    integer exponent and of "call" the FUNCTIONS name; the other kinds have
    None.  Each entry reads the ARITY[kind] operands just before it.
    """

    postfix: tuple


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
        self.postfix = []  # the entries of the operands finished so far

    def nested(self, parse, position):  # parse() one level deeper, at most MAX_NESTING
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", position,
                             expected=f"at most {MAX_NESTING} open groups, calls or unary minuses")
        self.depth += 1
        parse()
        self.depth -= 1

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
        self.expr()
        kind, value, position = self.peek()
        if kind != "eof":
            raise ParseError(f"trailing input '{value}'", position, expected="end of input")
        return Expression(tuple(self.postfix))

    def at_op(self, ops):
        kind, value, _ = self.peek()
        return kind == "op" and value in ops

    def expr(self):
        self.term()
        while self.at_op("+-"):
            op = self.advance()[1]
            self.term()
            self.postfix.append((op, None))

    def term(self):
        self.factor()
        while self.at_op("*/"):
            op = self.advance()[1]
            self.factor()
            self.postfix.append((op, None))

    def factor(self):
        self.base()
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
            self.postfix.append(("^", acc))

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
            self.postfix.append(("num", value))
        elif kind == "op" and value == "-":  # binds looser than '^': -x^2^3 is -(x^8)
            self.nested(self.factor, position)
            self.postfix.append(("neg", None))
        elif kind == "op" and value == "(":
            self.nested(self.expr, position)
            self.expect_op(")")
        elif kind == "ident" and self.at_op("("):
            if value not in FUNCTIONS:
                raise UnknownIdentifierError(
                    f"unknown function '{value}' at offset {position}; "
                    f"supported: {', '.join(FUNCTIONS)}"
                )
            self.advance()
            self.nested(self.expr, position)
            self.expect_op(")")
            self.postfix.append(("call", value))
        elif kind == "ident":
            self.postfix.append(("name", value))
        else:
            raise ParseError(f"found '{value or 'end of input'}'", position,
                             expected="number, identifier or '('")


def parse_expression(text):
    """Parse expression text into an Expression.

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


def _operands(stack, kind):
    """The ARITY[kind] operands of an entry, taken off the top of the stack."""
    start = len(stack) - ARITY[kind]
    operands = stack[start:]
    del stack[start:]
    return operands


def _unparsed(kind, payload, parts):
    """(text, precedence) of an entry from the (text, precedence) parts of its operands."""
    if kind == "num":
        return repr(payload), _PREC["atom"]
    if kind == "name":
        return payload, _PREC["atom"]
    if kind == "call":
        return f"{payload}({parts[0][0]})", _PREC["atom"]
    if kind == "neg":
        return f"-{_grouped(parts[0], _PREC['neg'])}", _PREC["neg"]
    if kind == "^":
        return f"{_grouped(parts[0], _PREC['^'] + 1)}^{payload}", _PREC["^"]
    prec = _PREC[kind]
    # left-associative: parenthesize the right operand at equal precedence
    return f"{_grouped(parts[0], prec)} {kind} {_grouped(parts[1], prec + 1)}", prec


def unparse(expression):
    """Render an Expression back to text; parse(unparse(e)) == e."""
    stack = []  # the (text, precedence) of each operand not yet read
    for kind, payload in expression.postfix:
        stack.append(_unparsed(kind, payload, _operands(stack, kind)))
    return stack[0][0]


# Analysis helpers -----------------------------------------------------------


def identifiers(expression):
    """Set of identifier names referenced by the expression (excludes functions)."""
    return {payload for kind, payload in expression.postfix if kind == "name"}


def substitute(expression, replacements):
    """The expression with each name in `replacements` replaced by that Expression."""
    postfix = []
    for kind, payload in expression.postfix:
        if kind == "name" and payload in replacements:
            postfix.extend(replacements[payload].postfix)
        else:
            postfix.append((kind, payload))
    return Expression(tuple(postfix))


# Compiled tape ----------------------------------------------------------------

_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv}
_SYMBOLS = {op: symbol for symbol, op in _OPERATORS.items()}
_NUMPY_FUNCTIONS = {name: getattr(np, name) for name in FUNCTIONS}

# the adjoint of each function as source: g times d f(a) / d a, from g, the
# argument's slot a, the value's slot y and the spelled applications sin(a)
# and cos(a)
_ADJOINT_TERMS = {
    "sqrt": "{g} * (0.5 / {y})",
    "sin": "{g} * {cos}",
    "cos": "{g} * -{sin}",
    "exp": "{g} * {y}",
    "log": "{g} * (1.0 / {a})",
}


def numpy_call(name, value):
    """The `call` of an array run: the numpy function of that name."""
    return _NUMPY_FUNCTIONS[name](value)


_INVALID = math.inf - math.inf  # the NaN of an invalid operation, as numpy's sqrt of x < 0


def _float_sqrt(value):
    return _INVALID if value < 0.0 else math.sqrt(value)


def _as_float(function):
    def call(value):
        return float(function(value))
    return call


#: each function on a Python float, with the bits, NaN and inf of an array
#: run: sqrt is math.sqrt (both are correctly rounded), NaN below 0; the
#: others are the numpy function of that name, returned as a float (numpy's
#: exp, log, sin and cos can differ from `math` in the last bit)
FLOAT_FUNCTIONS = {name: _float_sqrt if name == "sqrt" else _as_float(function)
                   for name, function in _NUMPY_FUNCTIONS.items()}


def float_call(name, value):
    """The `call` of a run on Python floats: FLOAT_FUNCTIONS[name](value)."""
    return FLOAT_FUNCTIONS[name](value)


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

    Their source is the straight-line code of `straight_line`, after one
    statement per coordinate binding v<i> from `inputs`, with each function
    applied as call('name', v<a>); the constants are read from
    `tape.constants` when the functions are made.
    """
    constants, forward, sweep, value, gradient = straight_line(
        tape, lambda name, argument: f"call({name!r}, {argument})")
    forward = [f"v{i} = inputs[{i}]" for i in range(tape.nvars)] + forward
    source = "\n".join([
        "def programs(constants):",
        *(f"    {line}" for line in constants),
        "    def value(inputs, call):",
        *(f"        {line}" for line in forward),
        f"        return {value}",
        "    def value_and_gradient(inputs, call):",
        *(f"        {line}" for line in forward + sweep),
        f"        return {value}, [{', '.join(gradient)}]",
        "    return value, value_and_gradient",
    ])
    namespace = {}
    exec(compile(source, "<tape>", "exec"), namespace)
    return namespace["programs"](tape.constants)


def straight_line(tape, spell):
    """The source of a tape's run and its adjoint sweep, one statement per
    operation: (constants, forward, sweep, value, gradient).

    Slot s is the local v<s> and its adjoint a<s>.  `constants` binds each
    constant's local from a sequence `constants`; `forward` runs the
    instructions once the coordinates' locals v0..v<nvars-1> are bound, and
    `sweep` goes back over them; `value` is the text of f and `gradient` the
    text of d f / d x_i for each coordinate.  spell(name, argument) is the
    text of the FUNCTIONS name applied to the argument's text, the one part
    a generated program chooses.  The text holds only slot numbers, the four
    operator symbols, FUNCTIONS names and what spell adds.

    The sweep adds each term to the adjoints of its operands, as adjoint =
    adjoint + term, starting from 0.0 (from 1.0 at `out`); the adds of zero
    adjoints past `out` are made too, so each operation is made in a fixed
    order on every kind of input.  Constants get no adjoint: nothing reads
    one, and on arrays its product could overflow where f and grad f do not.
    """
    nvars, first = tape.nvars, tape.nvars + len(tape.constants)
    code = [(k, op, _slot(a, k), None if b is None else _slot(b, k))
            for k, (op, a, b) in enumerate(tape.code, first)]
    forward = []
    for k, op, a, b in code:
        if b is None and op not in FUNCTIONS:
            raise ValueError(f"instruction {k}: unknown function {op!r}")
        forward.append(f"v{k} = {spell(op, f'v{a}')}" if b is None else
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
            add(a, _ADJOINT_TERMS[op].format(g=g, a=f"v{a}", y=f"v{k}", sin=spell("sin", f"v{a}"),
                                             cos=spell("cos", f"v{a}")))
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
    constants = [f"v{s} = constants[{j}]" for j, s in enumerate(range(nvars, first))]
    gradient = [adjoint.get(i, "0.0") for i in range(nvars)]
    return constants, forward, sweep, f"v{out}", gradient


def _slot(s, k):
    """Slot s as an int, checked to be below k (the slot an instruction writes)."""
    s = int(operator.index(s))
    if not 0 <= s < k:
        raise ValueError(f"slot {s} is not below {k}")
    return s


def _fold_constant(op, operands):
    """op on constants, as a float run computes it; a fold that overflows,
    underflows, divides by zero or is invalid raises FloatingPointError."""
    a = np.float64(operands[0])
    with np.errstate(all="raise"):
        return float(numpy_call(op, a) if len(operands) == 1 else op(a, operands[1]))


def compile_tape(expression, dimension, params=None):
    """Compile an Expression into a Tape over the coordinates of `dimension`.

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
    free = identifiers(expression) - set(axes) - set(params)
    if free:
        raise UnknownIdentifierError(f"unbound identifier(s): {', '.join(sorted(free))}")
    postfix = expression.postfix
    # the entries of each x^0's base, found in one backward pass: `pending`
    # counts the operands still to be reached there
    unread, pending = set(), 0
    for k in range(len(postfix) - 1, -1, -1):
        kind, payload = postfix[k]
        if pending:
            unread.add(k)
            pending += ARITY[kind] - 1
        elif kind == "^" and payload == 0:
            pending = 1
    # an operand is a 1-tuple (value,) for a constant subexpression, else a
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

    def emit(op, a, b=None):
        if isinstance(a, tuple) and (b is None or isinstance(b, tuple)):
            return (_fold_constant(op, a if b is None else a + b),)
        key = (op, slot(a), slot(b))
        if key not in slot_of:
            slot_of[key] = dimension + len(code)
            code.append(key)
        return slot_of[key]

    def power(base, exponent):  # exponent != 0
        if exponent < 0:
            return emit(operator.truediv, (1.0,), power(base, -exponent))
        if exponent == 1:
            return base
        half = power(base, exponent // 2)
        square = emit(operator.mul, half, half)
        return emit(operator.mul, square, base) if exponent & 1 else square

    def operand_of(kind, payload, operands):
        if kind == "num":
            return (float(payload),)
        if kind == "name":
            return axes[payload] if payload in axes else (params[payload],)
        if kind == "neg":
            return emit(operator.mul, operands[0], (-1.0,))
        if kind == "^":
            return power(operands[0], payload) if payload else (1.0,)
        if kind == "call":
            return emit(payload, operands[0])
        return emit(_OPERATORS[kind], *operands)

    stack = []  # (operand, index of its first entry); operand None in an x^0's base
    for k, (kind, payload) in enumerate(postfix):
        parts = _operands(stack, kind)
        first = parts[0][1] if parts else k
        try:
            operand = None if k in unread else operand_of(kind, payload, [p for p, _ in parts])
        except FloatingPointError as error:
            term = Expression(postfix[first:k + 1])
            names = sorted(identifiers(term) & set(params))
            bound = f" with {', '.join(f'{n}={params[n]!r}' for n in names)}" if names else ""
            raise InvalidParametersError(f"constant subexpression '{unparse(term)}'{bound} "
                                         f"leaves the float range: {error}") from None
        stack.append((operand, first))
    out = slot(stack[0][0])

    def final(s):  # the constants go in between the coordinates and the code
        if s is None or 0 <= s < dimension:
            return s
        return dimension + ~s if s < 0 else s + len(constants)

    code = tuple((op, final(a), final(b)) for op, a, b in code)
    return Tape(dimension, tuple(constants), code, final(out))
