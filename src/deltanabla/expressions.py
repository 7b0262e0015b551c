"""A small expression language for Lagrangians L(t, y, v).

Supports the variables t, y, v, the constants pi and e, the binary
operators + - * / ^ (with ^ binding tightest and associating to the right,
then unary minus, then * /, then + -), and the functions sin, cos, exp,
log.  Expressions parse to immutable trees that can be evaluated, printed
back to source, differentiated symbolically, or compiled to a fast callable
over Python floats or over numpy arrays, several trees to one numpy kernel
that evaluates their shared subtrees once.

Each operator node is one row of the table ``_OPS`` and each function one
row of ``_CALLS``; printing, compiling, evaluating and differentiating all
read those rows.

Grammar (EBNF):

    expr    = term , { ("+" | "-") , term } ;
    term    = unary , { ("*" | "/") , unary } ;
    unary   = "-" , unary | power ;
    power   = atom , [ "^" , unary ] ;
    atom    = NUMBER | IDENT | IDENT , "(" , expr , ")" | "(" , expr , ")" ;

IDENT is one of the variables, constants, or function names; anything else
is rejected with its byte offset.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .errors import EvaluationError, ExpressionSyntaxError

__all__ = [
    "compile_expr",
    "differentiate",
    "evaluate",
    "parse",
    "to_source",
]

VARIABLES = ("t", "y", "v")
CONSTANTS = {"pi": math.pi, "e": math.e}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class _Binary:
    left: "Expr"
    right: "Expr"


class Add(_Binary):
    """left + right"""


class Sub(_Binary):
    """left - right"""


class Mul(_Binary):
    """left * right"""


class Div(_Binary):
    """left / right"""


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"


Expr = Union[Num, Var, Neg, Add, Sub, Mul, Div, Pow, Call]


# ---------------------------------------------------------------------------
# The operator and function tables
# ---------------------------------------------------------------------------

# precedence levels, loosest first
_ADD, _MUL, _NEG, _POW, _ATOM = 1, 2, 3, 4, 5


class _Op(NamedTuple):
    prec: int  # how tightly the node's spelling binds
    text: tuple  # the spelling's text before, between and after the operands
    bounds: tuple  # per operand, the least precedence it may have outside parentheses
    fn: Callable  # the float operation of evaluate: a domain fault raises its message
    rule: Callable  # (node, var) -> the node's derivative in var


def _div_float(a: float, b: float) -> float:
    if b == 0.0:
        raise ZeroDivisionError("division by zero")
    return a / b


def _pow_float(a: float, b: float) -> float:
    try:
        return math.pow(a, b)
    except ValueError:
        raise ValueError(f"invalid power {a!r} ^ {b!r}") from None
    except OverflowError:
        raise OverflowError("overflow") from None


def _log_float(a: float) -> float:
    if a <= 0.0:
        raise ValueError(f"log of non-positive value {a!r}")
    return math.log(a)


def _power_rule(e: Pow, var: str) -> Expr:
    u, w = e.base, e.exponent
    du = _diff(u, var)
    if isinstance(w, Num):  # power rule: c * u^(c-1) * u'
        return _mul(_mul(w, _pow_node(u, Num(w.value - 1.0))), du)
    # general case u^w = exp(w log u); evaluation restricts to u > 0
    return _mul(e, _add(_mul(_diff(w, var), Call("log", u)), _div(_mul(w, du), u)))


# A left operand may have its parent's precedence and a right one must bind
# tighter (a - (b - c)), except for the right-associative power, whose base
# must bind tighter than a power and whose exponent may be a negation (t^-2).
_OPS = {
    Neg: _Op(_NEG, ("-", ""), (_NEG,), operator.neg, lambda e, var: _neg(_diff(e.arg, var))),
    Add: _Op(_ADD, ("", " + ", ""), (_ADD, _ADD + 1), operator.add,
             lambda e, var: _add(_diff(e.left, var), _diff(e.right, var))),
    Sub: _Op(_ADD, ("", " - ", ""), (_ADD, _ADD + 1), operator.sub,
             lambda e, var: _sub(_diff(e.left, var), _diff(e.right, var))),
    Mul: _Op(_MUL, ("", "*", ""), (_MUL, _MUL + 1), operator.mul,
             lambda e, var: _add(_mul(_diff(e.left, var), e.right), _mul(e.left, _diff(e.right, var)))),
    Div: _Op(_MUL, ("", "/", ""), (_MUL, _MUL + 1), _div_float,
             lambda e, var: _div(_sub(_mul(_diff(e.left, var), e.right), _mul(e.left, _diff(e.right, var))),
                                 _pow_node(e.right, Num(2.0)))),
    Pow: _Op(_POW, ("", "^", ""), (_POW + 1, _NEG), _pow_float, _power_rule),
}

# Python spells a power as the call _pow(base, exponent): an atom, whose
# operands need no parentheses
_PY_OPS = {**_OPS, Pow: _OPS[Pow]._replace(prec=_ATOM, text=("_pow(", ", ", ")"), bounds=(0, 0))}

_CALLS = {
    name: _Op(_ATOM, (name + "(", ")"), (0,), fn, rule)
    for name, fn, rule in (
        ("sin", math.sin, lambda e, var: _mul(Call("cos", e.arg), _diff(e.arg, var))),
        ("cos", math.cos, lambda e, var: _neg(_mul(Call("sin", e.arg), _diff(e.arg, var)))),
        ("exp", math.exp, lambda e, var: _mul(Call("exp", e.arg), _diff(e.arg, var))),
        ("log", _log_float, lambda e, var: _div(_diff(e.arg, var), e.arg)),
    )
}
FUNCTIONS = tuple(_CALLS)


def _row(e: Expr, table: dict = _OPS) -> _Op:
    """The row of the compound node e: in ``table``, or in ``_CALLS`` for a call."""
    return _CALLS[e.fn] if isinstance(e, Call) else table[type(e)]


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_INFIX = {"+": Add, "-": Sub, "*": Mul, "/": Div}


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            bad = len(src) - len(stripped)
            raise ExpressionSyntaxError(f"unexpected character {src[bad]!r}", bad)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0

    def _peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> tuple[str, str, int] | None:
        tok = self._peek()
        if tok is not None:
            self.pos += 1
        return tok

    def _offset(self) -> int:
        tok = self._peek()
        return tok[2] if tok is not None else len(self.src)

    def _expect_op(self, op: str) -> None:
        tok = self._peek()
        if tok is None or tok[0] != "op" or tok[1] != op:
            raise ExpressionSyntaxError(f"expected {op!r}", self._offset())
        self._next()

    def parse(self) -> Expr:
        e = self.expr()
        tok = self._peek()
        if tok is not None:
            raise ExpressionSyntaxError(f"unexpected token {tok[1]!r}", tok[2])
        return e

    def expr(self) -> Expr:
        node = self.term()
        while (tok := self._peek()) is not None and tok[1] in ("+", "-"):
            self._next()
            node = _INFIX[tok[1]](node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while (tok := self._peek()) is not None and tok[1] in ("*", "/"):
            self._next()
            node = _INFIX[tok[1]](node, self.unary())
        return node

    def unary(self) -> Expr:
        tok = self._peek()
        if tok is not None and tok[1] == "-":
            self._next()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        tok = self._peek()
        if tok is not None and tok[1] == "^":
            self._next()
            return Pow(base, self.unary())
        return base

    def atom(self) -> Expr:
        tok = self._next()
        if tok is None:
            raise ExpressionSyntaxError("unexpected end of input", len(self.src))
        kind, text, off = tok
        if kind == "num":
            value = float(text)
            if math.isinf(value):
                raise ExpressionSyntaxError(f"number {text!r} overflows", off)
            return Num(value)
        if kind == "ident":
            if text in _CALLS:
                self._expect_op("(")
                arg = self.expr()
                self._expect_op(")")
                return Call(text, arg)
            if text in VARIABLES:
                return Var(text)
            if text in CONSTANTS:
                return Num(CONSTANTS[text])
            raise ExpressionSyntaxError(f"unknown identifier {text!r}", off)
        if text == "(":
            inner = self.expr()
            self._expect_op(")")
            return inner
        raise ExpressionSyntaxError(f"unexpected token {text!r}", off)


def parse(src: str) -> Expr:
    """Parse an expression over t, y, v; raises ExpressionSyntaxError with
    the byte offset of the first fault."""
    return _Parser(src).parse()


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def _spell(e: Expr, table: dict, bind: Callable[[str], str] | None = None, bound: int = 0) -> str:
    """Source of e in the spelling of ``table``, ``_OPS`` for the language
    or ``_PY_OPS`` for Python, in parentheses when its precedence is below
    ``bound``.  With ``bind``, the source of each compound node passes
    through it, and the name it returns stands for the node in its parent."""
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Num):
        src, prec = repr(e.value), _NEG if e.value < 0 else _ATOM
    else:
        prec, text, bounds, _, _ = _row(e, table)
        # each operand by its own call: a loop would cost more than the rest
        if len(bounds) == 1:  # a negation or a call, whose operand is arg
            src = f"{text[0]}{_spell(e.arg, table, bind, bounds[0])}{text[1]}"
        else:
            left, right = vars(e).values()
            src = (f"{text[0]}{_spell(left, table, bind, bounds[0])}"
                   f"{text[1]}{_spell(right, table, bind, bounds[1])}{text[2]}")
        if bind is not None:
            return bind(src)
    return f"({src})" if prec < bound else src


def to_source(e: Expr) -> str:
    """Render back to parseable source; re-parsing yields an equal tree."""
    return _spell(e, _OPS)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

_NAMESPACE = {"_pow": math.pow, "inf": math.inf, "nan": math.nan, **{name: getattr(math, name) for name in _CALLS}}


def _broadcast(out, t, y, v):
    """out at the broadcast shape of t, y and v: out itself when it already
    has their shape, as a numpy result on arrays of one shape does, and a
    numpy float for a Python float."""
    try:
        same = out.shape == t.shape == y.shape == v.shape
    except AttributeError:  # a Python float among them
        out = np.float64(out) if isinstance(out, float) else out
        same = np.shape(out) == np.shape(t) == np.shape(y) == np.shape(v)
    return out if same else np.broadcast_arrays(out, t, y, v)[0]


_ARRAY_NAMESPACE = {"_pow": np.power, "inf": np.inf, "nan": np.nan, "_broadcast": _broadcast,
                    **{name: getattr(np, name) for name in _CALLS}}


def evaluate(e: Expr, t: float, y: float, v: float) -> float:
    """Evaluate at (t, y, v); domain violations and non-finite results raise
    EvaluationError naming the offending subexpression."""
    return _eval(e, {"t": t, "y": y, "v": v})


def _fail(e: Expr, why: str) -> EvaluationError:
    return EvaluationError(f"{why} in {to_source(e)!r}")


def _eval(e: Expr, env: dict[str, float]) -> float:
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Num):
        out = e.value  # folding can overflow to a non-finite constant
    else:  # one frame per level, fewer than differentiating took: a tree that loaded evaluates
        row = _row(e)
        if len(row.bounds) == 1:  # a negation or a call, whose operand is arg
            args = (_eval(e.arg, env),)
        else:
            left, right = vars(e).values()
            args = (_eval(left, env), _eval(right, env))
        try:
            out = row.fn(*args)
        except (ArithmeticError, ValueError) as exc:
            raise _fail(e, str(exc)) from None
    if not math.isfinite(out):
        raise _fail(e, "non-finite result")
    return out


def compile_expr(e: Expr) -> Callable:
    """Compile once to a plain function ``lambda t, y, v: ...`` of floats.

    It skips the per-node checks of ``evaluate`` (a constant folded to inf
    or nan compiles to that value); callers that see an arithmetic
    exception or a non-finite result re-run ``evaluate``, which names the
    failing subexpression.  ``compile_kernel`` compiles trees for numpy
    arrays.
    """
    return eval(f"lambda t, y, v: {_spell(e, _PY_OPS)}", _NAMESPACE)


def compile_kernel(trees: Sequence[Expr]) -> Callable:
    """Compile once to one numpy function of (t, y, v) that returns the
    tuple of the values of ``trees``, each an array of the broadcast shape
    of t, y and v, also for a constant.

    The function evaluates each distinct subtree once.  It runs the numpy
    operations of evaluating the trees one after another, left to right,
    and skips a subtree whose value it already holds; it neither
    reassociates nor folds constants.  So each value is bit for bit that of
    the tree's source as one nested Python expression, and under
    ``np.errstate(..., "raise")`` the first operation that faults is the
    same one.
    """
    local: dict[str, str] = {}  # source of each distinct compound subtree -> its variable

    def bind(src: str) -> str:
        return local.setdefault(src, f"_{len(local)}")

    outs = "".join(f"_broadcast({_spell(e, _PY_OPS, bind)}, t, y, v), " for e in trees)
    body = "".join(f"    {name} = {src}\n" for src, name in local.items())
    env = dict(_ARRAY_NAMESPACE)
    exec(f"def kernel(t, y, v):\n{body}    return ({outs})\n", env)
    return env["kernel"]


# ---------------------------------------------------------------------------
# Symbolic differentiation
# ---------------------------------------------------------------------------


def _const(e: Expr) -> float | None:
    """The value of e when e is a number, else None."""
    return e.value if isinstance(e, Num) else None


def _add(a: Expr, b: Expr) -> Expr:
    x, y = _const(a), _const(b)
    if x == 0.0:
        return b
    if y == 0.0:
        return a
    return Num(x + y) if x is not None and y is not None else Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    x, y = _const(a), _const(b)
    if y == 0.0:
        return a
    if x == 0.0:
        return _neg(b)
    return Num(x - y) if x is not None and y is not None else Sub(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    x, y = _const(a), _const(b)
    if x == 0.0 or y == 0.0:
        return Num(0.0)
    if x == 1.0:
        return b
    if y == 1.0:
        return a
    return Num(x * y) if x is not None and y is not None else Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _const(a) == 0.0 and _const(b) != 0.0:
        return Num(0.0)
    return Div(a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _pow_node(a: Expr, b: Expr) -> Expr:
    x, y = _const(a), _const(b)
    if y == 1.0:
        return a
    if y == 0.0:
        return Num(1.0)
    if x is not None and y is not None:
        try:
            value = math.pow(x, y)
        except (ValueError, OverflowError):  # left a node, so evaluation names the fault
            value = math.nan
        if math.isfinite(value):
            return Num(value)
    return Pow(a, b)


def differentiate(e: Expr, var: str) -> Expr:
    """Symbolic partial derivative with respect to one of t, y, v, with
    local simplification: zero/one identities, and constant folding of
    sums, differences, products and powers.  A power of two numbers folds
    to ``math.pow``'s value when that is finite; one that raises or
    overflows stays a ``Pow`` node, whose evaluation names the fault."""
    if var not in VARIABLES:
        raise ValueError(f"var must be one of {VARIABLES}, got {var!r}")
    return _diff(e, var)


def _diff(e: Expr, var: str) -> Expr:
    if isinstance(e, Num):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0 if e.name == var else 0.0)
    return _row(e).rule(e, var)
