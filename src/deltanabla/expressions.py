"""A small expression language for Lagrangians L(t, y, v).

Supports the variables t, y, v, the constants pi and e, the binary
operators + - * / ^ (with ^ binding tightest and associating to the right,
then unary minus, then * /, then + -), and the functions sin, cos, exp,
log.  Expressions parse to immutable trees that can be evaluated, printed
back to source, differentiated symbolically, or compiled to a fast callable
over Python floats or over numpy arrays.

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
from typing import Callable, Union

import numpy as np

from .errors import EvaluationError, ExpressionSyntaxError

VARIABLES = ("t", "y", "v")
FUNCTIONS = ("sin", "cos", "exp", "log")
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
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    left: "Expr"
    right: "Expr"


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
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


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
            rhs = self.term()
            node = Add(node, rhs) if tok[1] == "+" else Sub(node, rhs)
        return node

    def term(self) -> Expr:
        node = self.unary()
        while (tok := self._peek()) is not None and tok[1] in ("*", "/"):
            self._next()
            rhs = self.unary()
            node = Mul(node, rhs) if tok[1] == "*" else Div(node, rhs)
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
            if text in FUNCTIONS:
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

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5

# Each binary operator node: its source spelling, its precedence and its
# Python operator.  Printing, compiling and evaluating all read this table.
_BINARY = {
    Add: (" + ", _PREC_ADD, operator.add),
    Sub: (" - ", _PREC_ADD, operator.sub),
    Mul: ("*", _PREC_MUL, operator.mul),
    Div: ("/", _PREC_MUL, operator.truediv),
}


def _prec(e: Expr) -> int:
    if type(e) in _BINARY:
        return _BINARY[type(e)][1]
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, Num) and e.value < 0:
        return _PREC_NEG
    if isinstance(e, Pow):
        return _PREC_POW
    return _PREC_ATOM


def _wrap(e: Expr, outer: int, strict: bool = False) -> str:
    s = to_source(e)
    p = _prec(e)
    if p < outer or (strict and p == outer):
        return f"({s})"
    return s


def to_source(e: Expr) -> str:
    """Render back to parseable source; re-parsing yields an equal tree."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return "-" + _wrap(e.arg, _PREC_NEG)
    if type(e) in _BINARY:
        spelling, prec, _ = _BINARY[type(e)]
        return f"{_wrap(e.left, prec)}{spelling}{_wrap(e.right, prec, strict=True)}"
    if isinstance(e, Pow):
        return f"{_wrap(e.base, _PREC_POW, strict=True)}^{_wrap(e.exponent, _PREC_NEG)}"
    if isinstance(e, Call):
        return f"{e.fn}({to_source(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

_FN_TABLE = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log}
_NAMESPACE = {"_pow": math.pow, "inf": math.inf, "nan": math.nan, **_FN_TABLE}
_ARRAY_NAMESPACE = {
    "_pow": np.power,
    "inf": np.inf,
    "nan": np.nan,
    "_broadcast": lambda out, t, y, v: (
        out if np.shape(out) == np.shape(t) == np.shape(y) == np.shape(v)
        else np.broadcast_arrays(out, t, y, v)[0]
    ),
    **{name: getattr(np, name) for name in FUNCTIONS},
}


def evaluate(e: Expr, t: float, y: float, v: float) -> float:
    """Evaluate at (t, y, v); domain violations and non-finite results raise
    EvaluationError naming the offending subexpression."""
    env = {"t": t, "y": y, "v": v}
    return _eval(e, env)


def _fail(e: Expr, why: str) -> EvaluationError:
    return EvaluationError(f"{why} in {to_source(e)!r}")


def _eval(e: Expr, env: dict[str, float]) -> float:
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Neg):
        return -_eval(e.arg, env)
    if isinstance(e, Num):
        out = e.value  # folding can overflow to a non-finite constant
    elif type(e) in _BINARY:
        left, right = _eval(e.left, env), _eval(e.right, env)
        if isinstance(e, Div) and right == 0.0:
            raise _fail(e, "division by zero")
        out = _BINARY[type(e)][2](left, right)
    elif isinstance(e, Pow):
        base, exp = _eval(e.base, env), _eval(e.exponent, env)
        try:
            out = math.pow(base, exp)
        except ValueError:
            raise _fail(e, f"invalid power {base!r} ^ {exp!r}") from None
        except OverflowError:
            raise _fail(e, "overflow") from None
    elif isinstance(e, Call):
        arg = _eval(e.arg, env)
        if e.fn == "log" and arg <= 0.0:
            raise _fail(e, f"log of non-positive value {arg!r}")
        try:
            out = _FN_TABLE[e.fn](arg)
        except (ValueError, OverflowError) as exc:
            raise _fail(e, str(exc)) from None
    else:
        raise TypeError(f"not an expression node: {e!r}")
    if not math.isfinite(out):
        raise _fail(e, "non-finite result")
    return out


def compile_expr(e: Expr, arrays: bool = False) -> Callable:
    """Compile once to a plain function ``lambda t, y, v: ...``.

    It skips the per-node checks of ``evaluate`` (a constant folded to inf
    or nan compiles to that value); callers that see an arithmetic
    exception or a non-finite result re-run ``evaluate``, which names the
    failing subexpression.  With ``arrays`` the same source runs on numpy
    (``np.power``, ``np.sin``, ...) and returns an array of the broadcast
    shape of t, y and v, also for a constant; numpy flags domain faults
    only under ``np.errstate(..., "raise")``.
    """
    if arrays:
        return eval(f"lambda t, y, v: _broadcast({_py_source(e)}, t, y, v)", _ARRAY_NAMESPACE)
    return eval(f"lambda t, y, v: {_py_source(e)}", _NAMESPACE)


def _py_source(e: Expr) -> str:
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return f"(-{_py_source(e.arg)})"
    if type(e) in _BINARY:
        return f"({_py_source(e.left)}{_BINARY[type(e)][0]}{_py_source(e.right)})"
    if isinstance(e, Pow):
        return f"_pow({_py_source(e.base)}, {_py_source(e.exponent)})"
    if isinstance(e, Call):
        return f"{e.fn}({_py_source(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Symbolic differentiation
# ---------------------------------------------------------------------------


def _is_num(e: Expr, value: float | None = None) -> bool:
    return isinstance(e, Num) and (value is None or e.value == value)


def _add(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return _neg(b)
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    return Sub(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    return Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0) and not _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(b, 1.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num) and b.value != 0.0:
        return Num(a.value / b.value)
    return Div(a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _pow_node(a: Expr, b: Expr) -> Expr:
    if _is_num(b, 1.0):
        return a
    if _is_num(b, 0.0):
        return Num(1.0)
    return Pow(a, b)


def differentiate(e: Expr, var: str) -> Expr:
    """Symbolic partial derivative with respect to one of t, y, v, with
    local simplification (zero/one identities and constant folding)."""
    if var not in VARIABLES:
        raise ValueError(f"var must be one of {VARIABLES}, got {var!r}")
    return _diff(e, var)


def _diff(e: Expr, var: str) -> Expr:
    if isinstance(e, Num):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0 if e.name == var else 0.0)
    if isinstance(e, Neg):
        return _neg(_diff(e.arg, var))
    if isinstance(e, Add):
        return _add(_diff(e.left, var), _diff(e.right, var))
    if isinstance(e, Sub):
        return _sub(_diff(e.left, var), _diff(e.right, var))
    if isinstance(e, Mul):
        return _add(_mul(_diff(e.left, var), e.right), _mul(e.left, _diff(e.right, var)))
    if isinstance(e, Div):
        num = _sub(_mul(_diff(e.left, var), e.right), _mul(e.left, _diff(e.right, var)))
        return _div(num, _pow_node(e.right, Num(2.0)))
    if isinstance(e, Pow):
        base, exponent = e.base, e.exponent
        db = _diff(base, var)
        if isinstance(exponent, Num):
            # power rule: c * u^(c-1) * u'
            return _mul(_mul(exponent, _pow_node(base, Num(exponent.value - 1.0))), db)
        # general case u^w = exp(w log u); evaluation restricts to u > 0
        dw = _diff(exponent, var)
        bracket = _add(_mul(dw, Call("log", base)), _div(_mul(exponent, db), base))
        return _mul(Pow(base, exponent), bracket)
    if isinstance(e, Call):
        da = _diff(e.arg, var)
        if e.fn == "sin":
            return _mul(Call("cos", e.arg), da)
        if e.fn == "cos":
            return _neg(_mul(Call("sin", e.arg), da))
        if e.fn == "exp":
            return _mul(Call("exp", e.arg), da)
        if e.fn == "log":
            return _div(da, e.arg)
    raise TypeError(f"not an expression node: {e!r}")
