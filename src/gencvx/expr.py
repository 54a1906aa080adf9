"""Arithmetic expression DSL with forward-mode differentiation.

Grammar (EBNF, whitespace insignificant):

    expr    = term { ("+" | "-") term } ;
    term    = factor { ("*" | "/") factor } ;
    factor  = "-" factor | power ;
    power   = atom [ "^" INTEGER ] ;
    atom    = NUMBER | VARIABLE | NAME "(" expr { "," expr } ")" | "(" expr ")" ;

Variables are x1..xn for a declared dimension n.  Known functions: exp, log,
sqrt, abs, atan (unary) and min, max (binary).  Exponents are integer
literals.  Binary +,-,*,/ are left associative; unary minus binds tighter
than * and /, and ^ binds tighter than unary minus.

Evaluation offers a plain value channel and a dual channel carrying the
forward-mode gradient, each compiled into a walk over the rows of an array of
points; eval_value and eval_dual are their one-row cases.
At abs/min/max kinks the dual channel flags the point and applies a fixed
convention: abs at 0 contributes subderivative 0, min/max break value ties
toward their first argument.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "ParseError",
    "EvalError",
    "Num",
    "Var",
    "Neg",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Call",
    "DualValue",
    "parse",
    "pretty",
    "eval_value",
    "compile_rows",
    "eval_dual",
    "compile_dual_rows",
    "is_smooth_expression",
]

UNARY_FUNCTIONS = ("exp", "log", "sqrt", "abs", "atan")
BINARY_FUNCTIONS = ("min", "max")
KINK_FUNCTIONS = ("abs", "min", "max")


class ParseError(ValueError):
    """Syntax error with a 1-based byte offset into the source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class EvalError(ArithmeticError):
    """Evaluation failure carrying the offending subterm."""

    def __init__(self, message: str, subterm: "Expr"):
        super().__init__(f"{message} in '{pretty(subterm)}'")
        self.subterm = subterm


class _Node:
    """Base of the expression nodes.  A tree keeps the walks compiled from
    it in its own __dict__ (see _compiled), so they go with it; copies and
    pickles leave them out."""

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_walks"}


@dataclass(frozen=True)
class Num(_Node):
    value: float


@dataclass(frozen=True)
class Var(_Node):
    index: int  # 1-based


@dataclass(frozen=True)
class Neg(_Node):
    operand: "Expr"


@dataclass(frozen=True)
class Add(_Node):
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub(_Node):
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul(_Node):
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div(_Node):
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow(_Node):
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Call(_Node):
    name: str
    args: tuple["Expr", ...]


Expr = Num | Var | Neg | Add | Sub | Mul | Div | Pow | Call


# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------

_OPS = "+-*/^(),"


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    offset: int  # 1-based position of the first character


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        start = i + 1  # 1-based
        if ch in _OPS:
            tokens.append(_Token("op", ch, start))
            i += 1
        elif ch.isdigit() or ch == ".":
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                float(text)
            except ValueError:
                raise ParseError(f"bad number literal {text!r}", start) from None
            tokens.append(_Token("num", text, start))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("name", source[i:j], start))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", start)
    tokens.append(_Token("end", "", n + 1))
    return tokens


# --------------------------------------------------------------------------
# Recursive-descent parser
# --------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token], dimension: int):
        self.tokens = tokens
        self.pos = 0
        self.dimension = dimension

    @property
    def tok(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        t = self.tok
        self.pos += 1
        return t

    def expect_op(self, op: str) -> None:
        if self.tok.kind == "op" and self.tok.text == op:
            self.advance()
            return
        raise ParseError(f"expected {op!r}", self.tok.offset)

    def parse(self) -> Expr:
        e = self.expr()
        if self.tok.kind != "end":
            raise ParseError(f"trailing input {self.tok.text!r}", self.tok.offset)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.tok.kind == "op" and self.tok.text in "+-":
            op = self.advance().text
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.tok.kind == "op" and self.tok.text in "*/":
            op = self.advance().text
            rhs = self.factor()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def factor(self) -> Expr:
        if self.tok.kind == "op" and self.tok.text == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.tok.kind == "op" and self.tok.text == "^":
            self.advance()
            t = self.tok
            if t.kind != "num" or any(c in t.text for c in ".eE"):
                raise ParseError("exponent must be an integer literal", t.offset)
            self.advance()
            return Pow(base, int(t.text))
        return base

    def atom(self) -> Expr:
        t = self.tok
        if t.kind == "num":
            self.advance()
            return Num(float(t.text))
        if t.kind == "name":
            self.advance()
            name = t.text
            if len(name) >= 2 and name[0] == "x" and name[1:].isdigit():
                idx = int(name[1:])
                if not (1 <= idx <= self.dimension):
                    raise ParseError(
                        f"variable {name} exceeds dimension {self.dimension}", t.offset
                    )
                return Var(idx)
            if name in UNARY_FUNCTIONS or name in BINARY_FUNCTIONS:
                self.expect_op("(")
                args = [self.expr()]
                while self.tok.kind == "op" and self.tok.text == ",":
                    self.advance()
                    args.append(self.expr())
                self.expect_op(")")
                arity = 1 if name in UNARY_FUNCTIONS else 2
                if len(args) != arity:
                    raise ParseError(
                        f"{name} expects {arity} argument(s), got {len(args)}", t.offset
                    )
                return Call(name, tuple(args))
            raise ParseError(f"unknown identifier {name!r}", t.offset)
        if t.kind == "op" and t.text == "(":
            self.advance()
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(
            "expected a number, variable, function or '('", t.offset
        )


def parse(source: str, dimension: int) -> Expr:
    """Parse `source` into an AST over variables x1..x<dimension>."""
    if dimension <= 0:
        raise ValueError("dimension must be positive")
    if not source.strip():
        raise ParseError("empty expression", 1)
    return _Parser(_tokenize(source), dimension).parse()


# --------------------------------------------------------------------------
# Pretty printing (round-trips through parse)
# --------------------------------------------------------------------------

_PREC = {"add": 1, "mul": 2, "neg": 3, "pow": 4, "atom": 5}


def _prec(e: Expr) -> int:
    if isinstance(e, (Add, Sub)):
        return _PREC["add"]
    if isinstance(e, (Mul, Div)):
        return _PREC["mul"]
    if isinstance(e, Neg):
        return _PREC["neg"]
    if isinstance(e, Pow):
        return _PREC["pow"]
    return _PREC["atom"]


def pretty(e: Expr) -> str:
    def wrap(child: Expr, minimum: int) -> str:
        s = pretty(child)
        return f"({s})" if _prec(child) < minimum else s

    if isinstance(e, Num):
        if e.value < 0 or (e.value == 0 and np.signbit(e.value)):
            return f"({e.value!r})"
        return repr(e.value)
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Neg):
        return "-" + wrap(e.operand, _PREC["neg"])
    if isinstance(e, Add):
        return f"{wrap(e.left, _PREC['add'])} + {wrap(e.right, _PREC['add'] + 1)}"
    if isinstance(e, Sub):
        return f"{wrap(e.left, _PREC['add'])} - {wrap(e.right, _PREC['add'] + 1)}"
    if isinstance(e, Mul):
        return f"{wrap(e.left, _PREC['mul'])}*{wrap(e.right, _PREC['mul'] + 1)}"
    if isinstance(e, Div):
        return f"{wrap(e.left, _PREC['mul'])}/{wrap(e.right, _PREC['mul'] + 1)}"
    if isinstance(e, Pow):
        return f"{wrap(e.base, _PREC['atom'])}^{e.exponent}"
    if isinstance(e, Call):
        return f"{e.name}({', '.join(pretty(a) for a in e.args)})"
    raise TypeError(f"not an expression node: {e!r}")


# --------------------------------------------------------------------------
# Evaluation: plain value channel and dual (value, gradient, kink flag)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DualValue:
    """Forward-mode result: value, gradient tangent, and a kink flag.

    `at_kink` is set when any abs/min/max subterm was evaluated exactly at
    its kink; the gradient then reports the declared one-sided convention
    and downstream consumers should fall back to set-valued estimation.
    """

    value: float
    gradient: np.ndarray
    at_kink: bool = False


def eval_value(e: Expr, point: np.ndarray) -> float:
    """Derivative-free evaluation at one point: the one-row case of
    compile_rows."""
    row = np.asarray(point, dtype=float).reshape(1, -1)
    return float(compile_rows(e)(row)[0])


def _compiled(e: Expr, build):
    """build(e), made once per tree object and kept in the tree.  The key is
    the object, not its value: equal trees may differ in the sign of a zero
    (Num(0.0) == Num(-0.0)), and a tree holding a NaN is unequal to itself.
    The walk is built on a copy of the root node, which it may name in its
    errors, so that it does not refer back to the tree holding it: a tree
    dropped is freed at once, leaving no cycle to the garbage collector."""
    if not isinstance(e, _Node):
        return build(e)
    walks = e.__dict__.setdefault("_walks", {})
    if build not in walks:
        walks[build] = build(replace(e))
    return walks[build]


def compile_rows(e: Expr) -> Callable[[np.ndarray], np.ndarray]:
    """Compile e into a walk over the rows of a (k, n) array of points.

    The compiled function returns the (k,) values.  Each row is computed on
    its own: the same float64 operations run elementwise, with np.float_power
    for `^`, which rounds as CPython's float ** int does, so a row's value
    does not depend on the other rows and equals a scalar walk's in plain
    floats bit for bit.  It raises EvalError where any row leaves the domain
    (division by zero, log of a non-positive or sqrt of a negative value),
    and an ArithmeticError where `^` overflows, as CPython does.  Overflow
    elsewhere gives inf silently.  The walk is built once per tree object.
    """
    walk = _compiled(e, _rows)

    def evaluate(points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        if p.ndim != 2:
            raise ValueError(f"points must be a (k, n) array, got shape {p.shape}")
        with np.errstate(all="ignore"):
            return walk(p)

    return evaluate


_ROW_OPS = {Add: np.add, Sub: np.subtract, Mul: np.multiply}
_ROW_UNARY = {"exp": np.exp, "abs": np.abs, "atan": np.arctan}
# Functions defined on part of the line: (f, test for an argument outside, wording).
_ROW_DOMAIN = {
    "log": (np.log, np.less_equal, "non-positive"),
    "sqrt": (np.sqrt, np.less, "negative"),
}
# min and max keep their first argument where `a <= b` (`a >= b`) holds.
_ROW_KEEP_FIRST = {"min": np.less_equal, "max": np.greater_equal}


def _rows(e: Expr) -> Callable[[np.ndarray], np.ndarray]:
    """Closure computing e at every row, node for node."""
    if isinstance(e, Num):
        v = e.value
        return lambda p: np.full(len(p), v)
    if isinstance(e, Var):
        i = e.index - 1

        def var(p):
            if i >= p.shape[1]:
                raise EvalError(f"point has dimension {p.shape[1]}", e)
            return p[:, i]

        return var
    if isinstance(e, Neg):
        operand = _rows(e.operand)
        return lambda p: -operand(p)
    if isinstance(e, (Add, Sub, Mul)):
        op, left, right = _ROW_OPS[type(e)], _rows(e.left), _rows(e.right)
        return lambda p: op(left(p), right(p))
    if isinstance(e, Div):
        left, right = _rows(e.left), _rows(e.right)

        def div(p):
            denom = right(p)
            if np.any(denom == 0.0):
                raise EvalError("division by zero", e)
            return left(p) / denom

        return div
    if isinstance(e, Pow):
        base, m = _rows(e.base), e.exponent

        def power(p):
            b = base(p)
            if m < 0 and np.any(b == 0.0):
                raise EvalError("zero base with negative exponent", e)
            with np.errstate(over="raise"):
                return np.float_power(b, m)

        return power
    if isinstance(e, Call):
        arg = _rows(e.args[0])
        if e.name in _ROW_UNARY:
            f = _ROW_UNARY[e.name]
            return lambda p: f(arg(p))
        if e.name in _ROW_DOMAIN:
            f, outside, what = _ROW_DOMAIN[e.name]

            def domain(p):
                a = arg(p)
                bad = outside(a, 0.0)
                if np.any(bad):
                    raise EvalError(f"{e.name} of {what} value {float(a[bad][0])!r}", e)
                return f(a)

            return domain
        second, keep_first = _rows(e.args[1]), _ROW_KEEP_FIRST[e.name]

        def pick(p):
            a, b = arg(p), second(p)
            return np.where(keep_first(a, b), a, b)

        return pick
    raise TypeError(f"not an expression node: {e!r}")


def eval_dual(e: Expr, point: np.ndarray) -> DualValue:
    """Forward-mode evaluation returning value, gradient and kink flag: the
    one-row case of compile_dual_rows."""
    row = np.asarray(point, dtype=float).reshape(1, -1)
    values, gradients, kinks = compile_dual_rows(e)(row)
    g = gradients[0]
    g.flags.writeable = False
    return DualValue(float(values[0]), g, bool(kinks[0]))


def compile_dual_rows(
    e: Expr,
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Compile e's dual channel into a walk over the rows of a (k, n) array.

    The compiled function returns the (k,) values, the (k, n) gradients and
    the (k,) kink flags.  Each row is computed on its own: the same float64
    operations run elementwise, with np.float_power for `^`, so a row's
    result does not depend on the other rows, and its value is compile_rows'
    bit for bit.  It raises EvalError where any row leaves the domain of the
    gradient (which excludes sqrt at 0, where the value is defined), and an
    ArithmeticError where `^` overflows, as CPython does.  The walk is built
    once per tree object.
    """
    walk = _compiled(e, _dual_rows)

    def evaluate(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        p = np.asarray(points, dtype=float)
        if p.ndim != 2:
            raise ValueError(f"points must be a (k, n) array, got shape {p.shape}")
        with np.errstate(all="ignore"):
            return walk(p)

    return evaluate


def _dual_rows(e: Expr):
    """Closure computing (values, gradients, kinks) at every row; its values
    mirror _rows node for node."""
    if isinstance(e, Num):
        v = e.value
        return lambda p: (np.full(len(p), v), np.zeros(p.shape), np.zeros(len(p), dtype=bool))
    if isinstance(e, Var):
        i = e.index - 1

        def var(p):
            if i >= p.shape[1]:
                raise EvalError(f"point has dimension {p.shape[1]}", e)
            g = np.zeros(p.shape)
            g[:, i] = 1.0
            return p[:, i], g, np.zeros(len(p), dtype=bool)

        return var
    if isinstance(e, Neg):
        operand = _dual_rows(e.operand)

        def neg(p):
            v, g, k = operand(p)
            return -v, -g, k

        return neg
    if isinstance(e, (Add, Sub, Mul, Div)):
        left, right = _dual_rows(e.left), _dual_rows(e.right)
        kind = type(e)

        def binary(p):
            (va, ga, ka), (vb, gb, kb) = left(p), right(p)
            if kind is Add:
                return va + vb, ga + gb, ka | kb
            if kind is Sub:
                return va - vb, ga - gb, ka | kb
            if kind is Mul:
                return va * vb, va[:, None] * gb + vb[:, None] * ga, ka | kb
            if np.any(vb == 0.0):
                raise EvalError("division by zero", e)
            return va / vb, (ga * vb[:, None] - va[:, None] * gb) / (vb * vb)[:, None], ka | kb

        return binary
    if isinstance(e, Pow):
        base, m = _dual_rows(e.base), e.exponent

        def power(p):
            va, ga, ka = base(p)
            if m == 0:
                return np.ones(len(p)), np.zeros(p.shape), ka
            if m < 0 and np.any(va == 0.0):
                raise EvalError("zero base with negative exponent", e)
            with np.errstate(over="raise"):
                v = np.float_power(va, m)
                slope = float(m) * np.float_power(va, m - 1)
            return v, slope[:, None] * ga, ka

        return power
    if isinstance(e, Call):
        arg = _dual_rows(e.args[0])
        if e.name in ("min", "max"):
            second, wins = _dual_rows(e.args[1]), (np.less if e.name == "min" else np.greater)

            def pick(p):
                (va, ga, ka), (vb, gb, kb) = arg(p), second(p)
                tie = va == vb  # ties break toward the first argument
                first = tie | wins(va, vb)
                return np.where(first, va, vb), np.where(first[:, None], ga, gb), ka | kb | tie

            return pick

        def unary(p):
            va, ga, ka = arg(p)
            if e.name == "exp":
                ev = np.exp(va)
                return ev, ev[:, None] * ga, ka
            if e.name in ("log", "sqrt"):
                bad = va <= 0.0
                if np.any(bad):
                    raise EvalError(f"{e.name} of non-positive value {float(va[bad][0])!r}", e)
                if e.name == "log":
                    return np.log(va), ga / va[:, None], ka
                sv = np.sqrt(va)
                return sv, ga / (2.0 * sv)[:, None], ka
            if e.name == "atan":
                return np.arctan(va), ga / (1.0 + va * va)[:, None], ka
            # abs; kink convention: subderivative 0 at the origin.
            up, down = va > 0.0, va < 0.0
            flat = ~(up | down)
            v = np.where(up, va, np.where(down, -va, 0.0))
            g = np.where(up[:, None], ga, np.where(down[:, None], -ga, 0.0 * ga))
            return v, g, ka | flat

        return unary
    raise TypeError(f"not an expression node: {e!r}")


def is_smooth_expression(e: Expr) -> bool:
    """True when the AST contains no abs/min/max node."""
    if isinstance(e, Call):
        if e.name in KINK_FUNCTIONS:
            return False
        return all(is_smooth_expression(a) for a in e.args)
    if isinstance(e, (Num, Var)):
        return True
    if isinstance(e, Neg):
        return is_smooth_expression(e.operand)
    if isinstance(e, (Add, Sub, Mul, Div)):
        return is_smooth_expression(e.left) and is_smooth_expression(e.right)
    if isinstance(e, Pow):
        return is_smooth_expression(e.base)
    raise TypeError(f"not an expression node: {e!r}")
