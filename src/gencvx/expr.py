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
    "compile_interval_dual_rows",
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


def compile_interval_dual_rows(
    e: Expr,
) -> Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Compile e's dual channel into an interval walk over the rows of two
    (k, n) arrays, the lower and upper corners of k boxes.

    The compiled function returns (k, n) lower and upper gradient bounds and
    (k,) `certain` flags.  The bounds enclose every gradient that
    compile_dual_rows can give at a float point of the box: the walk mirrors
    _dual_rows node for node, each operation's bounds taken over its
    arguments' bounds and padded outward, by one ulp after a correctly
    rounded operation and by _PAD of their size after numpy's exp, log,
    atan and float_power.  A box is `certain` when no point in it can make
    the dual walk raise, flag a kink or a min/max tie, or compute a
    non-finite value or gradient; where it is not, the bounds may be
    infinite.  The walk is built once per tree object.
    """
    walk = _compiled(e, _interval_dual_rows)

    def evaluate(lo: np.ndarray, hi: np.ndarray):
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        if lo.ndim != 2 or lo.shape != hi.shape:
            raise ValueError(f"box corners must be two (k, n) arrays, got {lo.shape} and {hi.shape}")
        with np.errstate(all="ignore"):
            low, high, certain = _checked(*walk(lo, hi))
            # A NaN bound (from inf - inf or 0 * inf) stands for any value.
            return (np.where(np.isnan(low[:, 1:]), -np.inf, low[:, 1:]),
                    np.where(np.isnan(high[:, 1:]), np.inf, high[:, 1:]), certain)

    return evaluate


# Outward padding after numpy's exp, log, atan and float_power, relative to
# the bound, far above their error of a few ulps; absolute (the smallest
# normal float) too, so that zeros and subnormals widen.
_PAD = 2.0**-40
_TINY = np.finfo(float).tiny


def _out(lo, hi):
    """[lo, hi] widened by one ulp each way: the exact result of a correctly
    rounded operation lies within one ulp of the float it gives."""
    return np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)


def _lib(lo, hi):
    """[lo, hi] widened by _PAD, for results of numpy's library functions."""
    return lo - (np.abs(lo) * _PAD + _TINY), hi + (np.abs(hi) * _PAD + _TINY)


def _imul(alo, ahi, blo, bhi):
    """The product of two intervals, broadcast."""
    p, q, r, s = alo * blo, alo * bhi, ahi * blo, ahi * bhi
    return _out(np.minimum(np.minimum(p, q), np.minimum(r, s)),
                np.maximum(np.maximum(p, q), np.maximum(r, s)))


def _idiv(alo, ahi, blo, bhi):
    """The quotient of two intervals, broadcast; unbounded where the
    divisor's interval holds 0."""
    p, q, r, s = alo / blo, alo / bhi, ahi / blo, ahi / bhi
    zero = (blo <= 0.0) & (bhi >= 0.0)
    lo, hi = _out(np.minimum(np.minimum(p, q), np.minimum(r, s)),
                  np.maximum(np.maximum(p, q), np.maximum(r, s)))
    return np.where(zero, -np.inf, lo), np.where(zero, np.inf, hi)


def _isqr(lo, hi):
    """{v * v : v in [lo, hi]}."""
    a, b = lo * lo, hi * hi
    straddle = (lo < 0.0) & (hi > 0.0)
    return _out(np.where(straddle, 0.0, np.minimum(a, b)), np.maximum(a, b))


def _ipow(lo, hi, m):
    """{v ** m : v in [lo, hi]} under np.float_power, and whether no point of
    the interval leaves its domain.  v ** m is monotone on each side of 0,
    and on both for odd integer m."""
    if m == 0:
        return np.ones_like(lo), np.ones_like(hi), np.ones(lo.shape, dtype=bool)
    a, b = np.float_power(lo, m), np.float_power(hi, m)
    small, large = np.minimum(a, b), np.maximum(a, b)
    if float(m).is_integer():
        inside = (lo > 0.0) | (hi < 0.0) if m < 0 else np.ones(lo.shape, dtype=bool)
        if m > 0 and m % 2 == 0:
            small = np.where((lo < 0.0) & (hi > 0.0), 0.0, small)
    else:
        inside = lo > 0.0
    small, large = _lib(small, large)
    return np.where(inside, small, -np.inf), np.where(inside, large, np.inf), inside


def _joined(vlo, vhi, glo, ghi):
    """Value bounds (k, 1) and gradient bounds (k, n) as one (lo, hi) pair."""
    return np.concatenate([vlo, glo], axis=1), np.concatenate([vhi, ghi], axis=1)


def _checked(lo, hi, ok):
    """The node's bounds, with ok cleared where any of them is not finite
    (a NaN or an overflow anywhere makes the sum non-finite).  Negation,
    sums, products and abs carry a non-finite bound of an argument into
    their own, so only the root and the nodes that can drop one (division,
    powers, functions, min and max) check."""
    return lo, hi, ok & np.isfinite((lo + hi).sum(axis=1))


def _interval_dual_rows(e: Expr):
    """Closure computing (lo, hi, certain) over every box, where lo and hi
    are (k, 1 + n): the value's bounds in column 0, the gradient's after.
    It mirrors _dual_rows node for node."""
    if isinstance(e, Num):
        v = e.value

        def num(lo, hi):
            bound = np.zeros((len(lo), 1 + lo.shape[1]))
            bound[:, 0] = v
            return bound, bound, np.ones(len(lo), dtype=bool)

        return num
    if isinstance(e, Var):
        i = e.index - 1

        def var(lo, hi):
            if i >= lo.shape[1]:
                raise EvalError(f"point has dimension {lo.shape[1]}", e)
            low, high = np.zeros((len(lo), 1 + lo.shape[1])), np.zeros((len(lo), 1 + lo.shape[1]))
            low[:, 0], high[:, 0] = lo[:, i], hi[:, i]
            low[:, 1 + i] = high[:, 1 + i] = 1.0
            return low, high, np.ones(len(lo), dtype=bool)

        return var
    if isinstance(e, Neg):
        operand = _interval_dual_rows(e.operand)

        def neg(lo, hi):
            low, high, ok = operand(lo, hi)
            return -high, -low, ok

        return neg
    if isinstance(e, Mul) and (isinstance(e.left, Num) or isinstance(e.right, Num)):
        # A constant factor c: the dual walk's c * g + v * 0 is c * g, as
        # its one rounding, wherever v is finite (and non-finite where not).
        c, operand = (e.left.value, e.right) if isinstance(e.left, Num) else (e.right.value, e.left)
        operand = _interval_dual_rows(operand)

        def scale(lo, hi):
            low, high, ok = operand(lo, hi)
            low, high = (c * high, c * low) if c < 0.0 else (c * low, c * high)
            return (*_out(low, high), ok)

        return scale
    if isinstance(e, (Add, Sub, Mul, Div)):
        left, right = _interval_dual_rows(e.left), _interval_dual_rows(e.right)
        kind = type(e)

        def binary(lo, hi):
            (alo, ahi, ka), (blo, bhi, kb) = left(lo, hi), right(lo, hi)
            if kind is Add:
                return (*_out(alo + blo, ahi + bhi), ka & kb)
            if kind is Sub:
                return (*_out(alo - bhi, ahi - blo), ka & kb)
            if kind is Mul:
                # a's value times b's value and gradient, and b's value
                # times a's: the value product, then va * gb + vb * ga.
                plo, phi = _imul(alo[:, :1], ahi[:, :1], blo, bhi)
                qlo, qhi = _imul(blo[:, :1], bhi[:, :1], alo[:, 1:], ahi[:, 1:])
                return (*_joined(plo[:, :1], phi[:, :1],
                                 *_out(plo[:, 1:] + qlo, phi[:, 1:] + qhi)), ka & kb)
            va, vb = (alo[:, :1], ahi[:, :1]), (blo[:, :1], bhi[:, :1])
            plo, phi = _imul(alo[:, 1:], ahi[:, 1:], *vb)
            qlo, qhi = _imul(*va, blo[:, 1:], bhi[:, 1:])
            g = _idiv(*_out(plo - qhi, phi - qlo), *_isqr(*vb))
            ok = ka & kb & ((blo[:, 0] > 0.0) | (bhi[:, 0] < 0.0))
            return _checked(*_joined(*_idiv(*va, *vb), *g), ok)

        return binary
    if isinstance(e, Pow):
        base, m = _interval_dual_rows(e.base), e.exponent

        def power(lo, hi):
            alo, ahi, ok = base(lo, hi)
            if m == 0:
                one = np.zeros(alo.shape)
                one[:, 0] = 1.0
                return one, one, _checked(alo, ahi, ok)[2]
            vlo, vhi, inside = _ipow(alo[:, :1], ahi[:, :1], m)
            slo, shi, _ = _ipow(alo[:, :1], ahi[:, :1], m - 1)
            a, b = float(m) * slo, float(m) * shi
            g = _imul(*_out(np.minimum(a, b), np.maximum(a, b)), alo[:, 1:], ahi[:, 1:])
            return _checked(*_joined(vlo, vhi, *g), ok & inside[:, 0])

        return power
    if isinstance(e, Call):
        arg = _interval_dual_rows(e.args[0])
        if e.name in ("min", "max"):
            second = _interval_dual_rows(e.args[1])

            def pick(lo, hi):
                (alo, ahi, ka), (blo, bhi, kb) = arg(lo, hi), second(lo, hi)
                below, above = ahi[:, 0] < blo[:, 0], alo[:, 0] > bhi[:, 0]  # no tie anywhere
                first, other = (below, above) if e.name == "min" else (above, below)
                f, s = first[:, None], other[:, None]
                return _checked(np.where(f, alo, np.where(s, blo, np.minimum(alo, blo))),
                                np.where(f, ahi, np.where(s, bhi, np.maximum(ahi, bhi))),
                                ka & kb & (first | other))

            return pick

        def unary(lo, hi):
            alo, ahi, ok = arg(lo, hi)
            va, ga = (alo[:, :1], ahi[:, :1]), (alo[:, 1:], ahi[:, 1:])
            if e.name == "exp":
                ev = _lib(np.exp(va[0]), np.exp(va[1]))
                return _checked(*_joined(*ev, *_imul(*ev, *ga)), ok)
            if e.name == "log":
                v = _lib(np.log(va[0]), np.log(va[1]))
                return _checked(*_joined(*v, *_idiv(*ga, *va)), ok & (alo[:, 0] > 0.0))
            if e.name == "sqrt":
                slo, shi = _out(np.sqrt(va[0]), np.sqrt(va[1]))
                g = _idiv(*ga, 2.0 * slo, 2.0 * shi)
                return _checked(*_joined(slo, shi, *g), ok & (alo[:, 0] > 0.0))
            if e.name == "atan":
                slo, shi = _isqr(*va)
                g = _idiv(*ga, *_out(1.0 + slo, 1.0 + shi))
                return _checked(*_joined(*_lib(np.arctan(va[0]), np.arctan(va[1])), *g), ok)
            # abs: the kink (and its convention, subderivative 0) is reached
            # only where the argument's interval holds 0; there the value and
            # each gradient coordinate lie in the hull of a, -a and 0.
            up, down = alo[:, 0] > 0.0, ahi[:, 0] < 0.0
            u, d = up[:, None], down[:, None]
            return (np.where(u, alo, np.where(d, -ahi, np.minimum(np.minimum(alo, -ahi), 0.0))),
                    np.where(u, ahi, np.where(d, -alo, np.maximum(np.maximum(ahi, -alo), 0.0))),
                    ok & (up | down))

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
