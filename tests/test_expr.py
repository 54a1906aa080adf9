import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencvx import corpus
from gencvx.expr import (
    Add,
    Call,
    Div,
    EvalError,
    Mul,
    Neg,
    Num,
    ParseError,
    Pow,
    Sub,
    Var,
    compile_dual_rows,
    compile_rows,
    eval_dual,
    eval_value,
    is_smooth_expression,
    parse,
    pretty,
)
from gencvx.geometry import sample_region


def test_parse_fractional():
    assert parse("x2/x1", 2) == Div(Var(2), Var(1))


def test_parse_precedence_mul_over_add():
    assert parse("1+2*3", 1) == Add(Num(1.0), Mul(Num(2.0), Num(3.0)))


def test_parse_left_associative():
    assert parse("1-2-3", 1) == Sub(Sub(Num(1.0), Num(2.0)), Num(3.0))
    assert parse("8/4/2", 1) == Div(Div(Num(8.0), Num(4.0)), Num(2.0))


def test_parse_unary_minus_and_power():
    # Power binds tighter than unary minus.
    assert parse("-x1^2", 1) == Neg(Pow(Var(1), 2))
    assert parse("(-x1)^2", 1) == Pow(Neg(Var(1)), 2)


def test_parse_unbalanced_call_offset():
    with pytest.raises(ParseError) as err:
        parse("min(x1", 1)
    assert err.value.offset == 7


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("foo(x1)", 1)  # unknown identifier
    with pytest.raises(ParseError):
        parse("min(x1)", 1)  # arity
    with pytest.raises(ParseError):
        parse("abs(x1, x1)", 1)  # arity
    with pytest.raises(ParseError):
        parse("x3", 2)  # variable above dimension
    with pytest.raises(ParseError) as err:
        parse("1 + 2 )", 1)  # trailing tokens
    assert err.value.offset == 7
    with pytest.raises(ParseError):
        parse("x1^2.5", 1)  # non-integer exponent
    with pytest.raises(ParseError):
        parse("", 1)


def test_eval_dual_fractional_gradient():
    d = eval_dual(parse("x2/x1", 2), np.array([1.0, 0.0]))
    assert d.value == 0.0
    assert np.allclose(d.gradient, [0.0, 1.0], atol=1e-15)
    assert not d.at_kink


def test_eval_dual_power_rule():
    d = eval_dual(parse("x1^3", 1), np.array([1.0]))
    assert d.value == 1.0
    assert d.gradient[0] == 3.0


def test_eval_dual_abs_kink_convention():
    d = eval_dual(parse("abs(x1)", 1), np.array([0.0]))
    assert d.value == 0.0
    assert d.at_kink
    assert d.gradient[0] == 0.0


def test_eval_dual_minmax_tie_breaks_first():
    d = eval_dual(parse("min(2*x1, x1 + 1)", 1), np.array([1.0]))
    assert d.value == 2.0
    assert d.at_kink
    assert d.gradient[0] == 2.0  # first argument's derivative
    d = eval_dual(parse("max(2*x1, x1 + 1)", 1), np.array([1.0]))
    assert d.gradient[0] == 2.0


def test_division_by_zero_carries_subterm():
    with pytest.raises(EvalError) as err:
        eval_value(parse("1/(x1 - 1)", 1), np.array([1.0]))
    assert "x1 - 1" in str(err.value)


def test_domain_errors():
    with pytest.raises(EvalError):
        eval_value(parse("log(x1)", 1), np.array([-1.0]))
    with pytest.raises(EvalError):
        eval_dual(parse("sqrt(x1)", 1), np.array([0.0]))


def test_smoothness_detection():
    assert is_smooth_expression(parse("exp(x1) + atan(x2)", 2))
    assert not is_smooth_expression(parse("x1 + abs(x1)", 1))
    assert not is_smooth_expression(parse("min(x1, 0)", 1))


def _interior_points(entry, count, seed):
    return sample_region(entry.region, count, seed)


def test_value_channel_matches_plain_evaluator_exactly():
    total = 0
    for entry in corpus():
        tree = entry.handle.expression
        points = _interior_points(entry, 150, seed=11)
        rows = compile_rows(tree)(np.array(points))
        for p, row in zip(points, rows.tolist()):
            assert eval_value(tree, p) == eval_dual(tree, p).value == row
            total += 1
    assert total >= 1000


def test_ad_matches_central_differences_on_smooth_corpus():
    step = 1e-5
    for entry in corpus():
        if entry.handle.smoothness != "smooth":
            continue
        tree = entry.handle.expression
        for p in _interior_points(entry, 100, seed=5):
            g = eval_dual(tree, p).gradient
            for i in range(p.size):
                e = np.zeros(p.size)
                e[i] = step
                fd = (eval_value(tree, p + e) - eval_value(tree, p - e)) / (2 * step)
                assert abs(g[i] - fd) / (1.0 + abs(g[i])) <= 1e-6


# -- pretty-print round trip -------------------------------------------------

_DIM = 3


def _exprs(depth, exponents=st.integers(0, 5)):
    """Expression trees; the source grammar has no negative exponents, but
    the AST, and so evaluation, does."""
    leaf = st.one_of(
        st.integers(1, _DIM).map(Var),
        st.floats(0.0, 100.0, allow_nan=False).map(lambda v: Num(float(v))),
    )
    if depth == 0:
        return leaf

    sub = _exprs(depth - 1, exponents)
    return st.one_of(
        leaf,
        sub.map(Neg),
        st.tuples(sub, sub).map(lambda t: Add(*t)),
        st.tuples(sub, sub).map(lambda t: Sub(*t)),
        st.tuples(sub, sub).map(lambda t: Mul(*t)),
        st.tuples(sub, sub).map(lambda t: Div(*t)),
        st.tuples(sub, exponents).map(lambda t: Pow(*t)),
        *(sub.map(lambda e, f=f: Call(f, (e,))) for f in ("exp", "log", "sqrt", "abs", "atan")),
        st.tuples(sub, sub).map(lambda t: Call("min", t)),
        st.tuples(sub, sub).map(lambda t: Call("max", t)),
    )


@settings(max_examples=300, deadline=None)
@given(_exprs(4))
def test_pretty_parse_round_trip(tree):
    assert parse(pretty(tree), _DIM) == tree


def test_pretty_examples():
    assert pretty(parse("x2/x1", 2)) == "x2/x1"
    assert pretty(parse("1+2*3", 1)) == "1.0 + 2.0*3.0"
    assert parse(pretty(parse("-(x1+2)^3", 1)), 1) == parse("-(x1+2)^3", 1)


# -- the row walk against the scalar value channel ----------------------------

# Few distinct coordinates, signed zeros among them, so that min/max and abs
# meet ties and kinks and log/sqrt/division meet their domain edges.
_COORDS = st.one_of(
    st.sampled_from((0.0, -0.0, 0.5, 1.0, -1.0, 2.0)),
    st.floats(-50.0, 50.0, allow_nan=False),
)


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=400, deadline=None)
@given(
    _exprs(4, st.integers(-3, 5)),
    st.lists(st.lists(_COORDS, min_size=_DIM, max_size=_DIM), min_size=1, max_size=6),
)
def test_row_walk_equals_scalar_value_bit_for_bit(tree, points):
    points = np.array(points)
    scalar = []
    for p in points:
        try:
            scalar.append(eval_value(tree, p))
        except ArithmeticError as exc:
            scalar.append(exc)
    errors = [v for v in scalar if isinstance(v, ArithmeticError)]
    walk = compile_rows(tree)
    if errors:
        # A domain error is EvalError on both paths; `^` overflowing raises
        # OverflowError on one and FloatingPointError on the other.
        domain = all(isinstance(v, EvalError) for v in errors)
        with pytest.raises(EvalError if domain else ArithmeticError):
            walk(points)
        return
    rows = walk(points)
    assert rows.shape == (len(points),)
    for got, want in zip(rows.tolist(), scalar):
        assert _bits(got) == _bits(want), (got, want)


def test_row_walk_takes_only_point_arrays():
    walk = compile_rows(parse("x1 + x2", 2))
    assert walk(np.empty((0, 2))).shape == (0,)
    with pytest.raises(ValueError):
        walk(np.array([1.0, 2.0]))
    with pytest.raises(EvalError):
        walk(np.array([[1.0]]))  # a point of too low a dimension


# -- the dual row walk against the scalar dual channel -------------------------


def _dual_rows_against_scalar(tree, points):
    """Compare compile_dual_rows with eval_dual at each row, bit for bit."""
    scalar = []
    for p in points:
        try:
            scalar.append(eval_dual(tree, p))
        except ArithmeticError as exc:
            scalar.append(exc)
    errors = [d for d in scalar if isinstance(d, ArithmeticError)]
    walk = compile_dual_rows(tree)
    if errors:
        # As for the value walk: a domain error is EvalError on both paths.
        domain = all(isinstance(d, EvalError) for d in errors)
        with pytest.raises(EvalError if domain else ArithmeticError):
            walk(points)
        return
    values, gradients, kinks = walk(points)
    assert values.shape == (len(points),)
    assert gradients.shape == points.shape
    assert kinks.shape == (len(points),) and kinks.dtype == bool
    for r, d in enumerate(scalar):
        assert _bits(float(values[r])) == _bits(d.value), (r, values[r], d.value)
        assert gradients[r].tobytes() == d.gradient.tobytes(), (r, gradients[r], d.gradient)
        assert bool(kinks[r]) == d.at_kink


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=400, deadline=None)
@given(
    _exprs(4, st.integers(-3, 5)),
    st.lists(st.lists(_COORDS, min_size=_DIM, max_size=_DIM), min_size=1, max_size=6),
)
def test_dual_row_walk_equals_eval_dual_bit_for_bit(tree, points):
    _dual_rows_against_scalar(tree, np.array(points))


# The grammar has no negative exponents, so that tree is built directly.
_NEGATIVE_POWERS = Sub(Add(Pow(Var(1), -2), Pow(Var(2), -1)), Pow(Sub(Var(1), Var(2)), 3))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("tree, kinked", [
    (parse("abs(x1) + max(x1, x2) - min(x2, x1)", 2), True),  # kinks, ties, signed zeros
    (parse("max(-x1, x2)*min(x1, -x2) + abs(-x2)", 2), True),
    (parse("sqrt(x1*x1 + x2*x2 + 1) + log(1 + abs(x1))", 2), True),
    (parse("exp(x1)*atan(x2) / (2 + x1*x2)", 2), False),
    (_NEGATIVE_POWERS, False),
])
def test_dual_row_walk_at_kinks_ties_and_signed_zeros(tree, kinked):
    edges = (0.0, -0.0, 1.0, -1.0, 0.5)
    nonzero = np.array([(a, b) for a in edges for b in edges if a != 0.0 and b != 0.0])
    _dual_rows_against_scalar(tree, nonzero)
    everywhere = np.array([(a, b) for a in edges for b in edges])
    _dual_rows_against_scalar(tree, everywhere)  # x1^-2 raises at 0 on both paths
    if kinked:
        assert compile_dual_rows(tree)(everywhere)[2].any()


def test_dual_row_walk_raises_where_the_gradient_channel_does():
    # The value channel takes sqrt(0); the gradient channel cannot.
    tree = parse("sqrt(x1)", 1)
    zero = np.array([[4.0], [0.0]])
    assert compile_rows(tree)(zero).tolist() == [2.0, 0.0]
    with pytest.raises(EvalError):
        compile_dual_rows(tree)(zero)
    with pytest.raises(EvalError):
        compile_dual_rows(parse("log(x1)", 1))(np.array([[1.0], [-0.0]]))
    with pytest.raises(EvalError):
        compile_dual_rows(parse("1/x1", 1))(np.array([[1.0], [0.0]]))


def test_dual_row_walk_takes_only_point_arrays():
    walk = compile_dual_rows(parse("x1*x2 + abs(x1)", 2))
    values, gradients, kinks = walk(np.empty((0, 2)))
    assert (values.shape, gradients.shape, kinks.shape) == ((0,), (0, 2), (0,))
    with pytest.raises(ValueError):
        walk(np.array([1.0, 2.0]))
    with pytest.raises(EvalError):
        walk(np.array([[1.0]]))  # a point of too low a dimension
