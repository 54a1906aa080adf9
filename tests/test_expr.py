import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import iv, mp

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
    compile_interval_dual_rows,
    compile_rows,
    eval_dual,
    eval_value,
    is_smooth_expression,
    parse,
    pretty,
)
from gencvx.geometry import sample_region
from gencvx.nonsmooth import CERTIFY_MARGIN


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
            assert _ref_value(tree, p) == eval_value(tree, p) == eval_dual(tree, p).value == row
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


# -- the row walk against the scalar reference value walk ---------------------

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
            scalar.append(_ref_value(tree, p))
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
        for p, want in zip(points, scalar):  # each row alone, as eval_value reads it
            if isinstance(want, ArithmeticError):
                with pytest.raises(EvalError if isinstance(want, EvalError) else ArithmeticError):
                    eval_value(tree, p)
            else:
                assert _bits(eval_value(tree, p)) == _bits(want)
        return
    rows = walk(points)
    assert rows.shape == (len(points),)
    for p, got, want in zip(points, rows.tolist(), scalar):
        assert _bits(got) == _bits(want), (got, want)
        assert _bits(eval_value(tree, p)) == _bits(want)


def test_row_walk_takes_only_point_arrays():
    walk = compile_rows(parse("x1 + x2", 2))
    assert walk(np.empty((0, 2))).shape == (0,)
    with pytest.raises(ValueError):
        walk(np.array([1.0, 2.0]))
    with pytest.raises(EvalError):
        walk(np.array([[1.0]]))  # a point of too low a dimension


# -- scalar reference walks ---------------------------------------------------


def _ref_value(e, x):
    """The scalar value walk at one point, in plain floats."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        if e.index > x.size:
            raise EvalError(f"point has dimension {x.size}", e)
        return float(x[e.index - 1])
    if isinstance(e, Neg):
        return -_ref_value(e.operand, x)
    if isinstance(e, Add):
        return _ref_value(e.left, x) + _ref_value(e.right, x)
    if isinstance(e, Sub):
        return _ref_value(e.left, x) - _ref_value(e.right, x)
    if isinstance(e, Mul):
        return _ref_value(e.left, x) * _ref_value(e.right, x)
    if isinstance(e, Div):
        denom = _ref_value(e.right, x)
        if denom == 0.0:
            raise EvalError("division by zero", e)
        return _ref_value(e.left, x) / denom
    if isinstance(e, Pow):
        base = _ref_value(e.base, x)
        if base == 0.0 and e.exponent < 0:
            raise EvalError("zero base with negative exponent", e)
        return float(base**e.exponent)
    if isinstance(e, Call):
        a = _ref_value(e.args[0], x)
        if e.name == "exp":
            return float(np.exp(a))
        if e.name == "log":
            if a <= 0.0:
                raise EvalError(f"log of non-positive value {a!r}", e)
            return float(np.log(a))
        if e.name == "sqrt":
            if a < 0.0:
                raise EvalError(f"sqrt of negative value {a!r}", e)
            return float(np.sqrt(a))
        if e.name == "abs":
            return abs(a)
        if e.name == "atan":
            return float(np.arctan(a))
        b = _ref_value(e.args[1], x)
        if e.name == "min":
            return a if a <= b else b
        if e.name == "max":
            return a if a >= b else b
    raise TypeError(f"not an expression node: {e!r}")


def _ref_dual(e, x):
    """The scalar forward-mode walk at one point: (value, gradient, kink)."""
    n = x.size
    if isinstance(e, Num):
        return e.value, np.zeros(n), False
    if isinstance(e, Var):
        if e.index > n:
            raise EvalError(f"point has dimension {n}", e)
        g = np.zeros(n)
        g[e.index - 1] = 1.0
        return float(x[e.index - 1]), g, False
    if isinstance(e, Neg):
        v, g, k = _ref_dual(e.operand, x)
        return -v, -g, k
    if isinstance(e, Add):
        va, ga, ka = _ref_dual(e.left, x)
        vb, gb, kb = _ref_dual(e.right, x)
        return va + vb, ga + gb, ka or kb
    if isinstance(e, Sub):
        va, ga, ka = _ref_dual(e.left, x)
        vb, gb, kb = _ref_dual(e.right, x)
        return va - vb, ga - gb, ka or kb
    if isinstance(e, Mul):
        va, ga, ka = _ref_dual(e.left, x)
        vb, gb, kb = _ref_dual(e.right, x)
        return va * vb, va * gb + vb * ga, ka or kb
    if isinstance(e, Div):
        va, ga, ka = _ref_dual(e.left, x)
        vb, gb, kb = _ref_dual(e.right, x)
        if vb == 0.0:
            raise EvalError("division by zero", e)
        return va / vb, (ga * vb - va * gb) / (vb * vb), ka or kb
    if isinstance(e, Pow):
        va, ga, ka = _ref_dual(e.base, x)
        m = e.exponent
        if m == 0:
            return float(va**0), np.zeros(n), ka
        if va == 0.0 and m < 0:
            raise EvalError("zero base with negative exponent", e)
        return float(va**m), float(m) * va ** (m - 1) * ga, ka
    if isinstance(e, Call):
        va, ga, ka = _ref_dual(e.args[0], x)
        if e.name == "exp":
            ev = float(np.exp(va))
            return ev, ev * ga, ka
        if e.name == "log":
            if va <= 0.0:
                raise EvalError(f"log of non-positive value {va!r}", e)
            return float(np.log(va)), ga / va, ka
        if e.name == "sqrt":
            if va <= 0.0:
                raise EvalError(f"sqrt of non-positive value {va!r}", e)
            sv = float(np.sqrt(va))
            return sv, ga / (2.0 * sv), ka
        if e.name == "atan":
            return float(np.arctan(va)), ga / (1.0 + va * va), ka
        if e.name == "abs":
            if va > 0.0:
                return va, ga, ka
            if va < 0.0:
                return -va, -ga, ka
            # Kink convention: subderivative 0 at the origin of abs.
            return 0.0, 0.0 * ga, True
        vb, gb, kb = _ref_dual(e.args[1], x)
        kink = ka or kb
        if e.name == "min":
            if va == vb:
                return va, ga, True  # ties break toward the first argument
            return (va, ga, kink) if va < vb else (vb, gb, kink)
        if e.name == "max":
            if va == vb:
                return va, ga, True
            return (va, ga, kink) if va > vb else (vb, gb, kink)
    raise TypeError(f"not an expression node: {e!r}")


def _dual_rows_against_scalar(tree, points):
    """Compare compile_dual_rows with _ref_dual at each row, bit for bit."""
    scalar = []
    for p in points:
        try:
            scalar.append(_ref_dual(tree, p))
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
    for r, (value, gradient, kink) in enumerate(scalar):
        gradient = np.asarray(gradient, dtype=float)
        assert _bits(float(values[r])) == _bits(value), (r, values[r], value)
        assert gradients[r].tobytes() == gradient.tobytes(), (r, gradients[r], gradient)
        assert bool(kinks[r]) == kink
        one = eval_dual(tree, points[r])  # the one-row case, read alone
        assert _bits(one.value) == _bits(value) and one.gradient.tobytes() == gradient.tobytes()
        assert one.at_kink == kink


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


def test_a_tree_compiles_each_walk_once(monkeypatch):
    # eval_value and eval_dual are one-row cases of the compiled walks; a
    # second call on the same tree object reuses the walk built by the first.
    import gencvx.expr as ex

    built = []  # (walk, node) of every node walk built
    for name in ("_rows", "_dual_rows"):
        build = getattr(ex, name)

        def counted(e, _build=build, _name=name):
            built.append((_name, e))
            return _build(e)

        monkeypatch.setattr(ex, name, counted)

    tree = parse("x2/x1 + atan(x1)*max(x1, x2)", 2)

    def roots():  # the walks built for the whole tree (no subtree equals it)
        return [name for name, e in built if e == tree]

    point = np.array([0.5, -0.25])
    first = eval_value(tree, point), eval_dual(tree, point)
    assert roots() == ["_rows", "_dual_rows"]
    walks = len(built)
    again = eval_value(tree, point), eval_dual(tree, point)
    compile_rows(tree)(point[None])
    compile_dual_rows(tree)(point[None])
    assert len(built) == walks
    assert _bits(first[0]) == _bits(again[0])
    assert first[1].gradient.tobytes() == again[1].gradient.tobytes()
    # An equal tree built apart compiles its own walk.
    twin = parse("x2/x1 + atan(x1)*max(x1, x2)", 2)
    assert twin == tree
    eval_value(twin, point)
    assert roots() == ["_rows", "_dual_rows", "_rows"]


def test_equal_trees_keep_their_own_signed_zeros():
    # Num(0.0) == Num(-0.0), so the trees compare equal, yet x1 * 0.0 and
    # x1 * -0.0 differ in the sign of the zero at x1 = 1, in either order.
    plus, minus = Mul(Var(1), Num(0.0)), Mul(Var(1), Num(-0.0))
    assert plus == minus
    one = np.array([1.0])
    for trees in ((plus, minus), (minus, plus)):
        for tree in trees:
            want = _ref_value(tree, one)
            assert _bits(eval_value(tree, one)) == _bits(want)
            assert _bits(eval_dual(tree, one).value) == _bits(want)
    assert _bits(eval_value(plus, one)) != _bits(eval_value(minus, one))


@pytest.mark.parametrize("source", ["exp(x1) + abs(x1 - x2)", "x1/x2", "log(x1)", "x1"])
def test_compiled_walks_go_with_their_tree(source):
    # A tree holds its walks, not the other way round: a tree dropped is
    # freed at once, with no reference cycle left for the garbage collector
    # (these roots are named by their walks' errors), and copies and
    # pickles leave the walks out.
    import copy
    import pickle
    import weakref

    tree = parse(source, 2)
    eval_value(tree, np.array([0.1, 0.2]))
    eval_dual(tree, np.array([0.1, 0.2]))
    compile_interval_dual_rows(tree)(np.array([[0.1, 0.2]]), np.array([[0.2, 0.3]]))
    assert len(vars(tree)["_walks"]) == 3
    assert pickle.loads(pickle.dumps(tree)) == tree
    assert "_walks" not in vars(copy.copy(tree))
    gone = weakref.ref(tree)
    del tree
    assert gone() is None


# -- the interval dual walk against mpmath.iv and the float walk ---------------


def _iv_atan(v):
    """atan over an mpmath interval: monotone, its ends computed at 200 bits
    and rounded outward to the interval precision."""
    with mp.workprec(200):
        lo, hi = mp.atan(mp.mpf(v.a)), mp.atan(mp.mpf(v.b))
        return iv.mpf([lo - abs(lo) * mp.mpf(2) ** -190, hi + abs(hi) * mp.mpf(2) ** -190])


def _iv_hull(*parts):
    return iv.mpf([min(mp.mpf(p.a) for p in parts), max(mp.mpf(p.b) for p in parts)])


def _iv_dual(e, box):
    """The dual walk over a box of mpmath intervals, node for node: (value,
    gradient).  A square v * v is taken as v**2, which is never negative, as
    at every point.  Where an abs argument's interval holds 0, or the
    arguments of min/max overlap, both branches are joined, as every float
    point of the box may take either."""
    n = len(box)
    zero = iv.mpf(0)
    if isinstance(e, Num):
        return iv.mpf(e.value), [zero] * n
    if isinstance(e, Var):
        g = [zero] * n
        g[e.index - 1] = iv.mpf(1)
        return box[e.index - 1], g
    if isinstance(e, Neg):
        v, g = _iv_dual(e.operand, box)
        return -v, [-c for c in g]
    if isinstance(e, (Add, Sub, Mul, Div)):
        (va, ga), (vb, gb) = _iv_dual(e.left, box), _iv_dual(e.right, box)
        if isinstance(e, Add):
            return va + vb, [a + b for a, b in zip(ga, gb)]
        if isinstance(e, Sub):
            return va - vb, [a - b for a, b in zip(ga, gb)]
        if isinstance(e, Mul):
            return va * vb, [va * b + vb * a for a, b in zip(ga, gb)]
        return va / vb, [(a * vb - va * b) / vb**2 for a, b in zip(ga, gb)]
    if isinstance(e, Pow):
        va, ga = _iv_dual(e.base, box)
        m = e.exponent
        if m == 0:
            return iv.mpf(1), [zero] * n
        power = (lambda k: va ** int(k)) if float(m).is_integer() else (lambda k: va ** iv.mpf(k))
        slope = iv.mpf(float(m)) * power(m - 1)
        return power(m), [slope * a for a in ga]
    va, ga = _iv_dual(e.args[0], box)
    if e.name == "exp":
        ev = iv.exp(va)
        return ev, [ev * a for a in ga]
    if e.name == "log":
        return iv.log(va), [a / va for a in ga]
    if e.name == "sqrt":
        sv = iv.sqrt(va)
        return sv, [a / (2 * sv) for a in ga]
    if e.name == "atan":
        return _iv_atan(va), [a / (1 + va**2) for a in ga]
    if e.name == "abs":
        if va.a > 0:
            return va, ga
        if va.b < 0:
            return -va, [-a for a in ga]
        return _iv_hull(va, -va), [_iv_hull(a, -a, zero) for a in ga]
    vb, gb = _iv_dual(e.args[1], box)
    first, second = (va.b < vb.a, va.a > vb.b) if e.name == "min" else (va.a > vb.b, va.b < vb.a)
    if first:
        return va, ga
    if second:
        return vb, gb
    return _iv_hull(va, vb), [_iv_hull(a, b) for a, b in zip(ga, gb)]


# One tree per node kind (each under arithmetic that gives it a gradient),
# and the boxes to draw for it: centres uniform in [lo, hi], half-widths
# 10**U(-9, log10(widest)).
_X1, _X2 = Var(1), Var(2)
_NODE_KINDS = {
    "num": (Add(Num(2.5), Mul(Num(-0.75), _X1)), (-2.0, 2.0), 1.0),
    "var": (_X2, (-2.0, 2.0), 1.0),
    "neg": (Neg(Mul(_X1, _X2)), (-2.0, 2.0), 1.0),
    "add": (Add(Mul(_X1, _X1), _X2), (-2.0, 2.0), 1.0),
    "sub": (Sub(_X1, Mul(_X2, _X2)), (-2.0, 2.0), 1.0),
    "mul": (Mul(Mul(_X1, _X2), _X1), (-2.0, 2.0), 1.0),
    "div": (Div(_X1, _X2), (0.5, 3.0), 0.4),
    "pow-integer": (Pow(Sub(_X1, _X2), 3), (-2.0, 2.0), 1.0),
    "pow-even": (Pow(_X1, 4), (-2.0, 2.0), 1.0),
    "pow-negative": (Pow(Add(_X1, _X2), -3), (0.5, 3.0), 0.4),
    "pow-fractional": (Pow(Mul(_X1, _X2), 0.5), (0.5, 3.0), 0.4),
    "pow-negative-fractional": (Pow(_X1, -1.5), (0.5, 3.0), 0.4),
    "exp": (Call("exp", (Mul(_X1, _X2),)), (-3.0, 3.0), 1.0),
    "log": (Call("log", (Add(_X1, Mul(_X2, _X2)),)), (0.5, 3.0), 0.4),
    "sqrt": (Call("sqrt", (Mul(_X1, _X2),)), (0.5, 3.0), 0.4),
    "atan": (Call("atan", (Mul(_X1, _X2),)), (-3.0, 3.0), 1.0),
    "abs": (Call("abs", (Sub(_X1, _X2),)), (-1e-3, 1e-3), 1e-2),
    "min": (Call("min", (_X1, Mul(Num(2.0), _X2))), (-1e-3, 1e-3), 1e-2),
    "max": (Call("max", (Mul(_X1, _X2), _X2)), (-1e-3, 1e-3), 1e-2),
}


def _boxes(rng, count, lo, hi, widest, n=2):
    centre = rng.uniform(lo, hi, size=(count, n))
    half = 10.0 ** rng.uniform(-9.0, np.log10(widest), size=(count, 1))
    return centre - half, centre + half


def _box_points(rng, lo, hi, count):
    """Each box's corners and `count` points drawn in it."""
    corners = np.array([[a if bit == "0" else b for a, b, bit in zip(lo, hi, f"{c:0{lo.size}b}")]
                        for c in range(2 ** lo.size)])
    return np.concatenate([corners, rng.uniform(lo, hi, size=(count, lo.size))])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", list(_NODE_KINDS))
def test_interval_dual_walk_encloses_mpmath_and_the_float_walk(kind):
    tree, (lo, hi), widest = _NODE_KINDS[kind]
    rng = np.random.default_rng(len(kind))
    blo, bhi = _boxes(rng, 40, lo, hi, widest)
    glo, ghi, certain = compile_interval_dual_rows(tree)(blo, bhi)
    dual = compile_dual_rows(tree)
    for r in range(len(blo)):
        _, want = _iv_dual(tree, [iv.mpf([a, b]) for a, b in zip(blo[r], bhi[r])])
        for j, w in enumerate(want):
            assert glo[r, j] <= mp.mpf(w.a) and mp.mpf(w.b) <= ghi[r, j], (kind, r, j, w)
        _, g, kinks = dual(_box_points(rng, blo[r], bhi[r], 30))
        assert (glo[r] <= g).all() and (g <= ghi[r]).all(), (kind, r)
        if certain[r]:
            assert not kinks.any()
    if kind in ("abs", "min", "max"):
        assert 0 < certain.sum() < len(certain)  # boxes on both sides of the kink
    else:
        assert certain.all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(_exprs(3, st.integers(-3, 5)), st.integers(0, 2**32 - 1))
def test_certain_boxes_enclose_every_float_gradient(tree, seed):
    # On random trees and boxes, where the walk is certain the float walk
    # neither raises nor flags a kink at any point drawn in the box, and its
    # gradient lies in the enclosure.
    rng = np.random.default_rng(seed)
    blo, bhi = _boxes(rng, 8, -3.0, 3.0, 1.0, n=_DIM)
    glo, ghi, certain = compile_interval_dual_rows(tree)(blo, bhi)
    dual = compile_dual_rows(tree)
    for r in np.flatnonzero(certain):
        _, g, kinks = dual(_box_points(rng, blo[r], bhi[r], 20))
        assert not kinks.any()
        assert (glo[r] <= g).all() and (g <= ghi[r]).all()


def test_corpus_gradients_lie_in_the_enclosure_with_its_margin():
    # A corpus member's closed-form gradient is its expression's gradient to
    # well within CERTIFY_MARGIN, which is what certification relies on.
    rng = np.random.default_rng(3)
    for entry in corpus():
        centres = np.array(sample_region(entry.region, 30, seed=4))
        for radius in (1e-5, 1e-2):
            glo, ghi, certain = compile_interval_dual_rows(entry.handle.expression)(
                centres - radius, centres + radius)
            margin = CERTIFY_MARGIN * (1.0 + np.maximum(np.abs(glo), np.abs(ghi)))
            for r in np.flatnonzero(certain):
                g, has = entry.handle.grads(_box_points(rng, centres[r] - radius,
                                                        centres[r] + radius, 20))
                assert has.all()
                assert (glo[r] - margin[r] <= g).all() and (g <= ghi[r] + margin[r]).all()
            assert certain.sum() >= 20, entry.handle.name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("source, trouble, calm", [
    ("abs(x1)", (-1e-3, 1e-3), (0.5, 0.6)),  # holds the kink
    ("abs(x1)", (0.0, 1e-3), (1e-3, 2e-3)),  # touches it
    ("abs(x1 - 0.25) + x1", (0.25, 0.5), (0.3, 0.5)),
    ("min(x1, 0.5)", (0.4, 0.6), (0.6, 0.7)),  # a tie inside
    ("max(x1, 0.5)", (0.5, 0.6), (0.4, 0.49)),  # a tie at an end
    ("max(2*x1, x1 + 1)", (0.5, 1.0), (0.2, 0.4)),
    ("1/x1", (-1.0, 1.0), (0.5, 1.0)),  # a zero denominator
    ("x2/(x1 - 1)", (1.0, 2.0), (1.5, 2.0)),
    ("log(x1)", (0.0, 1.0), (0.5, 1.0)),  # a non-positive log argument
    ("log(x1 - 2)", (-1.0, 1.0), (2.5, 3.0)),
    ("sqrt(x1)", (0.0, 1.0), (1e-300, 1.0)),  # the value is defined at 0, the gradient not
    ("sqrt(x1)", (-1.0, -0.5), (0.5, 1.0)),
    ("exp(x1)", (700.0, 710.0), (690.0, 700.0)),  # the value overflows
    ("x1^200", (10.0, 100.0), (10.0, 30.0)),  # `^` overflows, which raises
    ("atan(exp(x1))", (709.0, 712.0), (100.0, 150.0)),  # an overflow inside, absorbed
])
def test_interval_dual_walk_is_uncertain_where_a_point_is(source, trouble, calm):
    # The box over x1 in `trouble` (x2 in [0.5, 0.75]) has a point where the
    # dual walk raises, flags a kink or a tie, or overflows; the one over
    # `calm` has none.
    walk = compile_interval_dual_rows(parse(source, 2))
    lo = np.array([[trouble[0], 0.5], [calm[0], 0.5]])
    hi = np.array([[trouble[1], 0.75], [calm[1], 0.75]])
    assert walk(lo, hi)[2].tolist() == [False, True]


@pytest.mark.parametrize("tree", [Pow(_X1, -2), Pow(_X1, -1), Pow(_X1, 0.5), Pow(_X1, -1.5)])
def test_interval_dual_walk_is_uncertain_at_a_zero_base(tree):
    # A zero base under a negative exponent raises; a fractional power's
    # gradient is not finite at 0 and not real below it.
    walk = compile_interval_dual_rows(tree)
    lo, hi = np.array([[0.0], [-1.0], [-0.5], [0.25]]), np.array([[1.0], [1.0], [-0.25], [1.0]])
    integer = float(tree.exponent).is_integer()
    assert walk(lo, hi)[2].tolist() == [False, False, integer, True]


def test_interval_dual_walk_takes_only_box_arrays():
    walk = compile_interval_dual_rows(parse("x1*x2", 2))
    glo, ghi, certain = walk(np.empty((0, 2)), np.empty((0, 2)))
    assert (glo.shape, ghi.shape, certain.shape) == ((0, 2), (0, 2), (0,))
    with pytest.raises(ValueError):
        walk(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        walk(np.zeros((1, 2)), np.zeros((2, 2)))
