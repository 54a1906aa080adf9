from dataclasses import replace

import numpy as np
import pytest

from gencvx import corpus, corpus_entry, function_from_expression, negate_handle
from gencvx.expr import compile_dual_rows
from gencvx.functions import LOCALLY_LIPSCHITZ, PROPERTIES, SMOOTH, FunctionHandle
from gencvx.geometry import sample_region


def test_corpus_shape():
    entries = corpus()
    assert [e.handle.name for e in entries] == [
        "affine", "fractional", "arctan", "cubic", "ramp", "twoslope", "paraboloid",
    ]
    for e in entries:
        assert set(e.labels) == set(PROPERTIES)
        assert e.handle.dimension == e.region.dimension


def test_corpus_entry_lookup():
    assert corpus_entry("fractional").handle.dimension == 2
    with pytest.raises(KeyError):
        corpus_entry("nope")


def test_fractional_matches_plain_ratio_exactly():
    e = corpus_entry("fractional")
    for p in sample_region(e.region, 100, seed=9):
        assert e.handle.value(p) == p[1] / p[0]


def test_fractional_region_is_the_shifted_halfspace():
    e = corpus_entry("fractional")
    assert not e.region.contains([0.04, 0.0])
    assert e.region.contains([0.06, 0.0])
    for p in sample_region(e.region, 50, seed=4):
        assert p[0] >= 0.05 + e.region.margin


def test_smoothness_classification():
    kinds = {e.handle.name: e.handle.smoothness for e in corpus()}
    assert kinds["ramp"] == LOCALLY_LIPSCHITZ
    assert kinds["twoslope"] == LOCALLY_LIPSCHITZ
    for name in ("affine", "fractional", "arctan", "cubic", "paraboloid"):
        assert kinds[name] == SMOOTH


def test_corpus_gradients_are_the_forward_mode_walk():
    # A member's expression is its one definition of f: grads is the
    # forward-mode walk over rows, bit for bit, its kink flags included.
    for e in corpus():
        points = sample_region(e.region, 40, seed=5) + [np.zeros(e.handle.dimension)]
        points = np.array([p for p in points if e.region.contains(p)])
        _, want, kinks = compile_dual_rows(e.handle.expression)(points)
        got, has = e.handle.grads(points)
        assert has.tolist() == (~kinks).tolist(), e.handle.name
        assert got[has].tobytes() == want[has].tobytes(), e.handle.name


def test_forward_mode_gradients_match_central_differences():
    # The corpus's smooth members read their gradients from the forward-mode
    # walk, which agrees with central differences of their values.
    step = 1e-5
    for e in corpus():
        if e.handle.smoothness != SMOOTH:
            continue
        for p in sample_region(e.region, 25, seed=13):
            g = e.handle.grad(p)
            for i in range(p.size):
                unit = np.zeros(p.size)
                unit[i] = step
                fd = (e.handle.value(p + unit) - e.handle.value(p - unit)) / (2 * step)
                assert abs(g[i] - fd) / (1.0 + abs(g[i])) <= 1e-6


def test_kink_handles_report_no_gradient_at_zero():
    for name in ("ramp", "twoslope"):
        e = corpus_entry(name)
        assert e.handle.grad(np.array([0.0])) is None
        assert e.handle.grad(np.array([0.5])) is not None
        assert e.handle.grad(np.array([-0.5])) is not None


@pytest.mark.parametrize("name", [e.handle.name for e in corpus()])
@pytest.mark.parametrize("negated", [False, True])
def test_corpus_row_gradients_are_the_point_gradients(name, negated):
    # Each gradient is read as rows: grad is its one-row case, bit for bit,
    # and the rows flagged are exactly those where grad is None.
    e = corpus_entry(name)
    fn = negate_handle(e.handle) if negated else e.handle
    points = sample_region(e.region, 48, seed=21)
    # The origin and its signed zeros in each coordinate, where in the region.
    for base in (points[0], np.zeros(fn.dimension)):
        for i in range(fn.dimension):
            for zero in (0.0, -0.0):
                p = base.copy()
                p[i] = zero
                points.append(p)
    points = np.array([p for p in points if e.region.contains(p)])
    gradients, kinks = fn.gradient_rows(points)
    assert gradients.shape == points.shape and kinks.dtype == bool
    for p, g, kink in zip(points, gradients, kinks):
        want = fn.grad(p)
        assert (want is None) == kink
        if want is not None:
            assert g.tobytes() == want.tobytes()
    at_origin = (points == 0.0).all(axis=1)
    assert at_origin.any() or name == "fractional"
    kinked = name in ("ramp", "twoslope")
    assert kinks.tolist() == (at_origin.tolist() if kinked else [False] * len(points))
    # grads reads the same rows in one call; without gradient_rows no row
    # has a gradient.
    got, has = fn.grads(points)
    assert has.tolist() == (~kinks).tolist()
    assert got[has].tobytes() == gradients[has].tobytes()
    got, has = replace(fn, gradient_rows=None).grads(points)
    assert got.shape == points.shape and not has.any() and np.isnan(got).all()


def test_gradients_take_only_points_of_the_handle_dimension():
    # A one-dimensional row gradient would read only x1 of a longer point.
    for fn in (corpus_entry("ramp").handle, FunctionHandle("plain", 1, lambda p: p[:, 0])):
        with pytest.raises(ValueError, match=r"points of shape \(1, 2\) for .* of dimension 1"):
            fn.grad([0.5, 7.0])
        with pytest.raises(ValueError, match=r"points of shape \(3, 2\)"):
            fn.grads(np.zeros((3, 2)))


def test_twoslope_values():
    h = corpus_entry("twoslope").handle
    assert h.value(np.array([-0.5])) == -0.5
    assert h.value(np.array([0.5])) == 1.0
    assert h.value(np.array([0.0])) == 0.0


def test_negate_handle_mirrors_values_and_gradients():
    e = corpus_entry("fractional")
    neg = negate_handle(e.handle)
    for p in sample_region(e.region, 20, seed=2):
        assert neg.value(p) == -e.handle.value(p)
        assert np.array_equal(neg.grad(p), -e.handle.grad(p))
    r = corpus_entry("ramp")
    assert negate_handle(r.handle).grad(np.array([0.0])) is None


def test_function_from_expression_dimension_guard():
    fn = function_from_expression("x1 + x2", 2)
    assert fn.value(np.array([1.0, 2.0])) == 3.0
    with pytest.raises(Exception):
        function_from_expression("x3", 2)


@pytest.mark.parametrize("dimension", [1.0, 2.5, True, 0, -1, "1", None])
def test_a_dimension_that_is_not_a_positive_integer_is_named(dimension):
    # A float dimension used to give a handle on which classify died with a
    # TypeError; a bool is no dimension either.
    with pytest.raises(ValueError, match="dimension must be a positive integer"):
        FunctionHandle("plain", dimension, lambda p: p[:, 0])
    if isinstance(dimension, float):
        with pytest.raises(ValueError, match=f"got {dimension!r}"):
            function_from_expression("x1^2", dimension)


def test_values_reads_rows_as_value_reads_points():
    # `value` is the one-row case of `values`: a row reads alone what it
    # reads among the others, and a handle given any row callable reads
    # through it, negated by negate_handle.
    for e in corpus():
        points = np.array(sample_region(e.region, 40, seed=4))
        scalar = [e.handle.value(p) for p in points]
        assert e.handle.values(points).tolist() == scalar
        plain = FunctionHandle("plain", e.handle.dimension, e.handle.evaluate_rows)
        assert plain.values(points).tolist() == scalar
        assert negate_handle(plain).values(points).tolist() == [-v for v in scalar]
        assert e.handle.values(points[:0]).shape == (0,)


def test_values_take_only_points_of_the_handle_dimension():
    # A one-dimensional walk would read only x1 of a longer point: the ramp
    # handle gave 1.0 at [0.5, 7.0].
    ramp = corpus_entry("ramp").handle
    for fn in (ramp, negate_handle(ramp), FunctionHandle("plain", 1, lambda p: p[:, 0])):
        with pytest.raises(ValueError, match=r"points of shape \(1, 2\) for .* of dimension 1"):
            fn.value([0.5, 7.0])
        with pytest.raises(ValueError, match=r"points of shape \(3, 2\)"):
            fn.values(np.zeros((3, 2)))
        with pytest.raises(ValueError, match=r"points of shape \(0, 2\)"):
            fn.values(np.zeros((0, 2)))
    with pytest.raises(ValueError, match=r"points of shape \(1, 1\)"):
        corpus_entry("fractional").handle.value([0.5])
    assert ramp.values([[0.5]]).tolist() == [1.0]


def test_values_rejects_non_finite_values_and_non_rows():
    inf_at_half = FunctionHandle("inf-at-half", 1, lambda p: np.where(p[:, 0] == 0.5, np.inf, p[:, 0]))
    with pytest.raises(ArithmeticError):
        inf_at_half.values([[0.25], [0.5]])
    assert inf_at_half.values([[0.25], [0.75]]).tolist() == [0.25, 0.75]
    with pytest.raises(ArithmeticError):
        function_from_expression("exp(1000*x1)", 1).values([[0.0], [1.0]])
    with pytest.raises(ValueError):
        inf_at_half.values([0.25, 0.75])


def test_corpus_entry_builds_only_the_named_member(monkeypatch):
    from gencvx import functions

    assert list(functions._MEMBERS) == [e.handle.name for e in corpus()]
    built = []
    build = functions.function_from_expression
    monkeypatch.setattr(functions, "function_from_expression",
                        lambda *a, name: built.append(name) or build(*a, name=name))
    assert corpus_entry("ramp").handle.name == "ramp"
    assert built == ["ramp"]
    with pytest.raises(KeyError) as error:
        corpus_entry("nope")
    assert built == ["ramp"]
    assert ("known: affine, fractional, arctan, cubic, ramp, twoslope, paraboloid"
            in str(error.value))
