import numpy as np
import pytest

from gencvx import corpus, corpus_entry, function_from_expression, negate_handle
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


def test_exact_gradients_match_central_differences():
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


def test_values_reads_rows_as_value_reads_points():
    # The DSL handles walk their rows in one call; a handle with only a
    # scalar `evaluate` still reads rows, one call per row.
    for e in corpus():
        points = np.array(sample_region(e.region, 40, seed=4))
        scalar = [e.handle.value(p) for p in points]
        assert e.handle.values(points).tolist() == scalar
        plain = FunctionHandle("plain", e.handle.dimension, e.handle.evaluate)
        assert plain.values(points).tolist() == scalar
        assert negate_handle(plain).values(points).tolist() == [-v for v in scalar]
        assert e.handle.values(points[:0]).shape == (0,)


def test_values_rejects_non_finite_values_and_non_rows():
    inf_at_half = FunctionHandle("inf-at-half", 1, lambda x: np.inf if x[0] == 0.5 else x[0])
    with pytest.raises(ArithmeticError):
        inf_at_half.values([[0.25], [0.5]])
    assert inf_at_half.values([[0.25], [0.75]]).tolist() == [0.25, 0.75]
    with pytest.raises(ArithmeticError):
        function_from_expression("exp(1000*x1)", 1).values([[0.0], [1.0]])
    with pytest.raises(ValueError):
        inf_at_half.values([0.25, 0.75])
