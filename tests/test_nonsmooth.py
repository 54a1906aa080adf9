from dataclasses import replace

import numpy as np
import pytest

from gencvx import corpus, corpus_entry, function_from_expression, negate_handle
from gencvx.geometry import Region, parse_region, sample_region
from gencvx.nonsmooth import (
    ClarkeScheme,
    EstimationError,
    InteriorRoomError,
    clarke_directional,
    directional_derivative,
    negate_estimate,
    subdifferential,
    subdifferentials,
)

BOX1 = parse_region("box(-1..1)", 1)


def _abs_handle():
    return function_from_expression("abs(x1)", 1)


def brute_force_clarke_abs(v: float) -> float:
    """Dense probe enumeration of limsup [|y+tv| - |y|]/t for f = |x| at 0."""
    best = -np.inf
    for t in np.geomspace(1e-2, 1e-6, 30):
        for y in np.linspace(-10 * t, 10 * t, 201):
            best = max(best, (abs(y + t * v) - abs(y)) / t)
    return best


def test_clarke_smooth_square():
    fn = function_from_expression("x1^2", 1)
    wide = parse_region("box(-2..2)", 1)
    got = clarke_directional(fn, wide, [1.0], [1.0], ClarkeScheme(seed=0))
    assert got == pytest.approx(2.0, abs=1e-3)


def test_clarke_abs_at_kink_both_directions():
    fn = _abs_handle()
    for v in (-1.0, 1.0):
        oracle = brute_force_clarke_abs(v)
        assert oracle == pytest.approx(1.0, abs=1e-9)
        got = clarke_directional(fn, BOX1, [0.0], [v], ClarkeScheme(seed=1))
        assert got == pytest.approx(oracle, abs=5e-2)


def test_clarke_negated_abs():
    # Probes left of the origin give the quotient exactly 1.
    fn = negate_handle(_abs_handle())
    got = clarke_directional(fn, BOX1, [0.0], [1.0], ClarkeScheme(seed=2))
    assert got == pytest.approx(1.0, abs=5e-2)


def test_clarke_smooth_consistency_invariant():
    rng = np.random.default_rng(77)
    checked = 0
    for entry in corpus():
        if entry.handle.smoothness != "smooth":
            continue
        pts = sample_region(entry.region, 40, seed=21)
        for x in pts:
            if entry.region.interior_slack(x) < 0.12:
                continue
            v = rng.standard_normal(x.size)
            v /= np.linalg.norm(v)
            g = entry.handle.grad(x)
            want = float(np.dot(g, v))
            got = clarke_directional(entry.handle, entry.region, x, v, ClarkeScheme(seed=3))
            assert abs(got - want) <= 1e-3 * (1.0 + np.linalg.norm(g) * np.linalg.norm(v))
            checked += 1
            if checked >= 100:
                return
    assert checked >= 100


def test_clarke_positive_homogeneity():
    fn = corpus_entry("paraboloid").handle
    region = corpus_entry("paraboloid").region
    x = np.array([0.2, -0.1])
    v = np.array([0.4, 0.3])
    scheme = ClarkeScheme(seed=5)
    one = clarke_directional(fn, region, x, v, scheme)
    two = clarke_directional(fn, region, x, 2.0 * v, scheme)
    g = fn.grad(x)
    tol = 2.0 * 1e-3 * (1.0 + np.linalg.norm(g) * np.linalg.norm(2 * v))
    assert abs(two - 2.0 * one) <= 2.0 * tol


def test_clarke_insufficient_room():
    # A slab thinner than even the finest step leaves no probe room at all.
    fn = function_from_expression("x1^2", 1)
    thin = Region([0.0], [1e-8], margin=1e-9)
    with pytest.raises(InteriorRoomError):
        clarke_directional(fn, thin, [5e-9], [1.0], ClarkeScheme(seed=0))


def test_subdifferential_smooth_single_generator():
    e = corpus_entry("fractional")
    est = subdifferential(e.handle, e.region, [1.0, 0.0], radius=1e-4, count=8, seed=0)
    assert not est.at_kink
    assert len(est.generators) == 1
    assert np.allclose(est.generators[0], [0.0, 1.0], atol=1e-9)


def test_subdifferential_abs_kink_set():
    est = subdifferential(_abs_handle(), BOX1, [0.0], radius=1e-3, count=16, seed=0)
    assert est.at_kink
    gens = [float(g[0]) for g in est.generators]
    assert any(abs(g - 1.0) <= 1e-9 for g in gens)
    assert any(abs(g + 1.0) <= 1e-9 for g in gens)
    assert all(-1.0 - 1e-9 <= g <= 1.0 + 1e-9 for g in gens)


def test_subdifferential_affine_exact():
    e = corpus_entry("affine")
    est = subdifferential(e.handle, e.region, [0.1, 0.2], radius=1e-4, count=8, seed=0)
    assert len(est.generators) == 1
    assert np.array_equal(est.generators[0], [1.25, -0.75])


def test_subdifferential_preconditions():
    e = corpus_entry("affine")
    with pytest.raises(ValueError):
        subdifferential(e.handle, e.region, [0.0, 0.0], radius=1e-4, count=4, seed=0)
    with pytest.raises(InteriorRoomError):
        subdifferential(e.handle, e.region, [0.999, 0.0], radius=1e-2, count=8, seed=0)


def test_negation_mirror_is_exact():
    fn = corpus_entry("twoslope").handle
    est = subdifferential(fn, BOX1, [0.0], radius=1e-3, count=16, seed=11)
    neg_direct = subdifferential(negate_handle(fn), BOX1, [0.0], radius=1e-3, count=16, seed=11)
    mirrored = negate_estimate(est)
    assert len(neg_direct.generators) == len(mirrored.generators)
    for a, b in zip(neg_direct.generators, mirrored.generators):
        assert np.array_equal(a, b)


def test_twoslope_kink_generators():
    fn = corpus_entry("twoslope").handle
    est = subdifferential(fn, BOX1, [0.0], radius=1e-3, count=16, seed=0)
    assert est.at_kink
    gens = sorted(float(g[0]) for g in est.generators)
    assert any(abs(g - 1.0) <= 1e-9 for g in gens)
    assert any(abs(g - 2.0) <= 1e-9 for g in gens)


def test_generator_vs_hull_equivalence():
    # The downstream quantifiers are affine in the generator, so checking the
    # generator set is the same as checking its convex hull.
    est = subdifferential(_abs_handle(), BOX1, [0.0], radius=1e-3, count=16, seed=3)
    rng = np.random.default_rng(0)
    gens = np.stack(est.generators)
    for _ in range(50):
        d = rng.standard_normal(1)
        thresh = 0.0
        for rel in ("<", "<=", "=="):
            if rel == "<":
                on_gens = all(float(np.dot(g, d)) < thresh for g in gens)
            elif rel == "<=":
                on_gens = all(float(np.dot(g, d)) <= thresh for g in gens)
            else:
                on_gens = all(float(np.dot(g, d)) == thresh for g in gens)
            weights = rng.dirichlet(np.ones(len(gens)), size=100)
            hull_pts = weights @ gens
            if rel == "<":
                on_hull = all(float(np.dot(h, d)) < thresh for h in hull_pts)
            elif rel == "<=":
                on_hull = all(float(np.dot(h, d)) <= thresh for h in hull_pts)
            else:
                on_hull = all(float(np.dot(h, d)) == thresh for h in hull_pts)
            assert on_gens == on_hull


def test_directional_derivative_fractional():
    e = corpus_entry("fractional")
    got = directional_derivative(e.handle, e.region, [1.0, 0.0], [1.0, 2.0])
    assert got == pytest.approx(2.0, abs=1e-5)


def test_directional_derivative_affine_exact():
    e = corpus_entry("affine")
    got = directional_derivative(e.handle, e.region, [0.0, 0.0], [1.0, 1.0])
    assert got == pytest.approx(1.25 - 0.75, abs=1e-9)


def test_directional_derivative_abs_one_sided():
    got = directional_derivative(_abs_handle(), BOX1, [0.0], [1.0])
    assert got == pytest.approx(1.0, abs=1e-5)


# -- gradient sampling over rows against the per-probe loop --------------------


def _row_counted(fn):
    """fn, counting the points its gradient_rows reads."""
    rows = []

    def gradient_rows(points):
        rows.append(len(points))
        return fn.gradient_rows(points)

    return replace(fn, gradient_rows=gradient_rows), rows


def _outcome(fn, region, x, radius, count, seed):
    try:
        est = subdifferential(fn, region, x, radius=radius, count=count, seed=seed)
    except EstimationError as exc:
        return type(exc), str(exc)
    return [g.tobytes() for g in est.generators], est.radius, est.at_kink


BOX2 = parse_region("box(-1..1, -1..1)", 2)


@pytest.mark.parametrize("source, dim, x, kink", [
    ("x2/(x1 + 2) + atan(x1*x2)", 2, [0.3, -0.4], False),  # smooth
    ("abs(x1) + abs(x2)", 2, [0.0, 0.3], True),  # the probe at x is at a kink
    ("max(x1, x2)", 2, [0.2, 0.2], True),
    ("min(x1, x1) + abs(x2)", 2, [0.1, 0.0], True),  # every probe ties
    ("x1 + abs(x1)", 1, [0.0], True),
])
def test_row_estimate_equals_per_probe_estimate(source, dim, x, kink):
    fn, rows = _row_counted(function_from_expression(source, dim))
    region = parse_region("box(" + ", ".join(["-1..1"] * dim) + ")", dim)
    alone = replace(fn, gradient_rows=None)
    for radius, seed in ((1e-5, 0), (1e-3, 9), (1e-8, 4)):
        got = _outcome(fn, region, x, radius, 2 * dim + 5, seed)
        assert got == _outcome(alone, region, x, radius, 2 * dim + 5, seed)
        if radius == 1e-5:
            assert got[2] == kink
    assert rows == [2 * dim + 6] * 3  # one call for all the probes


@pytest.mark.parametrize("seed", [0, 7])
def test_row_estimate_near_a_domain_edge_fails_as_per_probe(seed):
    # Probes left of 0 raise: the row call raises, and the per-probe loop
    # counts them, failing (seed 7: 10 of 17) or not (seed 0) as before.
    fn, rows = _row_counted(function_from_expression("log(x1)", 1))
    got = _outcome(fn, BOX1, [5e-6], 1e-5, 16, seed)
    assert got == _outcome(replace(fn, gradient_rows=None), BOX1, [5e-6], 1e-5, 16, seed)
    assert rows == [17]
    assert (got[0] is EstimationError) == (seed == 7)
    if seed == 7:
        assert got[1] == "gradient evaluation failed at 10/17 probes near [5.e-06]"


def test_many_point_estimates_equal_one_at_a_time():
    # One smooth point, two kinks, a point without room for the ball and two
    # whose gradients fail: estimated together, each is what it is alone.
    fn, rows = _row_counted(function_from_expression("sqrt(max(x1, 0)) + abs(x2)", 2))
    points = [[0.5, 0.2], [0.3, 0.0], [0.25, -0.0], [0.9999999, 0.5], [-0.5, 0.2], [0.4, 0.1]]
    seeds = [3, 1, 4, 1, 5, 9]
    together = subdifferentials(fn, BOX2, points, 1e-5, 8, seeds)
    kinds = []
    for x, seed, est in zip(points, seeds, together):
        alone = _outcome(replace(fn, gradient_rows=None), BOX2, x, 1e-5, 8, seed)
        if isinstance(est, EstimationError):
            assert (type(est), str(est)) == alone
            kinds.append(type(est).__name__)
        else:
            assert ([g.tobytes() for g in est.generators], est.radius, est.at_kink) == alone
            kinds.append(est.at_kink)
    assert kinds == [False, True, True, "InteriorRoomError", "EstimationError", False]
    # The joint call raised at the failing points; every set then fell back
    # to the per-probe loop, which reads no rows.
    assert rows == [45]
    assert subdifferentials(fn, BOX2, [], 1e-5, 8, []) == []


def test_negated_rows_read_the_negated_gradient():
    fn = function_from_expression("max(x1, 2*x2) + x1*x2", 2)
    neg = negate_handle(fn)
    points = np.array([[0.2, 0.1], [0.5, -0.3], [0.4, 0.2]])
    gradients, kinks = neg.gradient_rows(points)
    assert kinks.tolist() == [True, False, True]
    for p, g, k in zip(points, gradients, kinks):
        want = neg.grad(p)
        assert (want is None) == k
        if want is not None:
            assert g.tobytes() == want.tobytes()
    assert corpus_entry("ramp").handle.gradient_rows is None  # exact gradient: per probe
