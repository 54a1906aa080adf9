from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from gencvx import corpus, corpus_entry, function_from_expression, negate_handle
from gencvx.functions import FunctionHandle
from gencvx.geometry import Region, parse_region, sample_region
from gencvx.nonsmooth import (
    ClarkeScheme,
    EstimationError,
    InteriorRoomError,
    clarke_directional,
    directional_derivative,
    negate_estimate,
    _row_gradients,
    subdifferential,
    subdifferential_rows,
)

BOX1 = parse_region("box(-1..1)", 1)
BOX2 = parse_region("box(-1..1, -1..1)", 2)


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


def test_clarke_seeds_differ_above_32_bits():
    # Scale streams are seeded from all 64 bits of the seed, as pair and
    # estimate streams are; seeds below 2**32 draw as they always did.
    fn = function_from_expression("x1^2 + abs(x1)", 1)
    region = parse_region("box(-1..1)", 1)

    def at(seed):
        return clarke_directional(fn, region, [0.3], [1.0], ClarkeScheme(seed=seed))

    assert at(5) == 1.6002036624995777
    assert at(5 + 2**32) != at(5)


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


@pytest.mark.parametrize("estimate", [
    lambda fn, region, x, v: directional_derivative(fn, region, x, v),
    lambda fn, region, x, v: clarke_directional(fn, region, x, v, ClarkeScheme(seed=0)),
], ids=["directional", "clarke"])
def test_directional_estimates_take_only_vectors_of_the_region_dimension(estimate):
    fn = function_from_expression("x1 + 3*x2", 2)
    assert estimate(fn, BOX2, [0.1, 0.2], [1.0, 0.0]) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError, match=r"v of shape \(1,\) do not fit a region of dimension 2"):
        estimate(fn, BOX2, [0.1, 0.2], [1.0])  # not broadcast along (1, 1)
    with pytest.raises(ValueError, match=r"x of shape \(1,\) and v of shape \(2,\)"):
        estimate(fn, BOX2, [0.1], [1.0, 0.0])


# -- gradient sampling over rows against a per-probe reference ----------------


def _row_counted(fn):
    """fn, counting the points its gradient_rows reads.  The count of each
    call is kept, so the calls of one estimate read as a list."""
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



_ROW_ESTIMATES = [
    ("x2/(x1 + 2) + atan(x1*x2)", 2, [0.3, -0.4], False),  # smooth
    ("abs(x1) + abs(x2)", 2, [0.0, 0.3], True),  # the probe at x is at a kink
    ("max(x1, x2)", 2, [0.2, 0.2], True),
    ("min(x1, x1) + abs(x2)", 2, [0.1, 0.0], True),  # every probe ties
    ("x1 + abs(x1)", 1, [0.0], True),
]


def _row_estimates(fn, plain, source, dim, x, kink, steep=()):
    """The estimates at x at three radii against the per-probe reference;
    at the radii in steep the reference spreads past COHERENCE_SPREAD on a
    smooth ball, and the estimate is the handle's gradient at x."""
    region = parse_region("box(" + ", ".join(["-1..1"] * dim) + ")", dim)
    for radius, seed in ((1e-5, 0), (1e-3, 9), (1e-8, 4)):
        got = _outcome(fn, region, x, radius, 2 * dim + 5, seed)
        want = _reference_outcome(plain, region, np.array(x), radius, 2 * dim + 5, seed)
        if radius in steep:
            assert want[2] and len(want[0]) > 1
            want = [plain.grad(np.array(x)).tobytes()], radius, False
        assert got == want
        if radius == 1e-5:
            assert got[2] == kink


@pytest.mark.parametrize("source, dim, x, kink", _ROW_ESTIMATES)
def test_row_estimate_equals_per_probe_estimate(source, dim, x, kink):
    # A handle without an expression samples every ball.
    plain = function_from_expression(source, dim)
    fn, rows = _row_counted(replace(plain, expression=None))
    _row_estimates(fn, plain, source, dim, x, kink)
    assert rows == [2 * dim + 6] * 3  # one call for all the probes


@pytest.mark.parametrize("source, dim, x, kink", _ROW_ESTIMATES)
def test_certified_row_estimate_equals_per_probe_estimate(source, dim, x, kink):
    # With its expression, the smooth handle's balls are proven smooth at
    # every radius: the one row read is the gradient at x.  Where sampling
    # finds that gradient coherent (radii 1e-5 and 1e-8) the two agree bit
    # for bit; at radius 1e-3 the sampled gradients spread past 1e-3 and
    # read as a kink.  No ball of a kink is certified.
    plain = function_from_expression(source, dim)
    fn, rows = _row_counted(plain)
    _row_estimates(fn, plain, source, dim, x, kink, steep=() if kink else (1e-3,))
    assert rows == ([2 * dim + 6] * 3 if kink else [1] * 3)


def test_a_steep_smooth_ball_reads_its_gradient():
    # exp(8*x1) has gradient 10715.4 at x1 = 0.9: sampling spreads past
    # 1e-3 and flags a kink with 21 generators at both radii, but the
    # interval walk proves the ball smooth, so its estimate is {grad f(x)}.
    fn = function_from_expression("exp(8*x1) + x2", 2)
    x = np.array([0.9, 0.0])
    for radius in (1e-5, 1e-8):
        sampled = subdifferential(replace(fn, expression=None), BOX2, x, radius, 20, seed=1)
        assert sampled.at_kink and len(sampled.generators) == 21
        est = subdifferential(fn, BOX2, x, radius, 20, seed=1)
        assert not est.at_kink
        assert [g.tobytes() for g in est.generators] == [fn.grad(x).tobytes()]


@pytest.mark.parametrize("seed", [0, 7])
def test_row_estimate_near_a_domain_edge_fails_as_per_probe(seed):
    # Probes left of 0 raise: the row call raises, and the probes read again
    # one at a time count them, failing (seed 7: 10 of 17) or not (seed 0).
    plain = function_from_expression("log(x1)", 1)
    fn, rows = _row_counted(plain)
    got = _outcome(fn, BOX1, [5e-6], 1e-5, 16, seed)
    assert got == _reference_outcome(plain, BOX1, np.array([5e-6]), 1e-5, 16, seed)
    assert rows == [17] + [1] * 17
    assert (got[0] is EstimationError) == (seed == 7)
    if seed == 7:
        assert got[1] == "gradient evaluation failed at 10/17 probes near [5.e-06]"


def _estimates(fn, region, points, radius, count, seeds):
    """Each point's estimate from one subdifferential_rows call, or the
    EstimationError it failed with."""
    gens, at_kink = subdifferential_rows(fn, region, points, radius, count, seeds)
    return [gens.estimate(i, radius, kink) for i, kink in enumerate(at_kink.tolist())]


def _many_points(fn, plain):
    """The estimates at six points, made together, against each alone."""
    points = [[0.5, 0.2], [0.3, 0.0], [0.25, -0.0], [0.9999999, 0.5], [-0.5, 0.2], [0.4, 0.1]]
    seeds = [3, 1, 4, 1, 5, 9]
    together = _estimates(fn, BOX2, points, 1e-5, 8, seeds)
    kinds = []
    for x, seed, est in zip(points, seeds, together):
        alone = _reference_outcome(plain, BOX2, np.array(x), 1e-5, 8, seed)
        if isinstance(est, EstimationError):
            assert (type(est), str(est)) == alone
            kinds.append(type(est).__name__)
        else:
            assert ([g.tobytes() for g in est.generators], est.radius, est.at_kink) == alone
            kinds.append(est.at_kink)
    assert kinds == [False, True, True, "InteriorRoomError", "EstimationError", False]
    assert _estimates(fn, BOX2, [], 1e-5, 8, []) == []


def test_many_point_estimates_equal_one_at_a_time():
    # One smooth point, two kinks, a point without room for the ball and two
    # whose gradients fail: estimated together, each is what it is alone.
    plain = function_from_expression("sqrt(max(x1, 0)) + abs(x2)", 2)
    fn, rows = _row_counted(replace(plain, expression=None))
    _many_points(fn, plain)
    # Each of the five balls with room is read in one call of its 9 probes,
    # in point order; the call at [-0.5, 0.2] raised, and its probes were
    # then read again alone, one row per call, right after it.
    assert rows == [9] * 4 + [1] * 9 + [9]


def test_many_point_certified_estimates_equal_one_at_a_time():
    # The two smooth points' balls are proven coherent and read as one call
    # at their centres; only the three other balls with room are drawn.
    plain = function_from_expression("sqrt(max(x1, 0)) + abs(x2)", 2)
    fn, rows = _row_counted(plain)
    _many_points(fn, plain)
    assert rows == [2] + [9] * 3 + [1] * 9


def _reference_outcome(fn, region, x, radius, count, seed):
    """The estimate at one point as the per-point loop made it: the point's
    own ball, each probe's gradient (a central difference where the handle
    gives none), then the coherence test and the dedupe."""
    n = x.size
    if region.interior_slack(x) < radius:
        return InteriorRoomError, f"ball of radius {radius} at {x} leaves the region"
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5D1FF)))
    raw = rng.standard_normal(size=(count, n))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    radii = radius * rng.uniform(0.0, 1.0, size=(count, 1)) ** (1.0 / n)
    step = radius / 100.0
    gradients = []
    for p in np.concatenate([x[None], x + raw / norms * radii]):
        try:
            g = fn.grad(p)
            if g is None:
                g = np.array([(fn.value(p + e) - fn.value(p - e)) / (2.0 * step)
                              for e in np.eye(n) * step])
        except ArithmeticError:
            continue
        gradients.append(g)
    failures = count + 1 - len(gradients)
    if failures > (count + 1) / 2:
        return EstimationError, f"gradient evaluation failed at {failures}/{count + 1} probes near {x}"
    stack = np.stack(gradients)
    if np.max(stack.max(axis=0) - stack.min(axis=0)) <= 1e-3:
        return [gradients[0].tobytes()], radius, False
    kept = []
    for g in gradients:
        if not any(np.max(np.abs(g - h)) <= 1e-12 for h in kept):
            kept.append(g)
    return [g.tobytes() for g in kept], radius, True


def _drawn_reads(fn, calls, centres, radius, count):
    """Check calls, the rows of each gradient_rows call that reads a ball,
    against the per-ball read: for each centre in order, one call of its
    count + 1 probes led by the centre, then, where reading that ball with
    fn raises, one call per probe.  Returns each centre's ball and the
    number of balls whose read raised."""
    balls, raised, at = [], 0, 0
    for x in centres:
        ball = calls[at]
        assert ball.shape == (count + 1, x.size) and ball[0].tobytes() == x.tobytes()
        balls.append(ball)
        at += 1
        try:
            _row_gradients(fn, ball, radius / 100.0)
        except ArithmeticError:
            alone = calls[at:at + count + 1]
            assert len(alone) == count + 1
            assert all(np.array_equal(c, p[None]) for c, p in zip(alone, ball))
            raised += 1
            at += count + 1
    assert at == len(calls)
    return balls, raised


def _scale_points(dim, seed, radius):
    """200 points of box(-1..1)^dim: random ones, ones on the kinks of
    abs(x1) and max(x2, x3), and five too near the boundary for a ball of
    the radius."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(-0.9, 0.9, size=(200, dim))
    points[:20, 0] = 0.0
    points[20:40, 2 % dim] = points[20:40, 1 % dim]
    points[40:45, 0] = 1.0 - radius / 2
    return points


# The rows of _scale_points with room for the ball: all but rows 40-44.
_ROOM = np.r_[0:40, 45:200]

_AT_SCALE = [
    ("abs(x1) + max(x2, x3)", 3, True),
    ("x1*x2 + exp(x3)*atan(x4) + x5^2/(2 + x1)", 5, False),
    # Probes below x2 = -0.5 raise: the joint row call raises and every
    # probe is read again alone.
    ("log(x2 + 0.5) + abs(x1)", 2, True),
]


def _at_scale(fn, plain, source, dim, kinks, radius):
    """The estimates at 200 points, made together, against each alone, and
    the points at which the estimate is the handle's gradient while the one
    alone, sampled, spreads past COHERENCE_SPREAD (steep smooth balls)."""
    region = parse_region("box(" + ", ".join(["-1..1"] * dim) + ")", dim)
    points = _scale_points(dim, dim, radius)
    if source.startswith("log"):
        points[45:60, 1] = -0.5 + radius * np.linspace(-0.5, 1.5, 15)
    seeds = list(range(1000, 1000 + len(points)))
    seen, steep = Counter(), []
    for est, x, seed in zip(_estimates(fn, region, points, radius, 2 * dim + 5, seeds),
                            points, seeds):
        want = _reference_outcome(plain, region, x, radius, 2 * dim + 5, seed)
        if isinstance(est, EstimationError):
            assert (type(est), str(est)) == want
            seen[type(est).__name__] += 1
            continue
        got = ([g.tobytes() for g in est.generators], est.radius, est.at_kink)
        if got != want and want[2]:
            assert got == ([plain.grad(x).tobytes()], radius, False)
            steep.append(x)
        else:
            assert got == want
        assert not any(g.flags.writeable for g in est.generators)
        seen[est.at_kink] += 1
    assert seen["InteriorRoomError"] == 5 and seen[False] > 100
    assert (seen[True] >= 20) == kinks
    assert (seen["EstimationError"] > 0) == source.startswith("log")
    return points, steep


@pytest.mark.parametrize("radius", [1e-5, 1e-8])
@pytest.mark.parametrize("source, dim, kinks", _AT_SCALE)
def test_many_point_estimates_at_scale_equal_one_at_a_time(source, dim, kinks, radius):
    # One call per ball with room, in point order; 46 of the log function's
    # balls reach below x2 = -0.5, and each is read again probe by probe.
    plain = function_from_expression(source, dim)
    fn, calls = _reads(replace(plain, expression=None))
    points, steep = _at_scale(fn, plain, source, dim, kinks, radius)
    assert steep == []
    room = points[_ROOM]
    _, raised = _drawn_reads(plain, calls, room, radius, 2 * dim + 5)
    assert raised == (46 if source.startswith("log") else 0)


@pytest.mark.parametrize("radius, proven, steep", [  # balls proven and steep, by dimension
    (1e-5, {3: 155, 5: 195, 2: 131}, {3: 0, 5: 0, 2: 23}),
    (1e-8, {3: 155, 5: 195, 2: 131}, {3: 0, 5: 0, 2: 5}),
])
@pytest.mark.parametrize("source, dim, kinks", _AT_SCALE)
def test_many_point_certified_estimates_at_scale_equal_one_at_a_time(
        source, dim, kinks, radius, proven, steep):
    # One call reads the centres of the proven balls, then one call each
    # the probes of the others (none for the smooth function), in point
    # order, a ball read again probe by probe right after its call where
    # that raises.  The 40 balls on kinks, and those that reach below
    # x2 = -0.5, are never proven; the proven ones just above it are steep,
    # and where their sampled gradients spread past 1e-3 they read the
    # gradient at x.
    plain = function_from_expression(source, dim)
    fn, calls = _reads(plain)
    points, steep_points = _at_scale(fn, plain, source, dim, kinks, radius)
    room = points[_ROOM]
    centres = {c.tobytes() for c in calls[0]}
    mine = np.array([x.tobytes() in centres for x in room])
    assert np.array_equal(calls[0], room[mine]) and mine.sum() == proven[dim]
    assert len(steep_points) == steep[dim]
    assert all(x.tobytes() in centres for x in steep_points)
    _, raised = _drawn_reads(plain, calls[1:], room[~mine], radius, 2 * dim + 5)
    assert raised == (46 if source.startswith("log") else 0)


@pytest.mark.parametrize("name, x", [
    ("fractional", [1.0, 0.0]),
    ("ramp", [0.0]),  # every probe's difference straddles or meets the kink
    ("paraboloid", [0.2, -0.1]),
])
def test_handle_without_gradient_central_differences_every_probe(name, x):
    # A handle given only f has no gradients: grad is None, grads flags
    # every row, and gradient sampling central-differences every probe, in
    # one values call.
    e = corpus_entry(name)
    reads = []

    def evaluate_rows(points):
        reads.append(len(points))
        return e.handle.evaluate_rows(points)

    n = e.handle.dimension
    plain = FunctionHandle("plain", n, evaluate_rows)
    uncounted = FunctionHandle("plain", n, e.handle.evaluate_rows)
    x = np.array(x)
    assert plain.grad(x) is None
    gradients, has = plain.grads(np.array(sample_region(e.region, 5, seed=1)))
    assert gradients.shape == (5, n) and not has.any()
    for seed in (0, 5):
        est = subdifferential(plain, e.region, x, radius=1e-5, count=2 * n + 5, seed=seed)
        want = _reference_outcome(uncounted, e.region, x, 1e-5, 2 * n + 5, seed)
        assert ([g.tobytes() for g in est.generators], est.radius, est.at_kink) == want
        assert est.at_kink == (name == "ramp")
    assert reads == [2 * n * (2 * n + 6)] * 2


def test_points_of_different_dimensions_are_named():
    fn = function_from_expression("x1 + x2", 2)
    with pytest.raises(ValueError, match=r"inhomogeneous shape"):
        subdifferential_rows(fn, BOX2, [[0.1, 0.2], [0.1, 0.2, 0.3]], 1e-5, 8, [0, 1])
    with pytest.raises(ValueError, match=r"one \(k, n\) array, got shape \(2,\)"):
        subdifferential_rows(fn, BOX2, [0.1, 0.2], 1e-5, 8, [0])


def test_seeds_of_another_length_than_the_points_are_named():
    # Before anything is read: a handle without an expression would draw
    # both balls, the expression's certifies both, and 3 seeds for 1 point
    # are as wrong as 1 for 2.
    reads = []
    cube = FunctionHandle("cube", 1, lambda p: reads.append(len(p)) or p[:, 0] ** 3)
    certified, calls = _reads(function_from_expression("x1^3", 1))
    for fn in (cube, certified):
        with pytest.raises(ValueError, match=r"one seed per point: 2 points, 1 seeds"):
            subdifferential_rows(fn, BOX1, [[0.1], [0.2]], 1e-5, 9, [1])
    with pytest.raises(ValueError, match=r"one seed per point: 1 points, 3 seeds"):
        subdifferential_rows(cube, BOX1, [[0.1]], 1e-5, 9, [1, 2, 3])
    assert reads == [] and calls == []
    # A function of a point gives the seed of each ball drawn.
    gens, _ = subdifferential_rows(cube, BOX1, [[0.1], [0.2]], 1e-5, 9, lambda x: 7)
    for i, x in enumerate([0.1, 0.2]):
        alone = subdifferential(cube, BOX1, [x], 1e-5, 9, seed=7)
        assert gens.estimate(i, 1e-5, False).generators[0].tobytes() == alone.generators[0].tobytes()


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
    # A corpus member's gradient is read over rows too, its kink flagged.
    gradients, kinks = corpus_entry("ramp").handle.gradient_rows(np.array([[-0.5], [0.0], [0.5]]))
    assert gradients[[0, 2], 0].tolist() == [0.0, 2.0] and kinks.tolist() == [False, True, False]


# -- certified balls against sampled ones ---------------------------------------

_S5 = "x1 + x2 + x3 + x4 + x5"
_T3 = "x1 + 2*x2 - x3"
_T4 = "x1 - x2 + 0.5*x3 + x4"
# Each function with the linear forms (a, c) on whose zero sets a.x + c = 0
# its kinks lie: the corpus, then the sources of the benchmark's
# kinks-analyze workload, each on box(-1..1)^n.
_CORPUS_KINKS = {"ramp": [([1.0], 0.0)], "twoslope": [([1.0], 0.0)]}
_CERTIFIED_CASES = [
    (e.handle.name, e.handle, e.region, _CORPUS_KINKS.get(e.handle.name, [])) for e in corpus()] + [
    (source, function_from_expression(source, n),
     parse_region("box(" + ", ".join(["-1..1"] * n) + ")", n), forms)
    for source, n, forms in [
        ("max(x1, x2)", 2, [([1.0, -1.0], 0.0)]),
        (f"{_T3} + max({_T3}, 0)", 3, [([1.0, 2.0, -1.0], 0.0)]),
        ("min(max(x1, x2), 0.5)", 2, [([1.0, -1.0], 0.0), ([1.0, 0.0], -0.5), ([0.0, 1.0], -0.5)]),
        (" + ".join(f"abs(x{i})" for i in range(1, 6)), 5,
         [(list(np.eye(5)[i]), 0.0) for i in range(5)]),
        (f"{_T4} + abs({_T4})", 4, [([1.0, -1.0, 0.5, 1.0], 0.0)]),
        (f"min({_S5}, 3*({_S5}))", 5, [([1.0] * 5, 0.0)]),
    ]]


def _certified_points(region, forms, radius, seed):
    """Interior points of the region: random ones, ones within 1e-6 of each
    kink form's zero set (on it too), and ones at a few radii from the face
    x1 = lower bound (for fractional, x1 = 0.05), some without room."""
    rng = np.random.default_rng(seed)
    base = np.array(sample_region(region, 40, seed=seed))
    points = [base]
    offsets = np.array([0.0, 1e-9, -1e-8, 1e-7, -3e-7, 5e-7, -1e-6, 1e-6])
    for a, c in forms:
        a = np.asarray(a)
        picked = base[rng.choice(len(base), len(offsets), replace=False)]
        shift = (offsets - (picked @ a + c)) / (a @ a)
        points.append(picked + shift[:, None] * a)
    face = 0.05 if region.constraints else region.lower[0]
    near = base[:6].copy()
    near[:, 0] = face + radius * np.array([0.5, 1.0, 1.5, 3.0, 10.0, 1e3])
    points.append(near)
    points = np.concatenate(points)
    return points[region.interior_slack(points) >= 0.0]


def _reads(fn):
    """fn, keeping the rows of every gradient_rows call."""
    calls = []

    def gradient_rows(points):
        calls.append(np.array(points))
        return fn.gradient_rows(points)

    return replace(fn, gradient_rows=gradient_rows), calls


@pytest.mark.parametrize("radius", [1e-5, 1e-8])
@pytest.mark.parametrize("name, fn, region, forms", _CERTIFIED_CASES,
                         ids=[c[0] for c in _CERTIFIED_CASES])
def _row_outcomes(gens, kinks):
    """Each row of Generators as its generators' bytes and kink flag, or its
    failure's type and message."""
    return [(type(gens.failed[i]), str(gens.failed[i])) if i in gens.failed else
            ([g.tobytes() for g in gens.g[gens.start[i]:gens.start[i] + gens.count[i]]], kink)
            for i, kink in enumerate(kinks.tolist())]


# The balls of _certified_points, by (function, radius), that are proven
# smooth while their sampled gradients spread past 1e-3: six of
# fractional's, five of them within 0.01 of its face x1 = 0.05.
_STEEP_BALLS = {("fractional", 1e-5): 6}


@pytest.mark.parametrize("radius", [1e-5, 1e-8])
@pytest.mark.parametrize("name, fn, region, forms", _CERTIFIED_CASES,
                         ids=[c[0] for c in _CERTIFIED_CASES])
def test_certified_balls_are_the_sampled_estimate_bit_for_bit(name, fn, region, forms, radius):
    # With the handle's expression, a ball proven smooth is the gradient at
    # x; without it every ball is sampled.  Where sampling finds a coherent
    # spread, fails or flags a kink that is there, the two agree bit for
    # bit; a steep proven ball that sampling reads as a kink is the
    # handle's gradient at x.  The proven balls read no probe: after one
    # call at their centres, the calls made are the sampled path's less
    # those of every proven ball.
    points = _certified_points(region, forms, radius, seed=len(name))
    seeds = [7 * i + 1 for i in range(len(points))]
    count = 2 * fn.dimension + 5
    proven, proven_calls = _reads(fn)
    sampled, sampled_calls = _reads(replace(fn, expression=None))
    got, got_kink = subdifferential_rows(proven, region, points, radius, count, seeds)
    want, want_kink = subdifferential_rows(sampled, region, points, radius, count, seeds)

    assert len(points) // 2 <= len(proven_calls[0]) <= len(points)  # the certificate fires
    centres = {c.tobytes() for c in proven_calls[0]}
    assert not any(k for x, k in zip(points, got_kink.tolist()) if x.tobytes() in centres)
    steep = 0
    for x, g, w in zip(points, _row_outcomes(got, got_kink), _row_outcomes(want, want_kink)):
        if g != w:
            assert x.tobytes() in centres and w[1] and len(w[0]) > 1
            assert g == ([fn.grad(x).tobytes()], False)
            steep += 1
    assert steep == _STEEP_BALLS.get((name, radius), 0)
    room = points[region.interior_slack(points) >= radius]
    mine = np.array([x.tobytes() in centres for x in room], dtype=bool)
    assert np.array_equal(proven_calls[0], room[mine])
    balls, _ = _drawn_reads(fn, sampled_calls, room, radius, count)
    drawn, _ = _drawn_reads(fn, proven_calls[1:], room[~mine], radius, count)
    assert all(np.array_equal(a, b) for a, b in zip(drawn, np.array(balls)[~mine]))
