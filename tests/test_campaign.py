import hashlib
import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from gencvx import (
    Candidate,
    SamplingPlan,
    Witness,
    check_gradient_kernel,
    check_implication_lattice,
    classify,
    corpus,
    corpus_entry,
    refine_counterexample,
    replay_witness,
)
from gencvx import campaign
from gencvx.campaign import (
    _BOTH, _PAIR, _SWEEP, HOLDS, MAX_REFINED_CANDIDATES, MAX_WITNESSES, NEAR_MISS_CANDIDATES,
    REFUTED, _PREDICATES, _REFINE_STEPS, _check, _classify_property, _Context, _near_misses,
    _orientations, _Predicate, _refine_together, _runs, _witness_from_check,
)
from gencvx.checks import INCONCLUSIVE, check_rows, descends
from gencvx.expr import EvalError
from gencvx.nonsmooth import EstimationError, InteriorRoomError, subdifferential
from gencvx.functions import PROPERTIES, SMOOTH, FunctionHandle, function_from_expression
from gencvx.geometry import RegionTooThinError, parse_region, segment_point

PLAN = SamplingPlan(seed=42)
FAST = SamplingPlan(pair_count=60, seed=42)


def _verdict_map(verdicts):
    return {v.property: v.verdict for v in verdicts}


def _row_samples(ctx, prop):
    """The property's sampled evidence walked row by row: for each sampled
    pair in turn, every (outcome, check, predicate, negated) its probes
    place on it, in probe order, with a Check for each failing row (else
    None); None for a pair on which an estimate failed."""
    runs, broken = _runs(ctx, prop, *ctx.pairs)
    for i in range(len(broken)):
        if broken[i]:
            yield None
            continue
        samples = []
        for run in runs:
            for r in np.flatnonzero(run.pair == i):
                outcome = run.rows.outcome[r]
                check = run.rows.check(r, run.xs[r], run.ys[r]) if outcome == "fail" else None
                samples.append((outcome, check, run.predicate, run.negated))
        yield samples


def test_fractional_all_properties_hold():
    e = corpus_entry("fractional")
    verdicts = classify(e.handle, e.region, None, PLAN)
    assert all(v.verdict == HOLDS for v in verdicts)
    assert all(v.passes >= 3 for v in verdicts)


def test_cubic_pseudoconvex_refuted_near_origin():
    e = corpus_entry("cubic")
    (v,) = classify(e.handle, e.region, ("pseudoconvex",), PLAN)
    assert v.verdict == REFUTED
    assert v.witnesses
    w = v.witnesses[0]
    assert abs(w.x[0]) <= 1e-3
    assert w.residual > w.threshold


def test_cubic_semistrict_quasilinear_holds():
    e = corpus_entry("cubic")
    (v,) = classify(e.handle, e.region, ("semistrictly-quasilinear",), PLAN)
    assert v.verdict == HOLDS


def test_ramp_semistrict_quasiconcave_refuted_with_flat_witness():
    e = corpus_entry("ramp")
    (v,) = classify(e.handle, e.region, ("semistrictly-quasiconcave",), FAST)
    assert v.verdict == REFUTED
    w = v.witnesses[0]
    # The violation pins an interior value against an endpoint of the flat
    # piece: replay must reproduce it bit for bit.
    res = replay_witness(e.handle, e.region, w, FAST)
    assert res.outcome == "fail"
    assert abs(res.residual - w.residual) <= 1e-12


def test_witness_replay_all_refuted_properties():
    # Every corpus member, so that every predicate a witness can name is
    # replayed through the same check that sampled or refined it.
    predicates = set()
    for e in corpus():
        for v in classify(e.handle, e.region, None, FAST):
            for w in v.witnesses:
                res = replay_witness(e.handle, e.region, w, FAST)
                assert res.outcome == "fail"
                assert res.residual == w.residual
                predicates.add(w.predicate)
    assert {"pseudoconvex-pair", "quasiconvex-segment", "gradient-kernel"} <= predicates


def test_gradient_kernel_without_gradient_replays_and_refines_as_sampled():
    # A smooth handle with no gradient at x: sampling judges its kernel pair
    # by the subdifferential, and so must replay and refinement.
    e = corpus_entry("cubic")
    fn = FunctionHandle(
        name="cubic-no-gradient", dimension=1, evaluate_rows=e.handle.evaluate_rows,
        smoothness=SMOOTH,
    )
    x, y = np.array([0.0]), np.array([-0.9])
    ctx = _Context(fn, e.region, FAST)
    runs, broken = _runs(ctx, "pseudolinear", x[None], y[None])
    (run,) = [run for run in runs if run.predicate == "gradient-kernel"]
    check = run.check(0)
    assert not broken.any()
    assert np.array_equal(check.x, x) and np.array_equal(check.y, y)
    assert check.outcome == "fail"
    assert check.residual == pytest.approx(0.729, rel=1e-12)
    witness = Witness(
        property="pseudolinear", predicate="gradient-kernel", negated=False,
        x=x, y=y, lam=None, generator=check.generator, values={},
        relation=check.detail, residual=check.residual, threshold=check.threshold,
    )
    res = replay_witness(fn, e.region, witness, FAST)
    assert (res.outcome, res.residual) == (check.outcome, check.residual)
    cand = Candidate("gradient-kernel", False, x, y)
    still = refine_counterexample(fn, e.region, cand, rounds=0, plan=FAST)
    assert still.witness.residual == check.residual
    assert still.scores == (check.residual,)
    moved = refine_counterexample(fn, e.region, cand, rounds=3, plan=FAST)
    assert moved.scores[0] == check.residual
    assert moved.witness.residual == moved.scores[-1] >= check.residual


def test_soft_candidates_replay_to_their_checks():
    # Kernel conditions fail at a projection of the sampled pair, and the
    # pair checks also in its reversed orientation: a near-tie's refinement
    # seed must be the pair and lambda the check failed at.
    e = corpus_entry("paraboloid")
    ctx = _Context(e.handle, e.region, SamplingPlan(seed=0))
    xs, ys = ctx.pairs
    runs, broken = _runs(ctx, "pseudolinear", xs, ys)
    soft = elsewhere = 0
    for run in runs:
        for r in np.flatnonzero(~broken[run.pair] & (run.rows.outcome == "fail")):
            check, cand = run.check(r), run.candidate(r)
            if check.credible:
                continue
            assert (cand.predicate, cand.negated) == (run.predicate, run.negated)
            assert (cand.x.tolist(), cand.y.tolist(), cand.lam) == (
                check.x.tolist(), check.y.tolist(), check.lam)
            replayed = _check(ctx, cand)
            assert (replayed.outcome, replayed.residual) == (check.outcome, check.residual)
            soft += 1
            i = run.pair[r]
            elsewhere += not (np.array_equal(check.x, xs[i]) and np.array_equal(check.y, ys[i]))
    assert soft >= 3 and elsewhere >= 1


@pytest.mark.parametrize("predicate, x, y", [
    ("pseudoconvex-pair", [0.0], [1.0 + 1e-9]),
    ("quasiconvex-segment", [1.0 + 1e-9], [-0.5]),
    ("gradient-kernel", [0.0], [1.2]),
])
def test_refinement_never_moves_a_seed_outside_the_region(predicate, x, y):
    # One step would bring the first two seeds inside and raise their
    # margin; the last fails credibly where it is.  Each is only scored.
    e = corpus_entry("cubic")
    x, y = np.array(x), np.array(y)
    cand = Candidate(predicate, False, x, y)
    seed = refine_counterexample(e.handle, e.region, cand, rounds=0, plan=FAST)
    result = refine_counterexample(e.handle, e.region, cand, rounds=3, plan=FAST)
    assert len(result.scores) == 1 and result.scores == seed.scores
    as_dict = [None if r.witness is None else r.witness.to_dict() for r in (result, seed)]
    assert as_dict[0] == as_dict[1]
    if predicate == "gradient-kernel":
        check = check_gradient_kernel(e.handle, x, y, e.handle.grad(x))
        assert result.witness.residual == check.residual == result.scores[0]
        assert np.array_equal(result.witness.y, y)


def test_classification_deterministic():
    e = corpus_entry("ramp")
    a = classify(e.handle, e.region, ("pseudolinear", "quasiconvex"), FAST)
    b = classify(e.handle, e.region, ("pseudolinear", "quasiconvex"), FAST)
    da = json.dumps([v.to_dict() for v in a], sort_keys=True)
    db = json.dumps([v.to_dict() for v in b], sort_keys=True)
    assert da == db


@pytest.mark.parametrize("name", ["arctan", "paraboloid"])
def test_each_segment_grid_cell_is_evaluated_at_most_once(name):
    # quasilinear probes the grid on both f and -f, semistrictly-quasilinear
    # runs the interlacing condition and the b(lambda) sweep on it, and the
    # near-miss scans revisit every pair in both orientations: all of them
    # read one segment grid, which evaluates each cell at most once.  Two
    # cells can name one point (lambda 0 or 1 names an endpoint, and the two
    # orientations of a pair can meet bit for bit), so the reads are matched
    # against the cells read, not against the distinct points.
    e = corpus_entry(name)
    rows = []

    def counted_rows(points):
        rows.extend(p.tobytes() for p in points)
        return e.handle.evaluate_rows(points)

    fn = replace(e.handle, evaluate_rows=counted_rows)
    plan = SamplingPlan(pair_count=20, lambda_grid=9, seed=3)
    ctx = _Context(fn, e.region, plan)
    props = ("quasilinear", "semistrictly-quasilinear")
    for prop in props:
        _runs(ctx, prop, *ctx.pairs)
        _near_misses(ctx, prop)
    segments = ctx.segments(*ctx.pairs)
    o, c = np.divmod(np.flatnonzero(segments.known), len(segments.lams))
    cells = segment_point(segments.a[o], segments.b[o], segments.lams[c])
    starts = np.concatenate(ctx.pairs)
    assert Counter(rows) == Counter(p.tobytes() for p in np.concatenate([starts, cells]))
    got = classify(fn, e.region, props, plan)
    assert [v.to_dict() for v in got] == [
        v.to_dict() for v in classify(e.handle, e.region, props, plan)]


@pytest.mark.parametrize("bad, error", [
    (FunctionHandle("inf-at-half", 1, lambda p: np.where(p[:, 0] == 0.5, np.inf, p[:, 0])),
     ArithmeticError),
    (function_from_expression("log(x1 - 0.5)", 1), EvalError),
])
def test_context_reads_never_hide_a_failure(bad, error):
    ctx = _Context(bad, corpus_entry("arctan").region, FAST)
    for handle in (ctx.fn, ctx.neg_fn, ctx.fn, ctx.neg_fn):
        with pytest.raises(error):
            handle.value([0.5])
    # A row read holding the failing point raises, on every read.
    for handle in (ctx.fn, ctx.neg_fn, ctx.fn, ctx.neg_fn):
        with pytest.raises(error):
            handle.values([[0.75], [0.5], [1.25]])
    values = ctx.fn.values([[1.25], [0.75]])
    assert (-ctx.neg_fn.values([[1.25], [0.75]])).tolist() == values.tolist()
    assert ctx.fn.value([0.75]) == values[1]
    assert ctx.fn.value([1.0]) == -ctx.neg_fn.value([1.0])


_SEGMENT_PLACEMENTS = {
    "quasiconvex-segment": (_PAIR, _BOTH, _SWEEP),
    "semistrict-quasiconvex-segment": (_PAIR, _BOTH, _SWEEP),
    "interlacing-segment": (_PAIR, _BOTH, _SWEEP),
    "interpolation-strict-bounds": (_SWEEP,),
    "interpolation-weak-bounds": (_SWEEP,),
}


def _assert_same_rows(got, want):
    assert got._fields == want._fields
    for field, a, b in zip(got._fields, got, want):
        if isinstance(b, np.ndarray):
            assert a.shape == b.shape, field
            if b.dtype == object:
                assert a.tolist() == b.tolist(), field
            else:
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
        else:
            assert a == b, field


@pytest.mark.parametrize("name", ["ramp", "twoslope", "paraboloid", "fractional"])
def test_segment_grid_rows_equal_check_rows_on_the_placed_points(name):
    # Each value-only probe placement, and the near-miss scan (every pair in
    # both orientations over the grid, as _BOTH), on f and on -f, read from
    # one grid as the probes of a classify do: each field of its Rows equals
    # check_rows on the placed points bit for bit, whichever cells earlier
    # placements filled.
    e = corpus_entry(name)
    ctx = _Context(e.handle, e.region, SamplingPlan(pair_count=30, lambda_grid=9, seed=5))
    segments = ctx.segments(*ctx.pairs)
    fresh = _Context(e.handle, e.region, ctx.plan)
    for predicate, placements in _SEGMENT_PLACEMENTS.items():
        for placement in placements:
            orient, col = _orientations(ctx, placement, len(ctx.pairs[0]))
            lams = ctx.lam_grid if col is None else np.array(ctx.lam_grid)[col][:, None]
            a, b = segments.a[orient], segments.b[orient]
            for negated in (False, True):
                got = segments.rows(predicate, negated, orient, col)
                want = check_rows(predicate, fresh.handle(negated), a, b, lams)
                _assert_same_rows(got, want)
    assert segments.known.all()  # the quasiconvex condition on _BOTH reads every cell


@pytest.mark.parametrize("prop", [
    "quasiconvex", "quasiconcave", "quasilinear", "semistrictly-quasiconvex",
    "semistrictly-quasiconcave", "semistrictly-quasilinear",
])
def test_near_misses_from_the_grid_equal_those_from_check_rows(prop):
    e = corpus_entry("paraboloid")
    ctx = _Context(e.handle, e.region, SamplingPlan(pair_count=30, seed=5))
    xs, ys = campaign._both(*ctx.pairs)
    want = []
    for probe in campaign._PROBES[prop]:
        if probe.near_miss:
            for negated in probe.sides:
                name = probe.predicate.name
                margin = check_rows(name, ctx.handle(negated), xs, ys, ctx.lam_grid).margin
                for i in np.argsort(-margin, kind="stable")[:NEAR_MISS_CANDIDATES]:
                    want.append((name, negated, xs[i].tolist(), ys[i].tolist(), None))
    assert [_as_tuple(c) for c in _near_misses(ctx, prop)] == want


def test_semistrict_classify_reads_no_interior_point_of_a_rising_orientation():
    # The semistrict condition reads f inside a segment only where it
    # descends: at no interior grid point of an orientation of a sampled
    # pair that does not, on f or on -f.
    e = corpus_entry("paraboloid")
    read = set()

    def evaluate_rows(points):
        read.update(p.tobytes() for p in points)
        return e.handle.evaluate_rows(points)

    plan = SamplingPlan(pair_count=40, lambda_grid=9, seed=11)
    fn = replace(e.handle, evaluate_rows=evaluate_rows)
    for prop, sign in (("semistrictly-quasiconvex", 1.0), ("semistrictly-quasiconcave", -1.0)):
        read.clear()
        classify(fn, e.region, (prop,), plan)
        ctx = _Context(e.handle, e.region, plan)
        a, b = campaign._both(*ctx.pairs)
        fa, fb = sign * e.handle.values(a), sign * e.handle.values(b)
        interior = np.array(ctx.interior_lams)
        inside = segment_point(a[:, None], b[:, None], interior[None, :])
        down = descends(fa, fb)
        wanted = {p.tobytes() for p in inside[down].reshape(-1, a.shape[1])}
        # A point can lie on both orientations of a pair (often at lambda
        # 1/2); it is read for the one that descends.
        unread = {p.tobytes() for p in inside[~down].reshape(-1, a.shape[1])} - wanted
        assert unread and not unread & read, prop
        assert wanted <= read, prop


def test_witness_serialization_round_trip():
    e = corpus_entry("cubic")
    (v,) = classify(e.handle, e.region, ("pseudoconvex",), FAST)
    w = v.witnesses[0]
    back = Witness.from_dict(json.loads(json.dumps(w.to_dict())))
    assert np.array_equal(back.x, w.x)
    assert np.array_equal(back.y, w.y)
    assert back.residual == w.residual
    assert back.predicate == w.predicate


def test_witness_generators_own_their_data():
    # A witness's generator is copied out of its kernel call's (k, n)
    # generator array, so a kept report does not hold that whole array.
    e = corpus_entry("paraboloid")
    (v,) = classify(e.handle, e.region, ("pseudoconcave",), SamplingPlan(seed=0))
    gens = [w.generator for w in v.witnesses if w.generator is not None]
    assert gens and all(g.base is None and g.flags.owndata for g in gens)


def test_refinement_monotone_and_reaches_origin():
    e = corpus_entry("cubic")
    cand = Candidate("pseudoconvex-pair", False, np.array([0.1]), np.array([-0.9]))
    result = refine_counterexample(e.handle, e.region, cand, rounds=3, plan=FAST)
    assert result.witness is not None
    assert abs(result.witness.x[0]) <= 1e-3
    scores = result.scores
    assert all(b >= a for a, b in zip(scores, scores[1:]))


def test_refinement_discards_on_affine():
    e = corpus_entry("affine")
    cand = Candidate(
        "pseudoconvex-pair", False, np.array([0.5, 0.1]), np.array([-0.5, -0.1])
    )
    result = refine_counterexample(e.handle, e.region, cand, rounds=3, plan=FAST)
    assert result.witness is None


def test_kernel_refinement_for_gradient_kernel():
    e = corpus_entry("cubic")
    cand = Candidate("gradient-kernel", False, np.array([0.1]), np.array([-0.9]))
    result = refine_counterexample(e.handle, e.region, cand, rounds=3, plan=FAST)
    assert result.witness is not None
    assert abs(result.witness.x[0]) <= 1e-3
    assert result.witness.residual > result.witness.threshold


def test_pair_sampling_includes_axis_stress():
    e = corpus_entry("fractional")
    ctx = _Context(e.handle, e.region, FAST)
    xs, ys = ctx.pairs
    assert xs.shape == ys.shape == (FAST.pair_count, e.handle.dimension)
    assert not (xs.flags.writeable or ys.flags.writeable)
    stressed = 0
    for i, (x, y) in enumerate(zip(xs, ys)):
        if i % 10 == 9:
            # Nearly axis-collinear: the off-axis displacement is tiny.
            d = np.abs(y - x)
            if np.min(d) < 0.2 * np.max(d):
                stressed += 1
    assert stressed >= FAST.pair_count // 10 - 2


# -- pair sampling in blocks against the one-row reference --------------------


def _reference_pairs(ctx, max_rejections=200_000):
    """The pairs as the one-row sampler drew them: one uniform row and one
    Region.contains per draw, a fresh budget of max_rejections draws per
    point, the axis partner of every tenth pair from the draws after x.
    Also counts the axis partners that fell back to a fresh draw and the
    most draws one point took."""
    region, n = ctx.region, ctx.fn.dimension
    stats = Counter()

    def draw_point(rng):
        for t in range(max_rejections):
            p = rng.uniform(region.lower, region.upper)
            if region.contains(p, margin=region.margin):
                stats["most_draws"] = max(stats["most_draws"], t + 1)
                return p
        raise RegionTooThinError("pair sampling starved; region too thin")

    def axis_partner(rng, x, axis):
        span = region.upper - region.lower
        for _ in range(200):
            y = x.copy()
            y[axis] += rng.uniform(-span[axis], span[axis])
            noise = rng.standard_normal(x.size) * 1e-3 * span
            noise[axis] = 0.0
            y = y + noise
            if region.contains(y, margin=region.margin) and not np.array_equal(y, x):
                return y
        stats["fallbacks"] += 1
        return draw_point(rng)

    xs, ys = [], []
    for i in range(ctx.plan.pair_count):
        rng = np.random.default_rng(
            np.random.SeedSequence((ctx.plan.seed & 0xFFFFFFFFFFFFFFFF, 0x9A12, i)))
        x = draw_point(rng)
        if i % 10 == 9:
            y = axis_partner(rng, x, (i // 10) % n)
        else:
            y = draw_point(rng)
            while np.array_equal(x, y):
                y = draw_point(rng)
        xs.append(x)
        ys.append(y)
    return np.array(xs), np.array(ys), stats


def _assert_reference_pairs(fn, region, seed):
    ctx = _Context(fn, region, SamplingPlan(seed=seed))
    want_x, want_y, stats = _reference_pairs(ctx)
    got_x, got_y = ctx.pairs
    assert got_x.tobytes() == want_x.tobytes() and got_y.tobytes() == want_y.tobytes()
    assert got_x.shape == got_y.shape == (200, fn.dimension)
    return stats


@pytest.mark.parametrize("seed", [0, 7, 42])
@pytest.mark.parametrize("name", [e.handle.name for e in corpus()])
def test_block_pairs_equal_one_row_draws_on_the_corpus(name, seed):
    e = corpus_entry(name)
    _assert_reference_pairs(e.handle, e.region, seed)


_KINK_SOURCES = [
    ("max(x1, x2)", 2),
    ("x1 + 2*x2 - x3 + max(x1 + 2*x2 - x3, 0)", 3),
    ("min(max(x1, x2), 0.5)", 2),
    ("abs(x1) + abs(x2) + abs(x3) + abs(x4) + abs(x5)", 5),
    ("x1 - x2 + 0.5*x3 + x4 + abs(x1 - x2 + 0.5*x3 + x4)", 4),
    ("min(x1 + x2 + x3 + x4 + x5, 3*(x1 + x2 + x3 + x4 + x5))", 5),
]


@pytest.mark.parametrize("source, dim", _KINK_SOURCES)
def test_block_pairs_equal_one_row_draws_on_kink_functions(source, dim):
    region = parse_region("box(" + ", ".join(["-1..1"] * dim) + ")", dim)
    for seed in (13, 29):
        _assert_reference_pairs(function_from_expression(source, dim), region, seed)


@pytest.mark.parametrize("text, most_draws, fallbacks", [
    # About 9% of the box is accepted: points take up to several blocks.
    ("x1 + x2 > 1.1, box(-1..1, -1..1), margin(0.01)", 50, 0),
    # A thin diagonal strip (1.5% accepted): axis partners leave it, and
    # some fall back to a fresh draw.
    ("x1 - x2 < 0.02, x2 - x1 < 0.02, box(-1..1, -1..1), margin(0.005)", 400, 4),
])
def test_block_pairs_equal_one_row_draws_in_thin_regions(text, most_draws, fallbacks):
    fn = function_from_expression("x1*x2 + x1", 2)
    for seed in (0, 7, 42):
        stats = _assert_reference_pairs(fn, parse_region(text, 2), seed)
        assert stats["most_draws"] > most_draws and stats["fallbacks"] >= fallbacks


@pytest.mark.parametrize("limit, starves", [
    (1, True), (9, True), (64, True), (661, True), (662, False), (700, False),
])
def test_block_pairs_starve_where_one_row_draws_did(limit, starves, monkeypatch):
    # With the rejection budget cut, sampling the strip raises exactly where
    # the one-row sampler ran out (at seed 7 one point takes 662 draws),
    # and otherwise draws its pairs.
    monkeypatch.setattr(campaign, "_MAX_REJECTIONS", limit)
    fn = function_from_expression("x1*x2 + x1", 2)
    region = parse_region("x1 - x2 < 0.02, x2 - x1 < 0.02, box(-1..1, -1..1), margin(0.005)", 2)
    ctx = _Context(fn, region, SamplingPlan(seed=7))
    if starves:
        with pytest.raises(RegionTooThinError):
            _reference_pairs(ctx, limit)
        with pytest.raises(RegionTooThinError, match="pair sampling starved"):
            ctx.pairs
    else:
        want = _reference_pairs(ctx, limit)[:2]
        assert [a.tobytes() for a in ctx.pairs] == [a.tobytes() for a in want]


@pytest.mark.parametrize("limit, starves", [
    (1, True), (13, True), (14, False), (31, False), (32, False), (33, False),
])
def test_pair_heads_starve_where_one_row_draws_did(limit, starves, monkeypatch):
    # Half of this region is accepted, so nearly every pair is found in the
    # first 32 draws of its stream, which are made at once.  A limit below
    # that count must still starve where the one-row sampler starved: at
    # seed 0 one point takes 14 draws.
    monkeypatch.setattr(campaign, "_MAX_REJECTIONS", limit)
    fn = function_from_expression("x1*x2 + x1", 2)
    region = parse_region("x1 + x2 > 0, box(-1..1, -1..1)", 2)
    ctx = _Context(fn, region, SamplingPlan(seed=0))
    if starves:
        with pytest.raises(RegionTooThinError):
            _reference_pairs(ctx, limit)
        with pytest.raises(RegionTooThinError, match="pair sampling starved"):
            ctx.pairs
    else:
        want = _reference_pairs(ctx, limit)[:2]
        assert [a.tobytes() for a in ctx.pairs] == [a.tobytes() for a in want]


def test_numpy_streams_draw_rows_as_the_block_sampler_assumes():
    # Pair sampling draws B rows in one uniform call, and starts an axis
    # partner's draws by advancing a rebuilt stream past x: both must give
    # what one-row draws give.
    def stream():
        return np.random.default_rng(np.random.SeedSequence((42, 0x9A12, 9)))

    lower, upper = np.array([-1.0, 0.5, -3.0]), np.array([1.0, 2.0, -2.5])
    one_row = stream()
    rows = np.array([one_row.uniform(lower, upper) for _ in range(11)])
    then = one_row.standard_normal(5), one_row.uniform(-1.0, 1.0)
    block = stream()
    assert block.uniform(lower, upper, size=(8, 3)).tobytes() == rows[:8].tobytes()
    assert block.uniform(lower, upper, size=(8, 3))[:3].tobytes() == rows[8:].tobytes()
    advanced = stream()
    advanced.bit_generator.advance(11 * 3)
    assert advanced.standard_normal(5).tobytes() == then[0].tobytes()
    assert advanced.uniform(-1.0, 1.0) == then[1]


def test_an_estimate_depends_on_its_point_alone():
    # Estimate streams are seeded from the point's bytes only: under two
    # plan seeds a point gets bit-equal estimates, at kinks (re-checked at
    # radius/1000) and off them.
    fn = function_from_expression("abs(x1) + max(x2, x3)", 3)
    region = parse_region("box(-1..1, -1..1, -1..1)", 3)
    points = np.array([[0.0, 0.2, 0.3], [0.1, 0.4, 0.4], [0.3, -0.2, 0.5], [0.0, 0.1, 0.1]])
    got = []
    for seed in (0, 12345):
        ctx = _Context(fn, region, SamplingPlan(seed=seed))
        ctx.generators(points)
        got.append([(tuple(g.tobytes() for g in e.generators), e.radius, e.at_kink)
                    for e in ctx.estimates().values()])
    assert got[0] == got[1]
    assert [e[2] for e in got[0]] == [True, True, False, True]


def test_lattice_empty_on_healthy_verdicts():
    healthy = {
        "f": {
            "pseudoconvex": HOLDS,
            "pseudoconcave": HOLDS,
            "pseudolinear": HOLDS,
            "quasiconvex": HOLDS,
            "quasiconcave": HOLDS,
            "quasilinear": HOLDS,
            "semistrictly-quasiconvex": HOLDS,
            "semistrictly-quasiconcave": HOLDS,
            "semistrictly-quasilinear": HOLDS,
        }
    }
    assert check_implication_lattice(healthy) == []


def test_lattice_flags_injected_violation():
    corrupted = {"f": {"pseudoconvex": HOLDS, "quasiconvex": REFUTED}}
    violations = check_implication_lattice(corrupted)
    assert len(violations) == 1
    assert violations[0].antecedent == "pseudoconvex"
    assert violations[0].consequent == "quasiconvex"


def test_lattice_ignores_non_edges():
    # pseudoconvex holding while quasiconcavity is refuted is not an
    # implication of the lattice (the paraboloid case).
    fine = {"f": {"pseudoconvex": HOLDS, "quasiconcave": REFUTED}}
    assert check_implication_lattice(fine) == []


def test_estimator_failures_never_refute():
    # A handle whose gradient breaks away from a thin slice still classifies;
    # failures land in the inconclusive tally.
    e = corpus_entry("arctan")

    calls = {"n": 0}
    from gencvx.functions import FunctionHandle

    def flaky_rows(points):
        calls["n"] += 1
        raise ArithmeticError("no gradient here")

    flaky = FunctionHandle(
        name="flaky", dimension=1,
        evaluate_rows=e.handle.evaluate_rows, gradient_rows=flaky_rows,
        smoothness="locally-lipschitz",
    )
    plan = SamplingPlan(pair_count=10, seed=1)
    (v,) = classify(flaky, e.region, ("pseudoconvex",), plan)
    # Every probe's gradient raises, so every estimate fails, and nothing
    # may be refuted.
    assert v.verdict != REFUTED
    assert calls["n"] > 0


# sha256 of json.dumps([v.to_dict() for v in verdicts], sort_keys=True) for DSL
# handles built without an exact gradient, so that every gradient they read
# comes from forward-mode differentiation over rows (expr.compile_dual_rows).
# The corpus members of criterion 9 carry exact gradients and never reach it.
_S5 = "x1 + x2 + x3 + x4 + x5"
AD_REPORT_SHA256 = {
    ("max(x1, x2)", 2, 0): "68486462ad74fe20e74fa82dc29bd89d31e12b1aac4f6c83ff852d9be0da8665",
    ("max(x1, x2)", 2, 3): "19cc6b2ac29b16168b05018851642ac4d57e8f38905b7247a743fe49f04fb5c9",
    ("abs(x1) + abs(x2) + abs(x3) + abs(x4) + abs(x5)", 5, 0):
        "86bf131b384d3f267ed31c9d83b5816a823ead67cca204517147febd201945c2",
    ("abs(x1) + abs(x2) + abs(x3) + abs(x4) + abs(x5)", 5, 3):
        "7fe0c9ef059fa64f305902e566c8fa48e9e5d60be154ca5cc2f08c856b2e9228",
    (f"min({_S5}, 3*({_S5}))", 5, 0):
        "0e40df5bf20dae4e60e931c8bb9c7853b75bf51f8cad7a43afc60270e6d33008",
    (f"min({_S5}, 3*({_S5}))", 5, 3):
        "95a6ece08b7f231bc79ff95d76bd750bfe6d5d39adf69c7e1efb83a197aee0a5",
    ("x1 + abs(x1)", 1, 0): "274429488e63c50d4f42278bc10e55b93624358c548153e55073d9fbc7bd7e3b",
    ("x1 + abs(x1)", 1, 3): "5e52ed769bbec7851fc93e0eaf262c383a35dd1094a128c1879a255dcb34a89d",
}


def test_reports_pinned_on_forward_mode_gradients():
    digests = {}
    for source, n, seed in AD_REPORT_SHA256:
        fn = function_from_expression(source, n)
        region = parse_region("box(" + ", ".join(["-1..1"] * n) + ")", n)
        verdicts = classify(fn, region, None, SamplingPlan(pair_count=60, seed=seed))
        text = json.dumps([v.to_dict() for v in verdicts], sort_keys=True)
        digests[source, n, seed] = hashlib.sha256(text.encode()).hexdigest()
    assert digests == AD_REPORT_SHA256


# The gradient channel raises at sqrt(0), so on x1 <= 0 every estimate fails,
# while f itself is defined everywhere.
_HALF_FAILING = "sqrt(max(x1, 0)) + abs(x2)"
_BOX2 = parse_region("box(-1..1, -1..1)", 2)


def _one_row_per_call(fn):
    """fn, its gradient rows read one row per call."""

    def gradient_rows(points):
        read = [fn.gradient_rows(p[None]) for p in points]
        gradients = np.array([g[0] for g, _ in read]).reshape(points.shape)
        return gradients, np.array([k[0] for _, k in read], dtype=bool)

    return replace(fn, gradient_rows=gradient_rows)


def test_prefetched_estimates_fail_only_when_read():
    fn = function_from_expression(_HALF_FAILING, 2)
    ctx = _Context(fn, _BOX2, FAST)
    good, bad = np.array([0.5, 0.2]), np.array([-0.5, 0.2])
    identity = _PREDICATES["proportional-identity"]
    # A refinement move's trials, or the two orientations of a sampled pair:
    # the kernel estimates at both starts in one call, the estimate at `bad`
    # fails, and only reading that row raises.
    rows = identity.rows(ctx, False, np.array([good, bad]), np.array([bad, good]))
    assert list(rows.failed) == [1] and np.isnan(rows.margin[1])
    check = rows.check(0, good, bad)
    with pytest.raises(EstimationError, match="failed at 9/9 probes"):
        rows.check(1, bad, good)
    # Read one at a time, each check does the same.
    lazy = _Context(_one_row_per_call(fn), _BOX2, FAST)
    assert identity.check(lazy, False, good, bad, None) == check
    with pytest.raises(EstimationError, match="failed at 9/9 probes"):
        identity.check(lazy, False, bad, good, None)


@pytest.mark.parametrize("rows", [True, False])
def test_stored_failures_hold_no_traceback(rows):
    # Each read raises a fresh copy: the stored failure gains no frames (and
    # so keeps no context alive) however often it is read.
    fn = function_from_expression(_HALF_FAILING, 2)
    ctx = _Context(fn if rows else _one_row_per_call(fn), _BOX2, FAST)
    bad, good = np.array([-0.5, 0.2]), np.array([0.5, 0.2])
    raised = []
    for negated in (False, False, True):
        with pytest.raises(EstimationError, match="failed at 9/9 probes") as info:
            _check(ctx, Candidate("proportional-identity", negated, bad, good))
        raised.append(info.value)
    stored = ctx.estimates()[bad.tobytes()]
    assert stored.__traceback__ is None
    assert all(exc is not stored and type(exc) is type(stored) for exc in raised)
    assert list(ctx.estimates()) == [bad.tobytes()]  # -f reads f's estimate negated


def test_refinement_never_raises_for_a_trial_it_does_not_read():
    # The first move of x tries x1 = 0.75 before x1 = -0.25 and takes it:
    # the estimate at the second trial fails, in the one call that reads
    # them all, but refinement never reads it, as one trial at a time.
    fn = function_from_expression(_HALF_FAILING, 2)
    cand = Candidate("proportional-identity", False, np.array([0.25, -0.2]), np.array([0.8, 0.75]))
    ctx = _Context(fn, _BOX2, FAST)
    (result,) = _refine_together(ctx, [cand], 3)
    failed = [x for x, est in ctx.estimates().items() if isinstance(est, EstimationError)]
    assert [np.frombuffer(x).tolist() for x in failed] == [[-0.25, -0.2]]
    lazy = refine_counterexample(_one_row_per_call(fn), _BOX2, cand, 3, FAST)
    assert result.scores == lazy.scores
    assert result.witness.to_dict() == lazy.witness.to_dict()


def _outcome(est):
    """An estimate as comparable data: its generators' bytes, radius and
    kink flag, or its failure's type and message."""
    if isinstance(est, EstimationError):
        return type(est), str(est)
    return [g.tobytes() for g in est.generators], est.radius, est.at_kink


def _cached_reference(fn, region, x, plan):
    """What the estimate cache holds at x, from subdifferential alone: the
    estimate at the plan's radius, seeded from x; where it flags a kink, the
    one at radius/1000 takes its place if that fails or is coherent."""
    count = plan.resolved_subdiff_count(fn.dimension)

    def at(radius):
        try:
            return subdifferential(fn, region, x, radius, count, campaign._point_entropy(x))
        except EstimationError as exc:
            return exc

    coarse = at(plan.subdiff_radius)
    if isinstance(coarse, EstimationError) or not coarse.at_kink:
        return coarse
    fine = at(plan.subdiff_radius / 1000.0)
    return coarse if not isinstance(fine, EstimationError) and fine.at_kink else fine


def test_the_estimate_cache_holds_what_subdifferential_gives():
    # Point by point against subdifferential: a coherent point, a kink kept
    # by its re-check at radius/1000, a near-kink that collapses there, a
    # point without room for the ball and one whose gradients fail, read
    # on f and on -f, each row gathered from the cache in its read order.
    fn = function_from_expression(_HALF_FAILING, 2)
    points = np.array([[0.5, 0.2], [0.5, 0.0], [0.5, 3e-6], [0.9999999, 0.5], [-0.5, 0.2]])
    want = [_cached_reference(fn, _BOX2, x, FAST) for x in points]
    assert [(w.radius, w.at_kink) for w in want[:3]] == [(1e-5, False), (1e-5, True), (1e-8, False)]
    assert [type(w) for w in want[3:]] == [InteriorRoomError, EstimationError]
    ctx = _Context(fn, _BOX2, FAST)
    order = [4, 1, 1, 0, 3, 2, 0]  # repeats and cache hits after the first call
    for negated, rows in ((False, order[:3]), (True, order), (False, order[::-1])):
        gens = ctx.generators(points[rows], negated)
        sign = -1.0 if negated else 1.0
        for i, r in enumerate(rows):
            if isinstance(want[r], EstimationError):
                assert _outcome(gens.failed[i]) == _outcome(want[r])
                assert gens.count[i] == 1 and not gens.g[gens.start[i]].any()
                continue
            assert i not in gens.failed
            got = gens.g[gens.start[i]:gens.start[i] + gens.count[i]]
            assert got.tobytes() == (sign * np.array(want[r].generators)).tobytes()
            assert (gens.owner[gens.start[i]:gens.start[i] + gens.count[i]] == i).all()
    stored = ctx.estimates()
    assert list(stored) == [points[r].tobytes() for r in (4, 1, 0, 3, 2)]
    assert all(_outcome(stored[x.tobytes()]) == _outcome(w) for x, w in zip(points, want))


_ONE_ASCENT_CASES = [(name, corpus_entry(name).handle, corpus_entry(name).region)
                     for name in ("ramp", "cubic", "paraboloid")] + [
    ("max", function_from_expression("max(x1, x2)", 2), _BOX2)]


@pytest.mark.parametrize("name, fn, region", _ONE_ASCENT_CASES,
                         ids=[c[0] for c in _ONE_ASCENT_CASES])
def test_one_ascent_per_classify_equals_a_classify_per_property(name, fn, region, monkeypatch):
    # classify refines every property's candidates in one ascent; each
    # verdict, and each candidate's scores and witness, is what a classify
    # of that property alone gives.
    calls = []  # each _refine_together call's candidates and results

    def refine(ctx, cands, rounds):
        results = _refine_together(ctx, cands, rounds)
        calls.append((list(cands), [_as_alone(r) for r in results]))
        return results

    monkeypatch.setattr(campaign, "_refine_together", refine)
    for seed in (0, 7):
        plan = SamplingPlan(pair_count=24, seed=seed)
        calls.clear()
        together = classify(fn, region, None, plan)
        assert len(calls) == 1
        alone = [classify(fn, region, (p,), plan)[0] for p in PROPERTIES]
        assert [v.to_dict() for v in together] == [v.to_dict() for v in alone], seed
        (cands, results), *each = calls
        assert [_as_tuple(c) for c in cands] == [_as_tuple(c) for cs, _ in each for c in cs]
        assert results == [r for _, rs in each for r in rs]
        assert len({c.predicate for c in cands}) > 1  # the properties shared the ascent


@pytest.mark.parametrize("source, dim, props", [
    (_HALF_FAILING, 2, None),
    ("max(x1, x2) - abs(x1)", 2, ("pseudoconvex", "pseudoconcave", "pseudolinear")),
])
def test_batched_estimates_leave_reports_unchanged(source, dim, props):
    # Estimates read in one call per refinement move and per probe of the
    # sampled pairs give the reports of gradients read one row per call.
    fn = function_from_expression(source, dim)
    region = parse_region("box(" + ", ".join(["-1..1"] * dim) + ")", dim)
    plan = SamplingPlan(pair_count=40, seed=5)
    batched = classify(fn, region, props, plan)
    alone = classify(_one_row_per_call(fn), region, props, plan)
    assert [v.to_dict() for v in batched] == [v.to_dict() for v in alone]
    if props is None:
        assert any(v.inconclusive for v in batched)  # failed estimates were read


def _seed(predicate, negated, check):
    """A failed check's refinement seed: the pair and lambda it failed at."""
    return Candidate(predicate, negated, check.x, check.y, check.lam)


def _property_candidates(ctx, prop):
    """The refinement seeds classify may take for a property: its sampled
    near-ties, strongest first, then its near-misses."""
    soft = []
    for samples in _row_samples(ctx, prop):
        for outcome, check, predicate, negated in samples or ():
            if outcome == "fail" and not check.credible:
                soft.append((check.residual, _seed(predicate, negated, check)))
    soft = [c for _, c in sorted(soft, key=lambda t: -t[0])]
    return (soft + _near_misses(ctx, prop))[:MAX_REFINED_CANDIDATES]


def _refined_alone(fn, region, cand, plan):
    try:
        result = refine_counterexample(fn, region, cand, plan.refinement_rounds, plan)
    except EstimationError as exc:
        return type(exc), str(exc)
    return result.scores, None if result.witness is None else result.witness.to_dict()


def _as_alone(result):
    if isinstance(result, EstimationError):
        return type(result), str(result)
    return result.scores, None if result.witness is None else result.witness.to_dict()


_LOCKSTEP_CASES = [(e.handle.name, e.handle, e.region) for e in corpus()] + [
    ("half-failing", function_from_expression(_HALF_FAILING, 2), _BOX2)]


@pytest.mark.parametrize("name, fn, region", _LOCKSTEP_CASES, ids=[c[0] for c in _LOCKSTEP_CASES])
def test_lockstep_refinement_equals_refining_each_candidate_alone(name, fn, region, monkeypatch):
    # Every property's candidates, refined together in one context, give
    # what each gives refined alone in a fresh one: scores, witnesses, and
    # the estimator failures that classify counts as inconclusive.
    calls = []
    rows = _Predicate.rows

    def counted(self, ctx, negated, *args, **kwargs):
        calls.append((self.name, negated))
        return rows(self, ctx, negated, *args, **kwargs)

    monkeypatch.setattr(_Predicate, "rows", counted)
    failures = batched = 0
    for seed in (0, 7):
        plan = SamplingPlan(pair_count=24, seed=seed)
        for prop in PROPERTIES:
            ctx = _Context(fn, region, plan)
            cands = _property_candidates(ctx, prop)
            calls.clear()
            together = _refine_together(ctx, cands, plan.refinement_rounds)
            lockstep = Counter(calls)
            steps = Counter()
            for cand, result in zip(cands, together):
                calls.clear()
                alone = _refined_alone(fn, region, cand, plan)
                assert _as_alone(result) == alone, (prop, cand)
                failures += isinstance(result, EstimationError)
                side = (cand.predicate, cand.negated)
                steps[side] = max(steps[side], len(calls))
                batched += len(calls)
            # One kernel call per (predicate, side) per lockstep step.
            assert all(lockstep[side] <= steps[side] for side in lockstep), (prop, lockstep, steps)
            batched -= sum(lockstep.values())
    assert batched > 0  # candidates did share kernel calls
    assert (failures > 0) == (name == "half-failing")


def _ascent_one_trial_at_a_time(ctx, cand, rounds):
    """Coordinate ascent on a check's margin written plainly, one _check per
    trial: the reference refinement.  A segment seed without a lambda
    starts at its first interior grid lambda of largest margin.  Each move
    shifts one coordinate of x, then of y, then lambda, by each step in
    turn, skipping trials outside the feasible region or with x == y, and
    takes the first trial whose margin is above the best; lambda is kept a
    grid step from the endpoints.  A seed outside the feasible region is
    only scored, and a round without a move taken ends the ascent.  Returns
    the scores and the witness (as a dict) or the EstimationError raised,
    as _as_alone gives them."""
    def check(x, y, lam):
        return _check(ctx, Candidate(cand.predicate, cand.negated, x, y, lam))

    x, y, lam = cand.x, cand.y, cand.lam
    interior = ctx.interior_lams
    try:
        if lam is None and _PREDICATES[cand.predicate].lam and interior:
            margins = [check(x, y, t).margin for t in interior]
            lam = interior[margins.index(max(margins))]
        best = check(x, y, lam)
        scores = [best.margin]
        span = ctx.region.upper - ctx.region.lower
        lam_lo = 1.0 / (ctx.plan.lambda_grid - 1) if ctx.plan.lambda_grid >= 3 else 0.25
        n = x.size
        for _ in range(rounds if ctx.feasible(x) and ctx.feasible(y) else 0):
            improved = False
            for move in range(2 * n + (lam is not None)):
                for step in _REFINE_STEPS:
                    tx, ty, tl = x, y, lam
                    if move == 2 * n:
                        tl = float(np.clip(lam + step, lam_lo, 1.0 - lam_lo))
                    else:
                        moved = (x if move < n else y).copy()
                        moved[move % n] += step * span[move % n]
                        tx, ty = (moved, y) if move < n else (x, moved)
                        if not ctx.feasible(moved) or np.array_equal(tx, ty):
                            continue
                    trial = check(tx, ty, tl)
                    if trial.margin > best.margin:
                        x, y, lam, best = tx, ty, tl, trial
                        scores.append(trial.margin)
                        improved = True
                        break
            if not improved:
                break
    except EstimationError as exc:
        return type(exc), str(exc)
    witness = _witness_from_check(cand.predicate, cand.negated, best)
    return tuple(scores), None if witness is None else witness.to_dict()


@pytest.mark.parametrize("name, fn, region", _LOCKSTEP_CASES, ids=[c[0] for c in _LOCKSTEP_CASES])
def test_lockstep_refinement_equals_a_one_trial_at_a_time_ascent(name, fn, region):
    # The array-state refinement of every property's candidates, together
    # in one context, against the plain ascent of each alone in another:
    # scores, witnesses, and the estimator failures classify counts as
    # inconclusive.
    failures = moved = 0
    for seed in (0, 7):
        plan = SamplingPlan(pair_count=24, seed=seed)
        for prop in PROPERTIES:
            ctx = _Context(fn, region, plan)
            cands = _property_candidates(ctx, prop)
            together = _refine_together(ctx, cands, plan.refinement_rounds)
            reference = _Context(fn, region, plan)
            for cand, result in zip(cands, together):
                want = _ascent_one_trial_at_a_time(reference, cand, plan.refinement_rounds)
                assert _as_alone(result) == want, (prop, seed, cand)
                failures += isinstance(result, EstimationError)
                moved += not isinstance(result, EstimationError) and len(result.scores) > 1
    assert moved > 0
    assert (failures > 0) == (name == "half-failing")


def _selected_row_by_row(ctx, prop):
    """A property's verdict reached from a Check for every failing row of a
    pair whose estimates all succeeded: all credible failures become
    witnesses, cut in Witness.sort_key order, and the near-ties are stably
    sorted by -residual before refinement.  Returns the verdict, the
    sampled witnesses kept, the candidates refined and the number of
    witnesses built from sampling."""
    counts = Counter()
    pass_pairs = 0
    raw, soft = [], []
    for samples in _row_samples(ctx, prop):
        if samples is None:
            counts["inconclusive"] += 1
            continue
        pass_pairs += any(outcome == "pass" for outcome, *_ in samples)
        for outcome, check, predicate, negated in samples:
            counts[outcome] += 1
            if outcome != "fail":
                continue
            w = _witness_from_check(predicate, negated, check, prop)
            if w is not None:
                raw.append(w)
            else:
                soft.append((check.residual, _seed(predicate, negated, check)))
    witnesses = sorted(raw, key=Witness.sort_key)[:MAX_WITNESSES]
    sampled = list(witnesses)
    candidates = [c for _, c in sorted(soft, key=lambda t: -t[0])]
    if not witnesses and not candidates:
        candidates = _near_misses(ctx, prop)
    soft_set = {id(c) for _, c in soft}
    refined = candidates[:MAX_REFINED_CANDIDATES] if len(witnesses) < 4 else []
    for cand, result in zip(refined, _refine_together(ctx, refined, ctx.plan.refinement_rounds)):
        if len(witnesses) >= 4:
            break
        if isinstance(result, EstimationError):
            counts["inconclusive"] += 1
        elif result.witness is not None:
            witnesses.append(replace(result.witness, property=prop))
        elif id(cand) in soft_set:
            counts["fail"] -= 1
            counts["inconclusive"] += 1
    witnesses = sorted(witnesses, key=Witness.sort_key)[:MAX_WITNESSES]
    if witnesses:
        verdict = REFUTED
    elif counts["fail"] > 0 or pass_pairs < campaign.MIN_NONVACUOUS:
        verdict = INCONCLUSIVE
    else:
        verdict = HOLDS
    v = campaign.PropertyVerdict(prop, verdict, counts["pass"], counts["vacuous"],
                                 counts["fail"], counts["inconclusive"], tuple(witnesses))
    return v, sampled, refined, len(raw)


def _as_tuple(c):
    return c.predicate, c.negated, c.x.tolist(), c.y.tolist(), c.lam


_SELECTION_CASES = _LOCKSTEP_CASES + [
    ("max-minus-abs", function_from_expression("max(x1, x2) - abs(x1)", 2), _BOX2)]


@pytest.mark.parametrize("name, fn, region", _SELECTION_CASES,
                         ids=[c[0] for c in _SELECTION_CASES])
def test_classify_keeps_what_a_check_per_failing_row_would(name, fn, region, monkeypatch):
    # _classify_property builds witnesses and candidates only for the rows
    # it can keep: the witnesses, refinement candidates and tallies equal
    # those reached from a Check for every failing row.  Sampling builds at
    # most MAX_WITNESSES witnesses per probe side, and refinement at most
    # one per candidate it refines.
    built, refined = [], []

    def counted(predicate, negated, check, prop=""):
        w = _witness_from_check(predicate, negated, check, prop)
        built.append((bool(refined), predicate, negated, w))
        return w

    def refine(ctx, cands, rounds):
        refined.append(list(cands))
        return _refine_together(ctx, cands, rounds)

    monkeypatch.setattr(campaign, "_witness_from_check", counted)
    monkeypatch.setattr(campaign, "_refine_together", refine)
    spared = 0
    for seed in (0, 7):
        plan = SamplingPlan(pair_count=24, seed=seed)
        for prop in PROPERTIES:
            want, sampled, cands, every = _selected_row_by_row(_Context(fn, region, plan), prop)
            built.clear()
            refined.clear()
            got = _classify_property(_Context(fn, region, plan), prop)
            assert got.to_dict() == want.to_dict(), (prop, seed)
            assert [_as_tuple(c) for c in refined[0]] == [_as_tuple(c) for c in cands]
            from_sampling = [w for late, *_, w in built if not late]
            kept = sorted(from_sampling, key=Witness.sort_key)[:MAX_WITNESSES]
            assert [w.to_dict() for w in kept] == [w.to_dict() for w in sampled]
            per_side = Counter((p, n) for late, p, n, _ in built if not late)
            assert all(count <= MAX_WITNESSES for count in per_side.values()), per_side
            assert sum(late for late, *_ in built) <= len(cands)
            spared += every - len(from_sampling)
    if name in ("ramp", "paraboloid", "max-minus-abs"):
        assert spared > 0  # credible failures outnumbered what can be kept


@pytest.mark.parametrize("lambda_grid", [1, 2])
def test_lambda_grids_without_interior_points_skip_the_sweeps(lambda_grid):
    # With no interior lambda the bound sweeps place no rows; the other
    # probes still run and refine as on any grid.
    plan = SamplingPlan(pair_count=20, lambda_grid=lambda_grid)
    tallies = {}
    for name in ("cubic", "ramp", "paraboloid"):
        e = corpus_entry(name)
        for v in classify(e.handle, e.region, ("pseudolinear", "semistrictly-quasilinear"), plan):
            tallies[name, v.property] = (
                v.verdict, v.passes, v.vacuous, v.fails, v.inconclusive, len(v.witnesses))
    assert tallies == {
        ("cubic", "pseudolinear"): (REFUTED, 60, 40, 0, 0, 3),
        ("cubic", "semistrictly-quasilinear"): (HOLDS, 20, 20, 0, 0, 0),
        ("ramp", "pseudolinear"): (REFUTED, 42, 16, 36, 6, 8),
        ("ramp", "semistrictly-quasilinear"): (HOLDS, 14, 26, 0, 0, 0),
        ("paraboloid", "pseudolinear"): (REFUTED, 26, 40, 64, 0, 8),
        ("paraboloid", "semistrictly-quasilinear"): (HOLDS, 20, 20, 0, 0, 0),
    }
