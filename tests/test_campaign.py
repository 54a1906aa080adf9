import gc
import json
import re
import weakref
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
from gencvx import campaign, checks
from gencvx.campaign import (
    _BOTH, _KERNEL, _PAIR, _SWEEP, HOLDS, MAX_REFINED_CANDIDATES, MAX_WITNESSES,
    NEAR_MISS_CANDIDATES, REFUTED, _REFINE_STEPS, _check, _Context, _near_misses,
    _orientations, _refine_together, _runs, _witness_from_check,
)
from gencvx.checks import INCONCLUSIVE, PREDICATES, Request, check_requests, descends
from gencvx.expr import EvalError
from gencvx.nonsmooth import (
    EstimationError, InteriorRoomError, SubdifferentialEstimate, subdifferential,
    subdifferential_rows)
from gencvx.functions import (
    LOCALLY_LIPSCHITZ, PROPERTIES, SMOOTH, FunctionHandle, function_from_expression,
    negate_handle)
from gencvx.geometry import RegionTooThinError, parse_region, segment_point

from report_pins import assert_pinned, stored_lines

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


@pytest.mark.parametrize("props", [[], ()])
def test_an_empty_property_list_is_rejected(props):
    # Only None asks for every property.
    e = corpus_entry("ramp")
    with pytest.raises(ValueError, match="no properties requested"):
        classify(e.handle, e.region, props, FAST)


_UNKNOWN = re.escape("unknown predicate 'nope' (known: quasiconvex-segment, ")


def test_refining_an_unknown_predicate_raises_value_error():
    e = corpus_entry("ramp")
    cand = Candidate("nope", False, np.array([-0.5]), np.array([0.5]))
    with pytest.raises(ValueError, match=_UNKNOWN):
        refine_counterexample(e.handle, e.region, cand, plan=FAST)


def test_replaying_an_unknown_predicate_raises_value_error():
    e = corpus_entry("ramp")
    witness = Witness(
        property="quasiconvex", predicate="nope", negated=False, x=np.array([-0.5]),
        y=np.array([0.5]), lam=None, generator=None, values={}, relation="nope",
        residual=1.0, threshold=0.0,
    )
    with pytest.raises(ValueError, match=_UNKNOWN):
        replay_witness(e.handle, e.region, witness, FAST)


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


_SEMISTRICT = ("semistrictly-quasiconvex", "semistrictly-quasiconcave",
               "semistrictly-quasilinear")


@pytest.mark.parametrize("seed", [3, 8])
def test_a_strictly_increasing_kink_of_x1_minus_x2_is_not_refuted(seed):
    # h(t) = max(t, 0) + min(t, 0)^3 is strictly increasing, so f = h(x1 - x2)
    # is semistrictly quasilinear.  Values near t = 0 fall far below 1, yet
    # floats resolve them: a noise floor with an absolute term took them for
    # ties, refuting semistrictly-quasiconcave alone at seed 3 (a lattice
    # violation) and semistrictly-quasilinear at seed 8.
    fn = function_from_expression("max(x1 - x2, 0) + min(x1 - x2, 0)^3", 2)
    region = parse_region("box(-1..1, -1..1)", 2)
    verdicts = classify(fn, region, _SEMISTRICT, SamplingPlan(seed=seed))
    assert [v.verdict for v in verdicts] == [HOLDS] * 3


def test_the_pseudoconvex_pairing_is_tested_at_the_eps_margin():
    # The documented case of ROADMAP item 1(b).  f = x^3 + 1e-6 x has
    # f' > 0, so it is pseudoconvex, yet it is refuted at seed 0: the
    # pseudoconvex pair fails where <g, y-x> is not below -eps, so it tests
    # eps-pseudoconvexity, and near x = 0 a pairing of about -1e-7 lies
    # inside the margin while f drops by far more.
    fn = function_from_expression("x1^3 + 0.000001*x1", 1)
    (v,) = classify(fn, parse_region("box(-1..1)", 1), ["pseudoconvex"], SamplingPlan(seed=0))
    assert v.verdict == REFUTED
    assert v.witnesses[0].relation == "<g, y-x> = -9.94943e-08 is not below -eps"
    for w in v.witnesses:
        pairing = float(w.generator[0] * (w.y - w.x)[0])
        assert -checks.eps_strict(w.values["fx"], w.values["fy"]) <= pairing < 0.0
        assert w.residual == w.values["fx"] - w.values["fy"] > w.threshold


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
    # read one segment grid, which evaluates each cell at most once, and
    # each pair's endpoints once, whether the first probe runs on one
    # orientation (_PAIR) or on both (_BOTH).  The endpoint read fills the
    # lambda = 0 column, whose cells are never evaluated.  Two cells can
    # name one point (lambda 1 names an endpoint, and the two orientations
    # of a pair can meet bit for bit), so the reads are matched against
    # the cells read, not against the distinct points.
    e = corpus_entry(name)
    rows = []

    def counted_rows(points):
        rows.extend(p.tobytes() for p in points)
        return e.handle.evaluate_rows(points)

    fn = replace(e.handle, evaluate_rows=counted_rows)
    plan = SamplingPlan(pair_count=20, lambda_grid=9, seed=3)
    for props in (("quasilinear", "semistrictly-quasilinear"),
                  ("semistrictly-quasilinear", "quasilinear")):
        rows.clear()
        ctx = _Context(fn, e.region, plan)
        for prop in props:
            _runs(ctx, prop, *ctx.pairs)
            _near_misses(ctx, prop)
        segments = ctx.segments(*ctx.pairs)
        o, c = np.divmod(np.flatnonzero(segments.known), len(segments.lams))
        assert np.array_equal(o[c == 0], np.arange(len(segments.a)))
        o, c = o[c > 0], c[c > 0]
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
    for _ in range(2):
        with pytest.raises(error):
            ctx.fn.value([0.5])
    # A row read holding the failing point raises, on every read, whether
    # its rows run on f, on -f or on both.
    for negated in (False, True, [True, False], False):
        with pytest.raises(error):
            check_requests(ctx.fn, [Request(
                "quasiconvex-segment", [[0.75], [0.5]], [[1.25], [0.75]], ctx.lam_grid, negated)])
    values = ctx.fn.values([[1.25], [0.75]])
    (rows,) = check_requests(ctx.fn, [Request(
        "quasiconvex-segment", [[1.25]] * 2, [[0.75]] * 2, ctx.lam_grid, [False, True])])
    assert rows.fx.tolist() == [values[0], -values[0]]
    assert rows.fy.tolist() == [values[1], -values[1]]
    assert ctx.fn.value([0.75]) == values[1]


def test_an_ascent_step_reads_every_endpoint_before_any_segment_point():
    # A step reads f at the endpoints of all its trial rows, whatever their
    # predicate, before any segment point: a failing endpoint of a later
    # (predicate, grid) aborts the run, named, ahead of a failing segment
    # point of an earlier one (which read first when each read apart).
    fn = FunctionHandle(
        "inf-at-two", 1, lambda p: np.where((p[:, 0] == 0.5) | (p[:, 0] == 0.9), np.inf, p[:, 0]))
    cands = [Candidate("quasiconvex-segment", False, np.array([0.0]), np.array([1.0]), 0.5),
             Candidate("pseudoconvex-pair", False, np.array([0.9]), np.array([0.2]))]
    ctx = _Context(fn, parse_region("box(-1..1)", 1), FAST)
    with pytest.raises(ArithmeticError, match=re.escape("non-finite value at [0.9]")):
        _refine_together(ctx, cands, FAST.refinement_rounds)
    with pytest.raises(ArithmeticError, match=re.escape("non-finite value at [0.5]")):
        _refine_together(ctx, cands[:1], FAST.refinement_rounds)


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
def test_segment_grid_rows_equal_check_requests_on_the_placed_points(name):
    # Each value-only probe placement, and the near-miss scan (every pair in
    # both orientations over the grid, as _BOTH), on f and on -f, read from
    # one grid as the probes of a classify do: each field of its Rows equals
    # check_requests on the placed points bit for bit, whichever cells
    # earlier placements filled.
    e = corpus_entry(name)
    ctx = _Context(e.handle, e.region, SamplingPlan(pair_count=30, lambda_grid=9, seed=5))
    segments = ctx.segments(*ctx.pairs)
    for predicate, placements in _SEGMENT_PLACEMENTS.items():
        for placement in placements:
            orient, col = _orientations(ctx, placement, len(ctx.pairs[0]))
            lams = ctx.lam_grid if col is None else np.array(ctx.lam_grid)[col][:, None]
            a, b = segments.a[orient], segments.b[orient]
            for negated in (False, True):
                got = segments.rows(predicate, negated, orient, col)
                fn = negate_handle(e.handle) if negated else e.handle
                (want,) = check_requests(fn, [Request(predicate, a, b, lams)])
                _assert_same_rows(got, want)
    assert segments.known.all()  # the quasiconvex condition on _BOTH reads every cell


@pytest.mark.parametrize("prop", [
    "quasiconvex", "quasiconcave", "quasilinear", "semistrictly-quasiconvex",
    "semistrictly-quasiconcave", "semistrictly-quasilinear",
])
def test_near_misses_from_the_grid_equal_those_from_check_requests(prop):
    e = corpus_entry("paraboloid")
    ctx = _Context(e.handle, e.region, SamplingPlan(pair_count=30, seed=5))
    xs, ys = campaign._both(*ctx.pairs)
    want = []
    for probe in campaign._PROBES[prop]:
        if probe.near_miss:
            for negated in probe.sides:
                name = probe.predicate
                fn = negate_handle(e.handle) if negated else e.handle
                margin = check_requests(fn, [Request(name, xs, ys, ctx.lam_grid)])[0].margin
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


@pytest.mark.parametrize("seed, passes, fails", [(0, 115, 77), (1, 108, 84), (2, 106, 86)])
def test_unhardened_near_ties_leave_quasiconvex_inconclusive(seed, passes, fails):
    # -1e-6*|x1| rises at most 1e-6 above the higher end of a pair across
    # the origin, below the witness threshold of 100 eps (at least 1e-5):
    # every raw failure is a near-tie.  Refinement hardens none, so each
    # candidate it tries is reclassified inconclusive, and the raw failures
    # left after its budget leave the verdict inconclusive.
    assert 1e-6 < checks.WITNESS_FACTOR * checks.eps_strict(0.0, 0.0)
    (got,) = classify(function_from_expression("-0.000001*abs(x1)", 1),
                      parse_region("box(-1..1)", 1), ("quasiconvex",), SamplingPlan(seed=seed))
    assert (got.verdict, got.passes, got.vacuous, got.fails, got.inconclusive, got.witnesses) == (
        INCONCLUSIVE, passes, 0, fails, MAX_REFINED_CANDIDATES, ())


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


def test_refinement_rounds_default_to_the_plan():
    # Without rounds, refinement climbs the plan's refinement_rounds.
    e = corpus_entry("cubic")
    cand = Candidate("pseudoconvex-pair", False, np.array([0.1]), np.array([-0.9]))
    traces = {}
    for rounds in (1, 3):
        by_plan = refine_counterexample(
            e.handle, e.region, cand, plan=replace(FAST, refinement_rounds=rounds))
        given = refine_counterexample(e.handle, e.region, cand, rounds=rounds, plan=FAST)
        assert by_plan.scores == given.scores
        assert by_plan.witness.to_dict() == given.witness.to_dict()
        traces[rounds] = by_plan.scores
    assert traces[1] != traces[3]


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("name", ["affine", "fractional", "arctan", "cubic", "paraboloid"])
def test_kernel_rows_on_smooth_handles_are_the_gradient_check(name, seed):
    # On a smooth handle the kernel condition reads the estimate cache, and
    # every row, kernel projections included, is the one-row gradient check.
    e = corpus_entry(name)
    ctx = _Context(e.handle, e.region, SamplingPlan(seed=seed))
    runs, _ = _runs(ctx, "pseudolinear", *ctx.pairs)
    (run,) = [run for run in runs if run.predicate == "gradient-kernel"]

    def fields(c):
        g = None if c.generator is None else c.generator.tobytes()
        return c.predicate, c.outcome, c.residual, c.margin, c.detail, g

    for r in range(len(run.xs)):
        x, y = run.xs[r], run.ys[r]
        want = check_gradient_kernel(e.handle, x, y, e.handle.grad(x))
        assert fields(run.check(r)) == fields(want)


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


def _uniform_block_calls(monkeypatch):
    """Each uniform_block call of pair sampling as (streams, rows, draws)."""
    calls = []
    uniform_block = campaign.uniform_block

    def recorded(states, low, high, rows):
        out = uniform_block(states, low, high, rows)
        calls.append((len(states[0]), rows, out[0]))
        return out

    monkeypatch.setattr(campaign, "uniform_block", recorded)
    return calls


def test_pair_heads_of_a_corpus_member_are_one_8_row_call(monkeypatch):
    calls = _uniform_block_calls(monkeypatch)
    e = corpus_entry("paraboloid")
    _Context(e.handle, e.region, SamplingPlan(seed=42)).pairs
    assert [(k, rows) for k, rows, _ in calls] == [(200, 8)]


def test_pair_heads_draw_24_more_rows_only_where_8_hold_no_pair(monkeypatch):
    # In a 5-D box about a quarter of the draws lie inside at the margin, so
    # some streams hold no pair in their first 8 rows: only those draw rows
    # 8 to 31, and those are the rows the stream draws next.
    calls = _uniform_block_calls(monkeypatch)
    fn = function_from_expression("abs(x1) + abs(x2) + abs(x3) + abs(x4) + abs(x5)", 5)
    region = parse_region("box(" + ", ".join(["-1..1"] * 5) + ")", 5)
    _Context(fn, region, SamplingPlan(seed=42)).pairs
    (_, _, first), (k, rows, more) = calls

    def holds_pair(i):
        inside = [p for p in first[i] if region.contains(p, region.margin)]
        if i % 10 == 9:
            return len(inside) >= 1
        return len(inside) >= 2 and not np.array_equal(inside[0], inside[1])

    late = [i for i in range(200) if not holds_pair(i)]
    assert 0 < len(late) < 200 and (k, rows) == (len(late), 24)
    for i, drawn in zip(late, more):
        rng = np.random.default_rng(np.random.SeedSequence((42, 0x9A12, i)))
        assert drawn.tobytes() == rng.uniform(region.lower, region.upper, (32, 5))[8:].tobytes()


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


# The verdicts of DSL handles, whose every gradient comes from forward-mode
# differentiation over rows (expr.compile_dual_rows), pinned as text in
# report_pins.jsonl by (source, dimension, seed).  The corpus members of
# criterion 9 read the same walk; these add kinks in two to five dimensions.
_S5 = "x1 + x2 + x3 + x4 + x5"
_AD_PINNED = [
    (source, n, seed) for source, n in [
        ("max(x1, x2)", 2),
        ("abs(x1) + abs(x2) + abs(x3) + abs(x4) + abs(x5)", 5),
        (f"min({_S5}, 3*({_S5}))", 5),
        ("x1 + abs(x1)", 1),
    ] for seed in (0, 3)]


def test_reports_pinned_on_forward_mode_gradients():
    reports = {}
    for source, n, seed in _AD_PINNED:
        fn = function_from_expression(source, n)
        region = parse_region("box(" + ", ".join(["-1..1"] * n) + ")", n)
        verdicts = classify(fn, region, None, SamplingPlan(pair_count=60, seed=seed))
        reports[source, n, seed] = [v.to_dict() for v in verdicts]
    assert_pinned("forward-mode", reports)


def test_a_changed_pinned_residual_names_its_field():
    # One ulp on one witness residual fails, naming the verdict and field.
    reports = {}
    for line in stored_lines("criterion-9"):
        d = json.loads(line)
        reports.setdefault(tuple(d["key"]), []).append(d["verdict"])
    verdict = next(v for v in reports["cubic", 0] if v["witnesses"])
    witness = verdict["witnesses"][0]
    witness["residual"] = float(np.nextafter(witness["residual"], np.inf))
    with pytest.raises(AssertionError) as info:
        assert_pinned("criterion-9", reports)
    assert str(info.value).startswith(
        f"criterion-9 ('cubic', 0) {verdict['property']}: verdict.witnesses[0].residual is "
        f"{witness['residual']!r}, pinned ")


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


@pytest.mark.parametrize("name", ["paraboloid", "ramp"])
def test_a_classify_context_is_freed_without_the_cycle_collector(name):
    # A reference cycle through a context would keep its estimate cache and
    # segment grid alive until a full collection, which the benchmark reads
    # as peak memory; reference counting alone must free it.
    e = corpus_entry(name)
    gc.disable()
    try:
        ctx = _Context(e.handle, e.region, FAST)
        campaign._classify_together(ctx, PROPERTIES)
        freed = weakref.ref(ctx)
        del ctx
        assert freed() is None
    finally:
        gc.enable()


def test_prefetched_estimates_fail_only_when_read():
    fn = function_from_expression(_HALF_FAILING, 2)
    ctx = _Context(fn, _BOX2, FAST)
    good, bad = np.array([0.5, 0.2]), np.array([-0.5, 0.2])
    identity = "proportional-identity"
    # A refinement move's trials, or the two orientations of a sampled pair:
    # the kernel estimates at both starts in one call, the estimate at `bad`
    # fails, and only reading that row raises.
    request = Request(identity, np.array([good, bad]), np.array([bad, good]))
    (rows,) = check_requests(ctx.fn, [request], ctx.generators)
    assert list(rows.failed) == [1] and np.isnan(rows.margin[1])
    check = rows.check(0, good, bad)
    with pytest.raises(EstimationError, match="failed at 9/9 probes"):
        rows.check(1, bad, good)
    # Read one at a time, each check does the same.
    lazy = _Context(_one_row_per_call(fn), _BOX2, FAST)
    assert _check(lazy, Candidate(identity, False, good, bad)) == check
    with pytest.raises(EstimationError, match="failed at 9/9 probes"):
        _check(lazy, Candidate(identity, False, bad, good))


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
    # point without room for the ball and one whose gradients fail, each
    # row gathered from the cache in its read order.
    fn = function_from_expression(_HALF_FAILING, 2)
    points = np.array([[0.5, 0.2], [0.5, 0.0], [0.5, 3e-6], [0.9999999, 0.5], [-0.5, 0.2]])
    want = [_cached_reference(fn, _BOX2, x, FAST) for x in points]
    assert [(w.radius, w.at_kink) for w in want[:3]] == [(1e-5, False), (1e-5, True), (1e-8, False)]
    assert [type(w) for w in want[3:]] == [InteriorRoomError, EstimationError]
    ctx = _Context(fn, _BOX2, FAST)
    order = [4, 1, 1, 0, 3, 2, 0]  # repeats and cache hits after the first call
    for rows in (order[:3], order, order[::-1]):
        gens = ctx.generators(points[rows])
        for i, r in enumerate(rows):
            if isinstance(want[r], EstimationError):
                assert _outcome(gens.failed[i]) == _outcome(want[r])
                assert gens.count[i] == 1 and not gens.g[gens.start[i]].any()
                continue
            assert i not in gens.failed
            got = gens.g[gens.start[i]:gens.start[i] + gens.count[i]]
            assert got.tobytes() == np.array(want[r].generators).tobytes()
            assert (gens.owner[gens.start[i]:gens.start[i] + gens.count[i]] == i).all()
    stored = ctx.estimates()
    assert list(stored) == [points[r].tobytes() for r in (4, 1, 0, 3, 2)]
    assert all(_outcome(stored[x.tobytes()]) == _outcome(w) for x, w in zip(points, want))


# x2/x1 is pseudolinear on x1 > 0, and steep near x1 = 0.01: there its
# gradient turns by about 0.03 across a ball of radius 1e-8.
_STEEP = function_from_expression("x2/x1", 2)
_NEAR_THE_POLE = parse_region("x1 >= 0.01, box(0..1, -1..1), margin(0.0001)", 2)


def test_a_steep_smooth_point_is_estimated_by_its_gradient():
    # Gradient sampling flags a kink at both radii, yet f is smooth: the
    # interval walk proves the ball smooth, so the estimate is the gradient
    # at x, and classify reads that gradient and makes no estimate there.
    x = np.array([0.0101, 0.9])
    count = FAST.resolved_subdiff_count(2)
    for radius in (FAST.subdiff_radius, FAST.subdiff_radius / 1000.0):
        seed = campaign._point_entropy(x)
        sampled = subdifferential(replace(_STEEP, expression=None), _NEAR_THE_POLE, x,
                                  radius, count, seed)
        assert sampled.at_kink and len(sampled.generators) > 1
        est = subdifferential(_STEEP, _NEAR_THE_POLE, x, radius, count, seed)
        assert not est.at_kink
        assert [g.tobytes() for g in est.generators] == [_STEEP.grad(x).tobytes()]
    ctx = _Context(_STEEP, _NEAR_THE_POLE, FAST)
    gens = ctx.generators(x[None])
    assert gens.count.tolist() == [1] and gens.g.tobytes() == _STEEP.grad(x).tobytes()
    assert ctx.estimates() == {}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_steep_pseudolinear_function_is_not_refuted(seed):
    # The kernel of a generator sampled near x1 = 0.01 is not a level set
    # of f; a pair placed on it would refute pseudolinearity falsely.
    (v,) = classify(_STEEP, _NEAR_THE_POLE, ["pseudolinear"], SamplingPlan(seed=seed))
    assert (v.verdict, v.fails, v.inconclusive) == (HOLDS, 0, 0)


def _ref_estimate(fn, region, plan, xs):
    """What the estimate cache held at each row of xs before a smooth handle
    read its gradient without estimating, the reference: the estimate at the
    plan's radius; where it flags a kink, the one at radius/1000 where that
    fails or is coherent, and on a smooth handle, where the spread persists
    there too, the handle's gradient at x where it has one."""
    count = plan.resolved_subdiff_count(fn.dimension)

    def store(points, radius):
        gens, kink = subdifferential_rows(
            fn, region, points, radius, count, campaign._point_entropy)
        return [gens.estimate(i, radius, bool(k)) for i, k in enumerate(kink)]

    radius = plan.subdiff_radius
    out = store(xs, radius)
    kinked = [i for i, e in enumerate(out) if not isinstance(e, EstimationError) and e.at_kink]
    if kinked:
        for i, e in zip(kinked, store(xs[kinked], radius / 1000.0)):
            if isinstance(e, EstimationError) or not e.at_kink:
                out[i] = e
            elif fn.smoothness == SMOOTH and fn.grad(xs[i]) is not None:
                out[i] = SubdifferentialEstimate((fn.grad(xs[i]),), 0.0, False)
    return out


def _generator_bytes(gens, i):
    """Row i of Generators as its generators' bytes, or its failure's type
    and message."""
    if i in gens.failed:
        return type(gens.failed[i]), str(gens.failed[i])
    return [g.tobytes() for g in gens.g[gens.start[i]:gens.start[i] + gens.count[i]]]


def _estimate_bytes(est):
    """An estimate as _generator_bytes gives its row."""
    if isinstance(est, EstimationError):
        return type(est), str(est)
    return [g.tobytes() for g in est.generators]


_SMOOTH_CASES = [(e.handle.name, e.handle, e.region) for e in corpus()
                 if e.handle.smoothness == SMOOTH] + [
    ("x2/x1", _STEEP, _NEAR_THE_POLE),
    ("x2/x1^3", function_from_expression("x2/(x1*x1*x1)", 2), _NEAR_THE_POLE),
    ("exp(8x1)", function_from_expression("exp(8*x1) + x2", 2), _BOX2),
    ("pole", function_from_expression("1/(x1*x1 - 0.25)", 1), parse_region("box(-1..1)", 1)),
    ("log", function_from_expression("log(x1)", 1), parse_region("box(0.001..2)", 1))]


@pytest.mark.parametrize("name, fn, region", _SMOOTH_CASES, ids=[c[0] for c in _SMOOTH_CASES])
def test_a_smooth_handle_reads_what_the_estimate_cache_held(name, fn, region, monkeypatch):
    # Every row a classify reads on a smooth handle, at the pair points, at
    # the kernel projections and at the refinement trials, holds what the
    # estimate cache held there when each point was estimated.
    read = []
    generators = campaign._Context.generators

    def recording(ctx, points):
        gens = generators(ctx, points)
        read.extend((p, _generator_bytes(gens, i)) for i, p in enumerate(points))
        return gens

    monkeypatch.setattr(campaign._Context, "generators", recording)
    for seed in (0, 42):
        plan = SamplingPlan(seed=seed)
        read.clear()
        classify(fn, region, None, plan)
        got = {p.tobytes(): (p, g) for p, g in read}
        assert len(got) > plan.pair_count, seed  # pairs, projections and trials
        points = np.array([p for p, _ in got.values()])
        want = _ref_estimate(fn, region, plan, points)
        assert [g for _, g in got.values()] == list(map(_estimate_bytes, want)), seed


def test_a_smooth_handle_estimates_only_rows_without_gradient_or_room():
    # A row without room for the ball, a row the handle flags and a row
    # whose gradient read raises (the call's rows are then read one at a
    # time) reach the estimate cache, and no other: each row holds what the
    # cache held before, and the others the handle's gradient.
    fn = function_from_expression("x1*x1 + exp(x2)", 2)
    flagged, raising = np.array([0.5, 0.25]), np.array([0.25, -0.5])

    def gradient_rows(points):
        if (points == raising).all(axis=1).any():
            raise ArithmeticError("gradient overflow")
        g, kinks = fn.gradient_rows(points)
        return g, kinks | (points == flagged).all(axis=1)

    odd = replace(fn, gradient_rows=gradient_rows)
    plain, edge = np.array([0.1, 0.2]), np.array([1.0 - 1e-7, 0.3])
    points = np.array([plain, flagged, edge, raising, -plain])
    ctx = _Context(odd, _BOX2, FAST)
    gens = ctx.generators(points)
    want = _ref_estimate(odd, _BOX2, FAST, points)
    assert [_generator_bytes(gens, i) for i in range(len(points))] == list(
        map(_estimate_bytes, want))
    assert list(ctx.estimates()) == [p.tobytes() for p in (flagged, edge, raising)]
    assert type(gens.failed[2]) is InteriorRoomError and list(gens.failed) == [2]
    assert gens.g[gens.start[0]].tobytes() == fn.grad(plain).tobytes()


def test_a_corpus_classify_estimates_on_the_locally_lipschitz_members_only(monkeypatch):
    # Every point a classify of a smooth corpus member reads has a gradient
    # and room for the ball: a classify of the corpus at seed 42 makes 14
    # subdifferential_rows calls, all on ramp and twoslope (71 when the
    # smooth members' points were estimated too).  Its 340 refinement
    # candidates climb as 292: identical ones climb once.
    calls, climbing = Counter(), []
    rows, ascent = campaign.subdifferential_rows, campaign._Ascent

    def counted(fn, *args):
        calls[fn.smoothness] += 1
        return rows(fn, *args)

    def climb(ctx, cands, rounds):
        climbing.append(len(cands))
        return ascent(ctx, cands, rounds)

    monkeypatch.setattr(campaign, "subdifferential_rows", counted)
    monkeypatch.setattr(campaign, "_Ascent", climb)
    refine = campaign._refine_together
    refined = []
    monkeypatch.setattr(campaign, "_refine_together",
                        lambda ctx, cands, rounds: refined.append(len(cands)) or refine(
                            ctx, cands, rounds))
    for e in corpus():
        classify(e.handle, e.region, PROPERTIES, PLAN)
    assert calls == Counter({LOCALLY_LIPSCHITZ: 14})
    assert (sum(refined), sum(climbing)) == (340, 292)


def test_identical_candidates_climb_once():
    # Candidates equal in predicate, side and the bytes of x, y and lambda
    # climb once and share one result: what each gets refined alone.
    fn = function_from_expression(_HALF_FAILING, 2)
    x, y, bad = np.array([0.5, 0.2]), np.array([0.1, -0.3]), np.array([-0.5, 0.2])
    cands = [Candidate("pseudoconvex-pair", False, x, y),
             Candidate("pseudoconvex-pair", True, x, y),
             Candidate("pseudoconvex-pair", False, x.copy(), y.copy()),
             Candidate("quasiconvex-segment", False, x, y, 0.5),
             Candidate("quasiconvex-segment", False, x, y),
             Candidate("quasiconvex-segment", False, x, y, 0.5),
             Candidate("pseudoconvex-pair", True, bad, y),
             Candidate("pseudoconvex-pair", True, bad.copy(), y)]
    together = _refine_together(_Context(fn, _BOX2, FAST), cands, FAST.refinement_rounds)
    assert together[0] is together[2] and together[3] is together[5]
    assert together[6] is together[7] and isinstance(together[6], EstimationError)
    for cand, result in zip(cands, together):
        (want,) = _refine_together(_Context(fn, _BOX2, FAST), [cand], FAST.refinement_rounds)
        assert _result_bytes(result) == _result_bytes(want), cand


def test_quasilinear_reads_the_runs_and_scans_of_quasiconvex_and_quasiconcave(monkeypatch):
    # quasilinear probes quasiconvex-segment on f and on -f, placed as
    # quasiconvex and quasiconcave place it: it reads their runs and
    # near-miss scans, with no kernel call of its own.
    calls = []
    kernel = checks.kernel_rows
    monkeypatch.setattr(checks, "kernel_rows", lambda *a, **kw: calls.append(1) or kernel(*a, **kw))
    e = corpus_entry("arctan")
    ctx = _Context(e.handle, e.region, FAST)
    runs = {prop: _runs(ctx, prop, *ctx.pairs)[0] for prop in ("quasiconvex", "quasiconcave")}
    scans = [c for prop in runs for c in _near_misses(ctx, prop)]
    calls.clear()
    (on_f, on_minus_f), _ = _runs(ctx, "quasilinear", *ctx.pairs)
    got = _near_misses(ctx, "quasilinear")
    assert not calls
    assert on_f is runs["quasiconvex"][0] and on_minus_f is runs["quasiconcave"][0]
    assert [_as_tuple(c) for c in got] == [_as_tuple(c) for c in scans]


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


class _StepCounts:
    """What refinement does, counted through monkeypatch: the ascent's
    steps (requests) and takes, its kernel calls by predicate, and its
    reads of f (FunctionHandle.values calls) outside subdifferential
    estimation, which reads f apart."""

    def __init__(self, monkeypatch):
        self.kernels = Counter()
        self.steps = self.takes = self.reads = 0
        self._estimating = False
        for name in ("kernel_rows", "_generator_results"):
            monkeypatch.setattr(checks, name, self._kernel(getattr(checks, name)))
        for cls, name, counter in ((campaign._Ascent, "requests", "steps"),
                                   (campaign._Ascent, "take", "takes"),
                                   (FunctionHandle, "values", "reads")):
            monkeypatch.setattr(cls, name, self._counted(getattr(cls, name), counter))
        estimate = campaign._Context._estimate

        def estimating(ctx, *args):
            self._estimating = True
            try:
                return estimate(ctx, *args)
            finally:
                self._estimating = False

        monkeypatch.setattr(campaign._Context, "_estimate", estimating)

    def _kernel(self, kernel):
        def counted(predicate, *args, **kwargs):
            self.kernels[predicate] += 1
            return kernel(predicate, *args, **kwargs)
        return counted

    def _counted(self, method, counter):
        def counted(*args, **kwargs):
            if not self._estimating:
                setattr(self, counter, getattr(self, counter) + 1)
            return method(*args, **kwargs)
        return counted

    def clear(self):
        self.kernels.clear()
        self.steps = self.takes = self.reads = 0


@pytest.mark.parametrize("name, fn, region", _LOCKSTEP_CASES, ids=[c[0] for c in _LOCKSTEP_CASES])
def test_lockstep_refinement_equals_refining_each_candidate_alone(name, fn, region, monkeypatch):
    # Every property's candidates, refined together in one context, give
    # what each gives refined alone in a fresh one: scores, witnesses, and
    # the estimator failures that classify counts as inconclusive.
    counts = _StepCounts(monkeypatch)
    failures = batched = 0
    for seed in (0, 7):
        plan = SamplingPlan(pair_count=24, seed=seed)
        for prop in PROPERTIES:
            ctx = _Context(fn, region, plan)
            cands = _property_candidates(ctx, prop)
            counts.clear()
            together = _refine_together(ctx, cands, plan.refinement_rounds)
            lockstep = Counter(counts.kernels)
            # One read of f at the endpoints and one inside the segments,
            # and one take, per lockstep step.
            assert counts.reads <= 2 * counts.steps and counts.takes == counts.steps, prop
            steps = Counter()
            for cand, result in zip(cands, together):
                counts.clear()
                alone = _refined_alone(fn, region, cand, plan)
                assert _as_alone(result) == alone, (prop, cand)
                failures += isinstance(result, EstimationError)
                steps[cand.predicate] = max(steps[cand.predicate], counts.kernels[cand.predicate])
                batched += sum(counts.kernels.values())
            # One kernel call per predicate per lockstep step, on f and -f.
            assert all(lockstep[name] <= steps[name] for name in lockstep), (prop, lockstep, steps)
            batched -= sum(lockstep.values())
    assert batched > 0  # candidates did share kernel calls
    assert (failures > 0) == (name == "half-failing")


def _result_bytes(result):
    """A refinement result by its bytes: the score trace and the witness as
    JSON (signed zeros kept), or the EstimationError's type and message."""
    if isinstance(result, EstimationError):
        return type(result), str(result)
    witness = None if result.witness is None else json.dumps(result.witness.to_dict())
    return np.array(result.scores).tobytes(), witness


def test_mixed_side_refinement_equals_refining_each_candidate_alone(monkeypatch):
    # Candidates on f and on -f of one predicate climb in one kernel call
    # per step; each still gets what it gets refined alone, the candidate
    # whose estimate fails (on -f, at x1 < 0) included.
    fn = function_from_expression(_HALF_FAILING, 2)
    pairs = [([0.5, 0.2], [0.1, -0.3]), ([0.3, -0.4], [0.8, 0.6]), ([0.6, 0.0], [0.2, 0.5])]
    cands = [Candidate(name, negated, np.array(x), np.array(y))
             for name in ("pseudoconvex-pair", "quasiconvex-segment",
                          "semistrict-quasiconvex-segment")
             for x, y in pairs for negated in (False, True)]
    cands.insert(3, Candidate("pseudoconvex-pair", True, np.array([-0.5, 0.2]),
                              np.array([0.5, -0.9])))
    sides = []
    check_requests = checks.check_requests

    def counted(fn, requests, *args):
        sides.extend((r.predicate, frozenset(np.broadcast_to(r.negated, len(r.x)).tolist()))
                     for r in requests)
        return check_requests(fn, requests, *args)

    monkeypatch.setattr(checks, "check_requests", counted)
    together = _refine_together(_Context(fn, _BOX2, FAST), cands, FAST.refinement_rounds)
    assert {name for name, both in sides if both == {False, True}} == {
        c.predicate for c in cands}
    for cand, result in zip(cands, together):
        alone = _Context(fn, _BOX2, FAST)
        (want,) = _refine_together(alone, [cand], FAST.refinement_rounds)
        assert _result_bytes(result) == _result_bytes(want), cand
    assert isinstance(together[3], EstimationError)
    assert any(len(r.scores) > 1 for r in together if not isinstance(r, EstimationError))


def _scored_near_misses(ctx, probes):
    """The near-misses of the probes from a fresh scoring of every
    orientation of the pairs, in one check_requests call per probe side."""
    xs, ys = campaign._both(*ctx.pairs)
    out = []
    for probe in probes:
        name = probe.predicate_for(ctx)
        for negated in probe.sides:
            lams = ctx.lam_grid if PREDICATES[name].segment else None
            (rows,) = check_requests(ctx.fn, [Request(name, xs, ys, lams, negated)],
                                     ctx.generators)
            ok = np.ones(len(xs), dtype=bool)
            ok[list(rows.failed or ())] = False
            r = np.flatnonzero(ok)
            best = r[np.argsort(-rows.margin[r], kind="stable")[:NEAR_MISS_CANDIDATES]]
            out.extend(Candidate(name, negated, xs[i], ys[i]) for i in best)
    return out


@pytest.mark.parametrize("seed", [0, 42])
def test_near_misses_read_from_the_runs_equal_a_fresh_scoring(seed, monkeypatch):
    # _near_misses reads the property's runs, kept beside the segment grid:
    # a probe side that ran on every orientation, on both (_BOTH) or each
    # followed by its kernel projections (_KERNEL), is read from its run,
    # with no kernel call, and gives the candidates a fresh scoring gives.
    calls = []
    for name in ("kernel_rows", "_generator_results"):
        kernel = getattr(checks, name)
        monkeypatch.setattr(checks, name, lambda *a, _k=kernel, **kw: calls.append(1) or _k(*a, **kw))
    plan = SamplingPlan(seed=seed)
    reused = kernel = 0
    for e in corpus():
        for prop in PROPERTIES:
            ctx = _Context(e.handle, e.region, plan)
            _runs(ctx, prop, *ctx.pairs)
            calls.clear()
            got = _near_misses(ctx, prop)
            probes = [p for p in campaign._PROBES[prop] if p.near_miss]
            if all(p.placement in (_BOTH, _KERNEL) for p in probes):
                assert not calls, (e.handle.name, prop)
                reused += 1
                kernel += any(p.placement == _KERNEL for p in probes)
            want = _scored_near_misses(_Context(e.handle, e.region, plan), probes)
            assert [_as_tuple(c) for c in got] == [_as_tuple(c) for c in want]
            assert [c.x.tobytes() + c.y.tobytes() for c in got] == [
                c.x.tobytes() + c.y.tobytes() for c in want]
    assert reused > kernel > 0


def test_a_corpus_classify_makes_few_kernel_calls(monkeypatch):
    # Rows on f and on -f share their kernel calls, near-miss scans read
    # the sampling runs, and quasilinear reads the runs and scans of
    # quasiconvex and quasiconcave: a classify of every corpus member at
    # seed 42 makes at most 486 kernel calls (726 when each side and each
    # scan had its own, 517 when the kernel conditions' scans did, 512 when
    # quasilinear made its own).
    calls = Counter()
    for name in ("kernel_rows", "_generator_results"):
        kernel = getattr(checks, name)
        monkeypatch.setattr(checks, name,
                            lambda *a, _n=name, _k=kernel, **kw: calls.update([_n]) or _k(*a, **kw))
    for e in corpus():
        classify(e.handle, e.region, PROPERTIES, PLAN)
    assert sum(calls.values()) <= 486, calls


def test_a_corpus_classify_ascent_reads_f_twice_and_takes_once_per_step(monkeypatch):
    # Each ascent step reads f once at every trial row's endpoints and once
    # at every segment point the segment predicates read, whatever their
    # predicate, then advances every candidate in one take.  (Reading and
    # taking per (predicate, grid), a classify of every corpus member at
    # seed 42 made 621 reads and 389 takes in 88 steps.)
    counts = _StepCounts(monkeypatch)
    refine = campaign._refine_together
    reads = []

    def refining(*args):
        before = counts.reads
        try:
            return refine(*args)
        finally:
            reads.append(counts.reads - before)

    monkeypatch.setattr(campaign, "_refine_together", refining)
    for e in corpus():
        classify(e.handle, e.region, PROPERTIES, PLAN)
    assert counts.steps > len(reads)
    assert counts.takes == counts.steps
    assert sum(reads) <= 2 * counts.steps


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
        if lam is None and PREDICATES[cand.predicate].segment and interior:
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


_T4, _S5 = "x1 - x2 + 0.5*x3 + x4", "x1 + x2 + x3 + x4 + x5"
# Locally Lipschitz kink functions in 4 and 5 dimensions, as perfbench's
# kinks-analyze runs them: many moves per round, and estimates read.
_WIDE_CASES = [(name, function_from_expression(source, n), parse_region(
    "box(" + ", ".join(["-1..1"] * n) + ")", n))
    for name, source, n in (("ramp4", f"{_T4} + abs({_T4})", 4),
                            ("min5", f"min({_S5}, 3*({_S5}))", 5))]


@pytest.mark.parametrize("name, fn, region", _LOCKSTEP_CASES + _WIDE_CASES,
                         ids=[c[0] for c in _LOCKSTEP_CASES + _WIDE_CASES])
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
    # classify builds witnesses and candidates only for the rows it can
    # keep: the witnesses, refinement candidates and tallies equal
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
            (got,) = classify(fn, region, [prop], plan)
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
