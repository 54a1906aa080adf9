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
from gencvx.campaign import (
    HOLDS, MAX_REFINED_CANDIDATES, REFUTED, _PREDICATES, _candidate, _check, _Context,
    _near_misses, _pair_samples, _Predicate, _refine_together,
)
from gencvx.expr import EvalError
from gencvx.nonsmooth import EstimationError
from gencvx.functions import PROPERTIES, SMOOTH, FunctionHandle, function_from_expression
from gencvx.geometry import parse_region

PLAN = SamplingPlan(seed=42)
FAST = SamplingPlan(pair_count=60, seed=42)


def _verdict_map(verdicts):
    return {v.property: v.verdict for v in verdicts}


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
        name="cubic-no-gradient", dimension=1, evaluate=e.handle.evaluate,
        gradient=lambda x: None, smoothness=SMOOTH,
    )
    x, y = np.array([0.0]), np.array([-0.9])
    ctx = _Context(fn, e.region, FAST)
    (_, check, _, _) = next(
        s for s in next(_pair_samples(ctx, "pseudolinear", [(x, y)])) if s[2] == "gradient-kernel"
    )
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
    soft = elsewhere = 0
    for (x, y), samples in zip(ctx.pairs, _pair_samples(ctx, "pseudolinear", ctx.pairs)):
        for outcome, check, predicate, negated in samples:
            if outcome != "fail" or check.credible:
                continue
            replayed = _check(ctx, _candidate(predicate, negated, check))
            assert (replayed.outcome, replayed.residual) == (check.outcome, check.residual)
            soft += 1
            elsewhere += not (np.array_equal(check.x, x) and np.array_equal(check.y, y))
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
def test_classify_evaluates_each_distinct_point_once(name):
    # quasilinear probes both f and -f, and near-miss search and refinement
    # revisit sampled points: all of them read one value table, one point or
    # a row array at a time.
    e = corpus_entry(name)
    keys, rows = [], []

    def counted(x):
        keys.append(x.tobytes())
        return e.handle.evaluate(x)

    def counted_rows(points):
        rows.extend(p.tobytes() for p in points)
        return e.handle.evaluate_rows(points)

    fn = replace(e.handle, evaluate=counted, evaluate_rows=counted_rows)
    plan = SamplingPlan(pair_count=20, lambda_grid=9, seed=3)
    (v,) = classify(fn, e.region, ("quasilinear",), plan)
    (ref,) = classify(e.handle, e.region, ("quasilinear",), plan)
    assert v.to_dict() == ref.to_dict()
    assert rows, "grid reads go through evaluate_rows"
    assert keys or rows
    assert len(keys + rows) == len(set(keys + rows))


@pytest.mark.parametrize("bad, error", [
    (FunctionHandle("inf-at-half", 1, lambda x: float("inf") if x[0] == 0.5 else float(x[0])),
     ArithmeticError),
    (function_from_expression("log(x1 - 0.5)", 1), EvalError),
])
def test_value_table_never_hides_a_failure(bad, error):
    reads = []

    def evaluate(x):
        reads.append(float(x[0]))
        return bad.evaluate(x)

    def evaluate_rows(points):
        reads.extend(points[:, 0].tolist())
        return bad.evaluate_rows(points)

    counted = replace(bad, evaluate=evaluate,
                      evaluate_rows=evaluate_rows if bad.evaluate_rows else None)
    ctx = _Context(counted, corpus_entry("arctan").region, FAST)
    for handle in (ctx.fn, ctx.neg_fn, ctx.fn, ctx.neg_fn):
        with pytest.raises(error):
            handle.value([0.5])
    # A row read holding the failing point raises and stores none of its
    # points: each is evaluated again when next read, and then kept.
    for handle in (ctx.fn, ctx.neg_fn):
        with pytest.raises(error):
            handle.values([[0.75], [0.5], [1.25]])
    reads.clear()
    values = ctx.fn.values([[1.25], [0.75]])
    assert sorted(reads) == [0.75, 1.25]
    reads.clear()
    assert (-ctx.neg_fn.values([[1.25], [0.75]])).tolist() == values.tolist()
    assert ctx.fn.value([0.75]) == values[1] and reads == []
    assert ctx.fn.value([1.0]) == -ctx.neg_fn.value([1.0])


def test_witness_serialization_round_trip():
    e = corpus_entry("cubic")
    (v,) = classify(e.handle, e.region, ("pseudoconvex",), FAST)
    w = v.witnesses[0]
    back = Witness.from_dict(json.loads(json.dumps(w.to_dict())))
    assert np.array_equal(back.x, w.x)
    assert np.array_equal(back.y, w.y)
    assert back.residual == w.residual
    assert back.predicate == w.predicate


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
    pairs = ctx.pairs
    assert len(pairs) == FAST.pair_count
    stressed = 0
    for i, (x, y) in enumerate(pairs):
        if i % 10 == 9:
            # Nearly axis-collinear: the off-axis displacement is tiny.
            d = np.abs(y - x)
            if np.min(d) < 0.2 * np.max(d):
                stressed += 1
    assert stressed >= FAST.pair_count // 10 - 2


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

    def flaky_grad(x):
        calls["n"] += 1
        raise ArithmeticError("no gradient here")

    flaky = FunctionHandle(
        name="flaky", dimension=1,
        evaluate=e.handle.evaluate, gradient=flaky_grad,
        smoothness="locally-lipschitz",
    )
    plan = SamplingPlan(pair_count=10, seed=1)
    (v,) = classify(flaky, e.region, ("pseudoconvex",), plan)
    # Central differences take over inside the estimator, so this still
    # resolves; whatever happens, nothing may be refuted.
    assert v.verdict != REFUTED
    assert calls["n"] > 0


# sha256 of json.dumps([v.to_dict() for v in verdicts], sort_keys=True) for DSL
# handles built without an exact gradient, so that every gradient they read
# comes from forward-mode differentiation (expr.eval_dual and its row form).
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
    with pytest.raises(EstimationError, match="failed at 9/9 probes"):
        rows.first_above(check.margin)
    # Read one at a time, each check does the same.
    lazy = _Context(replace(fn, gradient_rows=None), _BOX2, FAST)
    assert identity.check(lazy, False, good, bad, None) == check
    with pytest.raises(EstimationError, match="failed at 9/9 probes"):
        identity.check(lazy, False, bad, good, None)


@pytest.mark.parametrize("rows", [True, False])
def test_stored_failures_hold_no_traceback(rows):
    # Each read raises a fresh copy: the stored failure gains no frames (and
    # so keeps no context alive) however often it is read.
    fn = function_from_expression(_HALF_FAILING, 2)
    ctx = _Context(fn if rows else replace(fn, gradient_rows=None), _BOX2, FAST)
    bad, good = np.array([-0.5, 0.2]), np.array([0.5, 0.2])
    raised = []
    for negated in (False, False, True):
        with pytest.raises(EstimationError, match="failed at 9/9 probes") as info:
            _check(ctx, Candidate("proportional-identity", negated, bad, good))
        raised.append(info.value)
    stored = ctx._subdiffs[bad.tobytes()]
    assert stored.__traceback__ is None
    assert all(exc is not stored and type(exc) is type(stored) for exc in raised)
    assert list(ctx._subdiffs) == [bad.tobytes()]  # -f reads f's estimate negated


def test_refinement_never_raises_for_a_trial_it_does_not_read():
    # The first move of x tries x1 = 0.75 before x1 = -0.25 and takes it:
    # the estimate at the second trial fails, in the one call that reads
    # them all, but refinement never reads it, as one trial at a time.
    fn = function_from_expression(_HALF_FAILING, 2)
    cand = Candidate("proportional-identity", False, np.array([0.25, -0.2]), np.array([0.8, 0.75]))
    ctx = _Context(fn, _BOX2, FAST)
    (result,) = _refine_together(ctx, [cand], 3)
    failed = [x for x, est in ctx._subdiffs.items() if isinstance(est, EstimationError)]
    assert [np.frombuffer(x).tolist() for x in failed] == [[-0.25, -0.2]]
    lazy = refine_counterexample(replace(fn, gradient_rows=None), _BOX2, cand, 3, FAST)
    assert result.scores == lazy.scores
    assert result.witness.to_dict() == lazy.witness.to_dict()


@pytest.mark.parametrize("source, dim, props", [
    (_HALF_FAILING, 2, None),
    ("max(x1, x2) - abs(x1)", 2, ("pseudoconvex", "pseudoconcave", "pseudolinear")),
])
def test_batched_estimates_leave_reports_unchanged(source, dim, props):
    # Estimates read in one call per refinement move and per probe of the
    # sampled pairs give the reports of estimates read point by point.
    fn = function_from_expression(source, dim)
    region = parse_region("box(" + ", ".join(["-1..1"] * dim) + ")", dim)
    plan = SamplingPlan(pair_count=40, seed=5)
    batched = classify(fn, region, props, plan)
    alone = classify(replace(fn, gradient_rows=None), region, props, plan)
    assert [v.to_dict() for v in batched] == [v.to_dict() for v in alone]
    if props is None:
        assert any(v.inconclusive for v in batched)  # failed estimates were read


def _property_candidates(ctx, prop):
    """The refinement seeds classify may take for a property: its sampled
    near-ties, strongest first, then its near-misses."""
    soft = []
    for samples in _pair_samples(ctx, prop, ctx.pairs):
        for outcome, check, predicate, negated in samples or ():
            if outcome == "fail" and not check.credible:
                soft.append((check.residual, _candidate(predicate, negated, check)))
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
