"""Sampling campaigns: property verdicts over (x, y, lambda) samples.

classify() draws deterministic point pairs from the region, runs the
predicate set mapped to each requested property, and aggregates outcomes
into per-property verdicts:

    refuted          at least one credible witness (residual above its
                     hysteresis threshold, possibly after refinement);
    holds-at-samples no failures of any kind and enough non-vacuous passes;
    inconclusive     otherwise (vacuous-only evidence, estimator failures,
                     or near-tie failures that refinement could not harden).

Violations of several characterizations concentrate on measure-zero sets
(gradient kernels, flat pieces), so raw sampling is complemented by two
devices: one pair in ten is drawn nearly collinear with a coordinate axis,
and the samples closest to a violation are pushed through local coordinate
descent (refine_counterexample) before the property may be declared to hold.

Everything derives from the plan seed through per-sample-index substreams,
so results are identical however the work is scheduled.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from . import checks as ck
from .checks import FAIL, INCONCLUSIVE, PASS, VACUOUS
from .functions import LOCALLY_LIPSCHITZ, PROPERTIES, FunctionHandle, negate_handle
from .geometry import Region, RegionTooThinError
from .nonsmooth import EstimationError, negate_estimate, subdifferential, subdifferentials

__all__ = [
    "SamplingPlan",
    "Witness",
    "PropertyVerdict",
    "Candidate",
    "RefineResult",
    "IMPLICATIONS",
    "classify",
    "refine_counterexample",
    "replay_witness",
    "check_implication_lattice",
]

HOLDS = "holds-at-samples"
REFUTED = "refuted"

# A verdict may not be holds-at-samples on fewer non-vacuous passes.
MIN_NONVACUOUS = 3
# Refinement budget per property and witness list cap.
MAX_REFINED_CANDIDATES = 8
NEAR_MISS_CANDIDATES = 6
MAX_WITNESSES = 8

_DOMAIN_PAIR = 0x9A12


@dataclass(frozen=True)
class SamplingPlan:
    """Deterministic expansion of a campaign from a seed."""

    pair_count: int = 200
    lambda_grid: int = 33
    refinement_rounds: int = 3
    seed: int = 0
    subdiff_radius: float = 1e-5
    subdiff_count: int | None = None

    def __post_init__(self):
        if min(self.pair_count, self.lambda_grid, self.refinement_rounds) <= 0:
            raise ValueError("plan counts must be positive")
        if self.subdiff_radius <= 0:
            raise ValueError("subdifferential radius must be positive")

    def resolved_subdiff_count(self, dimension: int) -> int:
        """The gradient samples per estimate: at least 2n+1, else ValueError."""
        if self.subdiff_count is None:
            return max(8, 2 * dimension + 1)
        if self.subdiff_count < 2 * dimension + 1:
            raise ValueError(
                f"subdifferential count must be >= 2n+1 = {2 * dimension + 1}, "
                f"got {self.subdiff_count}"
            )
        return self.subdiff_count


@dataclass(frozen=True)
class Witness:
    """Replayable record of one violated relation."""

    property: str
    predicate: str
    negated: bool
    x: np.ndarray
    y: np.ndarray
    lam: float | None
    generator: np.ndarray | None
    values: dict[str, float]
    relation: str
    residual: float
    threshold: float

    def sort_key(self):
        return (
            self.predicate,
            self.negated,
            -self.residual,
            tuple(self.x),
            tuple(self.y),
            -1.0 if self.lam is None else self.lam,
        )

    def to_dict(self) -> dict:
        return {
            "property": self.property,
            "predicate": self.predicate,
            "negated": self.negated,
            "x": [float(v) for v in self.x],
            "y": [float(v) for v in self.y],
            "lam": self.lam,
            "generator": None if self.generator is None else [float(v) for v in self.generator],
            "values": {k: float(v) for k, v in sorted(self.values.items())},
            "relation": self.relation,
            "residual": self.residual,
            "threshold": self.threshold,
        }

    @staticmethod
    def from_dict(d: dict) -> "Witness":
        return Witness(
            property=d["property"],
            predicate=d["predicate"],
            negated=bool(d["negated"]),
            x=np.array(d["x"], dtype=float),
            y=np.array(d["y"], dtype=float),
            lam=d["lam"],
            generator=None if d["generator"] is None else np.array(d["generator"], dtype=float),
            values=dict(d["values"]),
            relation=d["relation"],
            residual=float(d["residual"]),
            threshold=float(d["threshold"]),
        )


@dataclass(frozen=True)
class PropertyVerdict:
    property: str
    verdict: str
    passes: int
    vacuous: int
    fails: int
    inconclusive: int
    witnesses: tuple[Witness, ...]

    @property
    def max_residual(self) -> float:
        return max((w.residual for w in self.witnesses), default=0.0)

    def to_dict(self) -> dict:
        return {
            "property": self.property,
            "verdict": self.verdict,
            "counts": {
                "pass": self.passes,
                "vacuous": self.vacuous,
                "fail": self.fails,
                "inconclusive": self.inconclusive,
            },
            "max_residual": self.max_residual,
            "witnesses": [w.to_dict() for w in self.witnesses],
        }


@dataclass(frozen=True)
class Candidate:
    """Seed for counterexample refinement."""

    predicate: str
    negated: bool
    x: np.ndarray
    y: np.ndarray
    lam: float | None = None


@dataclass(frozen=True)
class RefineResult:
    witness: Witness | None
    scores: tuple[float, ...]  # nondecreasing score trace, one entry per accepted move


# --------------------------------------------------------------------------
# Campaign context: seeded sampling streams, the value table and estimate caches
# --------------------------------------------------------------------------


class _Context:
    def __init__(self, fn: FunctionHandle, region: Region, plan: SamplingPlan):
        if fn.dimension != region.dimension:
            raise ValueError("function and region dimensions differ")
        self.subdiff_count = plan.resolved_subdiff_count(fn.dimension)
        # One table of f's values per context, keyed by the point's bytes:
        # every predicate on f and on -f reads each point's value once,
        # whether one point or a row array at a time.  Misses are evaluated
        # through fn's own checked reads, so a point whose value raises or
        # is not finite is never stored, and a row read stores nothing
        # unless every new point in it succeeds.
        values: dict[bytes, float] = {}

        def tabled(x: np.ndarray) -> float:
            key = x.tobytes()
            try:
                return values[key]
            except KeyError:
                v = values[key] = fn.value(x)
                return v

        def tabled_rows(points: np.ndarray) -> np.ndarray:
            raw = np.ascontiguousarray(points).tobytes()
            width = points.shape[1] * points.itemsize
            starts = range(0, len(raw), width)
            got = [values.get(raw[i:i + width]) for i in starts]
            if None in got:
                missing = {raw[i:i + width]: r for r, i in enumerate(starts) if got[r] is None}
                values.update(zip(missing, fn.values(points[list(missing.values())]).tolist()))
                got = [values[raw[i:i + width]] if v is None else v for i, v in zip(starts, got)]
            return np.array(got, dtype=float)

        self.fn = replace(fn, evaluate=tabled, evaluate_rows=tabled_rows)
        self.neg_fn = negate_handle(self.fn)
        self.smooth = fn.smoothness != LOCALLY_LIPSCHITZ
        self.region = region
        self.plan = plan
        self.lam_grid = tuple(float(t) for t in np.linspace(0.0, 1.0, plan.lambda_grid))
        self.interior_lams = tuple(t for t in self.lam_grid if 0.0 < t < 1.0)
        self._subdiffs: dict[tuple[bytes, bool], object] = {}
        self._pairs: list[tuple[np.ndarray, np.ndarray]] | None = None

    def handle(self, negated: bool) -> FunctionHandle:
        return self.neg_fn if negated else self.fn

    def grid(self, lam: float | None) -> tuple[float, ...]:
        return self.lam_grid if lam is None else (lam,)

    def gradient(self, x: np.ndarray, negated: bool) -> np.ndarray | None:
        """The gradient at x of a smooth handle, when it has one there."""
        return self.handle(negated).grad(x) if self.smooth else None

    # -- deterministic sampling ------------------------------------------------

    def _stream(self, domain: int, index: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence((self.plan.seed & 0xFFFFFFFFFFFFFFFF, domain, index))
        )

    def _draw_point(self, rng: np.random.Generator) -> np.ndarray:
        region = self.region
        for _ in range(200_000):
            p = rng.uniform(region.lower, region.upper)
            if region.contains(p, margin=region.margin):
                p.flags.writeable = False
                return p
        raise RegionTooThinError("pair sampling starved; region too thin")

    def _axis_partner(self, rng: np.random.Generator, x: np.ndarray, axis: int) -> np.ndarray:
        span = self.region.upper - self.region.lower
        for _ in range(200):
            y = x.copy()
            y[axis] += rng.uniform(-span[axis], span[axis])
            noise = rng.standard_normal(x.size) * 1e-3 * span
            noise[axis] = 0.0
            y = y + noise
            if self.region.contains(y, margin=self.region.margin) and not np.array_equal(y, x):
                y.flags.writeable = False
                return y
        return self._draw_point(rng)

    @property
    def pairs(self) -> list[tuple[np.ndarray, np.ndarray]]:
        if self._pairs is None:
            out = []
            for i in range(self.plan.pair_count):
                rng = self._stream(_DOMAIN_PAIR, i)
                x = self._draw_point(rng)
                if i % 10 == 9:
                    # Kernel conditions live on measure-zero sets: stress them
                    # with nearly axis-collinear pairs.
                    y = self._axis_partner(rng, x, (i // 10) % self.fn.dimension)
                else:
                    y = self._draw_point(rng)
                    while np.array_equal(x, y):
                        y = self._draw_point(rng)
                out.append((x, y))
            self._pairs = out
        return self._pairs

    # -- subdifferential cache ---------------------------------------------------

    def _point_entropy(self, x: np.ndarray) -> int:
        digest = hashlib.blake2b(x.tobytes(), digest_size=8).digest()
        return int.from_bytes(digest, "little")

    def subdiff(self, x: np.ndarray, negated: bool = False):
        """The estimate at x of the subdifferential of f, or of -f; a failed
        estimate raises a fresh copy of its EstimationError whenever it is
        read, so the stored failure never holds a traceback (and through it
        the frames, and this context, that read it)."""
        key = (x.tobytes(), negated)
        if key not in self._subdiffs:
            if negated:
                self._subdiffs[key] = negate_estimate(self.subdiff(x, False))
            else:
                self.estimate([x])
        est = self._subdiffs[key]
        if isinstance(est, EstimationError):
            raise type(est)(*est.args)
        return est

    def estimate(self, points) -> None:
        """Estimate f's subdifferential at each point not yet estimated, in
        one batched call when there are several, and store each estimate or
        its failure."""
        todo: dict[bytes, np.ndarray] = {}
        for x in points:
            key = x.tobytes()
            if (key, False) not in self._subdiffs:
                todo.setdefault(key, x)
        if not todo:
            return
        xs = list(todo.values())
        seeds = [((self.plan.seed & 0xFFFFFFFFFFFFFFFF) << 64) | self._point_entropy(x) for x in xs]
        radius = self.plan.subdiff_radius
        ests = self._estimates(xs, radius, seeds)
        # A spread at radius r may come from a kink merely nearby.  Shrinking
        # the ball separates the cases: at a true kink the spread persists,
        # near one it collapses and the fine coherent estimate is the honest
        # set at x.
        kinked = [i for i, est in enumerate(ests)
                  if not isinstance(est, EstimationError) and est.at_kink]
        if kinked:
            fine = self._estimates(
                [xs[i] for i in kinked], radius / 1000.0, [seeds[i] for i in kinked])
            for i, est in zip(kinked, fine):
                if isinstance(est, EstimationError) or not est.at_kink:
                    ests[i] = est
        for key, est in zip(todo, ests):
            self._subdiffs[key, False] = est

    def _estimates(self, xs, radius: float, seeds) -> list:
        """The estimate, or its failure without a traceback, at each point.
        Several points go through subdifferentials.  One point goes through
        subdifferential, which computes the same, only so that the benchmark
        tracer, which wraps campaign.subdifferential, still counts the
        estimates read one at a time; merging the branches would zero its
        subdifferential and kink re-check counts."""
        if len(xs) > 1:
            return subdifferentials(self.fn, self.region, xs, radius, self.subdiff_count, seeds)
        out = []
        for x, seed in zip(xs, seeds):
            try:
                out.append(subdifferential(
                    self.fn, self.region, x, radius=radius, count=self.subdiff_count, seed=seed,
                ))
            except EstimationError as exc:
                out.append(exc.with_traceback(None))
        return out

    def feasible(self, p: np.ndarray):
        """For a point, or for each row of a (k, n) array of points.  The
        radius is positive, so this already implies region.contains(p)."""
        return self.region.interior_slack(p) >= self.plan.subdiff_radius


# --------------------------------------------------------------------------
# Predicates: one check per name, run alike by sampling, near-miss search,
# refinement (which climbs the check's margin) and replay
# --------------------------------------------------------------------------


class _LazySubdiff:
    """ctx.subdiff(x, negated), estimated when a check first reads its
    generators: a check that finds its pair vacuous never pays for it."""

    def __init__(self, ctx: _Context, x: np.ndarray, negated: bool):
        self._ctx, self._x, self._negated = ctx, x, negated

    @property
    def generators(self):
        return self._ctx.subdiff(self._x, self._negated).generators


def _kernel(ctx: _Context, negated: bool, x, y, lam):
    """Gradient kernel where the handle is smooth and has a gradient at x,
    the kernels of the subdifferentials of f and -f otherwise."""
    fn = ctx.handle(negated)
    g = ctx.gradient(x, negated)
    if g is not None:
        return ck.check_gradient_kernel(fn, x, y, g)
    return ck.check_subdiff_kernel_pair(
        fn, x, y, ctx.subdiff(x, negated), ctx.subdiff(x, not negated)
    ).overall


def _descending_starts(ctx: _Context, negated: bool, xs, ys):
    """The x of each row on which f(y) < f(x) beyond the strict margin: the
    pairs on which the pseudoconvex check reads generators."""
    fn = ctx.handle(negated)
    fx, fy = fn.values(xs), fn.values(ys)
    return xs[ck.descends(fx, fy)]


@dataclass(frozen=True)
class _Predicate:
    """A named check, called as check(ctx, negated, x, y, lam).

    Checks are looked up in `checks` at call time.  Those with `lam` set
    are segment conditions: lam=None runs them over the plan's lambda grid,
    and refinement seeds and moves a single lambda for them.  They read
    values only, so `rows` runs them over many rows in one call.  The others
    read subdifferential estimates, at the points `reads` names for rows
    (xs, ys), and `prefetch` estimates those in one call.
    """

    name: str
    check: Callable[[_Context, bool, np.ndarray, np.ndarray, float | None], ck.Check]
    lam: bool = False
    reads: Callable[[_Context, bool, np.ndarray, np.ndarray], np.ndarray] | None = None

    def rows(self, ctx: _Context, negated: bool, x, y, lams) -> ck.Rows:
        return ck.check_rows(self.name, ctx.handle(negated), x, y, lams)

    def prefetch(self, ctx: _Context, negated: bool, xs, ys) -> None:
        """Fill the estimate cache for the check on rows (xs, ys), for a
        handle that reads its gradients over rows.  A value read that raises
        skips this: the check raises where it reads that value, if it does."""
        if self.reads is None or ctx.fn.gradient_rows is None:
            return
        try:
            points = self.reads(ctx, negated, xs, ys)
        except ArithmeticError:
            return
        ctx.estimate(points)


_PSEUDOCONVEX = _Predicate("pseudoconvex-pair", lambda c, neg, x, y, lam: (
    ck.check_pseudoconvex_pair(c.handle(neg), x, y, _LazySubdiff(c, x, neg))),
    reads=_descending_starts)
_P_IDENTITY = _Predicate("proportional-identity", lambda c, neg, x, y, lam: (
    ck.verify_p_identity(c.handle(neg), x, y, _LazySubdiff(c, x, neg))),
    reads=lambda c, neg, xs, ys: xs)
_SYMMETRIC = _Predicate("symmetric-equality", lambda c, neg, x, y, lam: (
    ck.check_symmetric_equality(
        c.handle(neg), x, y, _LazySubdiff(c, x, neg), _LazySubdiff(c, y, neg))),
    reads=lambda c, neg, xs, ys: np.concatenate([xs, ys]))
_GRADIENT_KERNEL = _Predicate("gradient-kernel", _kernel)
_SUBDIFF_KERNEL = _Predicate("subdifferential-kernel", _kernel, reads=lambda c, neg, xs, ys: xs)
_QUASICONVEX = _Predicate("quasiconvex-segment", lambda c, neg, x, y, lam: (
    ck.check_quasiconvex_segment(c.handle(neg), x, y, c.grid(lam))), lam=True)
_SEMISTRICT = _Predicate("semistrict-quasiconvex-segment", lambda c, neg, x, y, lam: (
    ck.check_semistrict_quasiconvex_segment(c.handle(neg), x, y, c.grid(lam))), lam=True)
_INTERLACING = _Predicate("interlacing-segment", lambda c, neg, x, y, lam: (
    ck.check_interlacing(c.handle(neg), x, y, c.grid(lam))), lam=True)
_STRICT_BOUNDS = _Predicate("interpolation-strict-bounds", lambda c, neg, x, y, lam: (
    ck.check_interpolation_bounds(c.handle(neg), x, y, lam, strict=True)), lam=True)
_WEAK_BOUNDS = _Predicate("interpolation-weak-bounds", lambda c, neg, x, y, lam: (
    ck.check_interpolation_bounds(c.handle(neg), x, y, lam, strict=False)), lam=True)

_PREDICATES: dict[str, _Predicate] = {
    p.name: p
    for p in (
        _PSEUDOCONVEX, _P_IDENTITY, _SYMMETRIC, _GRADIENT_KERNEL, _SUBDIFF_KERNEL,
        _QUASICONVEX, _SEMISTRICT, _INTERLACING, _STRICT_BOUNDS, _WEAK_BOUNDS,
    )
}


def _check(ctx: _Context, c: Candidate | Witness) -> ck.Check:
    """Run the predicate a candidate or witness names, at its points."""
    return _PREDICATES[c.predicate].check(ctx, c.negated, c.x, c.y, c.lam)


# --------------------------------------------------------------------------
# Counterexample refinement: coordinate ascent on a check's margin
# --------------------------------------------------------------------------


_REFINE_RUNGS = tuple(0.25 / (5.0**k) for k in range(9))
# A coordinate move tries each rung in turn, first up and then down.
_REFINE_STEPS = np.array([sign * rung for rung in _REFINE_RUNGS for sign in (1.0, -1.0)])


def _margins(ctx: _Context, pred: _Predicate, negated: bool, xs, ys, lams):
    """The margins of trial rows, in order: a segment condition scores them
    all in one call, any other check one row at a time as they are read."""
    if pred.lam:
        grid = ctx.lam_grid if lams is None else lams[:, None]
        return pred.rows(ctx, negated, xs, ys, grid).margin.tolist()
    return (pred.check(ctx, negated, a, b, None).margin for a, b in zip(xs, ys))


def _refine(ctx: _Context, cand: Candidate, rounds: int) -> RefineResult:
    pred = _PREDICATES[cand.predicate]
    x, y, lam = cand.x, cand.y, cand.lam
    if lam is None and pred.lam and ctx.interior_lams:
        # A segment seed starts at the first grid lambda of largest margin.
        lams = np.array(ctx.interior_lams)[:, None]  # one per row
        margins = pred.rows(ctx, cand.negated, x, y, lams).margin
        lam = ctx.interior_lams[int(np.argmax(margins))]
    span = ctx.region.upper - ctx.region.lower
    # Lambda stays within the grid's interior resolution: the strict segment
    # conditions are sampled no finer than the grid, and ties manufactured at
    # vanishing lambda carry no evidence.
    lam_lo = 1.0 / (ctx.plan.lambda_grid - 1) if ctx.plan.lambda_grid >= 3 else 0.25
    best = pred.check(ctx, cand.negated, x, y, lam)
    trace = [best.margin]
    # A seed outside the feasible region is scored but never moved; after
    # that only the point a move changes needs testing.
    if not (ctx.feasible(x) and ctx.feasible(y)):
        rounds = 0

    trials = len(_REFINE_STEPS)
    for _ in range(rounds):
        improved = False
        moves: list[tuple[str, int]] = [("x", i) for i in range(x.size)]
        moves += [("y", i) for i in range(y.size)]
        if lam is not None:
            moves.append(("lam", 0))
        for kind, i in moves:
            # The move's trials as rows, in the order they are tried; the
            # first that raises the margin is taken.
            if kind == "lam":
                xs, ys = np.broadcast_to(x, (trials, x.size)), np.broadcast_to(y, (trials, y.size))
                lams = np.clip(lam + _REFINE_STEPS, lam_lo, 1.0 - lam_lo)
            else:
                moved = np.repeat((x if kind == "x" else y)[None], trials, axis=0)
                moved[:, i] += _REFINE_STEPS * span[i]
                xs, ys = (moved, y) if kind == "x" else (x, moved)
                xs, ys = np.broadcast_arrays(xs, ys)
                keep = ctx.feasible(moved) & ~(xs == ys).all(axis=1)
                xs, ys = xs[keep], ys[keep]
                lams = None if lam is None else np.full(len(xs), lam)
                pred.prefetch(ctx, cand.negated, xs, ys)
            for j, margin in enumerate(_margins(ctx, pred, cand.negated, xs, ys, lams)):
                if margin > best.margin:
                    x, y = xs[j], ys[j]
                    lam = None if lams is None else float(lams[j])
                    best = pred.check(ctx, cand.negated, x, y, lam)
                    trace.append(best.margin)
                    improved = True
                    break
        if not improved:
            break

    witness = _witness_from_check(cand.predicate, cand.negated, best)
    return RefineResult(witness, tuple(trace))


def _witness_from_check(predicate: str, negated: bool, check: ck.Check) -> Witness | None:
    """Turn a credible failed check into a Witness (else None)."""
    if not check.credible:
        return None
    values = {"fx": check.fx, "fy": check.fy}
    if check.fz is not None:
        values["fz"] = check.fz
    return Witness(
        property="",
        predicate=predicate,
        negated=negated,
        x=check.x,
        y=check.y,
        lam=check.lam,
        generator=check.generator,
        values=values,
        relation=check.detail or predicate,
        residual=check.residual,
        threshold=check.threshold,
    )


def refine_counterexample(
    fn: FunctionHandle,
    region: Region,
    candidate: Candidate,
    rounds: int = 3,
    plan: SamplingPlan | None = None,
) -> RefineResult:
    """Locally maximize the violation of candidate.predicate around the seed.

    Coordinate descent over (x, y, lambda) on the check's margin: while the
    predicate passes, it climbs toward the violation boundary; once it
    fails, it is the violation residual, so the trace is nondecreasing.
    Candidates whose final residual stays inside the hysteresis band are
    discarded (None).
    """
    return _refine(_Context(fn, region, plan or SamplingPlan()), candidate, rounds)


# --------------------------------------------------------------------------
# Property -> predicate probes
# --------------------------------------------------------------------------


@dataclass
class _Tally:
    passes: int = 0
    vacuous: int = 0
    fails: int = 0
    inconclusive: int = 0
    pass_pairs: int = 0  # distinct sampled pairs contributing a non-vacuous pass

    def add(self, outcome: str):
        if outcome == PASS:
            self.passes += 1
        elif outcome == VACUOUS:
            self.vacuous += 1
        elif outcome == FAIL:
            self.fails += 1
        else:
            self.inconclusive += 1


def _project_to_kernel(x: np.ndarray, y: np.ndarray, g: np.ndarray) -> np.ndarray | None:
    gg = float(np.dot(g, g))
    if gg <= 1e-24:
        return None
    yp = y - g * (float(np.dot(g, y - x)) / gg)
    return None if np.allclose(yp, x, atol=1e-12, rtol=0.0) else yp


# Where a probe runs its predicate on a sampled pair (x, y).
_PAIR = "pair"      # (x, y) once
_BOTH = "both"      # (x, y), then (y, x)
_SWEEP = "sweep"    # (x, y) at each interior grid lambda
_KERNEL = "kernel"  # both orientations, each followed by its kernel projections


@dataclass(frozen=True)
class _Probe:
    predicate: _Predicate
    sides: tuple[bool, ...] = (False,)  # run on f (False), on -f (True), or both
    placement: str = _BOTH
    near_miss: bool = False  # searched over all pairs when nothing failed
    nonsmooth: _Predicate | None = None  # runs instead on locally Lipschitz handles

    def predicate_for(self, ctx: _Context) -> _Predicate:
        return self.predicate if ctx.smooth or self.nonsmooth is None else self.nonsmooth


# Each property's probes, in sampling order.
_PROBES: dict[str, tuple[_Probe, ...]] = {
    "pseudoconvex": (_Probe(_PSEUDOCONVEX, near_miss=True),),
    "pseudoconcave": (_Probe(_PSEUDOCONVEX, (True,), near_miss=True),),
    "quasiconvex": (_Probe(_QUASICONVEX, placement=_PAIR, near_miss=True),),
    "quasiconcave": (_Probe(_QUASICONVEX, (True,), _PAIR, near_miss=True),),
    "quasilinear": (_Probe(_QUASICONVEX, (False, True), _PAIR, near_miss=True),),
    "semistrictly-quasiconvex": (_Probe(_SEMISTRICT, near_miss=True),),
    "semistrictly-quasiconcave": (_Probe(_SEMISTRICT, (True,), near_miss=True),),
    "semistrictly-quasilinear": (
        _Probe(_INTERLACING, near_miss=True),
        _Probe(_STRICT_BOUNDS, placement=_SWEEP),
    ),
    "pseudolinear": (
        _Probe(_P_IDENTITY, near_miss=True),
        _Probe(_SYMMETRIC, placement=_PAIR),
        _Probe(_WEAK_BOUNDS, placement=_SWEEP),
        _Probe(_GRADIENT_KERNEL, placement=_KERNEL, near_miss=True,
               nonsmooth=_SUBDIFF_KERNEL),
    ),
}


def _placements(ctx: _Context, probe: _Probe, negated: bool, x, y):
    """The (a, b, lam) at which a probe runs on the sampled pair (x, y)."""
    if probe.placement == _PAIR:
        yield x, y, None
    elif probe.placement == _SWEEP:
        for lam in ctx.interior_lams:
            yield x, y, lam
    else:
        for a, b in ((x, y), (y, x)):
            yield a, b, None
            if probe.placement != _KERNEL:
                continue
            # Kernel conditions bind on measure-zero sets: also probe b
            # projected onto the kernel of each generator at a.
            g = ctx.gradient(a, negated)
            for gen in [g] if g is not None else ctx.subdiff(a, negated).generators:
                bp = _project_to_kernel(a, b, gen)
                if bp is not None and ctx.feasible(bp):
                    yield a, bp, None


def _pair_samples(ctx: _Context, prop: str, pairs):
    """Yield, for each sampled pair in turn, every (outcome, check,
    predicate, negated) the property's probes derive from it, in probe
    order, or None for a pair on which an estimate failed.  A value-only
    probe runs over all pairs up front, in one call, and keeps the Check of
    its failures only (None otherwise)."""
    probes = [(probe, probe.predicate_for(ctx), negated)
              for probe in _PROBES[prop] for negated in probe.sides]
    rows = {j: _value_rows(ctx, probe, pred, negated, pairs)
            for j, (probe, pred, negated) in enumerate(probes) if pred.lam}
    for probe, pred, negated in probes:
        if pairs and not pred.lam:
            # The estimates at the pairs' starts, kernel projections aside
            # (they start where their pair does).
            xs, ys = (np.array(side) for side in zip(*pairs))
            if probe.placement != _PAIR:
                xs, ys = np.concatenate([xs, ys]), np.concatenate([ys, xs])
            pred.prefetch(ctx, negated, xs, ys)
    for i, (x, y) in enumerate(pairs):
        samples = []
        try:
            for j, (probe, pred, negated) in enumerate(probes):
                found = rows.get(j)
                for r, (a, b, lam) in enumerate(_placements(ctx, probe, negated, x, y)):
                    if found is None:
                        check = pred.check(ctx, negated, a, b, lam)
                        samples.append((check.outcome, check, pred.name, negated))
                        continue
                    row = i * len(found.outcome) // len(pairs) + r
                    outcome = found.outcome[row]
                    check = found.check(row, a, b) if outcome == FAIL else None
                    samples.append((outcome, check, pred.name, negated))
        except EstimationError:
            samples = None
        yield samples


def _value_rows(ctx: _Context, probe: _Probe, pred: _Predicate, negated: bool, pairs):
    """A value-only probe at its placements on every pair, pair after pair,
    in one call (None when it places nothing)."""
    placed = [p for x, y in pairs for p in _placements(ctx, probe, negated, x, y)]
    if not placed:
        return None
    xs, ys, lams = zip(*placed)
    grid = ctx.lam_grid if lams[0] is None else np.array(lams)[:, None]
    return pred.rows(ctx, negated, np.array(xs), np.array(ys), grid)


def _near_misses(ctx: _Context, prop: str) -> list[Candidate]:
    """The pairs, in both orientations, closest to violating each near-miss
    probe of the property."""
    out = []
    for probe in _PROBES[prop]:
        if not probe.near_miss:
            continue
        pred = probe.predicate_for(ctx)
        oriented = [ab for x, y in ctx.pairs for ab in ((x, y), (y, x))]
        for negated in probe.sides:
            scored = []
            if pred.lam:
                xs, ys = (np.array(side) for side in zip(*oriented))
                margins = pred.rows(ctx, negated, xs, ys, ctx.lam_grid).margin.tolist()
                scored = [(m, Candidate(pred.name, negated, a, b))
                          for m, (a, b) in zip(margins, oriented)]
            else:
                for a, b in oriented:
                    try:
                        margin = pred.check(ctx, negated, a, b, None).margin
                    except EstimationError:
                        continue
                    scored.append((margin, Candidate(pred.name, negated, a, b)))
            scored.sort(key=lambda t: -t[0])
            out.extend(c for _, c in scored[:NEAR_MISS_CANDIDATES])
    return out


def _candidate(predicate: str, negated: bool, check: ck.Check) -> Candidate:
    """Refinement seed of a failed check: the pair it ran on, which may be a
    kernel projection or the reversed orientation of the sampled pair, and
    its failing lambda for a segment check."""
    return Candidate(predicate, negated, check.x, check.y, check.lam)


def _classify_property(ctx: _Context, prop: str) -> PropertyVerdict:
    tally = _Tally()
    raw_witnesses: list[Witness] = []
    soft_candidates: list[tuple[float, Candidate]] = []

    for samples in _pair_samples(ctx, prop, ctx.pairs):
        if samples is None:
            tally.inconclusive += 1
            continue
        if any(outcome == PASS for outcome, *_ in samples):
            tally.pass_pairs += 1
        for outcome, check, predicate, negated in samples:
            tally.add(outcome)
            if outcome != FAIL:
                continue
            w = _witness_from_check(predicate, negated, check)
            if w is not None:
                raw_witnesses.append(replace(w, property=prop))
            else:
                soft_candidates.append((check.residual, _candidate(predicate, negated, check)))

    witnesses = sorted(raw_witnesses, key=Witness.sort_key)[:MAX_WITNESSES]

    # Refine near-ties, and search near-misses when nothing failed outright.
    candidates = [c for _, c in sorted(soft_candidates, key=lambda t: -t[0])]
    if not witnesses and not candidates:
        candidates = _near_misses(ctx, prop)

    soft_set = {id(c) for _, c in soft_candidates}
    for cand in candidates[:MAX_REFINED_CANDIDATES]:
        if len(witnesses) >= 4:
            break
        try:
            result = _refine(ctx, cand, ctx.plan.refinement_rounds)
        except EstimationError:
            tally.inconclusive += 1
            continue
        if result.witness is not None:
            witnesses.append(replace(result.witness, property=prop))
        elif id(cand) in soft_set:
            # A raw failure that would not harden is a near-tie: the sample
            # is reclassified as inconclusive instead of counting against
            # the property.
            tally.fails -= 1
            tally.inconclusive += 1

    witnesses = sorted(witnesses, key=Witness.sort_key)[:MAX_WITNESSES]

    if witnesses:
        verdict = REFUTED
    elif tally.fails > 0:
        # Raw failures that were neither hardened nor discarded (refinement
        # budget exhausted): not decidable either way.
        verdict = INCONCLUSIVE
    elif tally.pass_pairs < MIN_NONVACUOUS:
        # Evidence diversity is measured in distinct pairs, not in samples:
        # one pair alone contributes a whole lambda grid of passes.
        verdict = INCONCLUSIVE
    else:
        verdict = HOLDS
    return PropertyVerdict(
        prop, verdict, tally.passes, tally.vacuous, tally.fails,
        tally.inconclusive, tuple(witnesses),
    )


def classify(
    fn: FunctionHandle,
    region: Region,
    properties: tuple[str, ...] | list[str] | None,
    plan: SamplingPlan | None = None,
) -> list[PropertyVerdict]:
    """Run the mapped predicate campaign for every requested property."""
    plan = plan or SamplingPlan()
    props = tuple(properties) if properties else PROPERTIES
    for p in props:
        if p not in PROPERTIES:
            raise ValueError(f"unknown property {p!r} (known: {', '.join(PROPERTIES)})")
    ctx = _Context(fn, region, plan)
    return [_classify_property(ctx, p) for p in props]


def replay_witness(
    fn: FunctionHandle,
    region: Region,
    witness: Witness,
    plan: SamplingPlan | None = None,
):
    """Re-run the violated predicate on the witness points.

    Returns the fresh check result; a healthy witness reproduces outcome
    FAIL with the recorded residual to float identity.
    """
    return _check(_Context(fn, region, plan or SamplingPlan()), witness)


# --------------------------------------------------------------------------
# Implication lattice
# --------------------------------------------------------------------------

IMPLICATIONS: tuple[tuple[str, str], ...] = (
    ("pseudolinear", "pseudoconvex"),
    ("pseudolinear", "pseudoconcave"),
    ("pseudolinear", "semistrictly-quasiconvex"),
    ("pseudolinear", "semistrictly-quasiconcave"),
    ("pseudolinear", "semistrictly-quasilinear"),
    ("pseudolinear", "quasilinear"),
    ("pseudoconvex", "quasiconvex"),
    ("pseudoconcave", "quasiconcave"),
    ("semistrictly-quasiconvex", "quasiconvex"),
    ("semistrictly-quasiconcave", "quasiconcave"),
    ("semistrictly-quasilinear", "semistrictly-quasiconvex"),
    ("semistrictly-quasilinear", "semistrictly-quasiconcave"),
    ("semistrictly-quasilinear", "quasilinear"),
    ("quasilinear", "quasiconvex"),
    ("quasilinear", "quasiconcave"),
)


@dataclass(frozen=True)
class LatticeViolation:
    function: str
    antecedent: str
    consequent: str

    def to_dict(self) -> dict:
        return {
            "function": self.function,
            "antecedent": self.antecedent,
            "consequent": self.consequent,
        }


def check_implication_lattice(
    verdict_sets: dict[str, dict[str, str]],
) -> list[LatticeViolation]:
    """Self-diagnostic: an antecedent holding while its consequent is refuted
    contradicts a known implication between the properties, so any entry in
    the returned list is a tool bug, never a fact about the function."""
    violations = []
    for name in sorted(verdict_sets):
        verdicts = verdict_sets[name]
        for ante, cons in IMPLICATIONS:
            if verdicts.get(ante) == HOLDS and verdicts.get(cons) == REFUTED:
                violations.append(LatticeViolation(name, ante, cons))
    return violations
