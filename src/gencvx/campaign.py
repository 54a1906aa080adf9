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
from dataclasses import dataclass, replace

import numpy as np

from . import checks as ck
from .checks import FAIL, INCONCLUSIVE, PASS, VACUOUS
from .functions import LOCALLY_LIPSCHITZ, PROPERTIES, FunctionHandle, negate_handle
from .geometry import Region, RegionTooThinError
from .nonsmooth import EstimationError, subdifferential, subdifferentials

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


def _row_keys(points: np.ndarray) -> list[bytes]:
    """Each row's bytes, as row.tobytes() gives them, in one call."""
    p = np.ascontiguousarray(points, dtype=float)
    return p.view(np.dtype((np.void, p.shape[1] * p.itemsize))).ravel().tolist()


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
            keys = _row_keys(points)
            got = list(map(values.get, keys))
            if None in got:
                missing = {key: r for r, (key, v) in enumerate(zip(keys, got)) if v is None}
                values.update(zip(missing, fn.values(points[list(missing.values())]).tolist()))
                got = list(map(values.__getitem__, keys))
            return np.array(got, dtype=float)

        self.fn = replace(fn, evaluate=tabled, evaluate_rows=tabled_rows)
        self.neg_fn = negate_handle(self.fn)
        self.smooth = fn.smoothness != LOCALLY_LIPSCHITZ
        self.region = region
        self.plan = plan
        self.lam_grid = tuple(float(t) for t in np.linspace(0.0, 1.0, plan.lambda_grid))
        self.interior_lams = tuple(t for t in self.lam_grid if 0.0 < t < 1.0)
        self._subdiffs: dict[bytes, object] = {}
        self._pairs: list[tuple[np.ndarray, np.ndarray]] | None = None

    def handle(self, negated: bool) -> FunctionHandle:
        return self.neg_fn if negated else self.fn

    def grid(self, lam: float | None) -> tuple[float, ...]:
        return self.lam_grid if lam is None else (lam,)

    def gradients(self, points: np.ndarray, negated: bool):
        """For a smooth handle, its gradient at each row of points with the
        flags of the rows that have one; None for a nonsmooth handle."""
        return self.handle(negated).grads(points) if self.smooth else None

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

    def generators(self, points: np.ndarray, negated: bool = False) -> ck.Generators:
        """The generators of the estimates of the subdifferential of f (of
        -f when negated) at each row of points.  The rows not yet estimated
        are estimated in one call; an estimate that failed is stored, without
        its traceback, and its row carries the failure, which a check raises
        afresh when it reads that row."""
        keys = _row_keys(points)
        todo = {key: x for key, x in zip(keys, points) if key not in self._subdiffs}
        if todo:
            self._estimate(todo)
        ests = [self._subdiffs[key] for key in keys]
        gens = ck.Generators.of(
            [e if isinstance(e, EstimationError) else e.generators for e in ests], points.shape[1])
        return gens.negated() if negated else gens

    def _estimate(self, todo: dict[bytes, np.ndarray]) -> None:
        """Estimate f's subdifferential at each point, keyed by its bytes,
        and store each estimate or its failure."""
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
        self._subdiffs.update(zip(todo, ests))

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
# Predicates: one row kernel per name, run alike by sampling, near-miss
# search, refinement (which climbs the check's margin) and replay
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _Predicate:
    """A named predicate: `rows` runs its kernel over rows of pairs in one
    call, and `check` on one pair.

    Those with `lam` set are segment conditions, which read values only:
    lams=None runs them over the plan's lambda grid, and refinement seeds
    and moves a single lambda for them.  The others read the generators of
    subdifferential estimates, estimated in one call per point set a kernel
    reads; the kernel conditions (`gradient` set) read a smooth handle's
    gradient instead where it has one.
    """

    name: str
    lam: bool = False
    gradient: bool = False

    def rows(self, ctx: _Context, negated: bool, xs, ys, lams=None, gradients=None) -> ck.Rows:
        """gradients, for a kernel condition, are those at xs when read
        already."""
        fn = ctx.handle(negated)
        if self.lam:
            return ck.check_rows(self.name, fn, xs, ys, ctx.lam_grid if lams is None else lams)
        if self.gradient and gradients is None:
            gradients = ctx.gradients(np.atleast_2d(xs), negated)
        return ck.check_generator_rows(
            self.name, fn, xs, ys, lambda points, neg: ctx.generators(points, neg != negated),
            gradients,
        )

    def check(self, ctx: _Context, negated: bool, x, y, lam: float | None) -> ck.Check:
        return self.rows(ctx, negated, x, y, ctx.grid(lam)).check(0, x, y)


_PSEUDOCONVEX = _Predicate("pseudoconvex-pair")
_P_IDENTITY = _Predicate("proportional-identity")
_SYMMETRIC = _Predicate("symmetric-equality")
_GRADIENT_KERNEL = _Predicate("gradient-kernel", gradient=True)
_SUBDIFF_KERNEL = _Predicate("subdifferential-kernel", gradient=True)
_QUASICONVEX = _Predicate("quasiconvex-segment", lam=True)
_SEMISTRICT = _Predicate("semistrict-quasiconvex-segment", lam=True)
_INTERLACING = _Predicate("interlacing-segment", lam=True)
_STRICT_BOUNDS = _Predicate("interpolation-strict-bounds", lam=True)
_WEAK_BOUNDS = _Predicate("interpolation-weak-bounds", lam=True)

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


def _refine(ctx: _Context, cand: Candidate, rounds: int):
    """One candidate's refinement as a sequence of steps.  Each step yields
    the rows it scores, (xs, ys, lams) with lams (k, 1) or None for the
    lambda grid, and is sent their Rows; the sequence returns the
    RefineResult.  A move takes the first of its trials that raises the
    margin, and a failed estimate of a trial raises only when no earlier
    trial was taken."""
    pred = _PREDICATES[cand.predicate]
    x, y, lam = cand.x, cand.y, cand.lam
    if lam is None and pred.lam and ctx.interior_lams:
        # A segment seed starts at the first grid lambda of largest margin.
        lams = np.array(ctx.interior_lams)[:, None]  # one per row
        rows = yield _repeat(x, len(lams)), _repeat(y, len(lams)), lams
        lam = ctx.interior_lams[int(np.argmax(rows.margin))]
    span = ctx.region.upper - ctx.region.lower
    # Lambda stays within the grid's interior resolution: the strict segment
    # conditions are sampled no finer than the grid, and ties manufactured at
    # vanishing lambda carry no evidence.
    lam_lo = 1.0 / (ctx.plan.lambda_grid - 1) if ctx.plan.lambda_grid >= 3 else 0.25
    rows = yield x[None], y[None], None if lam is None else np.array([[lam]])
    best = rows.check(0, x, y)
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
            # The move's trials as rows, in the order they are tried.
            if kind == "lam":
                xs, ys = _repeat(x, trials), _repeat(y, trials)
                lams = np.clip(lam + _REFINE_STEPS, lam_lo, 1.0 - lam_lo)
            else:
                moved = _repeat(x if kind == "x" else y, trials)
                moved[:, i] += _REFINE_STEPS * span[i]
                xs, ys = (moved, y) if kind == "x" else (x, moved)
                xs, ys = np.broadcast_arrays(xs, ys)
                keep = ctx.feasible(moved) & ~(xs == ys).all(axis=1)
                xs, ys = xs[keep], ys[keep]
                lams = None if lam is None else np.full(len(xs), lam)
            if not len(xs):
                continue
            rows = yield xs, ys, None if lams is None else lams[:, None]
            j = rows.first_above(best.margin)
            if j is not None:
                x, y = xs[j], ys[j]
                lam = None if lams is None else float(lams[j])
                best = rows.check(j, x, y)
                trace.append(best.margin)
                improved = True
        if not improved:
            break

    witness = _witness_from_check(cand.predicate, cand.negated, best)
    return RefineResult(witness, tuple(trace))


def _repeat(x: np.ndarray, k: int) -> np.ndarray:
    return np.repeat(x[None], k, axis=0)


def _refine_together(ctx: _Context, cands: list[Candidate], rounds: int) -> list:
    """Refine candidates in lockstep: each step scores the rows of every
    candidate still moving in one kernel call per (predicate, side), and
    hands each candidate its own.  Each result is the candidate's
    RefineResult, or the EstimationError its refinement raised; it equals
    the candidate refined alone."""
    results: list = [None] * len(cands)
    steps = [_refine(ctx, cand, rounds) for cand in cands]
    wanted: dict[int, tuple] = {}

    def advance(i: int, rows) -> None:
        try:
            wanted[i] = steps[i].send(rows)
        except StopIteration as done:
            results[i] = done.value
        except EstimationError as exc:
            results[i] = exc

    for i in range(len(cands)):
        advance(i, None)
    while wanted:
        asked, wanted = wanted, {}
        groups: dict[tuple, list[int]] = {}
        for i, (_, _, lams) in asked.items():
            groups.setdefault((cands[i].predicate, cands[i].negated, lams is None), []).append(i)
        for (name, negated, grid), members in groups.items():
            parts = [asked[i] for i in members]
            xs, ys = (np.concatenate([part[f] for part in parts]) for f in (0, 1))
            lams = None if grid else np.concatenate([part[2] for part in parts])
            rows = _PREDICATES[name].rows(ctx, negated, xs, ys, lams)
            stop = 0
            for i, part in zip(members, parts):
                start, stop = stop, stop + len(part[0])
                advance(i, rows.part(start, stop))
    return results


def _witness_from_check(
    predicate: str, negated: bool, check: ck.Check, prop: str = ""
) -> Witness | None:
    """Turn a credible failed check into a Witness of prop (else None)."""
    if not check.credible:
        return None
    values = {"fx": check.fx, "fy": check.fy}
    if check.fz is not None:
        values["fz"] = check.fz
    return Witness(
        property=prop,
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
    (result,) = _refine_together(_Context(fn, region, plan or SamplingPlan()), [candidate], rounds)
    if isinstance(result, EstimationError):
        raise result
    return result


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


def _placed(ctx: _Context, probe: _Probe, negated: bool, pairs):
    """Where a probe runs on the sampled pairs, pair after pair: each row's
    endpoints (the sampled points themselves, or a kernel projection), the
    pair it comes from, the rows' lambdas ((k, 1), or None for the grid),
    the pairs whose placement read a failed estimate, and the gradients at
    the rows' first endpoints where the placement read them (else None)."""
    index = range(len(pairs))
    if probe.placement == _PAIR:
        return list(pairs), list(index), None, set(), None
    if probe.placement == _SWEEP:
        lams = ctx.interior_lams
        return ([ab for ab in pairs for _ in lams], [i for i in index for _ in lams],
                np.tile(lams, len(pairs))[:, None], set(), None)
    ends = [ab for x, y in pairs for ab in ((x, y), (y, x))]
    pair = [i for i in index for _ in (0, 1)]
    if probe.placement == _BOTH:
        return ends, pair, None, set(), None
    # Kernel conditions bind on measure-zero sets: each orientation (a, b)
    # is followed by b projected onto the kernel of each generator at a,
    # where that moves it and stays feasible.
    a, b = (np.array(side) for side in zip(*ends))
    grads = ctx.gradients(a, negated)
    gens = ck.kernel_generators(len(a), grads, lambda rows: ctx.generators(a[rows], negated))
    g, own = gens.g, gens.owner
    gg = ck.dots(g, g)
    with np.errstate(divide="ignore", invalid="ignore"):
        bp = b[own] - g * (ck.dots(g, b[own] - a[own]) / gg)[:, None]
    keep = (gg > 1e-24) & ~(abs(bp - a[own]) <= 1e-12).all(axis=1)
    keep[keep] = ctx.feasible(bp[keep])
    projected: dict[int, list] = {}
    for f in np.flatnonzero(keep):
        projected.setdefault(int(own[f]), []).append((ends[own[f]][0], bp[f]))
    rows, rows_pair, origin = [], [], []
    for o, ab in enumerate(ends):
        for row in (ab, *projected.get(o, ())):
            rows.append(row)
            rows_pair.append(pair[o])
            origin.append(o)
    gradients = None if grads is None else tuple(v[origin] for v in grads)
    return rows, rows_pair, None, {pair[i] for i in gens.failed}, gradients


def _pair_samples(ctx: _Context, prop: str, pairs):
    """Yield, for each sampled pair in turn, every (outcome, check,
    predicate, negated) the property's probes derive from it, in probe
    order, or None for a pair on which an estimate failed.  Each probe runs
    over its placements on all pairs in one kernel call, and keeps the
    Check of its failures only (None otherwise)."""
    probes = []
    broken: set[int] = set()
    for probe in _PROBES[prop]:
        pred = probe.predicate_for(ctx)
        for negated in probe.sides:
            ends, pair, lams, failed, gradients = _placed(ctx, probe, negated, pairs)
            if not ends:  # a sweep over a grid without interior lambdas
                continue
            xs, ys = (np.array(side) for side in zip(*ends))
            rows = pred.rows(ctx, negated, xs, ys, lams, gradients)
            broken |= failed | {pair[r] for r in rows.failed or ()}
            bounds = np.searchsorted(pair, np.arange(len(pairs) + 1)).tolist()
            probes.append((pred.name, negated, ends, rows, bounds))
    for i in range(len(pairs)):
        if i in broken:
            yield None
            continue
        samples = []
        for name, negated, ends, rows, bounds in probes:
            for r in range(bounds[i], bounds[i + 1]):
                outcome = rows.outcome[r]
                check = rows.check(r, *ends[r]) if outcome == FAIL else None
                samples.append((outcome, check, name, negated))
        yield samples


def _near_misses(ctx: _Context, prop: str) -> list[Candidate]:
    """The pairs, in both orientations, closest to violating each near-miss
    probe of the property, scored in one kernel call per probe and side;
    pairs whose estimate failed are passed over."""
    oriented = [ab for x, y in ctx.pairs for ab in ((x, y), (y, x))]
    xs, ys = (np.array(side) for side in zip(*oriented))
    out = []
    for probe in _PROBES[prop]:
        if not probe.near_miss:
            continue
        pred = probe.predicate_for(ctx)
        for negated in probe.sides:
            rows = pred.rows(ctx, negated, xs, ys)
            failed = rows.failed or {}
            scored = [(m, Candidate(pred.name, negated, a, b))
                      for r, (m, (a, b)) in enumerate(zip(rows.margin.tolist(), oriented))
                      if r not in failed]
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
            w = _witness_from_check(predicate, negated, check, prop)
            if w is not None:
                raw_witnesses.append(w)
            else:
                soft_candidates.append((check.residual, _candidate(predicate, negated, check)))

    witnesses = sorted(raw_witnesses, key=Witness.sort_key)[:MAX_WITNESSES]

    # Refine near-ties, and search near-misses when nothing failed outright.
    candidates = [c for _, c in sorted(soft_candidates, key=lambda t: -t[0])]
    if not witnesses and not candidates:
        candidates = _near_misses(ctx, prop)

    soft_set = {id(c) for _, c in soft_candidates}
    # The candidates are refined together, and their results read in order
    # until four witnesses are found.
    refined = candidates[:MAX_REFINED_CANDIDATES] if len(witnesses) < 4 else []
    for cand, result in zip(refined, _refine_together(ctx, refined, ctx.plan.refinement_rounds)):
        if len(witnesses) >= 4:
            break
        if isinstance(result, EstimationError):
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
