"""Sampling campaigns: property verdicts over (x, y, lambda) samples.

classify() draws deterministic point pairs from the region, runs the
predicate set mapped to each requested property, and aggregates outcomes
into per-property verdicts:

    refuted          at least one credible witness (residual above its
                     hysteresis threshold, possibly after refinement);
    holds-at-samples no failures of any kind and enough non-vacuous passes;
    inconclusive     otherwise (vacuous-only evidence, estimator failures,
                     or near-tie failures that refinement could not harden).

The value-only predicates read f on the sampled pairs' segments from one
grid per context (_Segments), which evaluates a cell only when a
predicate's read rule first names it.

Violations of several characterizations concentrate on measure-zero sets
(gradient kernels, flat pieces), so raw sampling is complemented by two
devices: one pair in ten is drawn nearly collinear with a coordinate axis,
and the samples closest to a violation are pushed through local coordinate
ascent on the check's margin before the property may be declared to hold.
The candidates of every property of a classify call climb together as
array state in one ascent (_Ascent).  Each step reads f once for all its
trial rows, whatever their predicate (one call at the endpoints, one at
the segment points), runs one kernel per predicate and grid, rows on f and
on -f alike, and advances every candidate in one take;
refine_counterexample is the one-candidate case.

Everything derives from the plan seed through per-sample-index substreams,
so results are identical however the work is scheduled.
"""

from __future__ import annotations

import hashlib
import numbers
from collections import Counter
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import checks as ck
from .checks import FAIL, INCONCLUSIVE
from .functions import LOCALLY_LIPSCHITZ, PROPERTIES, FunctionHandle
from ._pcg import generator, pcg64_states, position, to_ints, uniform_block
from .geometry import Region, RegionTooThinError, _accept_mask, segment_point
# subdifferential is not called here; perfbench's tracer and its tests look
# it up as campaign.subdifferential.
from .nonsmooth import EstimationError, _by_row, subdifferential, subdifferential_rows  # noqa: F401

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
# Rows drawn per uniform call of a pair stream, and the rejected draws in a
# row after which pair sampling gives up.
_PAIR_BLOCK = 8
_MAX_REJECTIONS = 200_000
# Draws of every pair stream read by array operations: its first
# _PAIR_BLOCK, and the rest only where those hold no pair.
_PAIR_HEAD = 4 * _PAIR_BLOCK


def _row_keys(points: np.ndarray) -> list[bytes]:
    """Each row's bytes, as row.tobytes() gives them, in one call."""
    p = np.ascontiguousarray(points, dtype=float)
    return p.view(np.dtype((np.void, p.shape[1] * p.itemsize))).ravel().tolist()


def _point_entropy(x: np.ndarray) -> int:
    """The seed of the estimates at x: 64 bits of a hash of its bytes, so an
    estimate depends on its point alone, not on the plan seed or on the
    order in which points are estimated."""
    digest = hashlib.blake2b(x.tobytes(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _check_types(owner, kind, what: str, names: str, optional: bool = False) -> None:
    """ValueError naming the first of owner's fields (names, space-separated)
    that is not a kind, None passing where optional; a bool is no number."""
    for name in names.split():
        value = getattr(owner, name)
        if not (optional and value is None or isinstance(value, kind) and not isinstance(value, bool)):
            raise ValueError(f"{name} must be {what}, got {value!r}")


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
        _check_types(self, numbers.Integral, "an integer", "pair_count lambda_grid refinement_rounds seed")
        _check_types(self, numbers.Integral, "an integer", "subdiff_count", optional=True)
        _check_types(self, numbers.Real, "a number", "subdiff_radius")
        if min(self.pair_count, self.lambda_grid, self.refinement_rounds) <= 0:
            raise ValueError("plan counts must be positive")
        if not self.subdiff_radius > 0:  # NaN too
            raise ValueError(f"subdiff_radius must be positive, got {self.subdiff_radius!r}")

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
# Campaign context: seeded sampling streams, the segment grid and estimate cache
# --------------------------------------------------------------------------


class _Context:
    """What a classify call shares: its pairs, their segment grid, and the
    subdifferential at points: on a smooth handle its gradient where it has
    one (see generators), else an estimate, made once into the cache."""

    def __init__(self, fn: FunctionHandle, region: Region, plan: SamplingPlan):
        if fn.dimension != region.dimension:
            raise ValueError("function and region dimensions differ")
        self.subdiff_count = plan.resolved_subdiff_count(fn.dimension)
        self.fn = fn
        self.smooth = fn.smoothness != LOCALLY_LIPSCHITZ
        self.region = region
        self.plan = plan
        self.lam_grid = tuple(float(t) for t in np.linspace(0.0, 1.0, plan.lambda_grid))
        self.interior_lams = tuple(t for t in self.lam_grid if 0.0 < t < 1.0)
        # The estimate cache: each point's bytes name a row of _cache, the
        # generators of its estimate (or its failure), with the row's kink
        # flag and radius beside it.
        self._at: dict[bytes, int] = {}
        self._cache = ck.Generators.of([], fn.dimension)
        self._kink = np.zeros(0, dtype=bool)
        self._radius = np.zeros(0)
        self._pairs: tuple[np.ndarray, np.ndarray] | None = None
        self._segments: _Segments | None = None

    # -- deterministic sampling ------------------------------------------------

    def _accepted(self, rng: np.random.Generator, block: np.ndarray | None = None):
        """The draws of a stream that lie in the region at its margin, each
        with its index among the draws, in the order that one-row draws
        would find them.  block, where given, holds the stream's first
        draws and rng is positioned just after them; every further block of
        _PAIR_BLOCK rows is one uniform call, which gives the rows of that
        many one-row calls bit for bit.  Raises RegionTooThinError once
        _MAX_REJECTIONS draws in a row are rejected."""
        region = self.region
        shape = (_PAIR_BLOCK, region.dimension)
        start, last = 0, -1
        while True:
            if block is None:
                block = rng.uniform(region.lower, region.upper, size=shape)
            for r in np.flatnonzero(_accept_mask(region, block)).tolist():
                if start + r - last > _MAX_REJECTIONS:
                    break
                last = start + r
                yield last, block[r]
            start += len(block)
            block = None
            if start - last > _MAX_REJECTIONS:
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
                return y
        return next(self._accepted(rng))[1]

    def _head_pairs(self, head: np.ndarray, axis: np.ndarray):
        """Each stream's pair as its head, its first m draws, gives it, for
        k streams' heads in a (k, m, n) array: the index of the stream's
        first draw in the region, that draw x, its next draw there y, and
        whether the head holds the pair.  It does when it holds x and, on a
        stream other than an axis stream, a y that differs from x.  No gap
        between draws in a head exceeds m, so a larger rejection limit
        cannot starve it."""
        k, m, n = head.shape
        accepted = _accept_mask(self.region, head.reshape(-1, n)).reshape(k, m)
        rows = np.arange(k)
        found = accepted.sum(axis=1)
        first = np.argmax(accepted, axis=1)
        accepted[rows, first] = False
        xs, ys = head[rows, first], head[rows, np.argmax(accepted, axis=1)]
        quick = np.where(axis, found >= 1, (found >= 2) & (xs != ys).any(axis=1))
        return first, xs, ys, quick & (_MAX_REJECTIONS >= m)

    @property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The sampled pairs as two read-only (k, n) arrays, x and y.  Pair
        i reads its own stream: x is its first draw in the region, y the
        next one that differs from x, or for every tenth pair x's axis
        partner.

        The first _PAIR_BLOCK draws of every stream are made in one
        uniform_block call, and the next ones up to _PAIR_HEAD in one more
        for the streams that hold no pair in them; a pair found there is
        picked by array operations.  The other pairs, and the axis
        partners, read their streams through one positioned generator, a
        stream that runs out continuing from where its head ended."""
        if self._pairs is None:
            region, n, count = self.region, self.fn.dimension, self.plan.pair_count
            seeded = pcg64_states(
                [(self.plan.seed & 0xFFFFFFFFFFFFFFFF, _DOMAIN_PAIR, i) for i in range(count)])
            axis = np.arange(count) % 10 == 9
            head, ends = uniform_block(seeded, region.lower, region.upper, _PAIR_BLOCK)
            first, xs, ys, quick = self._head_pairs(head, axis)
            # The streams without a pair there go on from where their rows ended.
            late, heads = np.flatnonzero(~quick), {}
            if late.size:
                more, ends[late] = uniform_block((ends[late], seeded[1][late]), region.lower,
                                                 region.upper, _PAIR_HEAD - _PAIR_BLOCK)
                head = np.concatenate([head[late], more], axis=1)
                first[late], xs[late], ys[late], quick[late] = self._head_pairs(head, axis[late])
                heads = dict(zip(late.tolist(), head))
            todo = np.flatnonzero(axis | ~quick)
            rng = generator()
            starts, incs, resumes = (to_ints(a[todo]) for a in (*seeded, ends))
            for i, start, inc, resume in zip(todo.tolist(), starts, incs, resumes):
                if quick[i]:
                    at = int(first[i])
                else:
                    draws = self._accepted(position(rng, resume, inc), heads[i])
                    at, xs[i] = next(draws)
                if axis[i]:
                    # Kernel conditions live on measure-zero sets: stress them
                    # with nearly axis-collinear pairs.  The partner reads the
                    # stream from just after x; each uniform draw of a row is
                    # n steps of the stream.
                    position(rng, start, inc).bit_generator.advance((at + 1) * n)
                    ys[i] = self._axis_partner(rng, xs[i], (i // 10) % n)
                else:
                    ys[i] = next(row for _, row in draws if not np.array_equal(row, xs[i]))
            self._pairs = xs, ys
            for side in self._pairs:
                side.flags.writeable = False
        return self._pairs

    def segments(self, xs: np.ndarray, ys: np.ndarray) -> "_Segments":
        """The segment grid of the pairs (xs[i], ys[i]), kept for as long as
        they are the pairs asked for (the sampled pairs, in a classify)."""
        held = self._segments
        if held is None or held.xs is not xs or held.ys is not ys:
            self._segments = held = _Segments(self, xs, ys)
        return held

    # -- subdifferential cache ---------------------------------------------------

    def generators(self, points: np.ndarray) -> ck.Generators:
        """The generators of the estimates of the subdifferential of f at
        each row of points (a check negates those of the rows it runs on
        -f).  On a smooth handle the Clarke subdifferential at x is
        {grad f(x)}: a row where the handle has a gradient (all rows read in
        one grads call, or one by one where that raises) and room for the
        estimate's ball holds that gradient alone, with no estimate made or
        stored.  Every other row
        is gathered from the estimate cache in one index operation, the
        points not yet estimated being estimated in one call; an estimate
        that failed is stored, without its traceback, and its row carries
        the failure, which a check raises afresh when it reads that row."""
        if not self.smooth:
            return self._cached(points)
        g, has = _by_row(self.fn.grads, points)
        has &= self.feasible(points)
        direct, rest = np.flatnonzero(has), np.flatnonzero(~has)
        rows, ones = np.arange(len(direct)), np.ones(len(direct), dtype=np.intp)
        gens = ck.Generators(g[direct], rows, rows, ones, {})
        if not rest.size:
            return gens
        gens = gens.joined(self._cached(points[rest]))
        return gens.take(np.argsort(np.concatenate([direct, rest])))

    def _cached(self, points: np.ndarray) -> ck.Generators:
        """The estimates at the rows of points, from the cache."""
        keys = _row_keys(points)
        todo = {key: i for i, key in enumerate(keys) if key not in self._at}
        if todo:
            self._estimate(list(todo), points[list(todo.values())])
        return self._cache.take(np.array([self._at[key] for key in keys], dtype=np.intp))

    def _estimate(self, keys: list[bytes], xs: np.ndarray) -> None:
        """Estimate f's subdifferential at each row of xs, whose bytes are
        the key beside it, and store each estimate or its failure as a row
        of the cache."""
        radius = self.plan.subdiff_radius
        rows = self._store(xs, radius)
        # A spread at radius r may come from a kink merely nearby.  Shrinking
        # the ball separates the cases: at a true kink the spread persists,
        # near one it collapses and the fine coherent estimate (or its
        # failure) is the honest set at x.
        kinked = np.flatnonzero(self._kink[rows])
        if kinked.size:
            fine = self._store(xs[kinked], radius / 1000.0)
            rows[kinked] = np.where(self._kink[fine], rows[kinked], fine)
        self._at.update(zip(keys, rows.tolist()))

    def _store(self, xs: np.ndarray, radius: float) -> np.ndarray:
        """Append the estimates at xs at the radius to the cache; their rows.
        A point's seed is hashed only where its ball is drawn."""
        gens, kink = subdifferential_rows(
            self.fn, self.region, xs, radius, self.subdiff_count, _point_entropy)
        first = len(self._kink)
        self._cache = self._cache.joined(gens)
        self._kink = np.concatenate([self._kink, kink])
        self._radius = np.concatenate([self._radius, np.full(len(kink), radius)])
        return np.arange(first, len(self._kink))

    def estimates(self) -> dict:
        """Each point estimated so far, by its bytes, in estimation order:
        its SubdifferentialEstimate of f, or the EstimationError stored for
        it."""
        return {key: self._cache.estimate(r, float(self._radius[r]), bool(self._kink[r]))
                for key, r in self._at.items()}

    def feasible(self, p: np.ndarray):
        """For a point, or for each row of a (k, n) array of points.  The
        radius is positive, so this already implies region.contains(p)."""
        return self.region.interior_slack(p) >= self.plan.subdiff_radius


class _Segments:
    """f on the segments of the pairs (xs[i], ys[i]) in both orientations,
    row 2i from xs[i] to ys[i] and row 2i+1 back, at each lambda of the
    plan's grid, with f at each orientation's start.  A cell is read from f
    when a predicate's read rule first names it, so every value-only probe
    and near-miss scan of the pairs, on f and on -f, reads each cell once
    and only the cells its rule names.  It is a classify call's only cache
    of f: other reads go to f itself.  Beside it are kept the probe runs on
    the pairs (_run)."""

    def __init__(self, ctx: _Context, xs: np.ndarray, ys: np.ndarray):
        self.fn = ctx.fn
        self.xs, self.ys = xs, ys
        self.a, self.b = _both(xs, ys)
        self.lams = np.array(ctx.lam_grid)
        self.starts: np.ndarray | None = None
        self.values = np.empty(len(self.a) * len(self.lams))
        self.known = np.zeros(len(self.values), dtype=bool)
        self.runs: dict = {}  # each probe run on these pairs, by _run

    def rows(self, predicate: str, negated: bool, orient: np.ndarray, col=None) -> ck.Rows:
        """The Rows ck.check_requests gives a value-only predicate's request
        on f (on -f when negated) at the grid rows orient, in placement
        order: over the lambda grid, or with col, at grid column col[r] for
        row r.  The grid is read in place of f, through read_rule and
        kernel_rows, so that no cell is read twice."""
        if self.starts is None:
            # The first read takes f at every pair's endpoints once, xs then
            # ys, in one call.
            f = self.fn.values(np.concatenate([self.xs, self.ys]))
            self.starts = f.reshape(2, -1).T.ravel()
        fx, fy = self.starts[orient], self.starts[orient ^ 1]
        if negated:
            fx, fy = -fx, -fy
        lams = self.lams if col is None else self.lams[col][:, None]
        cols, read = ck.read_rule(predicate, lams, fx, fy)
        grid_cols = cols[None, :] if col is None else col[:, None]
        cells = (orient[:, None] * len(self.lams) + grid_cols)[read]
        new = cells[~self.known[cells]]
        if new.size:
            o, c = np.divmod(new, len(self.lams))
            self.values[new] = self.fn.values(segment_point(self.a[o], self.b[o], self.lams[c]))
            self.known[new] = True
        fz = np.full((len(orient), len(cols)), np.nan)
        fz[read] = -self.values[cells] if negated else self.values[cells]
        lams = np.broadcast_to(lams[..., cols], fz.shape)
        return ck.kernel_rows(predicate, fx, fy, lams, fz)


# --------------------------------------------------------------------------
# Predicates: one row kernel per name, run alike by sampling, near-miss
# search, refinement (which climbs the check's margin) and replay
# --------------------------------------------------------------------------


def _check(ctx: _Context, c: Candidate | Witness) -> ck.Check:
    """Run the predicate a candidate or witness names, at its points: a
    segment predicate at its lambda, or without one over the plan's grid."""
    lams = None
    if ck._predicate(c.predicate).segment:
        lams = ctx.lam_grid if c.lam is None else (c.lam,)
    request = ck.Request(c.predicate, c.x, c.y, lams, c.negated)
    (rows,) = ck.check_requests(ctx.fn, [request], ctx.generators)
    return rows.check(0, c.x, c.y)


# --------------------------------------------------------------------------
# Counterexample refinement: coordinate ascent on a check's margin
# --------------------------------------------------------------------------


_REFINE_RUNGS = tuple(0.25 / (5.0**k) for k in range(9))
# A coordinate move tries each rung in turn, first up and then down.
_REFINE_STEPS = np.array([sign * rung for rung in _REFINE_RUNGS for sign in (1.0, -1.0)])


# A candidate's phase: scoring its seed, climbing by moves, done.
_SEED, _MOVES, _DONE = range(3)


class _Ascent:
    """Candidates' coordinate ascent on a check's margin, with their state
    as arrays: each candidate's side, points, lambda (NaN for the grid),
    phase, move, rounds ended and best margin are rows, and its best (Rows,
    row) and score trace are kept beside them.

    A segment seed without a lambda is scored at each interior grid lambda
    and starts at the first of largest margin.  A move is one coordinate of
    x, then of y, then lambda, tried at each of _REFINE_STEPS in turn; it
    takes the first trial that raises the margin, and an estimate that
    failed raises only where it comes before that trial.  Coordinate trials
    outside the feasible region, or with x == y, are dropped, and a move
    left without trials is skipped.  A seed outside the feasible region is
    scored but never moved, and a round without a move taken ends the
    ascent."""

    def __init__(self, ctx: _Context, cands: list[Candidate], rounds: int):
        self.ctx, self.cands, self.rounds = ctx, cands, rounds
        region, k = ctx.region, len(cands)
        self.span, self.n = region.upper - region.lower, region.dimension
        self.interior = np.array(ctx.interior_lams)
        # Lambda is not moved closer to an endpoint than the grid resolves:
        # the strict segment conditions are sampled no finer, and ties
        # manufactured at vanishing lambda carry no evidence.
        grid = ctx.plan.lambda_grid
        self.lam_lo = 1.0 / (grid - 1) if grid >= 3 else 0.25
        self.seeded = np.array(
            [c.lam is None and ck._predicate(c.predicate).segment for c in cands])
        self.seeded &= len(self.interior) > 0
        self.negated = np.array([c.negated for c in cands], dtype=bool)
        self.x = np.array([c.x for c in cands], dtype=float)
        self.y = np.array([c.y for c in cands], dtype=float)
        self.lam = np.array([np.nan if c.lam is None else c.lam for c in cands])
        has_lam = self.seeded | ~np.isnan(self.lam)
        self.phase = np.full(k, _SEED)
        self.moves = 2 * self.n + has_lam
        self.move = np.zeros(k, dtype=int)
        self.ended = np.zeros(k, dtype=int)
        self.improved = np.zeros(k, dtype=bool)
        self.best = np.zeros(k)
        self.kept: list = [None] * k
        self.traces: list[list[float]] = [[] for _ in cands]
        self.failures: list = [None] * k
        # Each candidate's group, the (predicate, grid) whose kernel call
        # its rows go to, on f and on -f alike; the calls of a step run in
        # order of first appearance.
        keys = [(c.predicate, bool(h)) for c, h in zip(cands, has_lam)]
        self.keys = list(dict.fromkeys(keys))
        self.group = np.array([self.keys.index(key) for key in keys])

    def moving(self) -> bool:
        return bool((self.phase != _DONE).any())

    def requests(self):
        """One request of every candidate still moving, as trial rows: each
        row's candidate, x, y and lambda, the rows of each (predicate, grid)
        together, in order of first appearance, and in candidate order
        within it."""
        x, y, lam, phase, move, n = self.x, self.y, self.lam, self.phase, self.move, self.n
        trials = len(_REFINE_STEPS)
        parts = []
        i = np.flatnonzero(phase == _SEED)
        if i.size:
            reps = np.where(self.seeded[i], len(self.interior), 1)
            lams = [self.interior if s else lam[j, None] for j, s in zip(i, self.seeded[i])]
            parts.append((np.repeat(i, reps), np.repeat(x[i], reps, 0), np.repeat(y[i], reps, 0),
                          np.concatenate(lams)))
        todo = np.flatnonzero(phase == _MOVES)
        while todo.size:
            on_lam = move[todo] == 2 * n
            if on_lam.any():
                i = todo[on_lam]
                lams = np.clip(lam[i, None] + _REFINE_STEPS, self.lam_lo, 1.0 - self.lam_lo)
                parts.append((np.repeat(i, trials), np.repeat(x[i], trials, 0),
                              np.repeat(y[i], trials, 0), lams.ravel()))
                todo = todo[~on_lam]
            if not todo.size:
                break
            on_x = move[todo] < n
            axis = np.where(on_x, move[todo], move[todo] - n)
            moved = np.repeat(np.where(on_x[:, None], x[todo], y[todo])[:, None], trials, 1)
            moved[np.arange(len(todo)), :, axis] += _REFINE_STEPS * self.span[axis][:, None]
            xs = np.where(on_x[:, None, None], moved, x[todo, None])
            ys = np.where(on_x[:, None, None], y[todo, None], moved)
            keep = self.ctx.feasible(moved.reshape(-1, n)).reshape(len(todo), trials)
            keep &= ~(xs == ys).all(axis=2)
            flat = keep.ravel()
            parts.append((np.repeat(todo, trials)[flat], xs[keep], ys[keep],
                          np.repeat(lam[todo], trials)[flat]))
            # A move left without trials is skipped.
            empty = todo[~keep.any(axis=1)]
            self._next_move(empty)
            todo = empty[phase[empty] == _MOVES]
        if len(parts) == 1 and len(self.keys) == 1:
            return parts[0]
        owner, xs, ys, lams = (np.concatenate(v) for v in zip(*parts))
        order = np.argsort(self.group[owner] * len(self.cands) + owner, kind="stable")
        return owner[order], xs[order], ys[order], lams[order]

    def take(self, parts: list, own, xs, ys, lams) -> None:
        """Read the Rows of one step, parts, whose rows in turn are the
        trials (xs[r], ys[r], lams[r]) of candidates own[r], each
        candidate's consecutive, and advance every candidate."""
        offset = np.cumsum([0] + [len(p.margin) for p in parts])
        margin = np.concatenate([p.margin for p in parts])
        failed = {o + r: e for o, p in zip(offset.tolist(), parts)
                  for r, e in (p.failed or {}).items()}
        start = np.flatnonzero(np.concatenate(([True], own[1:] != own[:-1])))
        stop = np.append(start[1:], len(own))
        who = own[start]
        seeds = self.phase[who] == _SEED
        # Each candidate's first row above its best margin (len(own) if none).
        above = np.where(margin > self.best[own], np.arange(len(own)), len(own))
        hit = np.minimum.reduceat(above, start)
        climbing = ~seeds & (hit < len(own))
        if failed:
            # A candidate reads its rows up to the trial it takes, or all.
            end = np.where(climbing, hit, stop)
            broke = np.zeros(len(who), dtype=bool)
            for r in sorted(failed):
                g = np.searchsorted(start, r, side="right") - 1
                if r < end[g] and not broke[g]:
                    broke[g] = True
                    error = failed[r]
                    self.failures[who[g]] = type(error)(*error.args)
            self.phase[who[broke]] = _DONE
            who, seeds, start, stop, hit, climbing = (
                v[~broke] for v in (who, seeds, start, stop, hit, climbing))
        hit[seeds] = start[seeds]
        for g in np.flatnonzero(seeds & self.seeded[who]):
            hit[g] += int(np.argmax(margin[start[g]:stop[g]]))
        taken = seeds | climbing
        i, r = who[taken], hit[taken]
        self.x[i], self.y[i], self.lam[i], self.best[i] = xs[r], ys[r], lams[r], margin[r]
        part = np.searchsorted(offset, r, side="right") - 1
        for i, r, p in zip(i.tolist(), r.tolist(), part.tolist()):
            self.kept[i] = parts[p], r - int(offset[p])
            self.traces[i].append(float(margin[r]))
        self.improved[who[climbing]] = True
        self._next_move(who[~seeds])
        if seeds.any():
            # A seed outside the feasible region is scored but never moved.
            i = who[seeds]
            feasible = self.ctx.feasible(self.x[i]) & self.ctx.feasible(self.y[i])
            self.phase[i] = np.where(feasible & (self.rounds > 0), _MOVES, _DONE)

    def _next_move(self, i: np.ndarray) -> None:
        """Candidates i are done with their current move."""
        if not i.size:
            return
        self.move[i] += 1
        i = i[self.move[i] == self.moves[i]]
        self.ended[i] += 1
        self.move[i] = 0
        self.phase[i[~self.improved[i] | (self.ended[i] >= self.rounds)]] = _DONE
        self.improved[i] = False

    def results(self) -> list:
        out = []
        for i, cand in enumerate(self.cands):
            if self.failures[i] is not None:
                out.append(self.failures[i])
                continue
            rows, r = self.kept[i]
            check = rows.check(r, self.x[i].copy(), self.y[i].copy())
            out.append(RefineResult(
                _witness_from_check(cand.predicate, cand.negated, check), tuple(self.traces[i])))
        return out


def _refine_together(ctx: _Context, cands: list[Candidate], rounds: int) -> list:
    """Refine candidates in lockstep: every step scores one request of each
    candidate still moving (its seed, or its current move's trials), with f
    read once for all its trial rows and one kernel call per (predicate,
    grid), whose rows each run on their candidate's side, f or -f; one take
    then advances every candidate.  Each result is the candidate's
    RefineResult, or the EstimationError its refinement raised: what a
    one-trial-at-a-time ascent gives it.  Identical candidates climb once
    and share their result."""
    if not cands:
        return []
    keys = [(c.predicate, c.negated, c.x.tobytes(), c.y.tobytes(),
             None if c.lam is None else np.float64(c.lam).tobytes()) for c in cands]
    unique = dict(zip(keys, cands))
    ascent = _Ascent(ctx, list(unique.values()), rounds)
    while ascent.moving():
        owner, xs, ys, lams = ascent.requests()
        ends = np.cumsum(np.bincount(ascent.group[owner], minlength=len(ascent.keys))).tolist()
        requests = []
        for (name, with_lam), lo, hi in zip(ascent.keys, [0] + ends, ends):
            if lo == hi:
                continue
            grid = None
            if ck.PREDICATES[name].segment:
                grid = lams[lo:hi, None] if with_lam else ctx.lam_grid
            requests.append(
                ck.Request(name, xs[lo:hi], ys[lo:hi], grid, ascent.negated[owner[lo:hi]]))
        ascent.take(ck.check_requests(ctx.fn, requests, ctx.generators), owner, xs, ys, lams)
    results = dict(zip(unique, ascent.results()))
    return [results[key] for key in keys]


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
    rounds: int | None = None,
    plan: SamplingPlan | None = None,
) -> RefineResult:
    """Locally maximize the violation of candidate.predicate around the seed.

    Coordinate descent over (x, y, lambda) on the check's margin: while the
    predicate passes, it climbs toward the violation boundary; once it
    fails, it is the violation residual, so the trace is nondecreasing.
    It climbs `rounds` rounds, by default the plan's refinement_rounds.
    Candidates whose final residual stays inside the hysteresis band are
    discarded (None).
    """
    ctx = _Context(fn, region, plan or SamplingPlan())
    rounds = ctx.plan.refinement_rounds if rounds is None else rounds
    (result,) = _refine_together(ctx, [candidate], rounds)
    if isinstance(result, EstimationError):
        raise result
    return result


# --------------------------------------------------------------------------
# Property -> predicate probes
# --------------------------------------------------------------------------


# Where a probe runs its predicate on a sampled pair (x, y).
_PAIR = "pair"      # (x, y) once
_BOTH = "both"      # (x, y), then (y, x)
_SWEEP = "sweep"    # (x, y) at each interior grid lambda
_KERNEL = "kernel"  # both orientations, each followed by its kernel projections


@dataclass(frozen=True)
class _Probe:
    predicate: str
    sides: tuple[bool, ...] = (False,)  # run on f (False), on -f (True), or both
    placement: str = _BOTH
    near_miss: bool = False  # searched over all pairs when nothing failed
    nonsmooth: str | None = None  # runs instead on locally Lipschitz handles

    def predicate_for(self, ctx: _Context) -> str:
        return self.predicate if ctx.smooth or self.nonsmooth is None else self.nonsmooth


# Each property's probes, in sampling order.
_PROBES: dict[str, tuple[_Probe, ...]] = {
    "pseudoconvex": (_Probe("pseudoconvex-pair", near_miss=True),),
    "pseudoconcave": (_Probe("pseudoconvex-pair", (True,), near_miss=True),),
    "quasiconvex": (_Probe("quasiconvex-segment", placement=_PAIR, near_miss=True),),
    "quasiconcave": (_Probe("quasiconvex-segment", (True,), _PAIR, near_miss=True),),
    "quasilinear": (_Probe("quasiconvex-segment", (False, True), _PAIR, near_miss=True),),
    "semistrictly-quasiconvex": (_Probe("semistrict-quasiconvex-segment", near_miss=True),),
    "semistrictly-quasiconcave": (
        _Probe("semistrict-quasiconvex-segment", (True,), near_miss=True),),
    "semistrictly-quasilinear": (
        _Probe("interlacing-segment", near_miss=True),
        _Probe("interpolation-strict-bounds", placement=_SWEEP),
    ),
    "pseudolinear": (
        _Probe("proportional-identity", near_miss=True),
        _Probe("symmetric-equality", placement=_PAIR),
        _Probe("interpolation-weak-bounds", placement=_SWEEP),
        _Probe("gradient-kernel", placement=_KERNEL, near_miss=True,
               nonsmooth="subdifferential-kernel"),
    ),
}


def _both(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each pair in both orientations, (x, y) then (y, x), pair after pair."""
    n = xs.shape[1]
    return np.stack([xs, ys], axis=1).reshape(-1, n), np.stack([ys, xs], axis=1).reshape(-1, n)


def _orientations(ctx: _Context, placement: str, k: int):
    """The rows of the segment grid of k pairs that a placement runs on, pair
    after pair, and for a sweep each row's grid column (else None)."""
    pairs = 2 * np.arange(k)
    if placement == _PAIR:
        return pairs, None
    if placement == _SWEEP:
        lams = np.array(ctx.lam_grid)
        cols = np.flatnonzero((lams > 0.0) & (lams < 1.0))
        return np.repeat(pairs, len(cols)), np.tile(cols, k)
    return np.arange(2 * k), None


def _kernel_placed(ctx: _Context, a: np.ndarray, b: np.ndarray, pair: np.ndarray):
    """Kernel conditions bind on measure-zero sets: each orientation (a, b)
    is followed by b projected onto the kernel of each generator at a, where
    that moves it and stays feasible (the same kernels on f and on -f).
    Returns the rows' endpoints and pairs, and the rows that hold the
    orientations, in order.  A failed estimate has one zero generator, so
    it adds no projection, and the kernel run over the rows reads its
    failure."""
    gens = ctx.generators(a)
    g, own = gens.g, gens.owner
    gg = ck.dots(g, g)
    with np.errstate(divide="ignore", invalid="ignore"):
        bp = b[own] - g * (ck.dots(g, b[own] - a[own]) / gg)[:, None]
    keep = (gg > 1e-24) & ~(abs(bp - a[own]) <= 1e-12).all(axis=1)
    keep[keep] = ctx.feasible(bp[keep])
    # A stable sort by orientation puts its projections, in generator
    # order, right after it.
    origin = np.concatenate([np.arange(len(a)), own[keep]])
    order = np.argsort(origin, kind="stable")
    origin = origin[order]
    return (a[origin], np.concatenate([b, bp[keep]])[order], pair[origin],
            np.flatnonzero(order < len(a)))


class _Run(NamedTuple):
    """A probe side's kernel run: its placement, its rows' endpoints, each
    row's pair, the Rows, and where it ran on every orientation of the
    pairs (_BOTH, _KERNEL) the rows that hold them, in order (else None)."""

    predicate: str
    negated: bool
    placement: str
    xs: np.ndarray
    ys: np.ndarray
    pair: np.ndarray
    rows: ck.Rows
    orientations: np.ndarray | None = None

    def check(self, r: int) -> ck.Check:
        """Row r as a Check on copies of its endpoints: no placement kept alive."""
        return self.rows.check(r, self.xs[r].copy(), self.ys[r].copy())

    def candidate(self, r: int) -> Candidate:
        """Failing row r as a refinement seed: the pair it ran on (maybe a kernel
        projection or the reversed orientation) and a segment check's lambda."""
        check = self.check(r)
        return Candidate(self.predicate, self.negated, check.x, check.y, check.lam)


def _run(ctx: _Context, segments: _Segments, name: str, negated: bool, placement: str) -> _Run:
    """The run of predicate name on one side over a placement on the
    segments' pairs.  Other than a sweep (the largest run, and one no other
    probe or scan places alike), it is made once and kept beside the segment
    grid, so properties that probe alike, and near-miss scans, read one run."""
    key = (name, negated, placement)
    run = segments.runs.get(key)
    if run is None:
        orient, col = _orientations(ctx, placement, len(segments.xs))
        a, b, pair = segments.a[orient], segments.b[orient], orient // 2
        every = orient if placement == _BOTH else None
        if placement == _KERNEL:
            a, b, pair, every = _kernel_placed(ctx, a, b, pair)
        if ck.PREDICATES[name].segment:
            rows = segments.rows(name, negated, orient, col)
        else:
            request = ck.Request(name, a, b, None, negated)
            (rows,) = ck.check_requests(ctx.fn, [request], ctx.generators)
        run = _Run(name, negated, placement, a, b, pair, rows, every)
        if placement != _SWEEP:
            segments.runs[key] = run
    return run


def _runs(ctx: _Context, prop: str, xs: np.ndarray, ys: np.ndarray):
    """Each probe side's run over its placements on the pairs (xs[i], ys[i]),
    in probe order, and the mask of the pairs on which an estimate failed.
    The value-only predicates read the pairs' segment grid."""
    segments = ctx.segments(xs, ys)
    runs = []
    broken = np.zeros(len(xs), dtype=bool)
    for probe in _PROBES[prop]:
        if probe.placement == _SWEEP and not ctx.interior_lams:
            continue
        for negated in probe.sides:
            run = _run(ctx, segments, probe.predicate_for(ctx), negated, probe.placement)
            broken[run.pair[list(run.rows.failed or ())]] = True
            runs.append(run)
    return runs, broken


def _near_misses(ctx: _Context, prop: str) -> list[Candidate]:
    """The pairs, in both orientations, closest to violating each near-miss
    probe of the property, read from a run of its predicate and side on
    every orientation (_KERNEL, else _BOTH), the property's own where it
    has one; pairs whose estimate failed are passed over."""
    segments = ctx.segments(*ctx.pairs)
    xs, ys = segments.a, segments.b
    out = []
    for probe in _PROBES[prop]:
        if not probe.near_miss:
            continue
        name = probe.predicate_for(ctx)
        placement = _KERNEL if probe.placement == _KERNEL else _BOTH
        for negated in probe.sides:
            run = _run(ctx, segments, name, negated, placement)
            rows, at = run.rows, run.orientations
            ok = np.ones(len(rows.margin), dtype=bool)
            ok[list(rows.failed or ())] = False
            r = np.flatnonzero(ok[at])
            best = r[np.argsort(-rows.margin[at][r], kind="stable")[:NEAR_MISS_CANDIDATES]]
            out.extend(Candidate(name, negated, xs[i].copy(), ys[i].copy()) for i in best)
    return out


class _Sampling(NamedTuple):
    """What _sampling gives; `near_ties` tells whether the candidates to
    refine are near-ties (else near-misses)."""

    prop: str
    counts: Counter
    pass_pairs: int
    witnesses: list
    refined: list
    near_ties: bool


def _sampling(ctx: _Context, prop: str) -> _Sampling:
    """A property's sampling phase, from its probes' kernel rows: the
    tallies, the number of pairs with a pass, the witnesses kept, and as
    candidates the strongest near-ties, or where nothing failed outright the
    near-misses."""
    runs, broken = _runs(ctx, prop, *ctx.pairs)
    # The rows of a pair on which an estimate failed are not counted; the
    # pair counts once, as inconclusive.
    tally = np.array([0, 0, 0, int(broken.sum())])  # by outcome code
    passed = np.zeros(len(broken), dtype=bool)
    witnesses: list[Witness] = []
    ties = []  # each run's near-ties as (-residual, pair, run, row)
    for n, (predicate, negated, _, xs, ys, pair, rows, _) in enumerate(runs):
        kept = ~broken[pair]
        tally += np.bincount(rows.code[kept], minlength=len(tally))
        passed[pair[kept & (rows.code == ck.PASS_CODE)]] = True
        fail = kept & (rows.code == ck.FAIL_CODE)
        credible = fail & rows.credible()
        # Only the run's first credible failures in Witness.sort_key order
        # can be kept (a run's witnesses share predicate and side).
        c = np.flatnonzero(credible)
        lam = np.full(len(c), -1.0) if rows.lam is None else np.nan_to_num(rows.lam[c], nan=-1.0)
        keys = np.column_stack([-rows.residual[c], xs[c], ys[c], lam])
        for r in c[np.lexsort(keys.T[::-1])[:MAX_WITNESSES]]:
            witnesses.append(_witness_from_check(predicate, negated, runs[n].check(r), prop))
        t = np.flatnonzero(fail & ~credible)
        ties.append((-rows.residual[t], pair[t], np.full(len(t), n), t))
    counts = Counter(dict(zip(ck._OUTCOMES, tally.tolist())))
    witnesses = sorted(witnesses, key=Witness.sort_key)[:MAX_WITNESSES]
    # The strongest near-ties, ties broken in pair, probe and row order.
    residual, pair, run_of, row = (np.concatenate(v) for v in zip(*ties))
    near = np.lexsort((row, run_of, pair, residual))[:MAX_REFINED_CANDIDATES]
    candidates = [runs[n].candidate(r) for n, r in zip(run_of[near], row[near])]
    # Refine near-ties, and search near-misses when nothing failed outright.
    near_ties = bool(candidates)
    if not witnesses and not near_ties:
        candidates = _near_misses(ctx, prop)
    refined = candidates[:MAX_REFINED_CANDIDATES] if len(witnesses) < 4 else []
    return _Sampling(prop, counts, int(passed.sum()), witnesses, refined, near_ties)


def _verdict(sampling: _Sampling, results) -> PropertyVerdict:
    """The verdict from a property's sampling phase and the results of
    refining its candidates, read in order until four witnesses are found."""
    prop, counts, pass_pairs, witnesses, _, near_ties = sampling
    for result in results:
        if len(witnesses) >= 4:
            break
        if isinstance(result, EstimationError):
            counts[INCONCLUSIVE] += 1
            continue
        if result.witness is not None:
            witnesses.append(replace(result.witness, property=prop))
        elif near_ties:
            # A raw failure that would not harden is a near-tie: the sample
            # is reclassified as inconclusive instead of counting against
            # the property.
            counts[FAIL] -= 1
            counts[INCONCLUSIVE] += 1

    witnesses = sorted(witnesses, key=Witness.sort_key)[:MAX_WITNESSES]

    if witnesses:
        verdict = REFUTED
    elif counts[FAIL] > 0:
        # Raw failures that were neither hardened nor discarded (refinement
        # budget exhausted): not decidable either way.
        verdict = INCONCLUSIVE
    elif pass_pairs < MIN_NONVACUOUS:
        # Evidence diversity is measured in distinct pairs, not in samples:
        # one pair alone contributes a whole lambda grid of passes.
        verdict = INCONCLUSIVE
    else:
        verdict = HOLDS
    return PropertyVerdict(prop, verdict, *counts.values(), tuple(witnesses))


def _classify_together(ctx: _Context, props) -> list[PropertyVerdict]:
    """Each property's sampling phase, then one refinement of every
    property's candidates together, then each property's verdict from its
    own candidates' results."""
    samplings = [_sampling(ctx, p) for p in props]
    results = iter(_refine_together(
        ctx, [c for s in samplings for c in s.refined], ctx.plan.refinement_rounds))
    return [_verdict(s, [next(results) for _ in s.refined]) for s in samplings]


def classify(
    fn: FunctionHandle,
    region: Region,
    properties: tuple[str, ...] | list[str] | None,
    plan: SamplingPlan | None = None,
) -> list[PropertyVerdict]:
    """Run the mapped predicate campaign for every requested property (all
    of them for None; none, an empty list, raises ValueError), their
    candidates refined in one ascent."""
    plan = plan or SamplingPlan()
    props = PROPERTIES if properties is None else tuple(properties)
    if not props:
        raise ValueError("no properties requested")
    for p in props:
        if p not in PROPERTIES:
            raise ValueError(f"unknown property {p!r} (known: {', '.join(PROPERTIES)})")
    return _classify_together(_Context(fn, region, plan), props)


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
