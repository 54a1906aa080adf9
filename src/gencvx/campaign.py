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


def _appended(buffer: np.ndarray, used: int, rows: np.ndarray) -> tuple[np.ndarray, int]:
    """buffer with rows written after its first `used`, in place where it
    has room, else in a copy about twice as large; and the rows used."""
    end = used + len(rows)
    if end > len(buffer):
        buffer = np.concatenate([buffer[:used], np.empty((end,) + buffer.shape[1:], buffer.dtype)])
    buffer[used:end] = rows
    return buffer, end


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
    one (see generators), else an estimate, made once into the append-only
    estimate cache."""

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
        # The estimate cache: each point's bytes name a row, in estimation
        # order.  Rows are appended to buffers that grow by doubling, of
        # which the first _gens generators and len(_kink) rows are filled:
        # _g holds the generators of all rows (a failure one zero generator,
        # its error in _failed) and _row each row's start and count in _g.
        # Beside them are each row's kink flag and radius.
        self._at: dict[bytes, int] = {}
        self._g, self._row, self._gens = np.zeros((0, fn.dimension)), np.zeros((0, 2), np.intp), 0
        self._kink, self._radius, self._failed = [], [], {}
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
        -f).  On a smooth handle a row with a gradient (all read in one
        grads call, row by row where that raises) and room for the ball
        holds that gradient alone, the Clarke subdifferential of a C1
        function, and no estimate is made.  Every other row is read from
        the estimate cache; a failed estimate is stored without its
        traceback, and a check that reads its row raises it afresh."""
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
        """The estimates at the rows of points, from the cache, the keys
        looked up in one pass; the points missed are estimated in one call."""
        keys = _row_keys(points)
        rows = list(map(self._at.get, keys))
        if None in rows:
            todo = {key: i for i, (key, r) in enumerate(zip(keys, rows)) if r is None}
            self._estimate(list(todo), points[list(todo.values())])
            rows = list(map(self._at.get, keys))
        return self._cache().take(np.array(rows, dtype=np.intp))

    def _cache(self) -> ck.Generators:
        """The filled rows of the cache as Generators, without their owner
        array, which neither take nor estimate reads: built in O(1)."""
        start, count = self._row[:len(self._kink)].T
        return ck.Generators(self._g, None, start, count, self._failed)

    def _estimate(self, keys: list[bytes], xs: np.ndarray) -> None:
        """Estimate f's subdifferential at each row of xs, whose bytes are
        the key beside it, and store each estimate or its failure as a row
        of the cache."""
        radius = self.plan.subdiff_radius
        rows, kink = self._store(xs, radius)
        # A spread at radius r may come from a kink merely nearby.  Shrinking
        # the ball separates the cases: at a true kink the spread persists,
        # near one it collapses and the fine coherent estimate (or its
        # failure) is the honest set at x.
        kinked = kink.nonzero()[0]
        if kinked.size:
            fine, fine_kink = self._store(xs[kinked], radius / 1000.0)
            rows[kinked] = np.where(fine_kink, rows[kinked], fine)
        self._at.update(zip(keys, rows.tolist()))

    def _store(self, xs: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """Append the estimates at xs at the radius to the cache; their rows
        and kink flags.  A point's seed is hashed only where its ball is
        drawn."""
        gens, kink = subdifferential_rows(
            self.fn, self.region, xs, radius, self.subdiff_count, _point_entropy)
        first = len(self._kink)
        self._failed.update((first + i, e) for i, e in gens.failed.items())
        self._row, _ = _appended(self._row, first, np.column_stack([gens.start + self._gens,
                                                                    gens.count]))
        self._g, self._gens = _appended(self._g, self._gens, gens.g)
        self._kink += kink.tolist()
        self._radius += [radius] * len(kink)
        return np.arange(first, len(self._kink)), kink

    def estimates(self) -> dict:
        """Each point estimated so far, by its bytes, in estimation order:
        its SubdifferentialEstimate of f, or the EstimationError stored for
        it."""
        cache = self._cache()
        return {key: cache.estimate(r, self._radius[r], self._kink[r]) for key, r in self._at.items()}

    def feasible(self, p: np.ndarray):
        """For a point, or for each row of a (k, n) array of points.  The
        radius is positive, so this already implies region.contains(p)."""
        return self.region.interior_slack(p) >= self.plan.subdiff_radius


class _Segments:
    """f on the segments of the pairs (xs[i], ys[i]) in both orientations,
    row 2i from xs[i] to ys[i] and row 2i+1 back, at each lambda of the
    plan's grid.  Column 0, lambda = 0, is f at each orientation's start,
    read at the endpoints on the first read; any other cell is read from f
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
        self.values = np.empty(len(self.a) * len(self.lams))
        self.known = np.zeros(len(self.values), dtype=bool)
        self.starts = self.values[::len(self.lams)]  # column 0, a view
        self.runs: dict = {}  # each probe run on these pairs, by _run

    def rows(self, predicate: str, negated: bool, orient: np.ndarray, col=None) -> ck.Rows:
        """The Rows ck.check_requests gives a value-only predicate's request
        on f (on -f when negated) at the grid rows orient, in placement
        order: over the lambda grid, or with col, at grid column col[r] for
        row r.  The grid is read in place of f, through read_rule and
        kernel_rows, so that no cell is read twice."""
        if not self.known[0]:
            # The first read takes f at every pair's endpoints once, xs then
            # ys, in one call.
            f = self.fn.values(np.concatenate([self.xs, self.ys]))
            self.starts[:] = f.reshape(2, -1).T.ravel()
            self.known[::len(self.lams)] = True
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


class _Ascent:
    """Candidates' coordinate ascent on a check's margin, with their state
    as arrays: each candidate's side, point (x, y and lambda, NaN for the
    grid, as a row of `at`), move, rounds ended, best margin and whether it
    is done, and the step and row of its best trial.  The candidates are
    held in (predicate, grid) group order, groups in order of first
    appearance; results() gives them back in the order given.

    A segment seed without a lambda is scored at each interior grid lambda
    and starts at the first of largest margin.  A move is one coordinate of
    x, then of y, then lambda, tried at each of _REFINE_STEPS in turn; it
    takes the first trial that raises the margin, and an estimate that
    failed raises only where it comes before that trial.  Coordinate trials
    outside the feasible region, or with x == y, are dropped, and a move
    left without trials is skipped.  A seed outside the feasible region is
    scored but never moved, and a round without a move taken ends the
    ascent.  The first step scores every seed; each later step builds the
    trials of every candidate not done as one (candidates,
    len(_REFINE_STEPS)) block, whose kept trials, in row-major order, are
    grouped, in candidate order, and in trial order."""

    def __init__(self, ctx: _Context, cands: list[Candidate], rounds: int):
        self.ctx, self.rounds, self.n = ctx, rounds, ctx.region.dimension
        n, k = self.n, len(cands)
        span = ctx.region.upper - ctx.region.lower
        self.scale = np.concatenate([span, span, [1.0]])  # each move's step unit
        self.interior = np.array(ctx.interior_lams)
        # Lambda is not moved closer to an endpoint than the grid resolves:
        # the strict segment conditions are sampled no finer, and ties
        # manufactured at vanishing lambda carry no evidence.
        grid = ctx.plan.lambda_grid
        self.lam_lo = 1.0 / (grid - 1) if grid >= 3 else 0.25
        seeded = np.array([c.lam is None and ck._predicate(c.predicate).segment for c in cands])
        seeded &= len(self.interior) > 0
        at = np.array([[*c.x, *c.y, np.nan if c.lam is None else c.lam] for c in cands], dtype=float)
        has_lam = seeded | ~np.isnan(at[:, 2 * n])
        # Each candidate's group, the (predicate, grid) whose kernel call
        # its rows go to, on f and on -f alike.
        keys = [(c.predicate, bool(h)) for c, h in zip(cands, has_lam)]
        self.keys = list(dict.fromkeys(keys))
        group = np.array([self.keys.index(key) for key in keys])
        self.order = np.argsort(group, kind="stable")
        self.cands = [cands[i] for i in self.order.tolist()]
        self.group, self.seeded, self.at = group[self.order], seeded[self.order], at[self.order]
        self.negated = np.array([c.negated for c in self.cands], dtype=bool)
        self.moves, self.move = 2 * n + has_lam[self.order], np.zeros(k, dtype=int)
        self.ended, self.best = np.zeros(k, dtype=int), np.zeros(k)
        self.improved, self.done = np.zeros(k, dtype=bool), np.zeros(k, dtype=bool)
        self.failures: list = [None] * k
        # Every step's Rows while a candidate keeps one of its rows (else
        # None), and each take's candidates with their margins.
        self.steps, self.accepted = [], []
        self.kept_step, self.kept_row = np.zeros(k, dtype=np.intp), np.zeros(k, dtype=np.intp)
        self.trials = None  # the step's candidates, their row counts, and the rows

    def requests(self) -> list[ck.Request]:
        """One request of every candidate not done, as one ck.Request per
        (predicate, grid) that has rows, in group order; the step's trial
        rows are kept for take."""
        n = self.n
        if not self.steps:
            who = np.arange(len(self.cands))
            counts = np.where(self.seeded, len(self.interior), 1)
            rows = self.at.repeat(counts, 0)
            rows[self.seeded.repeat(counts), 2 * n] = np.tile(self.interior, int(self.seeded.sum()))
        else:
            who = (~self.done).nonzero()[0]
            block, keep = self._trials(who)
            counts = keep.sum(axis=1)
            if not counts.all():
                redo = (counts == 0).nonzero()[0]
                while redo.size:
                    # A move left without trials is skipped.
                    self._next_move(who[redo])
                    redo = redo[~self.done[who[redo]]]
                    block[redo], keep[redo] = self._trials(who[redo])
                    counts[redo] = keep[redo].sum(axis=1)
                    redo = redo[counts[redo] == 0]
                who, counts = who[counts > 0], counts[counts > 0]
            rows = block[keep]
        self.trials = who, counts, rows
        xs, ys, lams = rows[:, :n], rows[:, n:2 * n], rows[:, 2 * n:]
        sides = self.negated[who].repeat(counts)
        ends = np.concatenate(([0], counts.cumsum()))
        bounds = ends[self.group[who].searchsorted(np.arange(len(self.keys) + 1))].tolist()
        out = []
        for (name, with_lam), lo, hi in zip(self.keys, bounds, bounds[1:]):
            if lo < hi:
                grid = None
                if ck.PREDICATES[name].segment:
                    grid = lams[lo:hi] if with_lam else self.ctx.lam_grid
                out.append(ck.Request(name, xs[lo:hi], ys[lo:hi], grid, sides[lo:hi]))
        return out

    def _trials(self, i: np.ndarray):
        """The trials of the current moves of candidates i, a block row of
        len(_REFINE_STEPS) points each, (k, t, 2n + 1), and the (k, t) mask
        of the trials kept."""
        n, move = self.n, self.move[i]
        on_lam = move == 2 * n
        block = self.at[i][:, None].repeat(len(_REFINE_STEPS), 1)
        block[np.arange(len(i)), :, move] += _REFINE_STEPS * self.scale[move, None]
        lams = block[:, :, 2 * n]
        lams[on_lam] = np.minimum(np.maximum(lams[on_lam], self.lam_lo), 1.0 - self.lam_lo)
        x, y = block[:, :, :n], block[:, :, n:2 * n]
        moved = np.where((move < n)[:, None, None], x, y)
        keep = self.ctx.feasible(moved.reshape(-1, n)).reshape(len(i), -1)
        return block, on_lam[:, None] | keep & ~(x == y).all(axis=2)

    def take(self, parts: list) -> None:
        """Read the Rows of the step's requests, parts, and advance every
        candidate."""
        who, counts, rows = self.trials
        if not who.size:
            return
        margin = parts[0].margin if len(parts) == 1 else np.concatenate([p.margin for p in parts])
        size, index, seeding = len(margin), np.arange(len(margin)), not self.steps
        start = counts.cumsum() - counts
        held = set(self.kept_step[who].tolist())
        if seeding:
            # A seed takes its row; a seeded one its first row of largest
            # margin, as np.argmax picks it.
            top = np.maximum.reduceat(margin, start).repeat(counts)
            first = np.where((margin == top) | np.isnan(margin), index, size)
            hit = np.where(self.seeded[who], np.minimum.reduceat(first, start), start)
        else:
            # Each candidate's first row above its best margin (size if none).
            above = np.where(margin > self.best[who].repeat(counts), index, size)
            hit = np.minimum.reduceat(above, start)
        taken = hit < size
        if any(p.failed for p in parts):
            # A candidate reads its rows up to the trial it takes, or all,
            # and raises the first failure among them.
            offset = np.cumsum([0] + [len(p.margin) for p in parts]).tolist()
            failed = {o + r: e for o, p in zip(offset, parts) for r, e in (p.failed or {}).items()}
            first = np.full(size, size)
            first[list(failed)] = list(failed)
            first = np.minimum.reduceat(first, start)
            broke = first < (start + counts if seeding else np.where(taken, hit, start + counts))
            for g in broke.nonzero()[0].tolist():
                error = failed[int(first[g])]
                self.failures[who[g]] = type(error)(*error.args)
            self.done[who[broke]] = True
            self.kept_step[who[broke]] = -1
            who, hit, taken = who[~broke], hit[~broke], taken[~broke]
        i, r = who[taken], hit[taken]
        self.at[i] = rows[r]
        self.best[i] = best = margin[r]
        self.kept_step[i], self.kept_row[i] = len(self.steps), r
        self.steps.append(parts)
        self.accepted.append((i, best))
        # A step of which no candidate keeps a row is let go.
        for s in held.difference(self.kept_step.tolist()):
            self.steps[s] = None
        if seeding:
            # A seed outside the feasible region is scored but never moved.
            n, at = self.n, self.at[who]
            feasible = self.ctx.feasible(at[:, :n]) & self.ctx.feasible(at[:, n:2 * n])
            self.done[who] = ~feasible | (self.rounds <= 0)
        else:
            self.improved[i] = True
            self._next_move(who)

    def _next_move(self, i: np.ndarray) -> None:
        """Candidates i are done with their current move."""
        self.move[i] += 1
        i = i[self.move[i] == self.moves[i]]
        if i.size:
            self.ended[i] += 1
            self.move[i] = 0
            self.done[i[~self.improved[i] | (self.ended[i] >= self.rounds)]] = True
            self.improved[i] = False

    def results(self) -> list:
        """Each candidate's RefineResult, its score trace the margins it
        accepted, or the EstimationError its refinement raised, in the order
        the candidates were given."""
        traces = [[] for _ in self.cands]
        for i, best in self.accepted:
            for j, v in zip(i.tolist(), best.tolist()):
                traces[j].append(v)
        out = [None] * len(self.cands)
        for i, (cand, at) in enumerate(zip(self.cands, self.order.tolist())):
            out[at] = self.failures[i]
            if out[at] is None:
                r = int(self.kept_row[i])
                for rows in self.steps[self.kept_step[i]]:
                    if r < len(rows.margin):
                        break
                    r -= len(rows.margin)
                check = rows.check(r, self.at[i, :self.n].copy(), self.at[i, self.n:-1].copy())
                out[at] = RefineResult(_witness_from_check(cand.predicate, cand.negated, check),
                                       tuple(traces[i]))
        return out


def _refine_together(ctx: _Context, cands: list[Candidate], rounds: int) -> list:
    """Refine candidates in lockstep: every step scores one request of each
    candidate still moving (its seed, or its current move's trials, built
    as one block already in group order), with f read once for all its
    trial rows and one kernel call per (predicate, grid), whose rows each
    run on their candidate's side, f or -f; one take then advances every
    candidate.  Each result is the candidate's
    RefineResult, or the EstimationError its refinement raised: what a
    one-trial-at-a-time ascent gives it.  Identical candidates climb once
    and share their result."""
    if not cands:
        return []
    keys = [(c.predicate, c.negated, c.x.tobytes(), c.y.tobytes(),
             None if c.lam is None else np.float64(c.lam).tobytes()) for c in cands]
    unique = dict(zip(keys, cands))
    ascent = _Ascent(ctx, list(unique.values()), rounds)
    while not ascent.done.all():
        ascent.take(ck.check_requests(ctx.fn, ascent.requests(), ctx.generators))
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
