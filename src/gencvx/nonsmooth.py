"""Numerical estimators for generalized derivatives.

The generalized directional derivative

    f0(x, v) = limsup_{y -> x, t -> 0+} [f(y + t v) - f(y)] / t

is approximated by a max over random probe clouds: at each step t_k of a
decreasing schedule, M base points y are drawn from the ball B(x, c*t_k) and
the largest difference quotient is kept; the estimate is the max over the
three finest scales.  The subdifferential is approximated by gradient
sampling: gradients collected at x and at random points of a small ball
around it.  For locally Lipschitz functions this gradient-sampling estimate
stands in for both the Clarke and the Clarke-Rockafellar construction, which
coincide in that class; every report carries this assumption.

All estimators are deterministic given their seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from .expr import compile_interval_dual_rows
from .functions import FunctionHandle
from .geometry import Region, _accept_mask

__all__ = [
    "ClarkeScheme",
    "SubdifferentialEstimate",
    "EstimationError",
    "InteriorRoomError",
    "clarke_directional",
    "subdifferential",
    "subdifferential_rows",
    "Generators",
    "negate_estimate",
    "directional_derivative",
]

# Generators further apart than this (max coordinate spread) flag a kink.
COHERENCE_SPREAD = 1e-3
# Duplicate generators within this tolerance are merged.
DEDUPE_TOL = 1e-12

_REDRAWS_PER_PROBE = 100
# The steps of directional_derivative's difference quotients.
DIRECTIONAL_STEPS = (1e-3, 1e-4, 1e-5)


class EstimationError(RuntimeError):
    """Too many failed evaluations while estimating a derivative object."""


class InteriorRoomError(EstimationError):
    """The base point has no room for the requested probe radius."""


@dataclass(frozen=True)
class ClarkeScheme:
    """Discretization of the limsup: a fixed step schedule, probe radius
    factor and probe count per scale; only the probes' seed is set."""

    steps: ClassVar[tuple[float, ...]] = tuple(float(t) for t in np.geomspace(1e-2, 1e-6, 9))
    neighborhood_factor: ClassVar[float] = 10.0
    probes_per_scale: ClassVar[int] = 64
    seed: int = 0


@dataclass(frozen=True, eq=False)
class SubdifferentialEstimate:
    """Finite generator set approximating the subdifferential at a point."""

    generators: tuple[np.ndarray, ...]
    radius: float
    at_kink: bool

    def __post_init__(self):
        if not self.generators:
            raise ValueError("generator set must be nonempty")


def _ball_points(rng: np.random.Generator, center: np.ndarray, radius: float, count: int) -> np.ndarray:
    """Uniform draws from the euclidean ball B(center, radius): count
    standard normal rows drawn first, then one uniform per row."""
    raw = rng.standard_normal((count, center.size))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return center + raw / norms * (radius * rng.random((count, 1)) ** (1.0 / center.size))


def _point_and_direction(region: Region, x, v) -> tuple[np.ndarray, np.ndarray]:
    """x and v as vectors, each of the region's dimension."""
    x = np.asarray(x, dtype=float).reshape(-1)
    v = np.asarray(v, dtype=float).reshape(-1)
    if x.shape != (region.dimension,) or v.shape != (region.dimension,):
        raise ValueError(f"x of shape {x.shape} and v of shape {v.shape} do not fit "
                         f"a region of dimension {region.dimension}")
    return x, v


def clarke_directional(
    fn: FunctionHandle,
    region: Region,
    x,
    v,
    scheme: ClarkeScheme | None = None,
) -> float:
    """Estimate f0(x, v) by probe-cloud maxima over the finest three scales.

    Probes whose evaluation points leave the region are redrawn up to 100
    times each, after which the whole scale is skipped; if every scale is
    skipped the point has insufficient interior room.  A probe's two points
    are tested in one membership mask and read in one values call.
    """
    scheme = scheme or ClarkeScheme()
    x, v = _point_and_direction(region, x, v)
    if float(np.max(np.abs(v))) == 0.0:
        raise ValueError("direction must be nonzero")

    seed = scheme.seed & 0xFFFFFFFFFFFFFFFF
    per_scale: list[float] = []
    for k, t in enumerate(scheme.steps):
        delta = scheme.neighborhood_factor * t
        rng = np.random.default_rng((seed, 0xC1A, k))
        best = -np.inf
        ok = True
        for _ in range(scheme.probes_per_scale):
            quotient = None
            for _ in range(_REDRAWS_PER_PROBE):
                y = _ball_points(rng, x, delta, 1)
                pair = np.concatenate([y, y + t * v])
                if _accept_mask(region, pair, 0.0).all():
                    f = fn.values(pair)
                    quotient = (f[1] - f[0]) / t
                    break
            if quotient is None:
                ok = False
                break
            best = max(best, quotient)
        per_scale.append(best if ok else np.nan)

    finest = [s for s in per_scale if np.isfinite(s)][-3:]
    if not finest:
        raise InteriorRoomError(
            f"insufficient interior room at {x} for direction {v}"
        )
    return float(max(finest))


# Evaluation failures that count against an estimate instead of aborting it.
_PROBE_ERRORS = (ArithmeticError, FloatingPointError, ZeroDivisionError)


def _row_gradients(fn: FunctionHandle, probes: np.ndarray, step: float):
    """The gradient at each row of a (k, n) array: the handle's where it
    has one, read in one grads call, and a central difference at `step`
    elsewhere, the differences of all flagged rows (every row, for a handle
    without gradient_rows) read in one values call.  Returns the (k, n)
    gradients and the (k,) mask of the rows that came out finite; raises
    where any row's evaluation raises."""
    gradients, has = fn.grads(probes)
    kinked = np.flatnonzero(~has)
    if kinked.size:
        n = probes.shape[1]
        steps = np.eye(n) * step  # row i steps along coordinate i
        at = probes[kinked][:, None, :]
        f = fn.values(np.concatenate([at + steps, at - steps]).reshape(-1, n))
        plus, minus = f.reshape(2, -1)
        gradients = gradients.copy()
        gradients[kinked] = ((plus - minus) / (2.0 * step)).reshape(-1, n)
    return gradients, np.isfinite(gradients).all(axis=1)


def _by_row(read, rows: np.ndarray):
    """read(rows), a row reader giving (k, n) values and the (k,) mask of
    the rows that succeeded, in one call; where that raises, each row is
    read alone, and a row whose read raises has failed."""
    try:
        return read(rows)
    except _PROBE_ERRORS:
        out, ok = np.zeros(rows.shape), np.zeros(len(rows), dtype=bool)
        for i, p in enumerate(rows):
            try:
                v, good = read(p[None])
            except _PROBE_ERRORS:
                continue
            out[i], ok[i] = v[0], good[0]
        return out, ok


def _certified(fn: FunctionHandle, xs: np.ndarray, radius: float):
    """The rows of xs whose ball is proven smooth, and the handle's gradient
    at each (zero elsewhere).

    For a handle with an expression, the interval dual walk over the box
    around B(x, radius), padded past any rounding of a probe, is certain
    where no point of the ball can raise, be flagged at a kink or tie, or
    be non-finite.  f is then C1 on the ball, so its Clarke subdifferential
    at x is {grad f(x)}: the centres' one grads call reads it.  A centre
    whose gradient comes out flagged is left to sampling; where that call
    raises, every ball is."""
    sure, centre = np.zeros(len(xs), dtype=bool), np.zeros(xs.shape)
    if fn.expression is None or fn.gradient_rows is None or xs.shape[1] != fn.dimension:
        return sure, centre
    pad = radius * (1.0 + 2.0**-40) + np.abs(xs) * 2.0**-48
    try:
        rows = np.flatnonzero(compile_interval_dual_rows(fn.expression)(xs - pad, xs + pad)[2])
        if rows.size:
            centre[rows], sure[rows] = fn.grads(xs[rows])
    except _PROBE_ERRORS:
        sure[:] = False
    return sure, centre


class Generators(NamedTuple):
    """The generator sets of m rows, flattened in row order: row i owns
    g[start[i]:start[i] + count[i]], and `owner` gives each generator's row.
    A row whose estimate failed holds one zero generator, and its failure in
    `failed`."""

    g: np.ndarray
    owner: np.ndarray
    start: np.ndarray
    count: np.ndarray
    failed: dict

    @staticmethod
    def of(sets, n: int) -> "Generators":
        """From each row's generators, or the EstimationError it failed with."""
        failed = {i: s for i, s in enumerate(sets) if isinstance(s, Exception)}
        if failed:
            zero = (np.zeros(n),)
            sets = [zero if i in failed else s for i, s in enumerate(sets)]
        count = np.fromiter(map(len, sets), dtype=np.intp, count=len(sets))
        g = np.array([v for s in sets for v in s], dtype=float).reshape(-1, n)
        return Generators(g, np.repeat(np.arange(len(sets)), count),
                          np.cumsum(count) - count, count, failed)

    def negated(self, rows: np.ndarray) -> "Generators":
        """The generators of -f on the rows that the (m,) mask flags: each
        of theirs negated."""
        return self._replace(g=np.where(rows[self.owner][:, None], -self.g, self.g))

    def take(self, rows: np.ndarray) -> "Generators":
        """The sets of the given rows, in that order, gathered in one index
        operation."""
        count = self.count[rows]
        start = np.cumsum(count) - count
        g = self.g[np.repeat(self.start[rows] - start, count) + np.arange(count.sum())]
        failed = {i: self.failed[r] for i, r in enumerate(rows.tolist())
                  if r in self.failed} if self.failed else {}
        return Generators(g, np.repeat(np.arange(len(rows)), count), start, count, failed)

    def joined(self, more: "Generators") -> "Generators":
        """These rows, then those of more."""
        k = len(self.count)
        return Generators(
            np.concatenate([self.g, more.g]), np.concatenate([self.owner, more.owner + k]),
            np.concatenate([self.start, more.start + len(self.g)]),
            np.concatenate([self.count, more.count]),
            {**self.failed, **{k + i: e for i, e in more.failed.items()}})

    def estimate(self, i: int, radius: float, at_kink: bool):
        """Row i as a SubdifferentialEstimate, or the failure it holds."""
        if i in self.failed:
            return self.failed[i]
        gens = self.g[self.start[i]:self.start[i] + self.count[i]].copy()
        gens.flags.writeable = False
        return SubdifferentialEstimate(tuple(gens), radius, at_kink)


def _ball(fn: FunctionHandle, x: np.ndarray, radius: float, count: int, seed: int):
    """The gradient-sampling estimate at x from its own ball: the gradients
    at x and at `count` uniform draws from B(x, radius), numpy's stream
    PCG64(SeedSequence((seed, 0x5D1FF))) drawing the normals first, then
    one uniform per draw.  The count + 1 probes are read in one call (where
    it raises, one probe per call).  Returns the EstimationError when more
    than half the probes failed; else the generators and the kink flag.
    Smooth at this scale, the probes merely resample the gradient with
    O(radius) noise, so the gradient at x (or, where that failed, at the
    first probe that succeeded) is the whole (coherent) estimate.  A kink
    keeps the probes' gradients, each unless a kept one lies within
    DEDUPE_TOL of it."""
    rng = np.random.default_rng((seed & 0xFFFFFFFFFFFFFFFF, 0x5D1FF))
    probes = np.concatenate([x[None], _ball_points(rng, x, radius, count)])
    gradients, ok = _by_row(lambda p: _row_gradients(fn, p, radius / 100.0), probes)
    failures = count + 1 - int(ok.sum())
    if failures > (count + 1) / 2:
        return EstimationError(
            f"gradient evaluation failed at {failures}/{count + 1} probes near {x}")
    g = gradients[ok]
    if np.max(g.max(axis=0) - g.min(axis=0)) <= COHERENCE_SPREAD:
        return g[:1], False
    close = np.abs(g[:, None] - g[None]).max(axis=2) <= DEDUPE_TOL
    kept: list[int] = []
    for r in range(len(g)):
        if not close[r, kept].any():
            kept.append(r)
    return g[kept], True


def subdifferential_rows(
    fn: FunctionHandle,
    region: Region,
    points,
    radius: float,
    count: int,
    seeds,
) -> tuple[Generators, np.ndarray]:
    """subdifferential at each row of points, a (k, n) array-like, with its
    seed: the Generators of the estimates, a failed one held as its
    EstimationError without a traceback, and each point's kink flag.  seeds
    holds one seed per point, or is a function giving a point's seed, read
    only for the points whose balls are drawn.

    First, for a handle with an expression, the balls with room are tried
    for a certificate (_certified): a ball proven smooth is not drawn, and
    its estimate is the handle's gradient at its point, read for all such
    points in one grads call.  That is {grad f(x)}, since f is C1 on the
    ball.  Every other ball with room is drawn and read on its own
    (_ball), in point order; the proven gradients are then placed in the
    flat generators in one index operation beside the drawn sets."""
    xs = np.asarray(points, dtype=float)
    seeds = seeds if callable(seeds) else list(seeds)
    if radius <= 0:
        raise ValueError("radius must be positive")
    if xs.ndim != 2 and xs.shape != (0,):
        raise ValueError(f"points must be one (k, n) array, got shape {xs.shape}")
    if not callable(seeds) and len(seeds) != len(xs):
        raise ValueError(f"one seed per point: {len(xs)} points, {len(seeds)} seeds")
    if not len(xs):
        none = np.zeros(0, dtype=np.intp)
        return Generators(np.zeros((0, 0)), none, none, none, {}), np.zeros(0, dtype=bool)
    k, n = xs.shape
    if count < 2 * n + 1:
        raise ValueError(f"count must be >= 2n+1 = {2 * n + 1}, got {count}")

    failed: dict = {}
    short = region.interior_slack(xs) < radius
    for i in np.flatnonzero(short).tolist():
        failed[i] = InteriorRoomError(f"ball of radius {radius} at {xs[i]} leaves the region")
    room = np.flatnonzero(~short)
    sure, centre = _certified(fn, xs[room], radius)
    sets = {}
    for i in room[~sure].tolist():
        got = _ball(fn, xs[i], radius, count, seeds(xs[i]) if callable(seeds) else seeds[i])
        if isinstance(got, EstimationError):
            failed[i] = got
        else:
            sets[i] = got
    sizes = np.ones(k, dtype=np.intp)
    sizes[list(sets)] = [len(g) for g, _ in sets.values()]
    start = np.cumsum(sizes) - sizes
    flat = np.zeros((int(sizes.sum()), n))
    flat[start[room[sure]]] = centre[sure]
    at_kink = np.zeros(k, dtype=bool)
    for i, (g, kink) in sets.items():
        flat[start[i]:start[i] + len(g)] = g
        at_kink[i] = kink
    return Generators(flat, np.repeat(np.arange(k), sizes), start, sizes, failed), at_kink


def subdifferential(
    fn: FunctionHandle,
    region: Region,
    x,
    radius: float,
    count: int,
    seed: int = 0,
) -> SubdifferentialEstimate:
    """Gradient-sampling estimate of the subdifferential at x.

    Gradients are taken at x and at `count` random points of B(x, radius):
    the handle gradient where it exists (smooth at the probe), otherwise a
    central difference at step radius/100.  Near-duplicates are merged and a
    kink is flagged when the generator spread exceeds COHERENCE_SPREAD.  A
    ball proven smooth is not drawn (see subdifferential_rows).
    """
    gens, at_kink = subdifferential_rows(
        fn, region, np.asarray(x, dtype=float).reshape(1, -1), radius, count, [seed])
    est = gens.estimate(0, radius, bool(at_kink[0]))
    if isinstance(est, EstimationError):
        raise est
    return est


def negate_estimate(est: SubdifferentialEstimate) -> SubdifferentialEstimate:
    """Estimate for -f: the generator set negates elementwise."""
    gens = []
    for g in est.generators:
        h = -g
        h.flags.writeable = False
        gens.append(h)
    return SubdifferentialEstimate(tuple(gens), est.radius, est.at_kink)


def directional_derivative(
    fn: FunctionHandle,
    region: Region,
    x,
    v,
) -> float:
    """One-sided derivative along v, extrapolated by a linear fit in the step.

    f at x and at every step of DIRECTIONAL_STEPS that stays in the region
    is read in one values call."""
    x, v = _point_and_direction(region, x, v)
    hs = np.asarray(DIRECTIONAL_STEPS, dtype=float)
    points = x + hs[:, None] * v
    inside = _accept_mask(region, points, 0.0)
    f = fn.values(np.concatenate([x[None], points[inside]]))
    h_arr = hs[inside]
    if len(h_arr) < 2:
        raise InteriorRoomError(f"insufficient interior room at {x} along {v}")
    q_arr = (f[1:] - f[0]) / h_arr
    # Least-squares intercept of q = a + b*h.
    k = len(h_arr)
    sh, sq = h_arr.sum(), q_arr.sum()
    shh, shq = (h_arr * h_arr).sum(), (h_arr * q_arr).sum()
    return float((shh * sq - sh * shq) / (k * shh - sh * sh))
