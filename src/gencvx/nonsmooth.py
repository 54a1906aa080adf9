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

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._pcg import generator, pcg64_states, position, to_ints
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
    "subdifferentials",
    "subdifferential_rows",
    "Generators",
    "negate_estimate",
    "directional_derivative",
]

# Generators further apart than this (max coordinate spread) flag a kink.
COHERENCE_SPREAD = 1e-3
# Duplicate generators within this tolerance are merged.
DEDUPE_TOL = 1e-12
# A handle's gradient_rows may differ from its expression's dual walk by this
# much, relative to 1 + |g|, in each coordinate (see FunctionHandle); a ball
# is certified coherent only with twice this margin to spare.
CERTIFY_MARGIN = 1e-9

_REDRAWS_PER_PROBE = 100


class EstimationError(RuntimeError):
    """Too many failed evaluations while estimating a derivative object."""


class InteriorRoomError(EstimationError):
    """The base point has no room for the requested probe radius."""


def _geometric_steps(first: float, last: float, count: int) -> tuple[float, ...]:
    return tuple(float(t) for t in np.geomspace(first, last, count))


@dataclass(frozen=True)
class ClarkeScheme:
    """Discretization of the limsup: step schedule, probe radius factor, probes."""

    steps: tuple[float, ...] = field(default_factory=lambda: _geometric_steps(1e-2, 1e-6, 9))
    neighborhood_factor: float = 10.0
    probes_per_scale: int = 64
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(float(t) for t in self.steps))
        if not self.steps or any(t <= 0 for t in self.steps):
            raise ValueError("steps must be positive")
        if any(a <= b for a, b in zip(self.steps, self.steps[1:])):
            raise ValueError("steps must be strictly decreasing")
        if self.neighborhood_factor <= 0:
            raise ValueError("neighborhood factor must be positive")
        if self.probes_per_scale < 8:
            raise ValueError("need at least 8 probes per scale")


@dataclass(frozen=True, eq=False)
class SubdifferentialEstimate:
    """Finite generator set approximating the subdifferential at a point."""

    generators: tuple[np.ndarray, ...]
    radius: float
    at_kink: bool

    def __post_init__(self):
        if not self.generators:
            raise ValueError("generator set must be nonempty")


def _ball_offsets(raw: np.ndarray, uniform: np.ndarray, radius: float) -> np.ndarray:
    """Offsets uniform in the euclidean ball B(0, radius), from standard
    normal rows (..., n) and one uniform draw in [0, 1) per row (..., 1)."""
    norms = np.linalg.norm(raw, axis=-1, keepdims=True)
    norms[norms == 0.0] = 1.0
    radii = radius * uniform ** (1.0 / raw.shape[-1])
    return raw / norms * radii


def _ball_points(rng: np.random.Generator, center: np.ndarray, radius: float, count: int) -> np.ndarray:
    """Uniform draws from the euclidean ball B(center, radius)."""
    raw = rng.standard_normal(size=(count, center.size))
    return center + _ball_offsets(raw, rng.uniform(0.0, 1.0, size=(count, 1)), radius)


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

    seeded = pcg64_states(
        [(scheme.seed & 0xFFFFFFFFFFFFFFFF, 0xC1A, k) for k in range(len(scheme.steps))])
    rng = generator()
    per_scale: list[float] = []
    for t, state, inc in zip(scheme.steps, *map(to_ints, seeded)):
        delta = scheme.neighborhood_factor * t
        position(rng, state, inc)
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
        if ok:
            per_scale.append(best)
        else:
            per_scale.append(np.nan)

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


def _gradients(fn: FunctionHandle, probes: np.ndarray, step: float):
    """_row_gradients at each probe of an (m, c, n) array: the gradients
    and the (m, c) mask of the probes that succeeded.  All probes are read
    in one call; where that raises, each probe is read alone, so failures
    are counted probe by probe."""
    m, c, n = probes.shape
    flat = probes.reshape(-1, n)
    gradients, ok = np.zeros(flat.shape), np.zeros(len(flat), dtype=bool)
    try:
        if m:
            gradients, ok = _row_gradients(fn, flat, step)
    except _PROBE_ERRORS:
        for i, p in enumerate(flat):
            try:
                g, good = _row_gradients(fn, p[None], step)
            except _PROBE_ERRORS:
                continue
            gradients[i], ok[i] = g[0], good[0]
    return gradients.reshape(m, c, n), ok.reshape(m, c)


def _certified(fn: FunctionHandle, xs: np.ndarray, radius: float):
    """The rows of xs whose gradient-sampling ball is proven coherent, and
    the handle's gradient at each (zero elsewhere).

    For a handle with an expression, the interval dual walk over the box
    around B(x, radius), padded past any rounding of a probe, encloses the
    expression's gradient at every probe, and the handle's lies within
    CERTIFY_MARGIN of it (see FunctionHandle).  Where the walk is certain
    (no probe can raise, be flagged or be non-finite) and each coordinate's
    enclosure, widened by the margin both ways, spans at most
    COHERENCE_SPREAD, sampling would find every probe's gradient and a
    coherent spread, and take the gradient at x: the centres' one grads
    call reads it, bit for bit, since a row's gradient does not depend on
    the other rows.  A centre whose gradient comes out flagged is left to
    sampling; where that call raises, every ball is."""
    sure, centre = np.zeros(len(xs), dtype=bool), np.zeros(xs.shape)
    if fn.expression is None or fn.gradient_rows is None or xs.shape[1] != fn.dimension:
        return sure, centre
    pad = radius * (1.0 + 2.0**-40) + np.abs(xs) * 2.0**-48
    try:
        glo, ghi, certain = compile_interval_dual_rows(fn.expression)(xs - pad, xs + pad)
        rows = np.flatnonzero(certain)
        glo, ghi = glo[rows], ghi[rows]
        margin = CERTIFY_MARGIN * (1.0 + np.maximum(np.abs(glo), np.abs(ghi)))
        rows = rows[np.all(ghi - glo + 2.0 * margin <= COHERENCE_SPREAD, axis=1)]
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

    def negated(self) -> "Generators":
        """The generators of -f: each negated."""
        return self._replace(g=-self.g)

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


def subdifferential_rows(
    fn: FunctionHandle,
    region: Region,
    points,
    radius: float,
    count: int,
    seeds,
) -> tuple[Generators, np.ndarray]:
    """subdifferential at each point with its seed: the Generators of the
    estimates, a failed one held as its EstimationError without a
    traceback, and each point's kink flag.

    First, for a handle with an expression, the balls with room are tried
    for a certificate (_certified): a ball proven coherent is not drawn, and
    its estimate is the handle's gradient at its point, read for all such
    points in one grads call.  That is the coherent estimate sampling gives,
    bit for bit.  Every other point's ball comes from its own seeded
    stream, the streams of all those points seeded in one pass and drawn
    through one generator moved from stream to stream; the draws of all
    balls are mapped into them at once, the gradients of all probes are
    read in one call, coherence is tested for all points in one reduction,
    and the coherent points' generators are placed in one array operation;
    only kink points keep a per-point dedupe."""
    points = [np.asarray(x, dtype=float).reshape(-1) for x in points]
    seeds = list(seeds)
    if radius <= 0:
        raise ValueError("radius must be positive")
    if not points:
        none = np.zeros(0, dtype=np.intp)
        return Generators(np.zeros((0, 0)), none, none, none, {}), np.zeros(0, dtype=bool)
    shapes = sorted({x.shape for x in points})
    if len(shapes) > 1:
        raise ValueError(f"points of different shapes {shapes}")
    xs = np.array(points)
    k, n = xs.shape
    if count < 2 * n + 1:
        raise ValueError(f"count must be >= 2n+1 = {2 * n + 1}, got {count}")

    failed: dict = {}
    short = region.interior_slack(xs) < radius
    for i in np.flatnonzero(short).tolist():
        failed[i] = InteriorRoomError(f"ball of radius {radius} at {xs[i]} leaves the region")
    room = np.flatnonzero(~short)
    sure, centre = _certified(fn, xs[room], radius)
    proven, room = room[sure], room[~sure]  # only the unproven balls are drawn
    raw = np.empty((len(room), count, n))
    uniform = np.empty((len(room), count, 1))
    if room.size:
        seeded = pcg64_states([(seeds[i] & 0xFFFFFFFFFFFFFFFF, 0x5D1FF) for i in room.tolist()])
        rng = generator()
        state = rng.bit_generator.state  # one dict, moved to each stream in turn
        for j, at in enumerate(zip(*map(to_ints, seeded))):
            state["state"]["state"], state["state"]["inc"] = at
            rng.bit_generator.state = state
            rng.standard_normal(out=raw[j])
            rng.random(out=uniform[j])
    centers = xs[room][:, None, :]
    probes = np.concatenate([centers, centers + _ball_offsets(raw, uniform, radius)], axis=1)

    gradients, ok = _gradients(fn, probes, radius / 100.0)
    # Each point's generator spread over the probes that succeeded, in one
    # reduction for all points.
    have = ok[:, :, None]
    spread = np.max(np.where(have, gradients, -np.inf).max(axis=1)
                    - np.where(have, gradients, np.inf).min(axis=1), axis=1)
    failures = count + 1 - ok.sum(axis=1)
    broken = failures > (count + 1) / 2
    for j in np.flatnonzero(broken).tolist():
        failed[int(room[j])] = EstimationError(
            f"gradient evaluation failed at {failures[j]}/{count + 1} probes near {xs[room[j]]}"
        )
    # Smooth at this scale: the ball probes merely resample the gradient
    # with O(radius) noise, so the single generator taken at x (or, where
    # that failed, at the first probe that succeeded) is the whole
    # (coherent) estimate.  A kink keeps the probes' generators, each
    # unless a kept one lies within DEDUPE_TOL of it.
    kinked = ~broken & (spread > COHERENCE_SPREAD)
    sets = {}
    for j in np.flatnonzero(kinked).tolist():
        g = gradients[j, ok[j]]
        close = np.abs(g[:, None] - g[None]).max(axis=2) <= DEDUPE_TOL
        kept: list[int] = []
        for r in range(len(g)):
            if not close[r, kept].any():
                kept.append(r)
        sets[int(room[j])] = g[kept]
    sizes = np.ones(k, dtype=np.intp)
    sizes[list(sets)] = [len(s) for s in sets.values()]
    start = np.cumsum(sizes) - sizes
    flat = np.zeros((int(sizes.sum()), n))
    coherent = np.flatnonzero(~broken & ~kinked)
    flat[start[room[coherent]]] = gradients[coherent, ok.argmax(axis=1)[coherent]]
    flat[start[proven]] = centre[sure]
    for i, s in sets.items():
        flat[start[i]:start[i] + len(s)] = s
    at_kink = np.zeros(k, dtype=bool)
    at_kink[list(sets)] = True
    return Generators(flat, np.repeat(np.arange(k), sizes), start, sizes, failed), at_kink


def subdifferentials(
    fn: FunctionHandle,
    region: Region,
    points,
    radius: float,
    count: int,
    seeds,
) -> list[SubdifferentialEstimate | EstimationError]:
    """subdifferential at each point with its seed, from one
    subdifferential_rows call.  A failed estimate is returned as its
    EstimationError, without a traceback."""
    gens, at_kink = subdifferential_rows(fn, region, points, radius, count, seeds)
    return [gens.estimate(i, radius, kink) for i, kink in enumerate(at_kink.tolist())]


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
    kink is flagged when the generator spread exceeds COHERENCE_SPREAD.
    """
    (est,) = subdifferentials(fn, region, [x], radius, count, [seed])
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
    steps: tuple[float, ...] = (1e-3, 1e-4, 1e-5),
) -> float:
    """One-sided derivative along v, extrapolated by a linear fit in the step.

    f at x and at every step that stays in the region is read in one values
    call."""
    x, v = _point_and_direction(region, x, v)
    hs = np.asarray(steps, dtype=float)
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
