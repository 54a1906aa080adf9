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

import numpy as np

from .functions import FunctionHandle
from .geometry import Region

__all__ = [
    "ClarkeScheme",
    "SubdifferentialEstimate",
    "EstimationError",
    "InteriorRoomError",
    "clarke_directional",
    "subdifferential",
    "subdifferentials",
    "negate_estimate",
    "directional_derivative",
]

# Generators further apart than this (max coordinate spread) flag a kink.
COHERENCE_SPREAD = 1e-3
# Duplicate generators within this tolerance are merged.
DEDUPE_TOL = 1e-12

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

    @property
    def spread(self) -> float:
        stack = np.stack(self.generators)
        return float(np.max(stack.max(axis=0) - stack.min(axis=0)))


def _ball_points(rng: np.random.Generator, center: np.ndarray, radius: float, count: int) -> np.ndarray:
    """Uniform draws from the euclidean ball B(center, radius)."""
    n = center.size
    raw = rng.standard_normal(size=(count, n))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    radii = radius * rng.uniform(0.0, 1.0, size=(count, 1)) ** (1.0 / n)
    return center + raw / norms * radii


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
    skipped the point has insufficient interior room.
    """
    scheme = scheme or ClarkeScheme()
    x = np.asarray(x, dtype=float).reshape(-1)
    v = np.asarray(v, dtype=float).reshape(-1)
    if float(np.max(np.abs(v))) == 0.0:
        raise ValueError("direction must be nonzero")

    per_scale: list[float] = []
    for k, t in enumerate(scheme.steps):
        delta = scheme.neighborhood_factor * t
        rng = np.random.default_rng(np.random.SeedSequence((scheme.seed & 0xFFFFFFFF, 0xC1A, k)))
        best = -np.inf
        ok = True
        for _ in range(scheme.probes_per_scale):
            quotient = None
            for _ in range(_REDRAWS_PER_PROBE):
                y = _ball_points(rng, x, delta, 1)[0]
                y_step = y + t * v
                if region.contains(y) and region.contains(y_step):
                    quotient = (fn.value(y_step) - fn.value(y)) / t
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


def _central_difference(fn: FunctionHandle, x: np.ndarray, step: float) -> np.ndarray:
    g = np.empty(x.size)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = step
        g[i] = (fn.value(x + e) - fn.value(x - e)) / (2.0 * step)
    return g


# Evaluation failures that count against an estimate instead of aborting it.
_PROBE_ERRORS = (ArithmeticError, FloatingPointError, ZeroDivisionError)


def _probe_gradients(fn: FunctionHandle, probes: np.ndarray, step: float) -> list:
    """Per probe, its gradient, or None where evaluation failed: the handle
    gradient where it exists, else a central difference at `step`."""
    out = []
    for p in probes:
        try:
            g = fn.grad(p)
            if g is None:
                g = _central_difference(fn, p, step)
        except _PROBE_ERRORS:
            out.append(None)
            continue
        out.append(np.asarray(g, dtype=float) if np.all(np.isfinite(g)) else None)
    return out


def _row_gradients(fn: FunctionHandle, probes: np.ndarray, step: float) -> list:
    """_probe_gradients in one gradient_rows call, bit for bit, with the
    central differences of all kink rows read in one values call.  Raises
    where any probe's evaluation raises."""
    gradients, kinks = fn.gradient_rows(probes)
    gradients = np.array(gradients, dtype=float)
    kinks = np.asarray(kinks, dtype=bool)
    if gradients.shape != probes.shape or kinks.shape != (len(probes),):
        raise ValueError(f"{fn.name} returned gradient rows of shape {gradients.shape}")
    kinked = np.flatnonzero(kinks)
    if kinked.size:
        n = probes.shape[1]
        steps = np.zeros((n, n))
        np.fill_diagonal(steps, step)  # row i is the e of _central_difference
        at = probes[kinked][:, None, :]
        f = fn.values(np.concatenate([at + steps, at - steps]).reshape(-1, n))
        plus, minus = f.reshape(2, -1)
        gradients[kinked] = ((plus - minus) / (2.0 * step)).reshape(-1, n)
    finite = np.isfinite(gradients).all(axis=1)
    return [g if ok else None for g, ok in zip(gradients, finite)]


def _gradients(fn: FunctionHandle, probe_sets: list[np.ndarray], step: float) -> list[list]:
    """_probe_gradients for each set of probes.  A handle with gradient_rows
    reads all sets in one call; where that raises, every set falls back to
    the per-probe loop, so failures are counted probe by probe as without
    gradient_rows."""
    if fn.gradient_rows is not None and probe_sets:
        try:
            flat = _row_gradients(fn, np.concatenate(probe_sets), step)
        except _PROBE_ERRORS:
            pass
        else:
            ends = np.cumsum([len(s) for s in probe_sets])
            return [flat[end - len(s):end] for s, end in zip(probe_sets, ends)]
    return [_probe_gradients(fn, s, step) for s in probe_sets]


def _estimate(x: np.ndarray, gradients: list, radius: float) -> SubdifferentialEstimate:
    """The estimate from the probes' gradients (None where one failed),
    the gradient at x first."""
    raw = [g for g in gradients if g is not None]
    failures = len(gradients) - len(raw)
    if failures > len(gradients) / 2:
        raise EstimationError(
            f"gradient evaluation failed at {failures}/{len(gradients)} probes near {x}"
        )
    if not raw:
        raise EstimationError(f"no usable gradients near {x}")

    stack = np.stack(raw)
    spread = float(np.max(stack.max(axis=0) - stack.min(axis=0))) if len(raw) > 1 else 0.0
    if spread <= COHERENCE_SPREAD:
        # Smooth at this scale: the ball probes merely resample the gradient
        # with O(radius) noise, so the single generator taken at x is the
        # whole (coherent) estimate.
        g = (gradients[0] if gradients[0] is not None else raw[0]).copy()
        g.flags.writeable = False
        return SubdifferentialEstimate((g,), radius, False)

    kept: list[np.ndarray] = []
    for g in raw:
        if not any(float(np.max(np.abs(g - h))) <= DEDUPE_TOL for h in kept):
            g = g.copy()
            g.flags.writeable = False
            kept.append(g)
    return SubdifferentialEstimate(tuple(kept), radius, True)


def subdifferentials(
    fn: FunctionHandle,
    region: Region,
    points,
    radius: float,
    count: int,
    seeds,
) -> list[SubdifferentialEstimate | EstimationError]:
    """subdifferential at each point with its seed, bit for bit, reading the
    gradients of all their probes in one call where the handle has
    gradient_rows.  A failed estimate is returned as its EstimationError,
    without a traceback."""
    points = [np.asarray(x, dtype=float).reshape(-1) for x in points]
    for x in points:
        n = x.size
        if count < 2 * n + 1:
            raise ValueError(f"count must be >= 2n+1 = {2 * n + 1}, got {count}")
    if radius <= 0:
        raise ValueError("radius must be positive")

    out: list = [None] * len(points)
    probe_sets: dict[int, np.ndarray] = {}
    slack = region.interior_slack(np.array(points)) if points else ()
    for i, (x, seed) in enumerate(zip(points, seeds)):
        if slack[i] < radius:
            out[i] = InteriorRoomError(f"ball of radius {radius} at {x} leaves the region")
            continue
        rng = np.random.default_rng(np.random.SeedSequence((seed & 0xFFFFFFFFFFFFFFFF, 0x5D1FF)))
        probe_sets[i] = np.concatenate([x[None], _ball_points(rng, x, radius, count)])

    gradients = _gradients(fn, list(probe_sets.values()), radius / 100.0)
    for i, g in zip(probe_sets, gradients):
        try:
            out[i] = _estimate(points[i], g, radius)
        except EstimationError as exc:
            out[i] = exc.with_traceback(None)
    return out


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
    """One-sided derivative along v, extrapolated by a linear fit in the step."""
    x = np.asarray(x, dtype=float).reshape(-1)
    v = np.asarray(v, dtype=float).reshape(-1)
    fx = fn.value(x)
    hs, qs = [], []
    for h in steps:
        p = x + h * v
        if region.contains(p):
            hs.append(h)
            qs.append((fn.value(p) - fx) / h)
    if len(hs) < 2:
        raise InteriorRoomError(f"insufficient interior room at {x} along {v}")
    h_arr = np.array(hs)
    q_arr = np.array(qs)
    # Least-squares intercept of q = a + b*h.
    k = len(hs)
    sh, sq = h_arr.sum(), q_arr.sum()
    shh, shq = (h_arr * h_arr).sum(), (h_arr * q_arr).sum()
    return float((shh * sq - sh * shq) / (k * shh - sh * sh))
