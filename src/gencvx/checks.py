"""Executable predicates for generalized-convexity characterizations.

Every predicate (the `check_*` functions and `verify_p_identity`) takes the
function handle and the plain endpoints of a pair, `(fn, x, y, ...)`, then
what it needs besides: a lambda grid or one lambda for the segment
conditions, subdifferential estimates or a gradient for the first-order
ones.  Each returns one `Check` (`check_subdiff_kernel_pair` as `overall`,
beside its two one-sided outcomes), which reports pass/fail together with a
numeric residual; segment predicates also name their lambda and f there,
generator predicates the generator.  Segment points come from
`geometry.segment_point`, which rejects x == y.  The value-only predicates
(the segment conditions and the interpolation bounds) are written once, as
row kernels: `check_rows` runs one over many rows with two array reads of
f, and their `check_*` functions are its one-row wrappers.  Strict
inequalities are tested with the margin

    eps = 1e-7 * (1 + |f(x)| + |f(y)|)

and every failure carries a validity threshold: a failure whose residual does
not clear the threshold is a near-tie, to be treated as inconclusive (or fed
to counterexample refinement) rather than as a refutation.  Thresholds are
set at 100x the margin -- well above the 10x hysteresis floor -- so that
float-level ties on honest functions can never masquerade as witnesses.  For
segment checks the credibility of a violation additionally scales with
min(lam, 1-lam): ties arbitrarily close to an endpoint prove nothing.

Every check also carries a signed `margin`, the score counterexample
refinement climbs: negative while the predicate passes (larger is closer to
a violation) and equal to the residual once it fails.  Pairs that cannot
bear on the predicate score near VACUOUS_MARGIN, far below any real pair;
so do, failing or not, pairs tied within 3 eps under the proportional
checks.

Universally quantified subdifferential conditions are checked on the finite
generator set only.  All such conditions are affine in the generator, so
satisfaction on the generators is equivalent to satisfaction on their convex
hull (a property the test suite asserts directly).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial, wraps
from typing import NamedTuple

import numpy as np

from .functions import FunctionHandle
from .geometry import segment_point
from .nonsmooth import SubdifferentialEstimate

__all__ = [
    "PASS",
    "VACUOUS",
    "FAIL",
    "INCONCLUSIVE",
    "eps_strict",
    "descends",
    "Check",
    "PValue",
    "BRecord",
    "CrossCheck",
    "QLimit",
    "check_pseudoconvex_pair",
    "check_weak_monotone_pair",
    "check_quasiconvex_segment",
    "check_semistrict_quasiconvex_segment",
    "check_interlacing",
    "check_interpolation_bounds",
    "Rows",
    "check_rows",
    "compute_p",
    "verify_p_identity",
    "check_symmetric_equality",
    "check_symmetric_inequality",
    "compute_b",
    "cross_check_b_via_subdifferential",
    "estimate_q_limit",
    "check_gradient_kernel",
    "check_subdiff_kernel_pair",
    "KernelPairCheck",
]

EPS_COEFF = 1e-7
# Evaluation-noise floor: strict segment inequalities count as violated only
# when the compared values tie at this scale.  An exact tie (a flat piece) is
# a violation; a genuinely strict inequality that merely lands inside the
# eps band is a near-tie and stays inconclusive.
NOISE_COEFF = 1e-12
# Residuals must clear WITNESS_FACTOR * eps to count as a refutation.
WITNESS_FACTOR = 100.0
# Margin of a pair the predicate says nothing about (offset by a tie-breaker).
VACUOUS_MARGIN = -1000.0

PASS = "pass"
VACUOUS = "vacuous"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


def eps_strict(fx: float, fy: float) -> float:
    """Margin for strict comparisons between values near f(x), f(y)."""
    return EPS_COEFF * (1.0 + abs(fx) + abs(fy))


def noise_floor(fx: float, fy: float) -> float:
    return NOISE_COEFF * (1.0 + abs(fx) + abs(fy))


def _endpoints(fn: FunctionHandle, x, y) -> tuple[np.ndarray, np.ndarray, float, float]:
    """The pair as float arrays, and f's values there."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return x, y, fn.value(x), fn.value(y)


@dataclass(frozen=True)
class Check:
    """Outcome of a predicate on the pair (x, y).

    Segment predicates name the witness lambda and f there (`lam`, `fz`);
    generator predicates name the generator a failure was found with.
    """

    predicate: str
    x: np.ndarray
    y: np.ndarray
    fx: float
    fy: float
    outcome: str
    residual: float = 0.0
    threshold: float = float("inf")
    generator: np.ndarray | None = None
    generator_index: int | None = None
    lam: float | None = None
    fz: float | None = None
    detail: str = ""
    margin: float = 0.0

    @property
    def credible(self) -> bool:
        return self.outcome == FAIL and self.residual > self.threshold


# --------------------------------------------------------------------------
# First-order pair conditions
# --------------------------------------------------------------------------


def check_pseudoconvex_pair(
    fn: FunctionHandle, x, y, sub_x: SubdifferentialEstimate
) -> Check:
    """f(y) < f(x) requires <g, y-x> < 0 for every generator g at x.

    Vacuous when the antecedent does not hold beyond the margin.  A failing
    pair records the antecedent gap f(x)-f(y) as its residual: the violation
    is credible exactly when the descent in value is substantial while no
    generator certifies a strict descent direction.  A pass scores its
    largest pairing: the generator closest to failing.
    """
    x, y, fx, fy = _endpoints(fn, x, y)
    if not descends(fx, fy):
        return Check("pseudoconvex-pair", x, y, fx, fy, VACUOUS,
                     margin=VACUOUS_MARGIN - (fy - fx))
    eps = eps_strict(fx, fy)
    d = y - x
    worst = -np.inf
    for k, g in enumerate(sub_x.generators):
        v = float(np.dot(g, d))
        if not (v < -eps):
            return Check(
                "pseudoconvex-pair", x, y, fx, fy, FAIL,
                residual=fx - fy,
                threshold=WITNESS_FACTOR * eps,
                generator=g, generator_index=k,
                detail=f"<g, y-x> = {v:.6g} is not strictly negative",
                margin=fx - fy,
            )
        worst = max(worst, v)
    return Check("pseudoconvex-pair", x, y, fx, fy, PASS, margin=worst + eps)


def check_weak_monotone_pair(
    fn: FunctionHandle, x, y, sub_x: SubdifferentialEstimate
) -> Check:
    """f(y) <= f(x) requires <g, y-x> <= 0 for every generator g at x."""
    x, y, fx, fy = _endpoints(fn, x, y)
    eps = eps_strict(fx, fy)
    if not (fy <= fx + eps):
        return Check("weak-monotone-pair", x, y, fx, fy, VACUOUS,
                     margin=VACUOUS_MARGIN - (fy - fx))
    d = y - x
    worst = -np.inf
    for k, g in enumerate(sub_x.generators):
        v = float(np.dot(g, d))
        if v > eps:
            return Check(
                "weak-monotone-pair", x, y, fx, fy, FAIL,
                residual=v,
                threshold=WITNESS_FACTOR * eps,
                generator=g, generator_index=k,
                detail=f"<g, y-x> = {v:.6g} is positive on a non-increasing pair",
                margin=v,
            )
        worst = max(worst, v)
    return Check("weak-monotone-pair", x, y, fx, fy, PASS, margin=worst - eps)


# --------------------------------------------------------------------------
# Value-only predicates: row kernels
# --------------------------------------------------------------------------
#
# The segment conditions and the interpolation bounds read nothing but f at
# the endpoints and at points of the segment, so each is written once, as a
# kernel over k rows.  A kernel takes fx, fy (k,), the rows' lambdas and f at
# their segment points (k, m) (NaN where a row's segment is not read), and
# returns per row the outcome, margin, residual, and the witness lambda and
# f there (NaN where a row names none).  check_rows reads the values and runs
# a kernel; the public check_* functions are its one-row wrappers.


class Rows(NamedTuple):
    """A value-only predicate's results over k rows: f at the endpoints and
    the kernel's per-row outcome, margin, residual, lam and fz."""

    predicate: str
    fx: np.ndarray
    fy: np.ndarray
    outcome: np.ndarray
    margin: np.ndarray
    residual: np.ndarray
    lam: np.ndarray
    fz: np.ndarray

    def check(self, i: int, x, y) -> Check:
        """Row i, whose endpoints are x and y, as a Check."""
        fx, fy, outcome = float(self.fx[i]), float(self.fy[i]), str(self.outcome[i])
        lam, fz = (None if np.isnan(v) else float(v) for v in (self.lam[i], self.fz[i]))
        return Check(
            self.predicate, x, y, fx, fy, outcome,
            residual=float(self.residual[i]),
            threshold=WITNESS_FACTOR * eps_strict(fx, fy) if outcome == FAIL else float("inf"),
            lam=lam, fz=fz,
            detail=_DETAILS[self.predicate](outcome, fx, fy, lam, fz),
            margin=float(self.margin[i]),
        )


_OUTCOMES = np.array([PASS, VACUOUS, FAIL, INCONCLUSIVE], dtype=object)


def _outcomes(vacuous, fail, inconclusive) -> np.ndarray:
    """Each row's outcome: vacuous, else fail, else inconclusive, else pass."""
    return _OUTCOMES[np.select([vacuous, fail, inconclusive], [1, 2, 3], 0)]


def _first_max(score: np.ndarray) -> np.ndarray:
    """Column of each row's first maximum (0 for rows without columns)."""
    return score.argmax(axis=1) if score.shape[1] else np.zeros(len(score), dtype=int)


def _at(a: np.ndarray, col: np.ndarray) -> np.ndarray:
    """a[i, col[i]] for each row i, NaN for rows without columns."""
    return a[np.arange(len(a)), col] if a.shape[1] else np.full(len(a), np.nan)


def descends(fx, fy):
    """The pseudoconvex antecedent f(y) < f(x) beyond the strict margin,
    for floats or elementwise for arrays."""
    return fy < fx - eps_strict(fx, fy)


def _quasiconvex_rows(fx, fy, lams, fz):
    """check_quasiconvex_segment's kernel; the first largest exceedance is
    the witness, and a margin within eps is lowered by eps."""
    eps = eps_strict(fx, fy)
    top = np.where(fy > fx, fy, fx)
    interior = (lams > 0.0) & (lams < 1.0)
    bump = (fz - top[:, None]).max(axis=1, initial=-np.inf, where=interior)
    over = fz > (top + eps)[:, None]
    hit = over.any(axis=1)
    col = _first_max(np.where(over, fz, -np.inf))
    fz_hit = np.where(hit, _at(fz, col), np.nan)
    return (
        _outcomes(False, hit, False),
        np.where(bump > eps, bump, bump - eps),
        np.where(hit, fz_hit - top, 0.0),
        np.where(hit, _at(lams, col), np.nan),
        fz_hit,
    )


def _descent_rows(fx, fy, lams, fz, two_sided: bool):
    """The kernel of check_semistrict_quasiconvex_segment, and of
    check_interlacing when two-sided.  The witness is the first largest
    weighted tie; an inconclusive row names its last near-tie."""
    desc = descends(fx, fy)
    eps = eps_strict(fx, fy)[:, None]
    eta = noise_floor(fx, fy)[:, None]
    hi, lo = fx[:, None], fy[:, None]
    weighted = (fx - fy)[:, None] * np.minimum(lams, 1.0 - lams)
    pinned = fz >= hi - eta
    clear = fz < hi - eps
    score = fz - hi
    if two_sided:
        pinned |= fz <= lo + eta
        clear &= lo + eps < fz
        score = np.maximum(score, lo - fz)
    margin = np.where(pinned, weighted, score).max(axis=1, initial=-np.inf)
    hit = desc & pinned.any(axis=1)
    col = _first_max(np.where(pinned, weighted, -np.inf))
    near = ~pinned & ~clear
    tie = desc & ~hit & near.any(axis=1)
    last = lams.shape[1] - 1 - _first_max(near[:, ::-1])
    return (
        _outcomes(~desc, hit, tie),
        np.where(desc, margin, VACUOUS_MARGIN - (fy - fx)),
        np.where(hit, _at(weighted, col), 0.0),
        np.where(hit, _at(lams, col), np.where(tie, _at(lams, last), np.nan)),
        np.where(hit, _at(fz, col), np.nan),
    )


def _b(fx, fy, fz, lam):
    """The interpolation coefficient b of f(z(lam)) = lam*b*f(y) + (1 - lam*b)*f(x)."""
    return (fz - fx) / (lam * (fy - fx))


def _b_rows(fx, fy, fz, lam):
    """b and the flags of BRecord, elementwise over arrays or numpy scalars;
    b = 1 on degenerate pairs."""
    eps = eps_strict(fx, fy)
    gap = abs(fy - fx)
    degenerate = gap <= eps
    with np.errstate(divide="ignore", invalid="ignore"):
        b = np.where(degenerate, 1.0, _b(fx, fy, fz, lam))
        # Margins on the lam*b scale: value-scale margins divided by the gap.
        delta = eps / gap
        floor = noise_floor(fx, fy) / gap
    lam_b = lam * b
    strict = degenerate | ((lam_b > delta) & (lam_b < 1.0 - delta))
    weak = degenerate | ((lam_b > delta) & (lam_b <= 1.0 + delta))
    strict_violated = ~degenerate & ((lam_b <= floor) | (lam_b >= 1.0 - floor))
    weak_violated = ~degenerate & ((lam_b <= floor) | (lam_b > 1.0 + delta))
    return b, degenerate, strict, weak, strict_violated, weak_violated


def _bounds_rows(fx, fy, lams, fz, strict: bool):
    """check_interpolation_bounds' kernel, at each row's one lambda."""
    if lams.shape[1] != 1:
        raise ValueError("the interpolation bounds take one lambda per row")
    lam, fz = lams[:, 0], fz[:, 0]
    if not ((lam > 0.0) & (lam < 1.0)).all():
        raise ValueError(f"lambda must lie in (0, 1), got {lam}")
    _, degenerate, strict_ok, weak_ok, strict_bad, weak_bad = _b_rows(fx, fy, fz, lam)
    ok, violated = (strict_ok, strict_bad) if strict else (weak_ok, weak_bad)
    eta = noise_floor(fx, fy)
    lo, hi = np.where(fy < fx, fy, fx), np.where(fy > fx, fy, fx)
    weighted = abs(fy - fx) * np.minimum(lam, 1.0 - lam)
    pinned = (fz <= lo + eta) | (fz >= hi - eta)
    margin = np.where(pinned, weighted, np.maximum(fz - hi, lo - fz))
    fail = ~degenerate & ~ok & violated
    return (
        _outcomes(degenerate, fail, ~ok & ~violated),
        np.where(degenerate, VACUOUS_MARGIN, margin),
        np.where(fail, weighted, 0.0),
        lam,
        fz,
    )


def _bounds_detail(outcome, fx, fy, lam, fz) -> str:
    if outcome not in (FAIL, INCONCLUSIVE):
        return ""
    lam_b = lam * _b(fx, fy, fz, lam)
    if outcome == FAIL:
        return f"lambda*b = {lam_b:.9g} outside the required range"
    return f"lambda*b = {lam_b:.9g} pinned at a bound"


def _interlacing_detail(outcome, fx, fy, lam, fz) -> str:
    if outcome == FAIL:
        side = "below f(y)" if fz <= fy + noise_floor(fx, fy) else "above f(x)"
        return f"interior value {fz:.6g} pinned {side}"
    return "interior value inside the strictness band" if outcome == INCONCLUSIVE else ""


def _semistrict_detail(outcome, fx, fy, lam, fz) -> str:
    if outcome == FAIL:
        return f"f(z) = {fz:.6g} does not descend below f(x) = {fx:.6g}"
    return "descent inside the strictness band" if outcome == INCONCLUSIVE else ""


# predicate -> (kernel, whether it reads only interior lambdas of descending pairs)
_KERNELS = {
    "quasiconvex-segment": (_quasiconvex_rows, False),
    "semistrict-quasiconvex-segment": (partial(_descent_rows, two_sided=False), True),
    "interlacing-segment": (partial(_descent_rows, two_sided=True), True),
    "interpolation-strict-bounds": (partial(_bounds_rows, strict=True), False),
    "interpolation-weak-bounds": (partial(_bounds_rows, strict=False), False),
}
_DETAILS = {
    "quasiconvex-segment": lambda outcome, *_: (
        "interior value exceeds endpoint maximum" if outcome == FAIL else ""),
    "semistrict-quasiconvex-segment": _semistrict_detail,
    "interlacing-segment": _interlacing_detail,
    "interpolation-strict-bounds": _bounds_detail,
    "interpolation-weak-bounds": _bounds_detail,
}


def check_rows(predicate: str, fn: FunctionHandle, x, y, lams) -> Rows:
    """Run a value-only predicate over k rows in two reads of f.

    x and y are (k, n) endpoint rows, or one row, (1, n) or (n,), shared by
    all; lams is an (m,) grid shared by all rows or a (k, m) grid per row
    (the bounds take one lambda per row, (k, 1)).  f is read at the
    endpoints in one `fn.values` call, then at every segment point the
    predicate reads in another: the semistrict and interlacing conditions
    read only the interior lambdas of a shared grid, and only on descending
    rows.  Each row's result is bit-identical to the predicate's one-row
    check.
    """
    kernel, descent = _KERNELS[predicate]
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    lams = np.asarray(lams, dtype=float)
    if lams.ndim == 1 and descent:
        lams = lams[(lams > 0.0) & (lams < 1.0)]
    lams = np.atleast_2d(lams)
    k = max(len(x), len(y), len(lams))
    fxy = fn.values(np.concatenate([x, y]))
    fx, fy = _stretch(fxy[: len(x)], k), _stretch(fxy[len(x):], k)
    x, y, lams = _stretch(x, k), _stretch(y, k), _stretch(lams, k)
    fz = np.full(lams.shape, np.nan)
    read = descends(fx, fy) if descent else np.ones(k, dtype=bool)
    points = segment_point(x[read, None], y[read, None], lams[read])
    fz[read] = fn.values(points.reshape(-1, x.shape[1])).reshape(points.shape[:2])
    return Rows(predicate, fx, fy, *kernel(fx, fy, lams, fz))


def _stretch(a: np.ndarray, k: int) -> np.ndarray:
    """One row repeated k times; k rows as they are."""
    if len(a) not in (1, k):
        raise ValueError(f"{len(a)} rows where 1 or {k} are needed")
    return a if len(a) == k else np.repeat(a, k, axis=0)


def _one_row(predicate: str, fn: FunctionHandle, x, y, lams) -> Check:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return check_rows(predicate, fn, x, y, lams).check(0, x, y)


def check_quasiconvex_segment(fn: FunctionHandle, x, y, lam_grid) -> Check:
    """Values along the segment may not exceed the endpoint maximum.

    A failure reports the grid lambda with the largest exceedance.  The
    margin is the largest exceedance over the interior grid lambdas.
    """
    return _one_row("quasiconvex-segment", fn, x, y, lam_grid)


def check_semistrict_quasiconvex_segment(fn: FunctionHandle, x, y, lam_grid) -> Check:
    """f(y) < f(x) requires f(z(lam)) < f(x) at every interior grid lambda.

    An interior value tied with f(x) at the noise floor fails; one that is
    strictly below f(x) but inside the eps band is a near-tie and leaves the
    segment inconclusive.  The residual of a failure is the endpoint gap
    scaled by min(lam, 1-lam): a tie arbitrarily close to an endpoint, or on
    a negligible gap, proves nothing.  A descending lambda scores
    f(z) - f(x), a tied one its would-be residual.
    """
    return _one_row("semistrict-quasiconvex-segment", fn, x, y, lam_grid)


def check_interlacing(fn: FunctionHandle, x, y, lam_grid) -> Check:
    """f(y) < f(x) requires f(y) < f(z(lam)) < f(x) strictly inside.

    This is the combined test for semistrict quasilinearity; tie handling
    matches check_semistrict_quasiconvex_segment, on both sides, and so
    does the margin.
    """
    return _one_row("interlacing-segment", fn, x, y, lam_grid)


# --------------------------------------------------------------------------
# Proportional-function machinery
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PValue:
    """Proportional factor p for one (x, y, generator) triple.

    p = (f(y) - f(x)) / <g, y-x> when the pairing is nonzero beyond the
    margin, and 1 by convention inside the band.  `positive` reports p > 0;
    a nonpositive p on its own already refutes pseudolinearity.
    """

    p: float
    band: bool
    positive: bool
    numerator: float
    denominator: float


def compute_p(fn: FunctionHandle, x, y, generator) -> PValue:
    x, y, fx, fy = _endpoints(fn, x, y)
    g = np.asarray(generator, dtype=float)
    eps = eps_strict(fx, fy)
    num = fy - fx
    den = float(np.dot(g, y - x))
    if abs(den) <= eps:
        return PValue(1.0, True, True, num, den)
    p = num / den
    return PValue(p, False, p > 0.0, num, den)


def _proportional_margin(check_fn):
    """Adds the margin of the proportional-function checks.  Values tied
    within 3 eps make the pair vacuous; otherwise a failure scores its
    residual and anything else minus its smallest pairing |<g, y-x>| at x."""

    @wraps(check_fn)
    def checked(fn, x, y, sub_x, *sub_y) -> Check:
        check = check_fn(fn, x, y, sub_x, *sub_y)
        gap = abs(check.fy - check.fx)
        if gap <= 3.0 * eps_strict(check.fx, check.fy):
            margin = VACUOUS_MARGIN + gap
        elif check.outcome == FAIL:
            margin = check.residual
        else:
            d = check.y - check.x
            margin = -min(abs(float(np.dot(g, d))) for g in sub_x.generators)
        return replace(check, margin=margin)

    return checked


@_proportional_margin
def verify_p_identity(
    fn: FunctionHandle, x, y, sub_x: SubdifferentialEstimate
) -> Check:
    """f(y) - f(x) = p * <g, y-x> with positive p, for every generator.

    With p constructed by compute_p the residual vanishes identically except
    in the band case, where <g, y-x> ~ 0 while the values differ -- which is
    exactly the refutation. A nonpositive p refutes as well.
    """
    x, y, fx, fy = _endpoints(fn, x, y)
    eps = eps_strict(fx, fy)
    for k, g in enumerate(sub_x.generators):
        pv = compute_p(fn, x, y, g)
        r = abs(pv.numerator - pv.p * pv.denominator)
        if pv.band:
            if r > eps:
                return Check(
                    "proportional-identity", x, y, fx, fy, FAIL,
                    residual=abs(pv.numerator),
                    threshold=WITNESS_FACTOR * eps,
                    generator=g, generator_index=k,
                    detail="<g, y-x> vanishes while the values differ",
                )
            continue
        if not pv.positive:
            return Check(
                "proportional-identity", x, y, fx, fy, FAIL,
                residual=min(abs(pv.numerator), abs(pv.denominator))
                if abs(pv.numerator) > eps
                else abs(pv.denominator),
                threshold=WITNESS_FACTOR * eps,
                generator=g, generator_index=k,
                detail=f"proportional factor p = {pv.p:.6g} is not positive",
            )
        if r > eps:
            return Check(
                "proportional-identity", x, y, fx, fy, FAIL,
                residual=r,
                threshold=WITNESS_FACTOR * eps,
                generator=g, generator_index=k,
                detail="identity residual above margin",
            )
    return Check("proportional-identity", x, y, fx, fy, PASS)


@_proportional_margin
def check_symmetric_equality(
    fn: FunctionHandle,
    x,
    y,
    sub_x: SubdifferentialEstimate,
    sub_y: SubdifferentialEstimate,
) -> Check:
    """p(x,y,g) <g, y-x> + p(y,x,h) <h, x-y> = 0 over all generator pairs.

    Band cases (a vanishing pairing on either side) are decidable only when
    the opposite term is large; small mixed sums are inconclusive rather
    than refuting.
    """
    x, y, fx, fy = _endpoints(fn, x, y)
    eps = eps_strict(fx, fy)
    band_limit = WITNESS_FACTOR * eps
    saw_band = False
    for k, g in enumerate(sub_x.generators):
        pv1 = compute_p(fn, x, y, g)
        if not pv1.band and not pv1.positive:
            return Check(
                "symmetric-equality", x, y, fx, fy, FAIL,
                residual=min(abs(pv1.numerator), abs(pv1.denominator))
                if abs(pv1.numerator) > eps
                else abs(pv1.denominator),
                threshold=band_limit,
                generator=g, generator_index=k,
                detail=f"forward proportional factor p = {pv1.p:.6g} is not positive",
            )
        for j, h in enumerate(sub_y.generators):
            pv2 = compute_p(fn, y, x, h)
            if not pv2.band and not pv2.positive:
                return Check(
                    "symmetric-equality", x, y, fx, fy, FAIL,
                    residual=min(abs(pv2.numerator), abs(pv2.denominator))
                    if abs(pv2.numerator) > eps
                    else abs(pv2.denominator),
                    threshold=band_limit,
                    generator=h, generator_index=j,
                    detail=f"reverse proportional factor p = {pv2.p:.6g} is not positive",
                )
            s = pv1.p * pv1.denominator + pv2.p * pv2.denominator
            if pv1.band or pv2.band:
                saw_band = True
                if abs(s) > band_limit:
                    return Check(
                        "symmetric-equality", x, y, fx, fy, FAIL,
                        residual=abs(s),
                        threshold=band_limit,
                        generator=g, generator_index=k,
                        detail="symmetric sum large despite a vanishing pairing",
                    )
                continue
            if abs(s) > eps:
                return Check(
                    "symmetric-equality", x, y, fx, fy, FAIL,
                    residual=abs(s),
                    threshold=band_limit,
                    generator=g, generator_index=k,
                    detail=f"symmetric sum S = {s:.6g} is nonzero",
                )
    if saw_band:
        return Check(
            "symmetric-equality", x, y, fx, fy, INCONCLUSIVE,
            detail="pairing inside the equality band; sum not decidable",
        )
    return Check("symmetric-equality", x, y, fx, fy, PASS)



def check_symmetric_inequality(
    fn: FunctionHandle,
    x,
    y,
    sub_x: SubdifferentialEstimate,
    sub_y: SubdifferentialEstimate,
) -> Check:
    """p(x,y,g) <g, y-x> + p(y,x,h) <h, x-y> <= 0 over all generator pairs.

    The inequality is existential in p, so it is evaluated with the
    constructed p where that is valid and with the fallback p = 1 otherwise.
    A pass is evidence consistent with pseudoconvexity, never a certificate.
    """
    x, y, fx, fy = _endpoints(fn, x, y)
    eps = eps_strict(fx, fy)
    worst = -np.inf
    for k, g in enumerate(sub_x.generators):
        pv1 = compute_p(fn, x, y, g)
        p1 = pv1.p if (not pv1.band and pv1.positive) else 1.0
        for j, h in enumerate(sub_y.generators):
            pv2 = compute_p(fn, y, x, h)
            p2 = pv2.p if (not pv2.band and pv2.positive) else 1.0
            s = p1 * pv1.denominator + p2 * pv2.denominator
            if s > eps:
                return Check(
                    "symmetric-inequality", x, y, fx, fy, FAIL,
                    residual=s,
                    threshold=WITNESS_FACTOR * eps,
                    generator=g, generator_index=k,
                    detail=f"symmetric sum S = {s:.6g} is positive",
                    margin=s,
                )
            worst = max(worst, s)
    return Check("symmetric-inequality", x, y, fx, fy, PASS, margin=worst - eps)


# --------------------------------------------------------------------------
# Interpolation coefficient b
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BRecord:
    """Coefficient b making f(z(lam)) = lam*b*f(y) + (1 - lam*b)*f(x).

    `degenerate` marks pairs with f(x) ~ f(y), where b = 1 by convention.
    `strict` asserts 0 < lam*b < 1 with the eps margin, `weak` asserts
    0 < b <= 1/lam, and `strict_violated` reports lam*b pinned at 0 or 1 at
    the noise floor (or outside [0, 1] outright).  A lam*b inside the eps
    band but off the floor satisfies neither strict nor strict_violated: a
    boundary case reported as its own outcome rather than forced into
    either class.
    """

    x: np.ndarray
    y: np.ndarray
    lam: float
    b: float
    fx: float
    fy: float
    fz: float
    degenerate: bool
    strict: bool
    weak: bool
    boundary: bool
    strict_violated: bool
    weak_violated: bool

    @property
    def lam_b(self) -> float:
        return self.lam * self.b


def compute_b(fn: FunctionHandle, x, y, lam: float) -> BRecord:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (0.0 < lam < 1.0):
        raise ValueError(f"lambda must lie in (0, 1), got {lam}")
    if np.array_equal(x, y):
        raise ValueError("degenerate pair: x == y")
    fx, fy = fn.value(x), fn.value(y)
    fz = fn.value(x + lam * (y - x))
    b, degenerate, strict, weak, strict_violated, weak_violated = (
        v.item() for v in _b_rows(*map(np.float64, (fx, fy, fz, lam)))
    )
    boundary = (not strict and not strict_violated) or (not weak and not weak_violated)
    return BRecord(x, y, lam, b, fx, fy, fz, degenerate=degenerate,
                   strict=strict, weak=weak, boundary=boundary,
                   strict_violated=strict_violated, weak_violated=weak_violated)


def check_interpolation_bounds(fn: FunctionHandle, x, y, lam: float, strict: bool) -> Check:
    """0 < lam*b < 1 (strict) or 0 < b <= 1/lam (weak) at one lambda.

    A lam*b inside the eps band but off the noise floor is inconclusive; a
    failure's residual is |f(y) - f(x)| * min(lam, 1-lam).  The margin
    scores f(z) against the open interval between f(x) and f(y) in either
    orientation, so a failure scores its residual; tied pairs are vacuous.
    """
    name = "interpolation-strict-bounds" if strict else "interpolation-weak-bounds"
    return _one_row(name, fn, x, y, [[lam]])


@dataclass(frozen=True)
class CrossCheck:
    outcome: str
    b_direct: float
    b_generators: tuple[float, ...]
    residual: float
    detail: str = ""


def cross_check_b_via_subdifferential(
    fn: FunctionHandle, x, y, lam: float, sub_z: SubdifferentialEstimate,
    tolerance: float = 1e-6,
) -> CrossCheck:
    """Recover b from q-factors at z(lam) and compare with the direct b.

    For each generator xi at z:  q(z,x) = lam <xi, x-y> / [f(x) - f(z)] and
    q(z,y) = (1-lam) <xi, y-x> / [f(y) - f(z)]; then

        b = q(z,y) / [lam q(z,y) + (1-lam) q(z,x)].

    The recovered b must agree with the derivative-free b and must not
    depend on the generator.  Pairs with any value tie, or with a
    nonpositive q, are inconclusive.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rec = compute_b(fn, x, y, lam)
    fx, fy, fz = rec.fx, rec.fy, rec.fz
    eps = max(eps_strict(fx, fy), eps_strict(fx, fz), eps_strict(fy, fz))
    if abs(fy - fx) <= eps or abs(fz - fx) <= eps or abs(fz - fy) <= eps:
        return CrossCheck(INCONCLUSIVE, rec.b, (), 0.0,
                          "values inside the equality band")
    z = x + lam * (y - x)
    bs = []
    for xi in sub_z.generators:
        q_zx = lam * float(np.dot(xi, x - y)) / (fx - fz)
        q_zy = (1.0 - lam) * float(np.dot(xi, y - x)) / (fy - fz)
        if q_zx <= 0.0 or q_zy <= 0.0:
            return CrossCheck(INCONCLUSIVE, rec.b, (), 0.0,
                              "q-factor not positive; p undefined here")
        bs.append(q_zy / (lam * q_zy + (1.0 - lam) * q_zx))
    scale = 1.0 + abs(rec.b)
    worst = max(abs(b - rec.b) for b in bs)
    spread = max(bs) - min(bs)
    if worst > tolerance * scale or spread > tolerance * scale:
        return CrossCheck(FAIL, rec.b, tuple(bs), max(worst, spread),
                          "subdifferential route disagrees with direct b")
    return CrossCheck(PASS, rec.b, tuple(bs), worst)


@dataclass(frozen=True)
class QLimit:
    """Extrapolated limit of b(x, y, lam) as lam -> 0+."""

    limit: float
    converged: bool
    b_values: tuple[float, ...]
    closed_form: float | None = None


def estimate_q_limit(
    fn: FunctionHandle, x, y,
    schedule: tuple[float, ...] = (1e-1, 1e-2, 1e-3, 1e-4),
) -> QLimit:
    """Richardson-extrapolate b over a decreasing lambda schedule.

    The schedule must decrease by a constant ratio.  When the handle carries
    a gradient, the closed form <grad f(x), y-x> / [f(y) - f(x)] is attached
    for comparison.  A non-contracting extrapolant sequence clears the
    convergence flag.
    """
    x, y, fx, fy = _endpoints(fn, x, y)
    if abs(fy - fx) <= eps_strict(fx, fy):
        raise ValueError("f(y) inside the equality band of f(x); q-limit undefined")
    if len(schedule) < 2:
        raise ValueError("schedule needs at least two lambdas")
    ratios = [schedule[i] / schedule[i + 1] for i in range(len(schedule) - 1)]
    ratio = ratios[0]
    if any(abs(r - ratio) > 1e-9 * ratio for r in ratios) or ratio <= 1.0:
        raise ValueError("schedule must decrease geometrically")

    bs = [compute_b(fn, x, y, lam).b for lam in schedule]
    # Neville table eliminating powers lam, lam^2, ... for geometric nodes.
    table = [list(bs)]
    diffs = []
    for level in range(1, len(bs)):
        factor = ratio**level
        prev = table[-1]
        row = [
            (factor * prev[i + 1] - prev[i]) / (factor - 1.0)
            for i in range(len(prev) - 1)
        ]
        table.append(row)
        diffs.append(abs(row[-1] - prev[-1]))
    limit = table[-1][-1]
    converged = len(diffs) >= 2 and (
        diffs[-1] <= diffs[-2] or diffs[-1] <= 1e-9 * (1.0 + abs(limit))
    )

    closed = None
    g = fn.grad(x)
    if g is not None:
        closed = float(np.dot(g, y - x)) / (fy - fx)
    return QLimit(float(limit), converged, tuple(bs), closed)


# --------------------------------------------------------------------------
# Kernel conditions
# --------------------------------------------------------------------------


def check_gradient_kernel(fn: FunctionHandle, x, y, grad_x) -> Check:
    """grad f(x)(y - x) = 0 requires f(y) = f(x)  (smooth handles)."""
    x, y, fx, fy = _endpoints(fn, x, y)
    g = np.asarray(grad_x, dtype=float)
    eps = eps_strict(fx, fy)
    d = float(np.dot(g, y - x))
    if abs(d) > eps:
        return Check("gradient-kernel", x, y, fx, fy, VACUOUS, margin=-abs(d))
    gap = abs(fy - fx)
    if gap > eps:
        return Check(
            "gradient-kernel", x, y, fx, fy, FAIL,
            residual=gap,
            threshold=WITNESS_FACTOR * eps,
            generator=g, generator_index=0,
            detail="kernel direction changes the value",
            margin=gap,
        )
    return Check("gradient-kernel", x, y, fx, fy, PASS, margin=gap - eps)


@dataclass(frozen=True)
class KernelPairCheck:
    """Joint outcome of the two one-sided subdifferential kernel conditions."""

    overall: Check
    lower: str  # generators of f:   <xi, y-x> = 0  =>  f(y) >= f(x)
    upper: str  # generators of -f:  <eta, y-x> = 0  =>  f(y) <= f(x)


def check_subdiff_kernel_pair(
    fn: FunctionHandle,
    x,
    y,
    sub_x: SubdifferentialEstimate,
    sub_neg_x: SubdifferentialEstimate,
) -> KernelPairCheck:
    """Kernel conditions for both f and -f at x, combined verdict included.

    The margin is minus the smallest |<g, y-x>| while no generator lies in
    the kernel, then |f(y) - f(x)| less eps, or the residual once failing.
    """
    x, y, fx, fy = _endpoints(fn, x, y)
    eps = eps_strict(fx, fy)
    d = y - x
    gap = abs(fy - fx)
    closest = min(abs(float(np.dot(g, d))) for g in (*sub_x.generators, *sub_neg_x.generators))
    if closest > eps:
        margin = -closest
    else:
        margin = gap if gap > eps else gap - eps

    def _side(est: SubdifferentialEstimate, lower: bool) -> tuple[str, Check | None]:
        outcome = VACUOUS
        for k, g in enumerate(est.generators):
            if abs(float(np.dot(g, d))) > eps:
                continue
            bad = (fy < fx - eps) if lower else (fy > fx + eps)
            if bad:
                which = "f(y) >= f(x)" if lower else "f(y) <= f(x)"
                return FAIL, Check(
                    "subdifferential-kernel", x, y, fx, fy, FAIL,
                    residual=gap,
                    threshold=WITNESS_FACTOR * eps,
                    generator=g, generator_index=k,
                    detail=f"kernel generator violates {which}",
                    margin=margin,
                )
            outcome = PASS
        return outcome, None

    low, fail = _side(sub_x, lower=True)
    if fail is not None:
        up, _ = _side(sub_neg_x, lower=False)
        return KernelPairCheck(fail, low, up)
    up, fail = _side(sub_neg_x, lower=False)
    if fail is not None:
        return KernelPairCheck(fail, low, up)
    combined = PASS if (low == PASS or up == PASS) else VACUOUS
    return KernelPairCheck(
        Check("subdifferential-kernel", x, y, fx, fy, combined, margin=margin), low, up
    )
