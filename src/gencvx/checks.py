"""Executable predicates for generalized-convexity characterizations.

Each predicate operates on concrete points, segments, or subdifferential
estimates and reports pass/fail together with a numeric residual.  Strict
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
so do, failing or not, ascending pairs under the strict interpolation
bounds and pairs tied within 3 eps under the proportional checks.

Universally quantified subdifferential conditions are checked on the finite
generator set only.  All such conditions are affine in the generator, so
satisfaction on the generators is equivalent to satisfaction on their convex
hull (a property the test suite asserts directly).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import wraps

import numpy as np

from .functions import FunctionHandle
from .nonsmooth import SubdifferentialEstimate

__all__ = [
    "PASS",
    "VACUOUS",
    "FAIL",
    "INCONCLUSIVE",
    "eps_strict",
    "PairCheck",
    "SegmentCheck",
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


@dataclass(frozen=True)
class PairCheck:
    """Outcome of a point-pair predicate."""

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
    detail: str = ""
    margin: float = 0.0

    @property
    def credible(self) -> bool:
        return self.outcome == FAIL and self.residual > self.threshold


@dataclass(frozen=True)
class SegmentCheck:
    """Outcome of a segment predicate; failures name the witness lambda."""

    predicate: str
    x: np.ndarray
    y: np.ndarray
    fx: float
    fy: float
    outcome: str
    lam: float | None = None
    fz: float | None = None
    residual: float = 0.0
    threshold: float = float("inf")
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
) -> PairCheck:
    """f(y) < f(x) requires <g, y-x> < 0 for every generator g at x.

    Vacuous when the antecedent does not hold beyond the margin.  A failing
    pair records the antecedent gap f(x)-f(y) as its residual: the violation
    is credible exactly when the descent in value is substantial while no
    generator certifies a strict descent direction.  A pass scores its
    largest pairing: the generator closest to failing.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    fx, fy = fn.value(x), fn.value(y)
    eps = eps_strict(fx, fy)
    if not (fy < fx - eps):
        return PairCheck("pseudoconvex-pair", x, y, fx, fy, VACUOUS,
                         margin=VACUOUS_MARGIN - (fy - fx))
    d = y - x
    worst = -np.inf
    for k, g in enumerate(sub_x.generators):
        v = float(np.dot(g, d))
        if not (v < -eps):
            return PairCheck(
                "pseudoconvex-pair", x, y, fx, fy, FAIL,
                residual=fx - fy,
                threshold=WITNESS_FACTOR * eps,
                generator=g, generator_index=k,
                detail=f"<g, y-x> = {v:.6g} is not strictly negative",
                margin=fx - fy,
            )
        worst = max(worst, v)
    return PairCheck("pseudoconvex-pair", x, y, fx, fy, PASS, margin=worst + eps)


def check_weak_monotone_pair(
    fn: FunctionHandle, x, y, sub_x: SubdifferentialEstimate
) -> PairCheck:
    """f(y) <= f(x) requires <g, y-x> <= 0 for every generator g at x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    fx, fy = fn.value(x), fn.value(y)
    eps = eps_strict(fx, fy)
    if not (fy <= fx + eps):
        return PairCheck("weak-monotone-pair", x, y, fx, fy, VACUOUS,
                         margin=VACUOUS_MARGIN - (fy - fx))
    d = y - x
    worst = -np.inf
    for k, g in enumerate(sub_x.generators):
        v = float(np.dot(g, d))
        if v > eps:
            return PairCheck(
                "weak-monotone-pair", x, y, fx, fy, FAIL,
                residual=v,
                threshold=WITNESS_FACTOR * eps,
                generator=g, generator_index=k,
                detail=f"<g, y-x> = {v:.6g} is positive on a non-increasing pair",
                margin=v,
            )
        worst = max(worst, v)
    return PairCheck("weak-monotone-pair", x, y, fx, fy, PASS, margin=worst - eps)


# --------------------------------------------------------------------------
# Segment conditions
# --------------------------------------------------------------------------


def _lam_weight(lam: float) -> float:
    return min(lam, 1.0 - lam)


def check_quasiconvex_segment(fn: FunctionHandle, seg, lam_grid) -> SegmentCheck:
    """Values along the segment may not exceed the endpoint maximum.

    A failure reports the grid lambda with the largest exceedance.  The
    margin is the largest exceedance over the interior grid lambdas.
    """
    fx, fy = fn.value(seg.x), fn.value(seg.y)
    eps = eps_strict(fx, fy)
    top = max(fx, fy)
    worst: tuple[float, float] | None = None
    bump = -np.inf
    lams = [float(lam) for lam in lam_grid]
    for lam, z in zip(lams, seg.point_at(lams)):
        fz = fn.value(z)
        if 0.0 < lam < 1.0:
            bump = max(bump, fz - top)
        if fz > top + eps and (worst is None or fz > worst[1]):
            worst = (lam, fz)
    margin = bump if bump > eps else bump - eps
    if worst is not None:
        lam, fz = worst
        return SegmentCheck(
            "quasiconvex-segment", seg.x, seg.y, fx, fy, FAIL,
            lam=lam, fz=fz,
            residual=fz - top,
            threshold=WITNESS_FACTOR * eps,
            detail="interior value exceeds endpoint maximum",
            margin=margin,
        )
    return SegmentCheck("quasiconvex-segment", seg.x, seg.y, fx, fy, PASS, margin=margin)


def check_semistrict_quasiconvex_segment(
    fn: FunctionHandle, seg, lam_grid
) -> SegmentCheck:
    """f(y) < f(x) requires f(z(lam)) < f(x) at every interior grid lambda.

    An interior value tied with f(x) at the noise floor fails; one that is
    strictly below f(x) but inside the eps band is a near-tie and leaves the
    segment inconclusive.  The residual of a failure is the endpoint gap
    scaled by min(lam, 1-lam): a tie arbitrarily close to an endpoint, or on
    a negligible gap, proves nothing.  A descending lambda scores
    f(z) - f(x), a tied one its would-be residual.
    """
    fx, fy = fn.value(seg.x), fn.value(seg.y)
    eps = eps_strict(fx, fy)
    eta = noise_floor(fx, fy)
    if not (fy < fx - eps):
        return SegmentCheck("semistrict-quasiconvex-segment", seg.x, seg.y, fx, fy, VACUOUS,
                            margin=VACUOUS_MARGIN - (fy - fx))
    gap = fx - fy
    near_tie = None
    worst: tuple[float, float, float] | None = None
    margin = -np.inf
    lams = [lam for lam in map(float, lam_grid) if 0.0 < lam < 1.0]
    for lam, z in zip(lams, seg.point_at(lams)):
        fz = fn.value(z)
        if fz >= fx - eta:
            r = gap * _lam_weight(lam)
            margin = max(margin, r)
            if worst is None or r > worst[0]:
                worst = (r, lam, fz)
        else:
            margin = max(margin, fz - fx)
            if not (fz < fx - eps):
                near_tie = lam
    if worst is not None:
        _, lam, fz = worst
        return SegmentCheck(
            "semistrict-quasiconvex-segment", seg.x, seg.y, fx, fy, FAIL,
            lam=lam, fz=fz,
            residual=gap * _lam_weight(lam),
            threshold=WITNESS_FACTOR * eps,
            detail=f"f(z) = {fz:.6g} does not descend below f(x) = {fx:.6g}",
            margin=margin,
        )
    if near_tie is not None:
        return SegmentCheck(
            "semistrict-quasiconvex-segment", seg.x, seg.y, fx, fy, INCONCLUSIVE,
            lam=near_tie, detail="descent inside the strictness band", margin=margin,
        )
    return SegmentCheck("semistrict-quasiconvex-segment", seg.x, seg.y, fx, fy, PASS,
                        margin=margin)


def check_interlacing(fn: FunctionHandle, seg, lam_grid) -> SegmentCheck:
    """f(y) < f(x) requires f(y) < f(z(lam)) < f(x) strictly inside.

    This is the combined test for semistrict quasilinearity; tie handling
    matches check_semistrict_quasiconvex_segment, on both sides, and so
    does the margin.
    """
    fx, fy = fn.value(seg.x), fn.value(seg.y)
    eps = eps_strict(fx, fy)
    eta = noise_floor(fx, fy)
    if not (fy < fx - eps):
        return SegmentCheck("interlacing-segment", seg.x, seg.y, fx, fy, VACUOUS,
                            margin=VACUOUS_MARGIN - (fy - fx))
    gap = fx - fy
    near_tie = None
    worst: tuple[float, float, float] | None = None
    margin = -np.inf
    lams = [lam for lam in map(float, lam_grid) if 0.0 < lam < 1.0]
    for lam, z in zip(lams, seg.point_at(lams)):
        fz = fn.value(z)
        if fz <= fy + eta or fz >= fx - eta:
            r = gap * _lam_weight(lam)
            margin = max(margin, r)
            if worst is None or r > worst[0]:
                worst = (r, lam, fz)
        else:
            margin = max(margin, max(fz - fx, fy - fz))
            if not (fy + eps < fz < fx - eps):
                near_tie = lam
    if worst is not None:
        _, lam, fz = worst
        side = "below f(y)" if fz <= fy + eta else "above f(x)"
        return SegmentCheck(
            "interlacing-segment", seg.x, seg.y, fx, fy, FAIL,
            lam=lam, fz=fz,
            residual=gap * _lam_weight(lam),
            threshold=WITNESS_FACTOR * eps,
            detail=f"interior value {fz:.6g} pinned {side}",
            margin=margin,
        )
    if near_tie is not None:
        return SegmentCheck(
            "interlacing-segment", seg.x, seg.y, fx, fy, INCONCLUSIVE,
            lam=near_tie, detail="interior value inside the strictness band", margin=margin,
        )
    return SegmentCheck("interlacing-segment", seg.x, seg.y, fx, fy, PASS, margin=margin)


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
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    g = np.asarray(generator, dtype=float)
    fx, fy = fn.value(x), fn.value(y)
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
    def checked(fn, x, y, sub_x, *sub_y) -> PairCheck:
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
) -> PairCheck:
    """f(y) - f(x) = p * <g, y-x> with positive p, for every generator.

    With p constructed by compute_p the residual vanishes identically except
    in the band case, where <g, y-x> ~ 0 while the values differ -- which is
    exactly the refutation. A nonpositive p refutes as well.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    fx, fy = fn.value(x), fn.value(y)
    eps = eps_strict(fx, fy)
    for k, g in enumerate(sub_x.generators):
        pv = compute_p(fn, x, y, g)
        r = abs(pv.numerator - pv.p * pv.denominator)
        if pv.band:
            if r > eps:
                return PairCheck(
                    "proportional-identity", x, y, fx, fy, FAIL,
                    residual=abs(pv.numerator),
                    threshold=WITNESS_FACTOR * eps,
                    generator=g, generator_index=k,
                    detail="<g, y-x> vanishes while the values differ",
                )
            continue
        if not pv.positive:
            return PairCheck(
                "proportional-identity", x, y, fx, fy, FAIL,
                residual=min(abs(pv.numerator), abs(pv.denominator))
                if abs(pv.numerator) > eps
                else abs(pv.denominator),
                threshold=WITNESS_FACTOR * eps,
                generator=g, generator_index=k,
                detail=f"proportional factor p = {pv.p:.6g} is not positive",
            )
        if r > eps:
            return PairCheck(
                "proportional-identity", x, y, fx, fy, FAIL,
                residual=r,
                threshold=WITNESS_FACTOR * eps,
                generator=g, generator_index=k,
                detail="identity residual above margin",
            )
    return PairCheck("proportional-identity", x, y, fx, fy, PASS)


@_proportional_margin
def check_symmetric_equality(
    fn: FunctionHandle,
    x,
    y,
    sub_x: SubdifferentialEstimate,
    sub_y: SubdifferentialEstimate,
) -> PairCheck:
    """p(x,y,g) <g, y-x> + p(y,x,h) <h, x-y> = 0 over all generator pairs.

    Band cases (a vanishing pairing on either side) are decidable only when
    the opposite term is large; small mixed sums are inconclusive rather
    than refuting.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    fx, fy = fn.value(x), fn.value(y)
    eps = eps_strict(fx, fy)
    band_limit = WITNESS_FACTOR * eps
    saw_band = False
    for k, g in enumerate(sub_x.generators):
        pv1 = compute_p(fn, x, y, g)
        if not pv1.band and not pv1.positive:
            return PairCheck(
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
                return PairCheck(
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
                    return PairCheck(
                        "symmetric-equality", x, y, fx, fy, FAIL,
                        residual=abs(s),
                        threshold=band_limit,
                        generator=g, generator_index=k,
                        detail="symmetric sum large despite a vanishing pairing",
                    )
                continue
            if abs(s) > eps:
                return PairCheck(
                    "symmetric-equality", x, y, fx, fy, FAIL,
                    residual=abs(s),
                    threshold=band_limit,
                    generator=g, generator_index=k,
                    detail=f"symmetric sum S = {s:.6g} is nonzero",
                )
    if saw_band:
        return PairCheck(
            "symmetric-equality", x, y, fx, fy, INCONCLUSIVE,
            detail="pairing inside the equality band; sum not decidable",
        )
    return PairCheck("symmetric-equality", x, y, fx, fy, PASS)



def check_symmetric_inequality(
    fn: FunctionHandle,
    x,
    y,
    sub_x: SubdifferentialEstimate,
    sub_y: SubdifferentialEstimate,
) -> PairCheck:
    """p(x,y,g) <g, y-x> + p(y,x,h) <h, x-y> <= 0 over all generator pairs.

    The inequality is existential in p, so it is evaluated with the
    constructed p where that is valid and with the fallback p = 1 otherwise.
    A pass is evidence consistent with pseudoconvexity, never a certificate.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    fx, fy = fn.value(x), fn.value(y)
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
                return PairCheck(
                    "symmetric-inequality", x, y, fx, fy, FAIL,
                    residual=s,
                    threshold=WITNESS_FACTOR * eps,
                    generator=g, generator_index=k,
                    detail=f"symmetric sum S = {s:.6g} is positive",
                    margin=s,
                )
            worst = max(worst, s)
    return PairCheck("symmetric-inequality", x, y, fx, fy, PASS, margin=worst - eps)


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
    eps = eps_strict(fx, fy)
    if abs(fy - fx) <= eps:
        return BRecord(x, y, lam, 1.0, fx, fy, fz, degenerate=True,
                       strict=True, weak=True, boundary=False,
                       strict_violated=False, weak_violated=False)
    gap = abs(fy - fx)
    b = (fz - fx) / (lam * (fy - fx))
    lam_b = lam * b
    # Margins on the lam*b scale: value-scale margins divided by the gap.
    delta = eps / gap
    floor = noise_floor(fx, fy) / gap
    strict = (lam_b > delta) and (lam_b < 1.0 - delta)
    weak = (lam_b > delta) and (lam_b <= 1.0 + delta)
    strict_violated = (lam_b <= floor) or (lam_b >= 1.0 - floor)
    weak_violated = (lam_b <= floor) or (lam_b > 1.0 + delta)
    boundary = (not strict and not strict_violated) or (not weak and not weak_violated)
    return BRecord(x, y, lam, b, fx, fy, fz, degenerate=False,
                   strict=strict, weak=weak, boundary=boundary,
                   strict_violated=strict_violated, weak_violated=weak_violated)


def check_interpolation_bounds(fn: FunctionHandle, x, y, lam: float, strict: bool) -> SegmentCheck:
    """0 < lam*b < 1 (strict) or 0 < b <= 1/lam (weak) at one lambda.

    A lam*b inside the eps band but off the noise floor is inconclusive; a
    failure's residual is |f(y) - f(x)| * min(lam, 1-lam).  The margin
    scores f(z) against the open interval between f(x) and f(y), and is
    vacuous for tied pairs and, under the strict bounds, for ascending ones.
    """
    rec = compute_b(fn, x, y, lam)
    fx, fy, fz = rec.fx, rec.fy, rec.fz
    gap = abs(fy - fx)
    eps = eps_strict(fx, fy)
    eta = noise_floor(fx, fy)
    lo, hi = min(fx, fy), max(fx, fy)
    if strict and not (fy < fx - eps):
        margin = VACUOUS_MARGIN - (fy - fx)
    elif gap <= eps:
        margin = VACUOUS_MARGIN
    elif fz <= lo + eta or fz >= hi - eta:
        margin = gap * _lam_weight(lam)
    else:
        margin = max(fz - hi, lo - fz)
    name = "interpolation-strict-bounds" if strict else "interpolation-weak-bounds"
    outcome, detail = PASS, ""
    if rec.degenerate:
        outcome = VACUOUS
    elif not (rec.strict if strict else rec.weak):
        if rec.strict_violated if strict else rec.weak_violated:
            return SegmentCheck(
                name, rec.x, rec.y, fx, fy, FAIL, lam=lam, fz=fz,
                residual=gap * _lam_weight(lam),
                threshold=WITNESS_FACTOR * eps,
                detail=f"lambda*b = {rec.lam_b:.9g} outside the required range",
                margin=margin,
            )
        outcome, detail = INCONCLUSIVE, f"lambda*b = {rec.lam_b:.9g} pinned at a bound"
    return SegmentCheck(name, rec.x, rec.y, fx, fy, outcome, lam=lam, fz=fz,
                        detail=detail, margin=margin)


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
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    fx, fy = fn.value(x), fn.value(y)
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


def check_gradient_kernel(fn: FunctionHandle, x, y, grad_x) -> PairCheck:
    """grad f(x)(y - x) = 0 requires f(y) = f(x)  (smooth handles)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    g = np.asarray(grad_x, dtype=float)
    fx, fy = fn.value(x), fn.value(y)
    eps = eps_strict(fx, fy)
    d = float(np.dot(g, y - x))
    if abs(d) > eps:
        return PairCheck("gradient-kernel", x, y, fx, fy, VACUOUS, margin=-abs(d))
    gap = abs(fy - fx)
    if gap > eps:
        return PairCheck(
            "gradient-kernel", x, y, fx, fy, FAIL,
            residual=gap,
            threshold=WITNESS_FACTOR * eps,
            generator=g, generator_index=0,
            detail="kernel direction changes the value",
            margin=gap,
        )
    return PairCheck("gradient-kernel", x, y, fx, fy, PASS, margin=gap - eps)


@dataclass(frozen=True)
class KernelPairCheck:
    """Joint outcome of the two one-sided subdifferential kernel conditions."""

    overall: PairCheck
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
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    fx, fy = fn.value(x), fn.value(y)
    eps = eps_strict(fx, fy)
    d = y - x
    gap = abs(fy - fx)
    closest = min(abs(float(np.dot(g, d))) for g in (*sub_x.generators, *sub_neg_x.generators))
    if closest > eps:
        margin = -closest
    else:
        margin = gap if gap > eps else gap - eps

    def _side(est: SubdifferentialEstimate, lower: bool) -> tuple[str, PairCheck | None]:
        outcome = VACUOUS
        for k, g in enumerate(est.generators):
            if abs(float(np.dot(g, d))) > eps:
                continue
            bad = (fy < fx - eps) if lower else (fy > fx + eps)
            if bad:
                which = "f(y) >= f(x)" if lower else "f(y) <= f(x)"
                return FAIL, PairCheck(
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
        PairCheck("subdifferential-kernel", x, y, fx, fy, combined, margin=margin), low, up
    )
