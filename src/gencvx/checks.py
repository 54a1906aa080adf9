"""Executable predicates for generalized-convexity characterizations.

Every predicate (the `check_*` functions and `verify_p_identity`) takes the
function handle and the plain endpoints of a pair, `(fn, x, y, ...)`, then
what it needs besides: a lambda grid or one lambda for the segment
conditions, subdifferential estimates or a gradient for the first-order
ones.  Each returns one `Check` (`check_subdiff_kernel_pair` as `overall`,
beside its two one-sided outcomes), which reports pass/fail together with a
numeric residual; segment predicates also name their lambda and f there,
generator predicates the generator.  Segment points come from
`geometry.segment_point`, which rejects x == y.  Every predicate the
campaign runs is written once, as a row kernel, and is one record of
`PREDICATES`: its kernel, whether it reads f on the segment or generators,
its read rule and its failure notes.  `check_requests` is the one row
runner: it runs `Request`s, each one predicate's rows, with f read once for
all of them, value-only predicates (the segment conditions and the
interpolation bounds) and generator ones (the pseudoconvex pair, the
proportional identity, the symmetric equality and the two kernel
conditions) alike, and the `check_*` functions are its one-row cases.  The
gradient kernel condition is the subdifferential one with its own notes,
read on estimates that hold {grad f(x)}, the Clarke subdifferential of a C1
function, as the campaign's estimates of a smooth handle do.
Strict inequalities are tested with the margin

    eps = 1e-7 * (1 + |f(x)| + |f(y)|)

and so are the first-order pairings (a pseudoconvex pair fails where
<g, y-x> >= -eps: it tests eps-pseudoconvexity).  Every failure carries a
validity threshold: a failure whose residual does not clear the threshold
is a near-tie, to be treated as inconclusive (or fed to counterexample
refinement) rather than as a refutation.  Thresholds are set at 100x the
margin, well above the 10x hysteresis floor.  For segment checks the
credibility of a violation additionally scales with min(lam, 1-lam): ties
arbitrarily close to an endpoint prove nothing.

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

from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .functions import FunctionHandle
from .geometry import segment_point
from .nonsmooth import Generators, SubdifferentialEstimate

__all__ = [
    "PASS",
    "VACUOUS",
    "FAIL",
    "INCONCLUSIVE",
    "eps_strict",
    "descends",
    "Check",
    "Predicate",
    "PREDICATES",
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
    "Request",
    "check_requests",
    "read_rule",
    "kernel_rows",
    "Generators",
    "dots",
    "compute_p",
    "verify_p_identity",
    "check_symmetric_equality",
    "check_symmetric_inequality",
    "compute_b",
    "compute_b_rows",
    "cross_check_b_via_subdifferential",
    "estimate_q_limit",
    "check_gradient_kernel",
    "check_subdiff_kernel_pair",
    "KernelPairCheck",
]

EPS_COEFF = 1e-7
# Evaluation-noise floor, relative to |f(x)| + |f(y)|: strict segment
# inequalities count as violated only when the compared values tie at this
# scale.  An exact tie (a flat piece) is a violation at any scale; a strict
# inequality between values far below 1, which floats still resolve, is not
# a tie, and one that merely lands inside the eps band is a near-tie and
# stays inconclusive.
NOISE_COEFF = 1e-12
# Residuals must clear WITNESS_FACTOR * eps to count as a refutation.
WITNESS_FACTOR = 100.0
# Margin of a pair the predicate says nothing about (offset by a tie-breaker).
VACUOUS_MARGIN = -1000.0

PASS = "pass"
VACUOUS = "vacuous"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"
# A kernel gives each row's outcome as a code, its index in _OUTCOMES.
_OUTCOMES = np.array([PASS, VACUOUS, FAIL, INCONCLUSIVE], dtype=object)
PASS_CODE, VACUOUS_CODE, FAIL_CODE, INCONCLUSIVE_CODE = range(len(_OUTCOMES))


def eps_strict(fx: float, fy: float) -> float:
    """Margin for strict comparisons between values near f(x), f(y)."""
    return EPS_COEFF * (1.0 + abs(fx) + abs(fy))


def noise_floor(fx: float, fy: float) -> float:
    return NOISE_COEFF * (abs(fx) + abs(fy))


def _endpoints(fn: FunctionHandle, x, y) -> tuple[np.ndarray, np.ndarray, float, float]:
    """The pair as float arrays, and f's values there, read in one call."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    fx, fy = fn.values(np.vstack([x, y])).tolist()
    return x, y, fx, fy


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
# Row kernels
# --------------------------------------------------------------------------
#
# Every predicate the campaign runs is written once, as a kernel over k rows
# of pairs, and is one record of PREDICATES (after the kernels); its public
# check_* function is the kernel's one-row case.  check_requests runs the
# rows of both kinds and gives each predicate's results as Rows.  A kernel's
# note codes index its record's notes.


class Predicate(NamedTuple):
    """A predicate's record in PREDICATES: its row kernel, how it reads, and
    its notes: a row with note code c has the detail notes[c].format(v=value,
    fx=fx), and notes[0] is "", the detail of a row that names nothing."""

    kernel: Callable  # a value-only or a generator kernel, as the sections below take them
    segment: bool  # reads f on the segment (a Request with lams), else generators
    notes: tuple[str, ...]
    descent: bool = False  # the read rule: only interior lambdas of descending rows


class Rows(NamedTuple):
    """A predicate's results over k rows: f at the endpoints and the
    kernel's per-row outcome code (an int array, PASS_CODE ..., which
    `outcome` decodes to the outcome strings), margin, residual, note code
    (an int array indexing the record's notes) and noted value.

    A value-only predicate adds each row's witness lam and f there (NaN
    where a row names none).  A generator predicate adds the generator a
    row names (NaN where none) with its index (-1), and the rows whose
    estimate failed, each with its EstimationError: such a row has no
    margin (NaN), and reading it raises a fresh copy of the failure.
    """

    predicate: str
    fx: np.ndarray
    fy: np.ndarray
    code: np.ndarray
    margin: np.ndarray
    residual: np.ndarray
    note: np.ndarray
    value: np.ndarray
    lam: np.ndarray | None = None
    fz: np.ndarray | None = None
    generator: np.ndarray | None = None
    index: np.ndarray | None = None
    failed: dict | None = None

    @property
    def outcome(self) -> np.ndarray:
        """Each row's outcome string, as Check.outcome gives it."""
        return _OUTCOMES[self.code]

    def check(self, i: int, x, y) -> Check:
        """Row i, whose endpoints are x and y, as a Check.  Its generator is
        a copy of the row, so a Check kept does not hold the whole array."""
        failure = (self.failed or {}).get(i)
        if failure is not None:
            raise type(failure)(*failure.args)
        fx, fy, outcome = float(self.fx[i]), float(self.fy[i]), str(_OUTCOMES[self.code[i]])
        lam, fz = (None if a is None or np.isnan(a[i]) else float(a[i])
                   for a in (self.lam, self.fz))
        k = -1 if self.index is None else int(self.index[i])
        note = PREDICATES[self.predicate].notes[self.note[i]]
        threshold = WITNESS_FACTOR * eps_strict(fx, fy) if outcome == FAIL else float("inf")
        return Check(self.predicate, x, y, fx, fy, outcome, float(self.residual[i]), threshold,
                     generator=None if k < 0 else self.generator[i].copy(),
                     generator_index=None if k < 0 else k, lam=lam, fz=fz,
                     detail=note.format(v=float(self.value[i]), fx=fx),
                     margin=float(self.margin[i]))

    def credible(self) -> np.ndarray:
        """Each row's Check.credible, computed with the same float ops."""
        threshold = WITNESS_FACTOR * eps_strict(self.fx, self.fy)
        return (self.code == FAIL_CODE) & (self.residual > threshold)


# --------------------------------------------------------------------------
# Value-only predicates
# --------------------------------------------------------------------------
#
# The segment conditions and the interpolation bounds read nothing but f at
# the endpoints and at points of the segment.  A kernel takes fx, fy (k,),
# the rows' lambdas and f at their segment points (k, m) (NaN where a row's
# segment is not read), and returns per row the outcome code, margin,
# residual, note code and noted value, and the witness lambda and f there.
# read_rule names the segment points a predicate reads, kernel_rows runs its
# kernel on values read, and check_requests reads the values and runs the
# kernel.


def _outcomes(vacuous, fail, inconclusive) -> np.ndarray:
    """Each row's outcome code: vacuous, else fail, else inconclusive, else
    pass.  (Nested np.where: np.select costs several times as much per call.)"""
    return np.where(vacuous, VACUOUS_CODE, np.where(
        fail, FAIL_CODE, np.where(inconclusive, INCONCLUSIVE_CODE, PASS_CODE)))


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
        np.where(hit, 1, 0),
        fz_hit,
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
    fz_hit = np.where(hit, _at(fz, col), np.nan)
    above = two_sided & ~(fz_hit <= fy + eta[:, 0])
    return (
        _outcomes(~desc, hit, tie),
        np.where(desc, margin, VACUOUS_MARGIN - (fy - fx)),
        np.where(hit, _at(weighted, col), 0.0),
        np.where(hit, np.where(above, 3, 2), np.where(tie, 1, 0)),
        fz_hit,
        np.where(hit, _at(lams, col), np.where(tie, _at(lams, last), np.nan)),
        fz_hit,
    )


def _b_rows(fx, fy, fz, lam):
    """The interpolation coefficient b of f(z(lam)) = lam*b*f(y) + (1 - lam*b)*f(x)
    and the flags of BRecord, elementwise over arrays or numpy scalars;
    b = 1 on degenerate pairs."""
    eps = eps_strict(fx, fy)
    gap = abs(fy - fx)
    degenerate = gap <= eps
    # delta and floor are read only on non-degenerate rows, whose gap
    # exceeds eps; on a subnormal gap they may overflow unread.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        b = np.where(degenerate, 1.0, (fz - fx) / (lam * (fy - fx)))
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
    b, degenerate, strict_ok, weak_ok, strict_bad, weak_bad = _b_rows(fx, fy, fz, lam)
    ok, violated = (strict_ok, strict_bad) if strict else (weak_ok, weak_bad)
    eta = noise_floor(fx, fy)
    lo, hi = np.where(fy < fx, fy, fx), np.where(fy > fx, fy, fx)
    weighted = abs(fy - fx) * np.minimum(lam, 1.0 - lam)
    pinned = (fz <= lo + eta) | (fz >= hi - eta)
    margin = np.where(pinned, weighted, np.maximum(fz - hi, lo - fz))
    fail = ~degenerate & ~ok & violated
    inconclusive = ~degenerate & ~ok & ~violated
    return (
        _outcomes(degenerate, fail, inconclusive),
        np.where(degenerate, VACUOUS_MARGIN, margin),
        np.where(fail, weighted, 0.0),
        np.where(fail, 2, np.where(inconclusive, 1, 0)),
        lam * b,
        lam,
        fz,
    )


def read_rule(predicate: str, lams: np.ndarray, fx, fy) -> tuple[np.ndarray, np.ndarray]:
    """Where a value-only predicate reads f on its rows' segments: the
    columns of lams, an (m,) grid shared by all rows or a (k, m) grid per
    row, and the mask of the rows, from f at their endpoints.  The
    semistrict and interlacing conditions read only the interior lambdas of
    a shared grid, and only on descending rows; the others read every
    lambda of every row."""
    descent = _predicate(predicate, segment=True).descent
    cols = np.arange(lams.shape[-1])
    if lams.ndim == 1 and descent:
        cols = cols[(lams > 0.0) & (lams < 1.0)]
    return cols, descends(fx, fy) if descent else np.ones(len(fx), dtype=bool)


def kernel_rows(predicate: str, fx, fy, lams, fz) -> Rows:
    """A value-only predicate's kernel on values already read: f at the
    endpoints (k,), the rows' lambdas (k, m) and f at their segment points
    (k, m), NaN where read_rule reads none."""
    return Rows(predicate, fx, fy, *_predicate(predicate, segment=True).kernel(fx, fy, lams, fz))


def _signs(negated, k: int) -> np.ndarray:
    """Each of k rows' sign, -1.0 where negated (a bool or a (k,) mask) sets
    it, else 1.0: f times it is -f bit for bit where negated."""
    return np.where(np.broadcast_to(negated, (k,)), -1.0, 1.0)


class Request(NamedTuple):
    """One predicate's k rows in check_requests.  A segment predicate's x
    and y are (k, n) endpoint rows, or one row, (1, n) or (n,), shared by
    all, and lams an (m,) grid shared by all rows or a (k, m) grid per row
    (the bounds take one lambda per row, (k, 1)).  A generator predicate
    has lams=None, and x and y are (k, n) rows.  negated, a bool or a (k,)
    mask, names the rows run on -f, whose values and generators are
    negated."""

    predicate: str
    x: object
    y: object
    lams: object = None
    negated: object = False


def check_requests(fn: FunctionHandle, requests, generators=None) -> list[Rows]:
    """Run several predicates' rows, one Rows per request, with f read once
    for all of them: at every request's endpoints in one `fn.values` call,
    then, where a segment predicate is among them, at every segment point
    their read rules name in one more.  Each predicate's kernel then runs
    on the values read, in request order; a generator predicate reads
    generators(points), the Generators of the estimates of the
    subdifferential of f at each row of points, in one call per point set
    it reads; without generators, such a request raises ValueError before f
    is read.  Each row's result is bit-identical to the predicate's
    one-row check on f or on -f, and a row whose estimate failed raises
    when read."""
    placed = []
    for predicate, x, y, lams, negated in requests:
        _predicate(predicate, segment=lams is not None)
        if lams is None and generators is None:
            raise ValueError(f"{predicate!r} reads generators: check_requests needs a "
                             "generators callback")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        if lams is None:
            if x.shape != y.shape:
                raise ValueError(f"endpoint rows of shapes {x.shape} and {y.shape}")
            k = len(x)
        else:
            lams = np.asarray(lams, dtype=float)
            lams = lams.reshape(1, 1) if lams.ndim == 0 else lams
            k = max(len(x), len(y), len(np.atleast_2d(lams)))
        placed.append((predicate, x, y, lams, _signs(negated, k)))
    if not placed:
        return []
    f = fn.values(np.concatenate([p for _, x, y, *_ in placed for p in (x, y)]))
    read, inside, at = [], [], 0
    for predicate, x, y, lams, sign in placed:
        fx, at = f[at:at + len(x)], at + len(x)
        fy, at = f[at:at + len(y)], at + len(y)
        k = len(sign)
        fx, fy = sign * _stretch(fx, k), sign * _stretch(fy, k)
        rule = None
        if lams is not None:
            cols, rule = read_rule(predicate, lams, fx, fy)
            x, y, lams = _stretch(x, k), _stretch(y, k), _stretch(np.atleast_2d(lams[..., cols]), k)
            inside.append(segment_point(x[rule, None], y[rule, None], lams[rule]))
        read.append((predicate, fx, fy, x, y, lams, sign, rule))
    if inside:
        f = fn.values(np.concatenate([p.reshape(-1, p.shape[-1]) for p in inside]))
    out, at = [], 0
    for predicate, fx, fy, x, y, lams, sign, rule in read:
        if lams is None:
            def sub(rows, at_y=False, x=x, y=y, sign=sign):
                gens = generators((y if at_y else x)[rows])
                flip = sign[rows] < 0.0
                return gens.negated(flip) if flip.any() else gens

            results = PREDICATES[predicate].kernel(fx, fy, x, y, sub)
            out.append(_generator_results(predicate, fx, fy, results))
            continue
        fz = np.full(lams.shape, np.nan)
        shape = (int(rule.sum()), lams.shape[1])
        fz[rule] = sign[rule, None] * f[at:at + shape[0] * shape[1]].reshape(shape)
        at += shape[0] * shape[1]
        out.append(kernel_rows(predicate, fx, fy, lams, fz))
    return out


def _stretch(a: np.ndarray, k: int) -> np.ndarray:
    """One row repeated k times; k rows as they are."""
    if len(a) not in (1, k):
        raise ValueError(f"{len(a)} rows where 1 or {k} are needed")
    return a if len(a) == k else np.repeat(a, k, axis=0)


def _one_row(predicate, fn, x, y, lams=None, sub_x=None, sub_y=None) -> Check:
    """A predicate's one-row check: at lams for a segment predicate, else on
    the given estimates at x and at y, looked up by each point's bytes.  At
    x == y the estimate at x is read for both, on which no outcome depends:
    every pairing <g, y-x> is 0 there."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    given = {y.tobytes(): sub_y, x.tobytes(): sub_x}

    def generators(points):
        return Generators.of([given[p.tobytes()].generators for p in points], x.size)

    (rows,) = check_requests(fn, [Request(predicate, x, y, lams)], generators)
    return rows.check(0, x, y)


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
# Generator predicates
# --------------------------------------------------------------------------
#
# The first-order predicates read f at the endpoints and generators: those
# of a subdifferential estimate at x (at y too for the symmetric equality,
# and of -f at x for the kernel conditions).  For a C1 function the Clarke
# subdifferential is {grad f(x)}, so the gradient kernel condition is the
# subdifferential one read on estimates that hold the gradient at x, as a
# smooth handle's do in the campaign.  A kernel takes fx, fy
# (k,), the rows x, y (k, n) and `sub`, which reads the Generators of
# chosen rows in one call.  It reads the generators of only the rows whose
# one-row check reads them.  Each row's generators are taken in
# estimate order and its first failing generator is the one it names, as
# in a loop over them; the per-row reductions run over the flattened
# generators with ufunc.reduceat.  A kernel returns per row the outcome
# code, margin, residual, note code and noted value, named generator and its
# index, and the failed rows.


def dots(g: np.ndarray, d: np.ndarray) -> np.ndarray:
    """<g[i], d[i]> for each row, bit for bit as float(np.dot(g[i], d[i])):
    the product in one dimension (np.dot keeps its signed zero), a stacked
    matmul above (where (g * d).sum(axis=1) and einsum round differently)."""
    if g.shape[1] == 1:
        return g[:, 0] * d[:, 0]
    return (g[:, None, :] @ d[:, :, None])[:, 0, 0]


def _per_row(ufunc, a: np.ndarray, start: np.ndarray) -> np.ndarray:
    """ufunc reduced over each row's entries of a, the row's starting at
    start (every row has one at least)."""
    return ufunc.reduceat(a, start) if len(start) else a[:0]


def _first(flags: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Per row, the flat index of its first flagged entry, or -1."""
    end = len(flags)
    at = _per_row(np.minimum, np.where(flags, np.arange(end), end), start)
    return np.where(at < end, at, -1)


def _take(a: np.ndarray, idx: np.ndarray, ok: np.ndarray, fill=np.nan) -> np.ndarray:
    """a[idx] where ok, fill elsewhere."""
    return _spread(len(idx), ok, a[idx[ok]], fill)


def _spread(k: int, rows: np.ndarray, a: np.ndarray, fill) -> np.ndarray:
    """a, given for rows, as k rows holding fill elsewhere."""
    out = np.full((k,) + a.shape[1:], fill, dtype=np.result_type(a, fill))
    out[rows] = a
    return out


def _p(num, den, eps):
    """The proportional factor p = num/den, and the band flag |den| <= eps,
    where p = 1 by convention; elementwise.  A quotient past the float
    range is inf, as a scalar division gives it."""
    band = abs(den) <= eps
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(band, 1.0, num / den), band


def _nonpositive_residual(num, den, eps):
    """The residual of a nonpositive p: min(|num|, |den|), or |den| when
    the values tie within eps."""
    return np.where(abs(num) > eps, np.minimum(abs(num), abs(den)), abs(den))


def _proportional_margin(fx, fy, fail, residual, closest):
    """Values tied within 3 eps make the pair vacuous; otherwise a failure
    scores its residual and anything else minus its smallest pairing
    |<g, y-x>| at x."""
    gap = abs(fy - fx)
    return np.where(gap <= 3.0 * eps_strict(fx, fy), VACUOUS_MARGIN + gap,
                    np.where(fail, residual, -closest))


def _kernel_margin(closest, gap, eps):
    """Minus the smallest |<g, y-x>| while no generator lies in the kernel,
    then |f(y) - f(x)|, less eps when within it."""
    return np.where(closest > eps, -closest, np.where(gap > eps, gap, gap - eps))


def _pseudoconvex_gen(fx, fy, x, y, sub):
    """check_pseudoconvex_pair's kernel: only descending rows read their
    generators, and a pass scores its largest pairing plus eps."""
    k = len(x)
    eps = eps_strict(fx, fy)
    desc = descends(fx, fy)
    rows = np.flatnonzero(desc)
    gens = sub(rows)
    own = rows[gens.owner]
    v = dots(gens.g, (y - x)[own])
    first = _first(~(v < -eps[own]), gens.start)
    hit = first >= 0
    fail = _spread(k, rows, hit, False)
    worst = _spread(k, rows, _per_row(np.maximum, v, gens.start), np.nan)
    return (
        _outcomes(~desc, fail, False),
        np.where(desc, np.where(fail, fx - fy, worst + eps), VACUOUS_MARGIN - (fy - fx)),
        np.where(fail, fx - fy, 0.0),
        np.where(fail, 1, 0),
        _spread(k, rows, _take(v, first, hit), np.nan),
        _spread(k, rows, _take(gens.g, first, hit), np.nan),
        _spread(k, rows, np.where(hit, first - gens.start, -1), -1),
        {int(rows[i]): e for i, e in gens.failed.items()},
    )


def _identity_gen(fx, fy, x, y, sub):
    """verify_p_identity's kernel.  A generator fails inside the band when
    the values differ, outside it on a nonpositive p or an identity
    residual above eps."""
    eps = eps_strict(fx, fy)
    gens = sub(np.arange(len(x)))
    own = gens.owner
    num, e = (fy - fx)[own], eps[own]
    den = dots(gens.g, (y - x)[own])
    p, band = _p(num, den, e)
    r = abs(num - p * den)
    sign = ~band & ~(p > 0.0)
    first = _first(sign | (r > e), gens.start)
    fail = first >= 0
    residual = np.where(band, abs(num), np.where(sign, _nonpositive_residual(num, den, e), r))
    note = np.where(band, 1, np.where(sign, 2, 3))
    residual = _take(residual, first, fail, 0.0)
    return (
        _outcomes(False, fail, False),
        _proportional_margin(fx, fy, fail, residual, _per_row(np.minimum, abs(den), gens.start)),
        residual,
        np.where(fail, note[first], 0),
        _take(np.where(sign, p, np.nan), first, fail),
        _take(gens.g, first, fail),
        np.where(fail, first - gens.start, -1),
        gens.failed,
    )


def _symmetric_gen(fx, fy, x, y, sub):
    """check_symmetric_equality's kernel: every generator's pairing and
    proportional factor over all rows at once, then per row the loop over
    them.  Each generator g at x needs a positive forward factor and, with
    each generator h at y, a positive reverse factor and a vanishing sum.
    The y estimate is read only where the first generator at x passes."""
    k = len(x)
    eps = eps_strict(fx, fy)
    gx = sub(np.arange(k))
    den1 = dots(gx.g, (y - x)[gx.owner])
    p1, band1 = _p((fy - fx)[gx.owner], den1, eps[gx.owner])
    forward = ~band1 & ~(p1 > 0.0)
    read = ~forward[gx.start]
    read[list(gx.failed)] = False
    ry = np.flatnonzero(read)
    gy = sub(ry, at_y=True)
    oy = ry[gy.owner]
    den2 = dots(gy.g, (x - y)[oy])
    p2, band2 = _p((fx - fy)[oy], den2, eps_strict(fy, fx)[oy])
    reverse = ~band2 & ~(p2 > 0.0)
    failed = {**gx.failed, **{int(ry[i]): e for i, e in gy.failed.items()}}

    x_at, x_end = gx.start.tolist(), (gx.start + gx.count).tolist()
    y_at = _spread(k, ry, gy.start, 0).tolist()
    y_end = _spread(k, ry, gy.start + gy.count, 0).tolist()
    d1, q1, b1, f1 = (a.tolist() for a in (den1, p1, band1, forward))
    d2, q2, b2, r2 = (a.tolist() for a in (den2, p2, band2, reverse))
    up, down = (fy - fx).tolist(), (fx - fy).tolist()
    strict, limit = eps.tolist(), (WITNESS_FACTOR * eps).tolist()

    def walk(i):
        """Row i's note code, generators and flat index of the generator it
        names (None, -1 if none), residual and noted value."""
        saw_band = False
        for a in range(x_at[i], x_end[i]):
            if f1[a]:
                return 1, gx, a, float(_nonpositive_residual(up[i], d1[a], strict[i])), q1[a]
            for b in range(y_at[i], y_end[i]):
                if r2[b]:
                    return 2, gy, b, float(_nonpositive_residual(down[i], d2[b], strict[i])), q2[b]
                s = q1[a] * d1[a] + q2[b] * d2[b]
                if b1[a] or b2[b]:
                    saw_band = True
                    if abs(s) > limit[i]:
                        return 3, gx, a, abs(s), s
                elif abs(s) > strict[i]:
                    return 4, gx, a, abs(s), s
        return 5 if saw_band else 0, None, -1, 0.0, np.nan

    note, residual, value = np.zeros(k, dtype=int), np.zeros(k), np.full(k, np.nan)
    generator, index = np.full(x.shape, np.nan), np.full(k, -1)
    for i in range(k):
        if i in failed:
            continue
        note[i], gens, a, residual[i], value[i] = walk(i)
        if gens is not None:
            generator[i] = gens.g[a]
            index[i] = a - gens.start[gens.owner[a]]
    fail = index >= 0
    return (
        _outcomes(False, fail, note == 5),
        _proportional_margin(fx, fy, fail, residual, _per_row(np.minimum, abs(den1), gx.start)),
        residual,
        note,
        value,
        generator,
        index,
        failed,
    )


def _subdiff_kernel(fx, fy, x, y, low: Generators, up: Generators):
    """check_subdiff_kernel_pair's kernel over rows with the generators
    `low` of f and `up` of -f at x: the overall results, and the outcomes
    of the lower and the upper condition.  A side passes where a generator
    lies in the kernel, and fails there on the wrong ordering of values."""
    eps = eps_strict(fx, fy)
    gap = abs(fy - fx)
    d = y - x
    near_l = abs(dots(low.g, d[low.owner]))
    near_u = abs(dots(up.g, d[up.owner]))
    closest = np.minimum(_per_row(np.minimum, near_l, low.start),
                         _per_row(np.minimum, near_u, up.start))
    first_l = _first(~(near_l > eps[low.owner]), low.start)
    first_u = _first(~(near_u > eps[up.owner]), up.start)
    in_l, in_u = first_l >= 0, first_u >= 0
    lower = in_l & (fy < fx - eps)
    upper = in_u & (fy > fx + eps)
    fail = lower | upper
    upper_only = upper & ~lower
    results = (
        _outcomes(~(in_l | in_u), fail, False),
        _kernel_margin(closest, gap, eps),
        np.where(fail, gap, 0.0),
        np.where(lower, 1, np.where(upper_only, 2, 0)),
        np.full(len(x), np.nan),
        np.where(upper_only[:, None], _take(up.g, first_u, upper_only),
                 _take(low.g, first_l, lower)),
        np.where(lower, first_l - low.start, np.where(upper_only, first_u - up.start, -1)),
        {**low.failed, **up.failed},
    )
    return results, _outcomes(~in_l, lower, False), _outcomes(~in_u, upper, False)


def _kernel_gen(fx, fy, x, y, sub, gradient=False):
    """The kernel conditions: check_subdiff_kernel_pair's kernel on the
    generators of f and of -f, those of -f the exact negation of those of
    f, read once.  The gradient kernel condition names the generator of f
    (the upper side fails on one of -f)."""
    low = sub(np.arange(len(x)))
    results, _, _ = _subdiff_kernel(fx, fy, x, y, low, low.negated(np.ones(len(x), dtype=bool)))
    if not gradient:
        return results
    code, margin, residual, note, value, generator, index, failed = results
    return (code, margin, residual, note, value,
            np.where((note == 2)[:, None], -generator, generator), index, failed)


_BOUNDS_NOTES = ("", "lambda*b = {v:.9g} pinned at a bound",
                 "lambda*b = {v:.9g} outside the required range")

# Every predicate the campaign runs, by name, with its notes.
PREDICATES: dict[str, Predicate] = {
    "quasiconvex-segment": Predicate(
        _quasiconvex_rows, True, ("", "interior value exceeds endpoint maximum")),
    "semistrict-quasiconvex-segment": Predicate(
        partial(_descent_rows, two_sided=False), True,
        ("", "descent inside the strictness band",
         "f(z) = {v:.6g} does not descend below f(x) = {fx:.6g}"), descent=True),
    "interlacing-segment": Predicate(
        partial(_descent_rows, two_sided=True), True,
        ("", "interior value inside the strictness band",
         "interior value {v:.6g} pinned below f(y)",
         "interior value {v:.6g} pinned above f(x)"), descent=True),
    "interpolation-strict-bounds": Predicate(
        partial(_bounds_rows, strict=True), True, _BOUNDS_NOTES),
    "interpolation-weak-bounds": Predicate(
        partial(_bounds_rows, strict=False), True, _BOUNDS_NOTES),
    "pseudoconvex-pair": Predicate(
        _pseudoconvex_gen, False, ("", "<g, y-x> = {v:.6g} is not below -eps")),
    "proportional-identity": Predicate(
        _identity_gen, False,
        ("", "<g, y-x> vanishes while the values differ",
         "proportional factor p = {v:.6g} is not positive",
         "identity residual above margin")),
    "symmetric-equality": Predicate(
        _symmetric_gen, False,
        ("", "forward proportional factor p = {v:.6g} is not positive",
         "reverse proportional factor p = {v:.6g} is not positive",
         "symmetric sum large despite a vanishing pairing",
         "symmetric sum S = {v:.6g} is nonzero",
         "pairing inside the equality band; sum not decidable")),
    "gradient-kernel": Predicate(  # either failing side changes the value
        partial(_kernel_gen, gradient=True), False,
        ("", "kernel direction changes the value", "kernel direction changes the value")),
    "subdifferential-kernel": Predicate(
        _kernel_gen, False,
        ("", "kernel generator violates f(y) >= f(x)", "kernel generator violates f(y) <= f(x)")),
}


def _predicate(name: str, segment: bool | None = None) -> Predicate:
    """The record of name, and where segment is given, a segment predicate
    when it is set and a generator predicate otherwise; ValueError naming
    it if it is not."""
    if name not in PREDICATES:
        raise ValueError(f"unknown predicate {name!r} (known: {', '.join(PREDICATES)})")
    if segment is not None and PREDICATES[name].segment != segment:
        raise ValueError(f"{name!r} is a {'generator' if segment else 'segment'} predicate")
    return PREDICATES[name]


def _generator_results(predicate: str, fx, fy, results) -> Rows:
    code, margin, residual, note, value, generator, index, failed = results
    if failed:
        margin = margin.copy()
        margin[list(failed)] = np.nan
    return Rows(predicate, fx, fy, code, margin, residual, note, value,
                generator=generator, index=index, failed=failed)


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
    return _one_row("pseudoconvex-pair", fn, x, y, sub_x=sub_x)


def verify_p_identity(
    fn: FunctionHandle, x, y, sub_x: SubdifferentialEstimate
) -> Check:
    """f(y) - f(x) = p * <g, y-x> with positive p, for every generator.

    With p constructed by compute_p the residual vanishes identically except
    in the band case, where <g, y-x> ~ 0 while the values differ -- which is
    exactly the refutation. A nonpositive p refutes as well.  Values tied
    within 3 eps make the pair vacuous in its margin; otherwise a failure
    scores its residual and anything else minus its smallest pairing
    |<g, y-x>| at x.
    """
    return _one_row("proportional-identity", fn, x, y, sub_x=sub_x)


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
    than refuting.  The margin is verify_p_identity's.
    """
    return _one_row("symmetric-equality", fn, x, y, sub_x=sub_x, sub_y=sub_y)


def check_gradient_kernel(fn: FunctionHandle, x, y, grad_x) -> Check:
    """grad f(x)(y - x) = 0 requires f(y) = f(x)  (smooth handles): the
    kernel conditions on the one-generator estimate {grad f(x)}."""
    g = SubdifferentialEstimate((np.asarray(grad_x, dtype=float).reshape(-1),), 0.0, False)
    return _one_row("gradient-kernel", fn, x, y, sub_x=g)


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
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    fx, fy = fn.values(np.stack([x, y]))[:, None]
    low, up = (Generators.of([est.generators], x.size) for est in (sub_x, sub_neg_x))
    results, lower, upper = _subdiff_kernel(fx, fy, x[None], y[None], low, up)
    overall = _generator_results("subdifferential-kernel", fx, fy, results).check(0, x, y)
    return KernelPairCheck(overall, str(_OUTCOMES[lower[0]]), str(_OUTCOMES[upper[0]]))


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
    return _p_value(*_endpoints(fn, x, y), generator)


def _p_value(x, y, fx, fy, generator) -> PValue:
    """compute_p on the values f(x) = fx and f(y) = fy."""
    num = fy - fx
    den = float(np.dot(np.asarray(generator, dtype=float), y - x))
    p, band = (v.item() for v in _p(np.float64(num), np.float64(den), eps_strict(fx, fy)))
    return PValue(p, band, band or p > 0.0, num, den)


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

    def term(pv: PValue) -> float:  # the fallback p = 1 where p is not valid
        return (pv.p if (not pv.band and pv.positive) else 1.0) * pv.denominator

    back = [term(_p_value(y, x, fy, fx, h)) for h in sub_y.generators]
    worst = -np.inf
    for k, g in enumerate(sub_x.generators):
        forth = term(_p_value(x, y, fx, fy, g))
        for t in back:
            s = forth + t
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
    """b at one lambda: compute_b_rows' one-lambda case."""
    return compute_b_rows(fn, x, y, [lam])[0]


def compute_b_rows(fn: FunctionHandle, x, y, lams) -> list[BRecord]:
    """b at each lambda of a sequence, f at x, y and every z(lam) read in
    one values call."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lams = np.asarray(lams, dtype=float).reshape(-1)
    outside = ~((lams > 0.0) & (lams < 1.0))
    if outside.any():
        raise ValueError(f"lambda must lie in (0, 1), got {lams[outside][0].item()}")
    if np.array_equal(x, y):
        raise ValueError("degenerate pair: x == y")
    f = fn.values(np.vstack([x, y, x + lams[:, None] * (y - x)]))
    fx, fy, fz = f[0], f[1], f[2:]
    columns = [np.broadcast_to(v, lams.shape).tolist() for v in _b_rows(fx, fy, fz, lams)]
    out = []
    for lam, z, b, degenerate, strict, weak, strict_violated, weak_violated in zip(
            lams.tolist(), fz.tolist(), *columns):
        boundary = (not strict and not strict_violated) or (not weak and not weak_violated)
        out.append(BRecord(x, y, lam, b, fx.item(), fy.item(), z, degenerate=degenerate,
                           strict=strict, weak=weak, boundary=boundary,
                           strict_violated=strict_violated, weak_violated=weak_violated))
    return out


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

    bs = [rec.b for rec in compute_b_rows(fn, x, y, schedule)]
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
