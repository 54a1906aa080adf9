"""Convex sampling regions, points, and segment points.

A region is an axis-aligned bounding box (the sampling window) intersected
with affine halfspace constraints ``<a, x> REL c`` where ``REL`` is ``<`` or
``<=``.  Open faces are handled through a positive sampling margin: every
sampled point satisfies each constraint, and each box face, with slack at
least ``margin``.  This keeps all evaluations inside an open neighbourhood
where the analysed functions are locally Lipschitz, away from boundary
singularities.

A segment is no object of its own: it is given by its endpoints, and
``segment_point(x, y, lam)`` validates both and the lambdas each time it
builds points on it.
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
import re

import numpy as np
from numpy.typing import ArrayLike

__all__ = [
    "RegionError",
    "RegionTooThinError",
    "AffineConstraint",
    "Region",
    "as_point",
    "segment_point",
    "sample_region",
    "parse_region",
]

# Default sampling margin, as a fraction of the bounding-box diagonal.
DEFAULT_MARGIN_FRACTION = 0.05

# Rejection-sampling failure rule: below this acceptance rate after at least
# _MIN_ATTEMPTS draws the region is declared too thin to sample.
_MIN_ACCEPT_RATE = 1e-3
_MIN_ATTEMPTS = 1_000_000
_BATCH = 8192
# The feasibility probe's first batch: an ordinary region accepts in it.
_FIRST_BATCH = 64

# Budget for the construction-time feasibility probe.
_PROBE_ATTEMPTS = 262_144
_PROBE_SEED = 0x5EED_0F_0D


class RegionError(ValueError):
    """Malformed region description."""


class RegionTooThinError(RegionError):
    """The region admits (almost) no interior points at the margin."""


def as_point(coords) -> np.ndarray:
    """Validate and freeze a coordinate vector.

    Returns a read-only 1-D float64 array.  Rejects empty vectors and any
    non-finite coordinate.
    """
    arr = np.array(coords, dtype=float).reshape(-1)
    if arr.size == 0:
        raise ValueError("point must have dimension > 0")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"point has non-finite coordinates: {arr}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class AffineConstraint:
    """Halfspace ``<coeffs, x> REL bound`` with REL in {'<', '<='}."""

    coeffs: np.ndarray
    relation: str
    bound: float

    def __post_init__(self):
        object.__setattr__(self, "coeffs", as_point(self.coeffs))
        if self.relation not in ("<", "<="):
            raise RegionError(f"constraint relation must be '<' or '<=', got {self.relation!r}")
        if not np.isfinite(self.bound):
            raise RegionError("constraint bound must be finite")
        if float(np.max(np.abs(self.coeffs))) == 0.0:
            raise RegionError("constraint coefficients are all zero")

    def slack(self, x: np.ndarray):
        """bound - <coeffs, x>, for a point or for each row of a (k, n) array;
        a row's slack is bit-identical to the slack of that point alone."""
        return self.bound - (x * self.coeffs).sum(axis=-1)

    def satisfied(self, x: np.ndarray, margin: float = 0.0):
        """Slack clears margin (strictly for '<'): a bool for a point, a mask by row."""
        s = self.slack(x)
        ok = s > margin if self.relation == "<" else s >= margin
        return ok if np.ndim(ok) else bool(ok)


@dataclass(frozen=True, eq=False)
class Region:
    """Sampling box intersected with affine constraints.

    ``margin=None`` resolves to DEFAULT_MARGIN_FRACTION of the box diagonal.
    Construction runs a rejection probe (_feasibility_probe), which an
    ordinary region passes on its first 64 draws; a region none of whose
    262,144 draws lies inside at the margin raises RegionTooThinError
    immediately.
    """

    lower: np.ndarray
    upper: np.ndarray
    constraints: tuple[AffineConstraint, ...] = ()
    margin: float | None = None

    def __post_init__(self):
        lo = as_point(self.lower)
        hi = as_point(self.upper)
        if lo.shape != hi.shape:
            raise RegionError("bounding box lower/upper dimension mismatch")
        if not np.all(lo < hi):
            raise RegionError("bounding box must have lower < upper in every coordinate")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "constraints", tuple(self.constraints))
        for c in self.constraints:
            if c.coeffs.shape != lo.shape:
                raise RegionError("constraint dimension does not match bounding box")
        if self.margin is None:
            diag = float(np.linalg.norm(hi - lo))
            object.__setattr__(self, "margin", DEFAULT_MARGIN_FRACTION * diag)
        if not (self.margin > 0 and np.isfinite(self.margin)):
            raise RegionError("margin must be a positive finite real")
        if 2.0 * self.margin >= float(np.min(hi - lo)):
            raise RegionTooThinError("margin leaves no interior of the bounding box")
        _feasibility_probe(self)

    @property
    def dimension(self) -> int:
        return self.lower.size

    def contains(self, x, margin: float = 0.0) -> bool:
        """Membership test: inside the box and every constraint, with slack;
        _accept_mask at one row, False for a point of another size."""
        x = np.asarray(x, dtype=float).reshape(1, -1)
        return x.shape[1] == self.dimension and bool(_accept_mask(self, x, margin)[0])

    def interior_slack(self, x):
        """Largest r such that the euclidean ball B(x, r) stays inside.

        Takes a point (n,), giving a float, or a (k, n) array of points,
        giving the k slacks, each bit-identical to its point's alone; any
        other shape raises ValueError.  For r > 0, interior_slack(x) >= r
        already implies contains(x).
        """
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dimension:
            raise ValueError(
                f"points of shape {x.shape} in a region of dimension {self.dimension}"
            )
        # Column by column: numpy's reduction over a short last axis costs
        # more, up to about n = 30 on a hundred rows.
        r = functools.reduce(np.minimum, np.minimum(x - self.lower, self.upper - x).T)
        for c in self.constraints:
            r = np.minimum(r, c.slack(x) / float(np.linalg.norm(c.coeffs)))
        return float(r) if x.ndim == 1 else r


def _accept_mask(region: Region, pts: np.ndarray, margin: float | None = None) -> np.ndarray:
    """Membership mask for a (k, n) batch: by row, inside the box and every
    constraint with `margin` of slack (strictly for '<'), region.margin by
    default.  Region.contains is its one-row case."""
    m = region.margin if margin is None else margin
    ok = (pts >= region.lower + m).all(axis=1) & (pts <= region.upper - m).all(axis=1)
    for c in region.constraints:
        ok &= c.satisfied(pts, m)
    return ok


def _feasibility_probe(region: Region) -> None:
    """Raise RegionTooThinError unless one of the first _PROBE_ATTEMPTS
    uniform draws over the box, from a fixed seed, lies in the region at
    its margin.  The draws are tested _FIRST_BATCH rows first, then in
    blocks of _BATCH: the stream's rows in order, as one block would give
    them, so the blocks decide only how many are drawn before a pass."""
    rng = np.random.default_rng(_PROBE_SEED)
    attempts = 0
    while attempts < _PROBE_ATTEMPTS:
        size = min(_BATCH if attempts else _FIRST_BATCH, _PROBE_ATTEMPTS - attempts)
        pts = rng.uniform(region.lower, region.upper, size=(size, region.dimension))
        attempts += size
        if np.any(_accept_mask(region, pts)):
            return
    raise RegionTooThinError(
        f"region too thin: no point found at margin {region.margin:g} "
        f"after {attempts} attempts"
    )


def sample_region(region: Region, count: int, seed: int) -> list[np.ndarray]:
    """Draw `count` interior points by rejection over the bounding box.

    Deterministic for a fixed (region, count, seed).  Every returned point
    is in region.contains(p, region.margin).
    Raises RegionTooThinError when the acceptance rate stays below
    1e-3 over a million attempts.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    out: list[np.ndarray] = []
    attempts = 0
    accepted = 0
    while len(out) < count:
        pts = rng.uniform(region.lower, region.upper, size=(_BATCH, region.dimension))
        attempts += _BATCH
        good = pts[_accept_mask(region, pts)]
        accepted += good.shape[0]
        for row in good[: count - len(out)]:
            out.append(as_point(row))
        if attempts >= _MIN_ATTEMPTS and accepted / attempts < _MIN_ACCEPT_RATE:
            raise RegionTooThinError(
                f"region too thin: acceptance rate {accepted / attempts:.2e} "
                f"after {attempts} attempts"
            )
    return out


def segment_point(x, y, lam: ArrayLike) -> np.ndarray:
    """Point x + lam*(y - x) of the closed segment from x to y.

    The endpoints must differ and have one dimension, and every lam must lie
    in [0, 1].  A 1-D array of k lambdas gives the read-only (k, n) array of
    their points, each row bit-identical to the point of its lambda alone.
    Endpoints may also be stacked, (..., n), with lambdas broadcasting
    against their leading axes: (k, 1, n) endpoints and (k, m) lambdas give
    the (k, m, n) points of k segments, and no segment may be degenerate.
    Raises ValueError on a point with a non-finite coordinate.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("segment endpoints have different dimensions")
    if (x == y).all(axis=-1).any():
        raise ValueError("degenerate segment: x == y")
    lams = np.asarray(lam, dtype=float)
    if not ((lams >= 0.0) & (lams <= 1.0)).all():
        raise ValueError(f"lambda outside [0, 1]: {lam}")
    pts = x + lams[..., None] * (y - x)
    if not np.isfinite(pts).all():
        raise ValueError(f"point has non-finite coordinates: {pts}")
    pts.flags.writeable = False
    return pts


# --------------------------------------------------------------------------
# Textual region form, e.g.  "x1 > 0.05, box(0..2, -1..1), margin(0.05)"
# --------------------------------------------------------------------------

_RANGE_RE = re.compile(
    r"\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*\.\.\s*"
    r"([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*$"
)
_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:"
    r"(?P<coeff>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*(?:\*\s*(?P<var1>x\d+))?"
    r"|(?P<var2>x\d+)"
    r")\s*"
)


def _split_items(text: str) -> list[str]:
    """Split on commas that are not inside parentheses."""
    items, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise RegionError("unbalanced ')' in region text")
        if ch == "," and depth == 0:
            items.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise RegionError("unbalanced '(' in region text")
    items.append("".join(cur))
    return [it.strip() for it in items if it.strip()]


def _parse_linear_side(side: str, dimension: int) -> tuple[np.ndarray, float]:
    """Parse a sum of terms `c`, `xk`, `c*xk` into (coeffs, constant)."""
    coeffs = np.zeros(dimension)
    const = 0.0
    pos = 0
    first = True
    while pos < len(side):
        m = _TERM_RE.match(side, pos)
        if not m or m.end() == pos:
            raise RegionError(f"cannot parse linear term at {side[pos:]!r}")
        sign = -1.0 if m.group("sign") == "-" else 1.0
        if m.group("sign") is None and not first:
            raise RegionError(f"missing '+'/'-' before term in {side!r}")
        var = m.group("var1") or m.group("var2")
        if var is not None:
            idx = int(var[1:])
            if not (1 <= idx <= dimension):
                raise RegionError(f"variable {var} exceeds dimension {dimension}")
            c = float(m.group("coeff")) if m.group("coeff") else 1.0
            coeffs[idx - 1] += sign * c
        else:
            const += sign * float(m.group("coeff"))
        pos = m.end()
        first = False
    return coeffs, const


def _parse_constraint(item: str, dimension: int) -> AffineConstraint:
    for rel in ("<=", ">=", "<", ">"):
        if rel in item:
            lhs_text, rhs_text = item.split(rel, 1)
            lc, lk = _parse_linear_side(lhs_text, dimension)
            rc, rk = _parse_linear_side(rhs_text, dimension)
            coeffs = lc - rc
            bound = rk - lk
            if rel in (">", ">="):
                coeffs, bound = -coeffs, -bound
                rel = "<" if rel == ">" else "<="
            return AffineConstraint(coeffs, rel, bound)
    raise RegionError(f"constraint without relation: {item!r}")


def parse_region(text: str, dimension: int) -> Region:
    """Parse the comma-separated textual region form.

    Exactly one ``box(a..b, ...)`` item is required and fixes the sampling
    bounds; remaining items are affine constraints ``<linexpr> REL <linexpr>``
    or an optional ``margin(value)`` override.
    """
    if not text.strip():
        raise RegionError("empty region text")
    box: tuple[np.ndarray, np.ndarray] | None = None
    margin: float | None = None
    constraints: list[AffineConstraint] = []
    for item in _split_items(text):
        low = item.lower()
        if low.startswith("box(") and low.endswith(")"):
            if box is not None:
                raise RegionError("duplicate box(...) item")
            ranges = _split_items(item[4:-1])
            if len(ranges) != dimension:
                raise RegionError(
                    f"box has {len(ranges)} ranges but dimension is {dimension}"
                )
            lo, hi = [], []
            for r in ranges:
                m = _RANGE_RE.match(r)
                if not m:
                    raise RegionError(f"bad range {r!r}, expected a..b")
                lo.append(float(m.group(1)))
                hi.append(float(m.group(2)))
            box = (np.array(lo), np.array(hi))
        elif low.startswith("margin(") and low.endswith(")"):
            margin = float(item[7:-1])
        else:
            constraints.append(_parse_constraint(item, dimension))
    if box is None:
        raise RegionError("region text must contain a box(...) item")
    return Region(box[0], box[1], tuple(constraints), margin)
