"""Brute-force property labels and closed forms, written apart from gencvx.

Every function here is evaluated by its own numpy formula, and every
derivative set is written out by hand (the vertices of the Clarke
subdifferential; all conditions are affine in the generator, so the
vertices decide them).  Nothing in this module imports gencvx, so a fault in
the package cannot hide in the labels it is checked against.

The labels come from checking the definitions directly on fixed point sets
that cover the margin-shrunk sampling box and contain the kinks exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

TOL = 1e-12
LAMS = np.array([k / 16 for k in range(1, 16)])
MARGIN_FRACTION = 0.05  # gencvx's default margin: 5% of the box diagonal

PROPERTIES = (
    "pseudoconvex",
    "pseudoconcave",
    "pseudolinear",
    "quasiconvex",
    "quasiconcave",
    "quasilinear",
    "semistrictly-quasiconvex",
    "semistrictly-quasiconcave",
    "semistrictly-quasilinear",
)

# Textbook implications between the nine properties (Cambini & Martein,
# Generalized Convexity and Optimization, 2009, ch. 3).
IMPLICATIONS = (
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
class Target:
    """A function written twice: as gencvx DSL text and as numpy code.

    `f` maps an (m, n) array to m values; `sets` maps one point to the list
    of vertices of its subdifferential.  `points` is the oracle's point set.
    """

    name: str
    source: str
    dimension: int
    region: str
    f: Callable[[np.ndarray], np.ndarray]
    sets: Callable[[np.ndarray], list[np.ndarray]]
    points: np.ndarray


def shrunk_box(dimension: int, lo: float = -1.0, hi: float = 1.0) -> tuple[float, float]:
    """The part of the cube [lo, hi]^n that gencvx samples (default margin)."""
    margin = MARGIN_FRACTION * (hi - lo) * np.sqrt(dimension)
    return lo + margin, hi - margin


def lattice(dimension: int, levels: int, lo: float, hi: float) -> np.ndarray:
    """All points of an evenly spaced grid; odd `levels` puts 0 on it when lo = -hi."""
    axis = np.linspace(lo, hi, levels)
    if levels % 2 == 1 and lo == -hi:
        axis[levels // 2] = 0.0
    return np.array(list(itertools.product(axis, repeat=dimension)), dtype=float)


# --------------------------------------------------------------------------
# Definition checks on a point set
# --------------------------------------------------------------------------


def _segment_values(f, x: np.ndarray, points: np.ndarray) -> np.ndarray:
    """f at x + lam*(y - x) for every y in points and lam in LAMS: (N, L)."""
    d = points - x
    z = x[None, None, :] + LAMS[None, :, None] * d[:, None, :]
    return f(z.reshape(-1, x.size)).reshape(len(points), len(LAMS))


def pseudoconvex(f, sets, points, negate: bool = False) -> bool:
    sign = -1.0 if negate else 1.0
    values = sign * f(points)
    for i, x in enumerate(points):
        descent = values < values[i] - TOL
        if not descent.any():
            continue
        d = points[descent] - x
        for g in sets(x):
            if np.any(sign * (d @ g) >= -TOL):
                return False
    return True


def quasiconvex(f, points, negate: bool = False) -> bool:
    sign = -1.0 if negate else 1.0
    values = sign * f(points)
    for i, x in enumerate(points):
        top = np.maximum(values[i], values)
        inner = sign * _segment_values(f, x, points)
        if np.any(inner > top[:, None] + TOL):
            return False
    return True


def semistrict_quasiconvex(f, points, negate: bool = False) -> bool:
    sign = -1.0 if negate else 1.0
    values = sign * f(points)
    for i, x in enumerate(points):
        descent = values < values[i] - TOL
        if not descent.any():
            continue
        inner = sign * _segment_values(f, x, points[descent])
        if np.any(inner >= values[i] - TOL):
            return False
    return True


def labels(target: Target) -> dict[str, bool]:
    """All nine labels of `target` by direct definition checks."""
    f, sets, pts = target.f, target.sets, target.points
    pcvx = pseudoconvex(f, sets, pts)
    pccv = pseudoconvex(f, sets, pts, negate=True)
    qcvx = quasiconvex(f, pts)
    qccv = quasiconvex(f, pts, negate=True)
    sscvx = semistrict_quasiconvex(f, pts)
    ssccv = semistrict_quasiconvex(f, pts, negate=True)
    return {
        "pseudoconvex": pcvx,
        "pseudoconcave": pccv,
        "pseudolinear": pcvx and pccv,
        "quasiconvex": qcvx,
        "quasiconcave": qccv,
        "quasilinear": qcvx and qccv,
        "semistrictly-quasiconvex": sscvx,
        "semistrictly-quasiconcave": ssccv,
        "semistrictly-quasilinear": sscvx and ssccv,
    }


def lattice_violations(verdicts: dict[str, str]) -> list[str]:
    """Implications broken by one function's verdicts (holds => not refuted)."""
    return [
        f"{a} holds but {b} is refuted"
        for a, b in IMPLICATIONS
        if verdicts.get(a) == "holds-at-samples" and verdicts.get(b) == "refuted"
    ]


# --------------------------------------------------------------------------
# Piecewise-linear building blocks and their vertex sets
# --------------------------------------------------------------------------


def _kinked_slope(t: float, below: float, above: float, a: np.ndarray) -> list[np.ndarray]:
    """Vertices for h(<a, x>) with h' = below for t < 0 and above for t > 0."""
    if abs(t) <= TOL:
        return [below * a, above * a]
    return [(above if t > 0 else below) * a]


def _max_sets(p: np.ndarray) -> list[np.ndarray]:
    """Vertices of the subdifferential of max(x1, x2)."""
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    if abs(p[0] - p[1]) <= TOL:
        return [e1, e2]
    return [e1 if p[0] > p[1] else e2]


def _capped_max_sets(p: np.ndarray) -> list[np.ndarray]:
    m = max(p[0], p[1])
    if m > 0.5 + TOL:
        return [np.zeros(2)]
    if m < 0.5 - TOL:
        return _max_sets(p)
    return _max_sets(p) + [np.zeros(2)]


def _l1_sets(p: np.ndarray) -> list[np.ndarray]:
    choices = [(-1.0, 1.0) if abs(c) <= TOL else (float(np.sign(c)),) for c in p]
    return [np.array(v) for v in itertools.product(*choices)]


# --------------------------------------------------------------------------
# kinks-analyze: typed DSL functions built from abs, min and max
# --------------------------------------------------------------------------

_T3 = np.array([1.0, 2.0, -1.0])  # t = x1 + 2*x2 - x3
_T4 = np.array([1.0, -1.0, 0.5, 1.0])  # t = x1 - x2 + 0.5*x3 + x4
_S5 = np.ones(5)  # s = x1 + ... + x5


def _cube(n: int) -> str:
    return "box(" + ", ".join(["-1..1"] * n) + ")"


def kink_targets() -> list[Target]:
    """The fixed DSL functions of kinks-analyze, in request order."""
    lo2, hi2 = shrunk_box(2)
    lo3, hi3 = shrunk_box(3)
    lo4, hi4 = shrunk_box(4)
    lo5, hi5 = shrunk_box(5)
    t3 = "x1 + 2*x2 - x3"
    t4 = "x1 - x2 + 0.5*x3 + x4"
    s5 = "x1 + x2 + x3 + x4 + x5"
    return [
        Target(
            "max2", "max(x1, x2)", 2, _cube(2),
            lambda p: np.maximum(p[:, 0], p[:, 1]),
            _max_sets,
            lattice(2, 9, lo2, hi2),
        ),
        Target(
            "twoslope3", f"{t3} + max({t3}, 0)", 3, _cube(3),
            lambda p: (p @ _T3) + np.maximum(p @ _T3, 0.0),
            lambda p: _kinked_slope(float(p @ _T3), 1.0, 2.0, _T3),
            lattice(3, 5, lo3, hi3),
        ),
        Target(
            "capped-max2", "min(max(x1, x2), 0.5)", 2, _cube(2),
            lambda p: np.minimum(np.maximum(p[:, 0], p[:, 1]), 0.5),
            _capped_max_sets,
            lattice(2, 9, lo2, hi2),
        ),
        Target(
            "l1-5", "abs(x1) + abs(x2) + abs(x3) + abs(x4) + abs(x5)", 5, _cube(5),
            lambda p: np.abs(p).sum(axis=1),
            _l1_sets,
            lattice(5, 3, lo5, hi5),
        ),
        Target(
            "ramp4", f"{t4} + abs({t4})", 4, _cube(4),
            lambda p: (p @ _T4) + np.abs(p @ _T4),
            lambda p: _kinked_slope(float(p @ _T4), 0.0, 2.0, _T4),
            lattice(4, 3, lo4, hi4),
        ),
        Target(
            "min5", f"min({s5}, 3*({s5}))", 5, _cube(5),
            lambda p: np.minimum(p @ _S5, 3.0 * (p @ _S5)),
            lambda p: _kinked_slope(float(p @ _S5), 3.0, 1.0, _S5),
            lattice(5, 3, lo5, hi5),
        ),
    ]


# Properties analysed per kink function: each function gets some that hold
# and, where it has any, some that fail, so both verdicts are exercised.
# Ten hold and five are refuted: refutations stop early and cost a fraction
# of a verdict that holds, so with this mix the median request falls among
# the verdicts that hold rather than in the gap between the two.
KINK_PROPERTIES = {
    "max2": ("pseudoconvex", "quasiconcave", "semistrictly-quasiconvex"),
    "twoslope3": ("pseudolinear", "semistrictly-quasilinear"),
    "capped-max2": ("quasiconvex", "pseudoconvex"),
    "l1-5": ("pseudoconvex", "quasiconcave"),
    "ramp4": ("pseudoconvex", "quasilinear", "pseudoconcave", "semistrictly-quasiconcave"),
    "min5": ("pseudolinear", "quasilinear"),
}


# --------------------------------------------------------------------------
# corpus-all: the seven corpus members, rewritten by hand
# --------------------------------------------------------------------------


def _grid2(xlo, xhi, ylo, yhi, n=9) -> np.ndarray:
    return np.array([[a, b] for a in np.linspace(xlo, xhi, n) for b in np.linspace(ylo, yhi, n)])


def _line(lo, hi, n=81) -> np.ndarray:
    pts = np.linspace(lo, hi, n)
    if lo < 0.0 < hi:
        pts = np.append(pts, 0.0)  # the kinks and critical points sit at 0
    return pts[:, None]


def _one_sided(p: np.ndarray, left: float, right: float) -> list[np.ndarray]:
    if p[0] == 0.0:
        return [np.array([left]), np.array([right])]
    return [np.array([left if p[0] < 0 else right])]


def corpus_targets() -> dict[str, Target]:
    """The corpus members by name, with points on their sampled parts."""
    m1 = MARGIN_FRACTION * 2.0  # box(-1..1): diagonal 2
    m2 = MARGIN_FRACTION * 2.0 * np.sqrt(2.0)  # 2-D boxes of side 2
    m_atan = MARGIN_FRACTION * 6.0
    square = _grid2(-1 + m2, 1 - m2, -1 + m2, 1 - m2)
    unit = _line(-1 + m1, 1 - m1)
    targets = [
        Target("affine", "", 2, "",
               lambda p: 1.25 * p[:, 0] - 0.75 * p[:, 1] + 0.5,
               lambda p: [np.array([1.25, -0.75])], square),
        Target("fractional", "", 2, "",
               lambda p: p[:, 1] / p[:, 0],
               lambda p: [np.array([-p[1] / p[0] ** 2, 1.0 / p[0]])],
               _grid2(0.05 + m2, 2 - m2, -1 + m2, 1 - m2)),
        Target("arctan", "", 1, "",
               lambda p: np.arctan(p[:, 0]),
               lambda p: [np.array([1.0 / (1.0 + p[0] ** 2)])],
               _line(-3 + m_atan, 3 - m_atan)),
        Target("cubic", "", 1, "",
               lambda p: p[:, 0] ** 3,
               lambda p: [np.array([3.0 * p[0] ** 2])], unit),
        Target("ramp", "", 1, "",
               lambda p: p[:, 0] + np.abs(p[:, 0]),
               lambda p: _one_sided(p, 0.0, 2.0), unit),
        Target("twoslope", "", 1, "",
               lambda p: p[:, 0] + np.maximum(p[:, 0], 0.0),
               lambda p: _one_sided(p, 1.0, 2.0), unit),
        Target("paraboloid", "", 2, "",
               lambda p: p[:, 0] ** 2 + p[:, 1] ** 2,
               lambda p: [2.0 * p], square),
    ]
    return {t.name: t for t in targets}


# --------------------------------------------------------------------------
# estimators: closed forms
# --------------------------------------------------------------------------


def fractional_b(x: np.ndarray, y: np.ndarray, lam: float) -> float:
    """b(lam) of x2/x1: y1 / (x1 + lam (y1 - x1))."""
    return y[0] / (x[0] + lam * (y[0] - x[0]))


def fractional_q(x: np.ndarray, y: np.ndarray) -> float:
    """lim b(lam) as lam -> 0 for x2/x1: y1 / x1."""
    return y[0] / x[0]


# Slopes left and right of the kink at 0 of the 1-D corpus members.
KINK_SLOPES = {"ramp": (0.0, 2.0), "twoslope": (1.0, 2.0)}


def clarke_kink(slopes: tuple[float, float], v: float) -> float:
    """f0(0; v) = max over the slopes s of s*v, for a kink at 0 in 1-D."""
    return max(s * v for s in slopes)


def one_sided_kink(slopes: tuple[float, float], v: float) -> float:
    """f'(0; v) when f has slope slopes[0] left of 0 and slopes[1] right of it."""
    return (slopes[1] if v > 0 else slopes[0]) * v


# Gradients and curvature bounds of the smooth members, for f0(x; v) = <grad f(x), v>.
SMOOTH_GRADIENTS = {
    "arctan": lambda x: np.array([1.0 / (1.0 + x[0] ** 2)]),
    "cubic": lambda x: np.array([3.0 * x[0] ** 2]),
    "paraboloid": lambda x: 2.0 * x,
    "fractional": lambda x: np.array([-x[1] / x[0] ** 2, 1.0 / x[0]]),
}


def curvature_bound(name: str, x: np.ndarray, radius: float) -> float:
    """An upper bound on the spectral norm of the Hessian on B(x, radius)."""
    if name == "arctan":
        return 0.65  # |d2/dx2 atan| <= 3*sqrt(3)/8
    if name == "cubic":
        return 6.0 * (abs(x[0]) + radius)
    if name == "paraboloid":
        return 2.0
    if name == "fractional":
        a = x[0] - radius
        return 2.0 * (abs(x[1]) + radius) / a**3 + 2.0 / a**2
    raise KeyError(name)
