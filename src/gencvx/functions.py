"""Function handles and the built-in labeled corpus.

A FunctionHandle bundles a scalar function on R^n with an optional gradient
callable.  The gradient returns None at points where the function is not
differentiable (kinks); set-valued estimation takes over there.  Handles are
immutable and evaluation is pure, so they can be shared across workers.

The corpus pairs each handle with a convex region and a ground-truth label
for every tracked generalized-convexity property.  Labels of the non-obvious
members are machine-verified by the brute-force grid oracle that ships with
the test suite before being hard-coded here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import expr as ex
from .geometry import Region, parse_region

__all__ = [
    "SMOOTH",
    "LOCALLY_LIPSCHITZ",
    "PROPERTIES",
    "FunctionHandle",
    "CorpusEntry",
    "function_from_expression",
    "negate_handle",
    "corpus",
    "corpus_entry",
]

SMOOTH = "smooth"
LOCALLY_LIPSCHITZ = "locally-lipschitz"

# Property names, also the CLI vocabulary.
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


@dataclass(frozen=True, eq=False)
class FunctionHandle:
    """Evaluatable scalar function with optional single-point gradient.

    `gradient` may be None (no gradient information) or a callable returning
    either the gradient vector or None at non-differentiable points.
    `evaluate_rows`, when given, maps a (k, n) array of points to the (k,)
    values `evaluate` gives at its rows, bit for bit; without it, `values`
    calls `evaluate` once per row.  `gradient_rows`, when given, maps a
    (k, n) array to the (k, n) gradients `gradient` gives at its rows, bit
    for bit, and (k,) flags marking the rows where `gradient` gives None;
    gradient sampling then reads all its probes in one call.
    """

    name: str
    dimension: int
    evaluate: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray | None] | None = None
    smoothness: str = SMOOTH
    source: str | None = None
    expression: object | None = None
    evaluate_rows: Callable[[np.ndarray], np.ndarray] | None = None
    gradient_rows: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None

    def __post_init__(self):
        if self.dimension <= 0:
            raise ValueError("dimension must be positive")
        if self.smoothness not in (SMOOTH, LOCALLY_LIPSCHITZ):
            raise ValueError(f"unknown smoothness {self.smoothness!r}")

    def value(self, x) -> float:
        v = float(self.evaluate(np.asarray(x, dtype=float)))
        if not math.isfinite(v):
            raise ArithmeticError(f"{self.name} returned non-finite value at {x}")
        return v

    def values(self, points) -> np.ndarray:
        """f at each row of a (k, n) array, finiteness checked once for all."""
        p = np.asarray(points, dtype=float)
        if p.ndim != 2:
            raise ValueError(f"points must be a (k, n) array, got shape {p.shape}")
        if self.evaluate_rows is None:
            v = np.array([float(self.evaluate(row)) for row in p], dtype=float)
        else:
            v = np.asarray(self.evaluate_rows(p), dtype=float)
        if v.shape != (len(p),):
            raise ValueError(f"{self.name} returned {v.shape} values for {len(p)} points")
        bad = ~np.isfinite(v)
        if bad.any():
            raise ArithmeticError(f"{self.name} returned non-finite value at {p[bad][0]}")
        return v

    def grad(self, x) -> np.ndarray | None:
        if self.gradient is None:
            return None
        g = self.gradient(np.asarray(x, dtype=float))
        if g is None:
            return None
        g = np.asarray(g, dtype=float).reshape(-1)
        if g.size != self.dimension or not np.all(np.isfinite(g)):
            raise ArithmeticError(f"{self.name} returned bad gradient at {x}: {g}")
        return g


def function_from_expression(
    source: str,
    dimension: int,
    name: str | None = None,
    exact_gradient: Callable[[np.ndarray], np.ndarray | None] | None = None,
) -> FunctionHandle:
    """Compile DSL source into a handle with a forward-mode gradient.

    Rows of points are evaluated by the compiled walk of expr.compile_rows.
    The AD gradient reports None at kink-flagged points.  An exact gradient
    callable, when supplied, takes precedence over the AD one; without one,
    the AD gradient is also read over rows, by expr.compile_dual_rows.
    """
    tree = ex.parse(source, dimension)
    smooth = ex.is_smooth_expression(tree)

    def _evaluate(x: np.ndarray) -> float:
        return ex.eval_value(tree, x)

    def _ad_gradient(x: np.ndarray) -> np.ndarray | None:
        d = ex.eval_dual(tree, x)
        return None if d.at_kink else d.gradient

    _ad_gradient_rows = None
    if exact_gradient is None:
        dual_rows = ex.compile_dual_rows(tree)

        def _ad_gradient_rows(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            _, gradients, kinks = dual_rows(points)
            return gradients, kinks

    return FunctionHandle(
        name=name or source,
        dimension=dimension,
        evaluate=_evaluate,
        gradient=exact_gradient or _ad_gradient,
        smoothness=SMOOTH if smooth else LOCALLY_LIPSCHITZ,
        source=source,
        expression=tree,
        evaluate_rows=ex.compile_rows(tree),
        gradient_rows=_ad_gradient_rows,
    )


def negate_handle(fn: FunctionHandle) -> FunctionHandle:
    """Handle for -f; gradients negate pointwise, kinks are preserved."""

    def _evaluate(x: np.ndarray) -> float:
        return -fn.evaluate(x)

    _evaluate_rows = None
    if fn.evaluate_rows is not None:

        def _evaluate_rows(points: np.ndarray) -> np.ndarray:
            return -fn.evaluate_rows(points)

    _gradient = None
    if fn.gradient is not None:

        def _gradient(x: np.ndarray):
            g = fn.gradient(x)
            return None if g is None else -np.asarray(g, dtype=float)

    _gradient_rows = None
    if fn.gradient_rows is not None:

        def _gradient_rows(points: np.ndarray):
            gradients, kinks = fn.gradient_rows(points)
            return -np.asarray(gradients, dtype=float), kinks

    return FunctionHandle(
        name=f"-({fn.name})",
        dimension=fn.dimension,
        evaluate=_evaluate,
        gradient=_gradient,
        smoothness=fn.smoothness,
        source=None,
        expression=None,
        evaluate_rows=_evaluate_rows,
        gradient_rows=_gradient_rows,
    )


@dataclass(frozen=True, eq=False)
class CorpusEntry:
    handle: FunctionHandle
    region: Region
    region_text: str
    labels: dict[str, bool]

    def __post_init__(self):
        missing = [p for p in PROPERTIES if p not in self.labels]
        if missing:
            raise ValueError(f"corpus entry {self.handle.name} lacks labels {missing}")


def _labels(true_props: tuple[str, ...]) -> dict[str, bool]:
    return {p: p in true_props for p in PROPERTIES}


_ALL = PROPERTIES
_MONOTONE_NOT_PSEUDO = (
    "quasiconvex",
    "quasiconcave",
    "quasilinear",
    "semistrictly-quasiconvex",
    "semistrictly-quasiconcave",
    "semistrictly-quasilinear",
)
_CONVEX_SIDE_ONLY = ("pseudoconvex", "quasiconvex", "semistrictly-quasiconvex")


def _entry_affine() -> CorpusEntry:
    c = np.array([1.25, -0.75])
    handle = function_from_expression(
        "1.25*x1 - 0.75*x2 + 0.5", 2, name="affine",
        exact_gradient=lambda x: c.copy(),
    )
    text = "box(-1..1, -1..1)"
    return CorpusEntry(handle, parse_region(text, 2), text, _labels(_ALL))


def _entry_fractional() -> CorpusEntry:
    def grad(x):
        return np.array([-x[1] / (x[0] * x[0]), 1.0 / x[0]])

    handle = function_from_expression("x2/x1", 2, name="fractional", exact_gradient=grad)
    text = "x1 >= 0.05, box(0..2, -1..1)"
    return CorpusEntry(handle, parse_region(text, 2), text, _labels(_ALL))


def _entry_arctan() -> CorpusEntry:
    handle = function_from_expression(
        "atan(x1)", 1, name="arctan",
        exact_gradient=lambda x: np.array([1.0 / (1.0 + x[0] * x[0])]),
    )
    text = "box(-3..3)"
    return CorpusEntry(handle, parse_region(text, 1), text, _labels(_ALL))


def _entry_cubic() -> CorpusEntry:
    handle = function_from_expression(
        "x1^3", 1, name="cubic",
        exact_gradient=lambda x: np.array([3.0 * x[0] * x[0]]),
    )
    text = "box(-1..1)"
    return CorpusEntry(handle, parse_region(text, 1), text, _labels(_MONOTONE_NOT_PSEUDO))


def _entry_ramp() -> CorpusEntry:
    # x + |x|: flat on x <= 0, slope 2 on x > 0; kink at the origin.
    def grad(x):
        if x[0] == 0.0:
            return None
        return np.array([0.0 if x[0] < 0.0 else 2.0])

    handle = function_from_expression("x1 + abs(x1)", 1, name="ramp", exact_gradient=grad)
    text = "box(-1..1)"
    labels = _labels(
        ("pseudoconvex", "quasiconvex", "quasiconcave", "quasilinear",
         "semistrictly-quasiconvex")
    )
    return CorpusEntry(handle, parse_region(text, 1), text, labels)


def _entry_twoslope() -> CorpusEntry:
    # x for x <= 0, 2x for x > 0: strictly increasing, kink at the origin.
    def grad(x):
        if x[0] == 0.0:
            return None
        return np.array([1.0 if x[0] < 0.0 else 2.0])

    handle = function_from_expression(
        "x1 + max(x1, 0)", 1, name="twoslope", exact_gradient=grad
    )
    text = "box(-1..1)"
    return CorpusEntry(handle, parse_region(text, 1), text, _labels(_ALL))


def _entry_paraboloid() -> CorpusEntry:
    handle = function_from_expression(
        "x1^2 + x2^2", 2, name="paraboloid",
        exact_gradient=lambda x: 2.0 * np.asarray(x, dtype=float),
    )
    text = "box(-1..1, -1..1)"
    return CorpusEntry(handle, parse_region(text, 2), text, _labels(_CONVEX_SIDE_ONLY))


_BUILDERS = (
    _entry_affine,
    _entry_fractional,
    _entry_arctan,
    _entry_cubic,
    _entry_ramp,
    _entry_twoslope,
    _entry_paraboloid,
)


def corpus() -> list[CorpusEntry]:
    """The seven labeled reference functions, in fixed order."""
    return [build() for build in _BUILDERS]


def corpus_entry(name: str) -> CorpusEntry:
    for entry in corpus():
        if entry.handle.name == name:
            return entry
    known = ", ".join(e.handle.name for e in corpus())
    raise KeyError(f"unknown corpus function {name!r} (known: {known})")
