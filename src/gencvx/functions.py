"""Function handles and the built-in labeled corpus.

A FunctionHandle bundles a scalar function on R^n, read over rows of
points, with an optional row gradient callable, which flags the rows where
the function is not differentiable (kinks); set-valued estimation takes
over there, and wherever a handle has no gradient.  Handles are immutable
and evaluation is pure, so they can be shared across workers.

The corpus pairs each handle with a convex region and a ground-truth label
for every tracked generalized-convexity property.  Labels of the non-obvious
members are machine-verified by the brute-force grid oracle that ships with
the test suite before being hard-coded here.
"""

from __future__ import annotations

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
    """Evaluatable scalar function with an optional row gradient.

    `evaluate_rows` maps a (k, n) array of points to their (k,) values; each
    row's value must not depend on the other rows.  It is the handle's one
    value callable: `values` reads it and `value` is its one-row case.
    `gradient_rows`, when given, maps a (k, n) array to the (k, n) gradients
    at its rows and (k,) flags marking the rows where f is not
    differentiable, under the same rule.  It is the handle's one gradient:
    `grads` reads it and `grad` is its one-row case.  A handle without it
    has no gradients, and every row is flagged.

    `expression`, when given, is the expr tree f was compiled from, and
    `gradient_rows` is then its gradient: it flags exactly the rows that
    expr.compile_dual_rows flags, and at the others its gradients agree with
    that walk's to within nonsmooth.CERTIFY_MARGIN * (1 + |g|) in each
    coordinate.  Subdifferential estimation relies on this to certify a
    ball coherent from the expression's interval gradient walk, reading the
    handle's gradient at the centre only (see nonsmooth.subdifferential_rows);
    a handle without an expression, negate_handle's among them, has every
    ball sampled.
    """

    name: str
    dimension: int
    evaluate_rows: Callable[[np.ndarray], np.ndarray]
    smoothness: str = SMOOTH
    source: str | None = None
    expression: object | None = None
    gradient_rows: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None

    def __post_init__(self):
        if self.dimension <= 0:
            raise ValueError("dimension must be positive")
        if self.smoothness not in (SMOOTH, LOCALLY_LIPSCHITZ):
            raise ValueError(f"unknown smoothness {self.smoothness!r}")

    def value(self, x) -> float:
        """f at x: values at one row."""
        return float(self.values(np.asarray(x, dtype=float).reshape(1, -1))[0])

    def values(self, points) -> np.ndarray:
        """f at each row of a (k, n) array, in one `evaluate_rows` call.
        Raises ArithmeticError at the first row whose value is not finite,
        and ValueError at points not of the handle's dimension."""
        p = self._rows(points)
        v = np.asarray(self.evaluate_rows(p), dtype=float)
        if v.shape != (len(p),):
            raise ValueError(f"{self.name} returned {v.shape} values for {len(p)} points")
        bad = ~np.isfinite(v)
        if bad.any():
            raise ArithmeticError(f"{self.name} returned non-finite value at {p[bad][0]}")
        return v

    def grad(self, x) -> np.ndarray | None:
        """The gradient at x, or None where x is flagged: grads at one row."""
        g, has = self.grads(np.asarray(x, dtype=float).reshape(1, -1))
        return g[0] if has[0] else None

    def grads(self, points) -> tuple[np.ndarray, np.ndarray]:
        """The gradients at the rows of a (k, n) array, in one
        `gradient_rows` call: the (k, n) gradients and the (k,) flags of the
        rows that have one.  Flagged rows hold NaN where the handle has no
        `gradient_rows`.  Raises ArithmeticError at the first unflagged row
        whose gradient is not finite, and ValueError at points not of the
        handle's dimension."""
        p = self._rows(points)
        if self.gradient_rows is None:
            return np.full(p.shape, np.nan), np.zeros(len(p), dtype=bool)
        g, kinks = self.gradient_rows(p)
        g = np.asarray(g, dtype=float)
        has = ~np.asarray(kinks, dtype=bool)
        if g.shape != p.shape or has.shape != (len(p),):
            raise ValueError(f"{self.name} returned gradient rows of shape {g.shape}")
        bad = has & ~np.isfinite(g).all(axis=1)
        if bad.any():
            raise ArithmeticError(f"{self.name} returned bad gradient at {p[bad][0]}: {g[bad][0]}")
        return g, has

    def _rows(self, points) -> np.ndarray:
        """points as a (k, n) float array of the handle's dimension."""
        p = np.asarray(points, dtype=float)
        if p.ndim != 2:
            raise ValueError(f"points must be a (k, n) array, got shape {p.shape}")
        if p.shape[1] != self.dimension:
            raise ValueError(f"points of shape {p.shape} for {self.name} of dimension {self.dimension}")
        return p


def function_from_expression(
    source: str,
    dimension: int,
    name: str | None = None,
    exact_gradient: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None,
) -> FunctionHandle:
    """Compile DSL source into a handle with a gradient.

    Rows of points are evaluated by the compiled walk of expr.compile_rows.
    `exact_gradient`, when supplied, is a row callable: it maps a (k, n)
    array to the (k, n) gradients and the (k,) flags of the rows where f is
    not differentiable, and becomes the handle's `gradient_rows`; it must be
    the expression's gradient as FunctionHandle states.  Without it, the
    gradient is forward-mode differentiation over rows,
    expr.compile_dual_rows, flagged at kink-flagged points.
    """
    tree = ex.parse(source, dimension)
    smooth = ex.is_smooth_expression(tree)
    _gradient_rows = exact_gradient
    if exact_gradient is None:
        dual_rows = ex.compile_dual_rows(tree)

        def _gradient_rows(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            _, gradients, kinks = dual_rows(points)
            return gradients, kinks

    return FunctionHandle(
        name=name or source,
        dimension=dimension,
        evaluate_rows=ex.compile_rows(tree),
        smoothness=SMOOTH if smooth else LOCALLY_LIPSCHITZ,
        source=source,
        expression=tree,
        gradient_rows=_gradient_rows,
    )


def negate_handle(fn: FunctionHandle) -> FunctionHandle:
    """Handle for -f; gradients negate pointwise, kinks are preserved."""

    def _evaluate_rows(points: np.ndarray) -> np.ndarray:
        return -fn.evaluate_rows(points)

    _gradient_rows = None
    if fn.gradient_rows is not None:

        def _gradient_rows(points: np.ndarray):
            gradients, kinks = fn.gradient_rows(points)
            return -np.asarray(gradients, dtype=float), kinks

    return FunctionHandle(
        name=f"-({fn.name})",
        dimension=fn.dimension,
        evaluate_rows=_evaluate_rows,
        smoothness=fn.smoothness,
        source=None,
        expression=None,
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


def _smooth(gradient: Callable[[np.ndarray], np.ndarray]):
    """A row gradient that flags no row: gradient maps (k, n) points to
    their (k, n) gradients."""
    return lambda p: (gradient(p), np.zeros(len(p), dtype=bool))


def _kinked_at_origin(left: float, right: float):
    """The row gradient of a 1-D piecewise-linear f with slope `left` on
    x < 0 and `right` on x > 0, flagged at x = 0."""
    return lambda p: (np.where(p < 0.0, left, right), p[:, 0] == 0.0)


def _entry_affine() -> CorpusEntry:
    c = np.array([1.25, -0.75])
    handle = function_from_expression(
        "1.25*x1 - 0.75*x2 + 0.5", 2, name="affine",
        exact_gradient=_smooth(lambda p: np.tile(c, (len(p), 1))),
    )
    text = "box(-1..1, -1..1)"
    return CorpusEntry(handle, parse_region(text, 2), text, _labels(_ALL))


def _entry_fractional() -> CorpusEntry:
    handle = function_from_expression(
        "x2/x1", 2, name="fractional",
        exact_gradient=_smooth(lambda p: np.stack(
            [-p[:, 1] / (p[:, 0] * p[:, 0]), 1.0 / p[:, 0]], axis=1)),
    )
    text = "x1 >= 0.05, box(0..2, -1..1)"
    return CorpusEntry(handle, parse_region(text, 2), text, _labels(_ALL))


def _entry_arctan() -> CorpusEntry:
    handle = function_from_expression(
        "atan(x1)", 1, name="arctan",
        exact_gradient=_smooth(lambda p: 1.0 / (1.0 + p * p)),
    )
    text = "box(-3..3)"
    return CorpusEntry(handle, parse_region(text, 1), text, _labels(_ALL))


def _entry_cubic() -> CorpusEntry:
    handle = function_from_expression(
        "x1^3", 1, name="cubic",
        exact_gradient=_smooth(lambda p: 3.0 * p * p),
    )
    text = "box(-1..1)"
    return CorpusEntry(handle, parse_region(text, 1), text, _labels(_MONOTONE_NOT_PSEUDO))


def _entry_ramp() -> CorpusEntry:
    # x + |x|: flat on x <= 0, slope 2 on x > 0; kink at the origin.
    handle = function_from_expression(
        "x1 + abs(x1)", 1, name="ramp", exact_gradient=_kinked_at_origin(0.0, 2.0)
    )
    text = "box(-1..1)"
    labels = _labels(
        ("pseudoconvex", "quasiconvex", "quasiconcave", "quasilinear",
         "semistrictly-quasiconvex")
    )
    return CorpusEntry(handle, parse_region(text, 1), text, labels)


def _entry_twoslope() -> CorpusEntry:
    # x for x <= 0, 2x for x > 0: strictly increasing, kink at the origin.
    handle = function_from_expression(
        "x1 + max(x1, 0)", 1, name="twoslope", exact_gradient=_kinked_at_origin(1.0, 2.0)
    )
    text = "box(-1..1)"
    return CorpusEntry(handle, parse_region(text, 1), text, _labels(_ALL))


def _entry_paraboloid() -> CorpusEntry:
    handle = function_from_expression(
        "x1^2 + x2^2", 2, name="paraboloid",
        exact_gradient=_smooth(lambda p: 2.0 * p),
    )
    text = "box(-1..1, -1..1)"
    return CorpusEntry(handle, parse_region(text, 2), text, _labels(_CONVEX_SIDE_ONLY))


# Each member's builder under its handle's name, in the corpus order.
_BUILDERS = {
    "affine": _entry_affine,
    "fractional": _entry_fractional,
    "arctan": _entry_arctan,
    "cubic": _entry_cubic,
    "ramp": _entry_ramp,
    "twoslope": _entry_twoslope,
    "paraboloid": _entry_paraboloid,
}


def corpus() -> list[CorpusEntry]:
    """The seven labeled reference functions, in fixed order."""
    return [build() for build in _BUILDERS.values()]


def corpus_entry(name: str) -> CorpusEntry:
    """The named member, built alone."""
    try:
        build = _BUILDERS[name]
    except KeyError:
        known = ", ".join(_BUILDERS)
        raise KeyError(f"unknown corpus function {name!r} (known: {known})") from None
    return build()
