"""Function handles and the built-in labeled corpus.

A FunctionHandle bundles a scalar function on R^n, read over rows of
points, with an optional row gradient callable, which flags the rows where
the function is not differentiable (kinks); set-valued estimation takes
over there, and wherever a handle has no gradient.  Handles are immutable
and evaluation is pure, so they can be shared across workers.

The corpus pairs the handle of each member's DSL source with a convex region
and a ground-truth label for every tracked generalized-convexity property.
Labels of the non-obvious members are machine-verified by the brute-force
grid oracle that ships with the test suite before being hard-coded here.
"""

from __future__ import annotations

import numbers
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
    expr.compile_dual_rows flags.  function_from_expression's handles, the
    corpus among them, read both callables from the tree, so they keep this
    by construction; a hand-built handle that sets `expression` promises it.
    Subdifferential estimation relies on this to certify a ball smooth from
    the expression's interval gradient walk, reading the handle's gradient
    at the centre only (see nonsmooth.subdifferential_rows); a handle
    without an expression, negate_handle's among them, has every ball
    sampled.  classify reaches neither where a smooth handle has a
    gradient and room for the ball: that gradient is the subdifferential
    there (see campaign._Context.generators).
    """

    name: str
    dimension: int
    evaluate_rows: Callable[[np.ndarray], np.ndarray]
    smoothness: str = SMOOTH
    expression: object | None = None
    gradient_rows: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None

    def __post_init__(self):
        d = self.dimension
        if isinstance(d, bool) or not isinstance(d, numbers.Integral) or d <= 0:
            raise ValueError(f"dimension must be a positive integer, got {d!r}")
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


def function_from_expression(source: str, dimension: int, name: str | None = None) -> FunctionHandle:
    """Compile DSL source into a handle whose expression tree is its one
    definition of f: rows of points are evaluated by the compiled walk of
    expr.compile_rows, and gradients by forward-mode differentiation over
    rows, expr.compile_dual_rows, flagged at kink-flagged points.
    """
    tree = ex.parse(source, dimension)
    dual_rows = ex.compile_dual_rows(tree)

    def _gradient_rows(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        _, gradients, kinks = dual_rows(points)
        return gradients, kinks

    return FunctionHandle(
        name=name or source,
        dimension=dimension,
        evaluate_rows=ex.compile_rows(tree),
        smoothness=SMOOTH if ex.is_smooth_expression(tree) else LOCALLY_LIPSCHITZ,
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
        expression=None,
        gradient_rows=_gradient_rows,
    )


@dataclass(frozen=True, eq=False)
class CorpusEntry:
    handle: FunctionHandle
    region: Region
    labels: dict[str, bool]

    def __post_init__(self):
        missing = [p for p in PROPERTIES if p not in self.labels]
        if missing:
            raise ValueError(f"corpus entry {self.handle.name} lacks labels {missing}")


# Each member by its handle's name, in the corpus order: its DSL source,
# dimension, region text and the properties that hold on the region.
_MEMBERS = {
    "affine": ("1.25*x1 - 0.75*x2 + 0.5", 2, "box(-1..1, -1..1)", PROPERTIES),
    "fractional": ("x2/x1", 2, "x1 >= 0.05, box(0..2, -1..1)", PROPERTIES),
    "arctan": ("atan(x1)", 1, "box(-3..3)", PROPERTIES),
    "cubic": ("x1^3", 1, "box(-1..1)",
              ("quasiconvex", "quasiconcave", "quasilinear", "semistrictly-quasiconvex",
               "semistrictly-quasiconcave", "semistrictly-quasilinear")),
    # x + |x|: flat on x <= 0, slope 2 on x > 0; kink at the origin.
    "ramp": ("x1 + abs(x1)", 1, "box(-1..1)",
             ("pseudoconvex", "quasiconvex", "quasiconcave", "quasilinear",
              "semistrictly-quasiconvex")),
    # x for x <= 0, 2x for x > 0: strictly increasing, kink at the origin.
    "twoslope": ("x1 + max(x1, 0)", 1, "box(-1..1)", PROPERTIES),
    "paraboloid": ("x1^2 + x2^2", 2, "box(-1..1, -1..1)",
                   ("pseudoconvex", "quasiconvex", "semistrictly-quasiconvex")),
}


def corpus() -> list[CorpusEntry]:
    """The seven labeled reference functions, in fixed order."""
    return [corpus_entry(name) for name in _MEMBERS]


def corpus_entry(name: str) -> CorpusEntry:
    """The named member, built alone."""
    try:
        source, dimension, region_text, true_props = _MEMBERS[name]
    except KeyError:
        known = ", ".join(_MEMBERS)
        raise KeyError(f"unknown corpus function {name!r} (known: {known})") from None
    return CorpusEntry(
        function_from_expression(source, dimension, name=name),
        parse_region(region_text, dimension),
        {p: p in true_props for p in PROPERTIES},
    )
