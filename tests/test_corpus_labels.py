"""Ground-truth label verification: corpus labels vs the brute-force oracle.

Each corpus entry's hard-coded labels must reproduce exactly from dense-grid
definition checks with hand-written closed-form derivative sets.
"""

import numpy as np
import pytest

from gencvx import corpus

from grid_oracle import oracle_labels

LAMS = [k / 16 for k in range(1, 16)]


def _grid_1d(lo, hi, n=81):
    pts = [np.array([t]) for t in np.linspace(lo, hi, n)]
    if lo < 0.0 < hi:
        # The kink/critical points of the corpus sit at the origin; make sure
        # the oracle evaluates there exactly.
        pts.append(np.array([0.0]))
    return pts


def _grid_2d(xlo, xhi, ylo, yhi, n=9):
    pts = []
    for a in np.linspace(xlo, xhi, n):
        for b in np.linspace(ylo, yhi, n):
            pts.append(np.array([a, b]))
    return pts


def _sets(fn):
    """Closed-form derivative sets, written independently of the handles."""
    name = fn.handle.name
    if name == "affine":
        return lambda p: [np.array([1.25, -0.75])]
    if name == "fractional":
        return lambda p: [np.array([-p[1] / p[0] ** 2, 1.0 / p[0]])]
    if name == "arctan":
        return lambda p: [np.array([1.0 / (1.0 + p[0] ** 2)])]
    if name == "cubic":
        return lambda p: [np.array([3.0 * p[0] ** 2])]
    if name == "ramp":
        return lambda p: (
            [np.array([0.0]), np.array([2.0])]
            if p[0] == 0.0
            else [np.array([0.0 if p[0] < 0 else 2.0])]
        )
    if name == "twoslope":
        return lambda p: (
            [np.array([1.0]), np.array([2.0])]
            if p[0] == 0.0
            else [np.array([1.0 if p[0] < 0 else 2.0])]
        )
    if name == "paraboloid":
        return lambda p: [2.0 * np.asarray(p, dtype=float)]
    raise KeyError(name)


def _points(entry):
    """Grids cover the sampled (margin-shrunk) part of each region and
    include the kink/critical point 0 exactly where there is one."""
    name = entry.handle.name
    region = entry.region
    if region.dimension == 1:
        lo = float(region.lower[0] + region.margin)
        hi = float(region.upper[0] - region.margin)
        return _grid_1d(lo, hi)
    lo = region.lower + region.margin
    hi = region.upper - region.margin
    if name == "fractional":
        lo[0] = max(lo[0], 0.05 + region.margin)
    return _grid_2d(lo[0], hi[0], lo[1], hi[1])


def _read_ahead(handle, points, lams):
    """f as the oracle reads it, served from one `values` call made first.
    That call reads the grid points and x + lam * (y - x) for every ordered
    pair and lambda, built with the oracle's float operations; a row's value
    does not depend on the other rows, so each is bit for bit handle.value
    at its point.  f looks a point up by its bytes, and falls back to
    handle.value on a miss."""
    p = np.array(points)
    x, y = p[:, None, None, :], p[None, :, None, :]
    lam = np.array(lams)[None, None, :, None]
    pairs = ~np.eye(len(p), dtype=bool)  # itertools.permutations: x != y
    rows = np.concatenate([p, (x + lam * (y - x))[pairs].reshape(-1, p.shape[1])])
    table = dict(zip((r.tobytes() for r in rows), handle.values(rows).tolist()))

    def f(point):
        v = table.get(point.tobytes())
        return handle.value(point) if v is None else v

    return f


@pytest.mark.parametrize("entry", corpus(), ids=lambda e: e.handle.name)
def test_labels_match_grid_oracle(entry):
    points = _points(entry)
    f = _read_ahead(entry.handle, points, LAMS)
    labels = oracle_labels(f, _sets(entry), points, LAMS)
    assert labels == entry.labels


def test_oracle_grids_hit_the_kinks():
    # The 1-D grids must contain 0.0 exactly, where the interesting
    # derivative sets live.
    for entry in corpus():
        if entry.handle.name in ("cubic", "ramp", "twoslope"):
            pts = _points(entry)
            assert any(p[0] == 0.0 for p in pts)
