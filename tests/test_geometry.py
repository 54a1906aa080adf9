import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencvx.geometry import (
    AffineConstraint,
    Region,
    RegionError,
    RegionTooThinError,
    _accept_mask,
    as_point,
    parse_region,
    sample_region,
    segment_point,
)


def test_as_point_validates():
    p = as_point([1.0, 2.0])
    assert p.shape == (2,)
    assert not p.flags.writeable
    with pytest.raises(ValueError):
        as_point([])
    with pytest.raises(ValueError):
        as_point([1.0, float("nan")])
    with pytest.raises(ValueError):
        as_point([float("inf")])


def test_segment_point_midpoint():
    assert np.array_equal(segment_point([0.0, 0.0], [2.0, 2.0], 0.5), [1.0, 1.0])


def test_segment_point_affine_interpolation():
    assert np.array_equal(segment_point([1.0, 0.0], [2.0, 2.0], 0.5), [1.5, 1.0])


def test_segment_point_endpoint_identity():
    x = np.array([0.3, -0.7, 1.1])
    assert np.array_equal(segment_point(x, x + 1.0, 0.0), x)


def test_segment_point_grid_rows_match_scalar_calls():
    x, y = np.array([0.3, -0.7, 1.1]), np.array([-2.9, 0.1 / 3.0, 1e-3])
    grid = np.linspace(0.0, 1.0, 33)
    pts = segment_point(x, y, grid)
    assert pts.shape == (33, 3)
    assert not pts.flags.writeable
    for lam, row in zip(grid, pts):
        assert np.array_equal(row, segment_point(x, y, float(lam)))
        assert np.array_equal(row, x + float(lam) * (y - x))
    assert np.array_equal(pts[0], x)
    assert np.array_equal(segment_point(list(x), list(y), grid), pts)
    assert segment_point(x, y, []).shape == (0, 3)
    # Stacked endpoints: k segments at once, each row as its segment alone.
    xs, ys = np.array([x, y, 2.0 * x]), np.array([y, x, -y])
    lams = np.array([grid[:5], grid[3:8], grid[-5:]])
    stacked = segment_point(xs[:, None], ys[:, None], lams)
    assert stacked.shape == (3, 5, 3)
    for a, b, row_lams, rows in zip(xs, ys, lams, stacked):
        assert np.array_equal(rows, segment_point(a, b, row_lams))


def test_segment_rejects_degenerate_and_bad_lambda():
    for lam in (0.5, [0.0, 0.5], []):
        with pytest.raises(ValueError):
            segment_point([1.0, 2.0], [1.0, 2.0], lam)
    with pytest.raises(ValueError):
        segment_point([0.0], [1.0, 2.0], 0.5)
    with pytest.raises(ValueError):  # one degenerate segment among several
        segment_point([[[0.0]], [[1.0]]], [[[1.0]], [[1.0]]], [[0.5], [0.5]])
    for lam in (-0.1, 1.1, float("nan"), [0.5, 1.1], [-0.1, 0.5]):
        with pytest.raises(ValueError):
            segment_point([0.0], [1.0], lam)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_segment_rejects_non_finite_points():
    # In the first pair y - x overflows to -inf, so every interior point is
    # non-finite; in the others an endpoint is.
    for x, y in (([1e308], [-1e308]), ([float("inf")], [0.0]), ([0.0], [float("nan")])):
        for lam in (0.5, [0.0, 0.5]):
            with pytest.raises(ValueError):
                segment_point(x, y, lam)


def test_sample_region_deterministic_and_in_margin_box():
    region = Region([0.0, 0.0], [1.0, 1.0])
    a = sample_region(region, 3, seed=7)
    b = sample_region(region, 3, seed=7)
    assert len(a) == 3
    for p, q in zip(a, b):
        assert np.array_equal(p, q)
    m = region.margin
    for p in a:
        assert np.all(p >= m) and np.all(p <= 1.0 - m)


def test_sample_region_seed_changes_points():
    region = Region([0.0, 0.0], [1.0, 1.0])
    a = sample_region(region, 5, seed=1)
    b = sample_region(region, 5, seed=2)
    assert any(not np.array_equal(p, q) for p, q in zip(a, b))


def test_halfspace_margin_slack():
    # x1 > 0 with margin 0.05: every sample keeps x1 >= 0.05.
    region = Region(
        [0.0, -1.0], [2.0, 1.0],
        constraints=(AffineConstraint([-1.0, 0.0], "<", 0.0),),
        margin=0.05,
    )
    for p in sample_region(region, 50, seed=3):
        assert p[0] >= 0.05


def test_contradictory_constraints_region_too_thin():
    with pytest.raises(RegionTooThinError):
        region = Region(
            [-1.0], [2.0],
            constraints=(
                AffineConstraint([1.0], "<", 0.0),    # x1 < 0
                AffineConstraint([-1.0], "<", -1.0),  # x1 > 1
            ),
            margin=0.01,
        )
        sample_region(region, 1, seed=0)


def test_contains_and_interior_slack():
    region = parse_region("x1 > 0.05, box(0..2, -1..1)", 2)
    assert region.contains([1.0, 0.0])
    assert not region.contains([0.01, 0.0])
    assert not region.contains([1.0, 2.0])
    assert region.interior_slack([1.0, 0.0]) == pytest.approx(0.95)
    assert region.interior_slack([0.06, 0.0]) == pytest.approx(0.01)
    rows = region.interior_slack(np.array([[1.0, 0.0], [0.06, 0.0]]))
    assert rows.tolist() == [region.interior_slack([1.0, 0.0]), region.interior_slack([0.06, 0.0])]


def test_interior_slack_rejects_points_of_another_dimension():
    region = Region([-1.0, -1.0], [1.0, 1.0])
    for bad in ([0.5], [0.5, 0.5, 0.5], [[0.5]], [[0.5, 0.5, 0.5]], [[[0.5, 0.5]]], 0.5):
        with pytest.raises(ValueError):
            region.interior_slack(bad)
    assert not region.contains([0.5])


def test_parse_region_full_form():
    region = parse_region("x1 > 0.05, box(0..2, -1..1), margin(0.1)", 2)
    assert region.dimension == 2
    assert region.margin == 0.1
    assert np.array_equal(region.lower, [0.0, -1.0])
    assert np.array_equal(region.upper, [2.0, 1.0])
    (c,) = region.constraints
    # x1 > 0.05 normalizes to -x1 < -0.05.
    assert c.relation == "<"
    assert np.array_equal(c.coeffs, [-1.0, 0.0])
    assert c.bound == -0.05


def test_parse_region_linear_combination():
    region = parse_region("x1 + 2*x2 <= 3, box(-1..1, -1..1)", 2)
    (c,) = region.constraints
    assert c.relation == "<="
    assert np.array_equal(c.coeffs, [1.0, 2.0])
    assert c.bound == 3.0
    assert region.contains([0.5, 0.5])


def test_parse_region_errors():
    with pytest.raises(RegionError):
        parse_region("x1 > 0", 1)  # no box
    with pytest.raises(RegionError):
        parse_region("box(0..1, 0..1)", 1)  # wrong arity
    with pytest.raises(RegionError):
        parse_region("x3 > 0, box(0..1)", 1)  # variable out of range
    with pytest.raises(RegionError):
        parse_region("box(1..0)", 1)  # empty range
    with pytest.raises(RegionError):
        parse_region("", 1)


def test_default_margin_is_fraction_of_diagonal():
    region = Region([0.0, 0.0], [1.0, 1.0])
    assert region.margin == pytest.approx(0.05 * np.sqrt(2.0))


@settings(max_examples=50, deadline=None)
@given(st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_segment_stays_in_region(lam, seed):
    region = Region([0.0, -1.0], [2.0, 1.0],
                    constraints=(AffineConstraint([-1.0, 0.0], "<", 0.0),))
    x, y = sample_region(region, 2, seed=seed)
    if np.array_equal(x, y):
        return
    z = segment_point(x, y, lam)
    assert region.contains(z)
    assert np.array_equal(segment_point(x, y, np.array([0.0, lam, 1.0]))[1], z)


_SLACK_REGIONS = (
    Region([-1.0, -1.0], [1.0, 1.0]),
    # fractional's region: the halfspace x1 >= 0.05 inside its box.
    parse_region("- x1 <= -0.05, box(0..2, -1..1)", 2),
    Region([0.0, -1.0], [2.0, 1.0], constraints=(AffineConstraint([-1.0, 1.0], "<", 0.0),)),
)
# Box faces and constraint boundaries, so that points land on them.
_FACES = (-1.0, 0.0, 0.05, 1.0, 2.0)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(_SLACK_REGIONS),
    st.lists(st.one_of(st.floats(-2.5, 2.5), st.sampled_from(_FACES)), min_size=2, max_size=2),
    st.one_of(st.just(1e-5), st.sampled_from((0.05, 0.95, 1.0)), st.floats(1e-300, 2.0)),
)
def test_interior_slack_at_a_positive_radius_implies_membership(region, coords, r):
    slack = region.interior_slack(coords)
    assert (slack >= r) == (region.contains(coords) and slack >= r)
    # Rows of points: each row's slack is its point's, bit for bit.
    flipped = coords[::-1]
    rows = region.interior_slack(np.array([coords, flipped]))
    assert rows.tolist() == [slack, region.interior_slack(flipped)]
    inside = [region.contains(p) and s >= r for p, s in zip((coords, flipped), rows)]
    assert ((rows >= r) == inside).all()


@pytest.mark.parametrize("text, dim", [
    ("x1 < 0.5, box(-1..1, -1..1), margin(0.25)", 2),
    ("x1 <= 0.5, box(-1..1, -1..1), margin(0.25)", 2),
    ("x1 + 0.5*x2 - 2*x3 < 0.75, 0.3*x1 - 0.7*x2 <= 0.2, box(-1..1, -1..1, -1..1), "
     "margin(0.125)", 3),
])
def test_accept_mask_is_contains_row_for_row(text, dim):
    # Sampling and the feasibility probe accept a row exactly when
    # contains(p, margin) does, strict constraints strictly, also where a
    # slack equals the margin and where a sum's rounding decides it.
    region = parse_region(text, dim)
    m = region.margin
    rng = np.random.default_rng(17)
    pts = [rng.uniform(region.lower, region.upper, size=(4000, dim))]
    for c in region.constraints:
        # Onto each constraint's margin surface, exactly (dyadic points on
        # dyadic coefficients) and to the last bit (the rest).
        on = rng.uniform(-0.5, 0.5, size=(2000, dim))
        on[:1000] = np.round(on[:1000] * 64) / 64
        i = int(np.argmax(np.abs(c.coeffs)))
        rest = np.delete(on, i, axis=1) @ np.delete(c.coeffs, i)
        on[:, i] = (c.bound - m - rest) / c.coeffs[i]
        pts.append(on)
    edge = rng.uniform(region.lower + m, region.upper - m, size=(200, dim))
    edge[:100, 0] = region.lower[0] + m
    edge[100:, 0] = region.upper[0] - m
    pts = np.concatenate(pts + [edge])
    exact = pts[4000:5000]
    assert (region.constraints[0].slack(exact) == m).sum() >= 500
    mask = _accept_mask(region, pts)
    assert mask.tolist() == [region.contains(p, m) for p in pts]
    assert 0 < mask.sum() < len(pts)
    if text.startswith("x1 < 0.5"):
        assert not _accept_mask(region, np.array([[0.25, 0.0]]))[0]
