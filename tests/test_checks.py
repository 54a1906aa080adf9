import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencvx import corpus_entry, function_from_expression
from gencvx.checks import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    VACUOUS,
    check_gradient_kernel,
    check_interlacing,
    check_interpolation_bounds,
    check_pseudoconvex_pair,
    check_quasiconvex_segment,
    check_semistrict_quasiconvex_segment,
    check_subdiff_kernel_pair,
    check_symmetric_equality,
    check_symmetric_inequality,
    check_weak_monotone_pair,
    compute_b,
    compute_p,
    cross_check_b_via_subdifferential,
    eps_strict,
    estimate_q_limit,
    verify_p_identity,
)
from gencvx.geometry import sample_region
from gencvx.nonsmooth import SubdifferentialEstimate

LAM_GRID = np.linspace(0.0, 1.0, 33)


def est(*gens, radius=1e-6, at_kink=False):
    return SubdifferentialEstimate(
        tuple(np.array(g, dtype=float) for g in gens), radius, at_kink
    )


def fn_of(name):
    return corpus_entry(name).handle


# -- pseudoconvex pairs (strict descent-direction implication) ---------------


def test_pseudoconvex_cubic_fails_at_origin():
    check = check_pseudoconvex_pair(fn_of("cubic"), [0.0], [-1.0], est([0.0]))
    assert check.outcome == FAIL
    assert check.generator_index == 0
    assert check.residual == pytest.approx(1.0)
    assert check.credible


def test_pseudoconvex_affine_passes():
    check = check_pseudoconvex_pair(
        fn_of("affine"), [0.5, 0.0], [-0.5, 0.0], est([1.25, -0.75])
    )
    assert check.outcome == PASS


def test_pseudoconvex_abs_passes():
    fn = function_from_expression("abs(x1)", 1)
    check = check_pseudoconvex_pair(fn, [1.0], [0.0], est([1.0]))
    assert check.outcome == PASS


def test_pseudoconvex_vacuous_when_values_rise():
    check = check_pseudoconvex_pair(fn_of("cubic"), [0.0], [1.0], est([0.0]))
    assert check.outcome == VACUOUS


# -- weak monotone pairs (non-strict variant) ---------------------------------


def test_weak_monotone_fractional_equal_values():
    check = check_weak_monotone_pair(
        fn_of("fractional"), [1.0, 0.0], [2.0, 0.0], est([0.0, 1.0])
    )
    assert check.outcome == PASS


def test_weak_monotone_affine_equal_pair():
    # <c, y-x> = 0 on an equal-value affine pair.
    check = check_weak_monotone_pair(
        fn_of("affine"), [0.0, 0.0], [0.75 * 0.8, 1.25 * 0.8], est([1.25, -0.75])
    )
    assert check.outcome == PASS


def test_weak_monotone_cubic_origin_passes():
    check = check_weak_monotone_pair(fn_of("cubic"), [0.0], [-1.0], est([0.0]))
    assert check.outcome == PASS


def test_weak_monotone_concave_bump_fails():
    fn = function_from_expression("-x1^2", 1)
    check = check_weak_monotone_pair(fn, [0.5], [-0.5], est([-1.0]))
    assert check.outcome == FAIL
    assert check.residual == pytest.approx(1.0)


# -- segment conditions --------------------------------------------------------


def test_quasiconvex_square_segment():
    fn = function_from_expression("x1^2", 1)
    check = check_quasiconvex_segment(fn, [-1.0], [1.0], LAM_GRID)
    assert check.outcome == PASS


def test_quasiconvex_concave_bump_fails_midway():
    fn = function_from_expression("-x1^2", 1)
    check = check_quasiconvex_segment(fn, [-1.0], [1.0], LAM_GRID)
    assert check.outcome == FAIL
    assert check.lam == pytest.approx(0.5)
    assert check.residual == pytest.approx(1.0)
    assert check.credible


def test_quasiconvex_fractional_segment():
    check = check_quasiconvex_segment(
        fn_of("fractional"), [1.0, 0.0], [2.0, 2.0], LAM_GRID
    )
    assert check.outcome == PASS


def test_semistrict_cubic_descends():
    check = check_semistrict_quasiconvex_segment(
        fn_of("cubic"), [1.0], [-1.0], LAM_GRID
    )
    assert check.outcome == PASS


def test_semistrict_ramp_orientations():
    fn = fn_of("ramp")
    up = check_semistrict_quasiconvex_segment(fn, [-1.0], [1.0], LAM_GRID)
    assert up.outcome == VACUOUS  # f(y)=2 > f(x)=0
    down = check_semistrict_quasiconvex_segment(fn, [1.0], [-1.0], LAM_GRID)
    assert down.outcome == PASS  # interior values stay below 2


def test_semistrict_constant_vacuous():
    fn = function_from_expression("3", 1)
    check = check_semistrict_quasiconvex_segment(fn, [-1.0], [1.0], LAM_GRID)
    assert check.outcome == VACUOUS


def test_interlacing_cubic():
    check = check_interlacing(fn_of("cubic"), [1.0], [-1.0], LAM_GRID)
    assert check.outcome == PASS


def test_interlacing_ramp_fails_on_flat_piece():
    check = check_interlacing(fn_of("ramp"), [1.0], [-1.0], LAM_GRID)
    assert check.outcome == FAIL
    assert check.lam == pytest.approx(0.5)
    assert check.fz == 0.0  # exact tie with f(y)
    assert check.credible


def test_interlacing_affine():
    check = check_interlacing(
        fn_of("affine"), [0.5, 0.0], [-0.5, 0.0], LAM_GRID
    )
    assert check.outcome == PASS


# -- proportional function p ----------------------------------------------------


def test_compute_p_affine_is_one_exactly():
    pv = compute_p(fn_of("affine"), [0.1, 0.2], [-0.3, 0.4], [1.25, -0.75])
    assert not pv.band
    assert pv.p == 1.0
    assert pv.positive


def test_compute_p_fractional_hand_value():
    pv = compute_p(fn_of("fractional"), [1.0, 0.0], [2.0, 2.0], [0.0, 1.0])
    assert pv.p == pytest.approx(0.5)
    assert pv.positive


def test_compute_p_band_convention():
    pv = compute_p(fn_of("cubic"), [0.0], [1.0], [0.0])
    assert pv.band
    assert pv.p == 1.0


def test_verify_p_identity_fractional_zero_residual():
    check = verify_p_identity(
        fn_of("fractional"), [1.0, 0.0], [2.0, 2.0], est([0.0, 1.0])
    )
    assert check.outcome == PASS


def test_verify_p_identity_cubic_band_refutes():
    check = verify_p_identity(fn_of("cubic"), [0.0], [1.0], est([0.0]))
    assert check.outcome == FAIL
    assert check.residual == pytest.approx(1.0)
    assert check.credible


def test_verify_p_identity_affine():
    check = verify_p_identity(
        fn_of("affine"), [0.3, -0.2], [-0.5, 0.1], est([1.25, -0.75])
    )
    assert check.outcome == PASS


def test_verify_p_identity_exact_zero_on_rational_inputs():
    # Constructed p makes the identity residual vanish identically.
    fn = fn_of("affine")
    x, y, g = [0.25, 0.5], [-0.75, 0.125], [1.25, -0.75]
    pv = compute_p(fn, x, y, g)
    assert pv.numerator - pv.p * pv.denominator == 0.0


# -- symmetric equality / inequality -------------------------------------------


def test_symmetric_equality_fractional_hand_pair():
    check = check_symmetric_equality(
        fn_of("fractional"), [1.0, 0.0], [2.0, 2.0],
        est([0.0, 1.0]), est([-0.5, 0.5]),
    )
    assert check.outcome == PASS


def test_symmetric_equality_affine():
    check = check_symmetric_equality(
        fn_of("affine"), [0.1, 0.9], [-0.4, 0.3],
        est([1.25, -0.75]), est([1.25, -0.75]),
    )
    assert check.outcome == PASS


def test_symmetric_equality_square_nonpositive_p():
    # Equal values with a nonvanishing pairing force p = 0: refutation.
    fn = function_from_expression("x1^2", 1)
    check = check_symmetric_equality(fn, [-1.0], [1.0], est([-2.0]), est([2.0]))
    assert check.outcome == FAIL
    assert "not positive" in check.detail
    assert check.credible


def test_symmetric_equality_smooth_pseudolinear_tiny_residue():
    fn = fn_of("fractional")
    rng = np.random.default_rng(8)
    for _ in range(50):
        x = np.array([rng.uniform(0.3, 1.9), rng.uniform(-0.8, 0.8)])
        y = np.array([rng.uniform(0.3, 1.9), rng.uniform(-0.8, 0.8)])
        if abs(fn.value(y) - fn.value(x)) < 1e-3:
            continue
        gx, gy = fn.grad(x), fn.grad(y)
        p1 = compute_p(fn, x, y, gx)
        p2 = compute_p(fn, y, x, gy)
        s = p1.p * p1.denominator + p2.p * p2.denominator
        assert abs(s) <= 1e-12


def test_symmetric_inequality_square_with_fallback():
    fn = function_from_expression("x1^2", 1)
    check = check_symmetric_inequality(fn, [-1.0], [1.0], est([-2.0]), est([2.0]))
    # p falls back to 1 on the equal-value pair: S = -4 + -4 = -8 <= 0.
    assert check.outcome == PASS


def test_symmetric_inequality_affine_zero():
    check = check_symmetric_inequality(
        fn_of("affine"), [0.2, 0.1], [-0.3, 0.4],
        est([1.25, -0.75]), est([1.25, -0.75]),
    )
    assert check.outcome == PASS


def test_symmetric_inequality_negated_square_fails():
    # For -x1^2 the equal-value pair gives S = 4 + 4 = 8 > 0 with the
    # fallback p, so the necessary condition is already violated here.
    fn = function_from_expression("-x1^2", 1)
    check = check_symmetric_inequality(fn, [-1.0], [1.0], est([2.0]), est([-2.0]))
    assert check.outcome == FAIL
    assert check.residual == pytest.approx(8.0)


# -- interpolation coefficient b -------------------------------------------------


def test_compute_b_fractional_closed_form():
    rec = compute_b(fn_of("fractional"), [1.0, 0.0], [2.0, 2.0], 0.5)
    assert rec.b == pytest.approx(4.0 / 3.0, rel=1e-12)
    closed = 2.0 / (1.0 + 0.5)
    assert rec.b == pytest.approx(closed, rel=1e-12)
    assert 0.0 < rec.lam_b <= 1.0
    assert rec.strict and rec.weak and not rec.degenerate


def test_compute_b_affine_is_one():
    for lam in (0.25, 0.5, 0.75):
        rec = compute_b(fn_of("affine"), [0.5, 0.2], [-0.4, -0.1], lam)
        assert rec.b == pytest.approx(1.0, abs=1e-12)
        assert rec.strict and rec.weak


def test_compute_b_cubic_strict_but_not_pseudolinear():
    rec = compute_b(fn_of("cubic"), [1.0], [-1.0], 0.5)
    assert rec.b == pytest.approx(1.0)
    assert rec.lam_b == pytest.approx(0.5)
    assert rec.strict


def test_compute_b_degenerate_convention():
    rec = compute_b(fn_of("affine"), [0.0, 0.0], [0.6, 1.0], 0.3)
    assert rec.degenerate
    assert rec.b == 1.0


def test_compute_b_ramp_hits_weak_boundary():
    # Flat piece: f(z) = f(y) exactly, so lam*b = 1: allowed weakly, and a
    # strict-bound violation.
    rec = compute_b(fn_of("ramp"), [1.0], [-1.0], 0.75)
    assert rec.lam_b == pytest.approx(1.0, abs=1e-15)
    assert rec.weak
    assert not rec.strict
    assert rec.strict_violated


def test_compute_b_rejects_bad_lambda():
    with pytest.raises(ValueError):
        compute_b(fn_of("affine"), [0.0, 0.0], [1.0, 1.0], 0.0)


# -- cross-check of b through the subdifferential --------------------------------


def test_cross_check_worked_example():
    xi = np.array([-4.0 / 9.0, 2.0 / 3.0])  # gradient at z = (1.5, 1)
    res = cross_check_b_via_subdifferential(
        fn_of("fractional"), [1.0, 0.0], [2.0, 2.0], 0.5, est(xi)
    )
    assert res.outcome == PASS
    assert res.b_direct == pytest.approx(4.0 / 3.0)
    assert res.b_generators[0] == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_cross_check_affine():
    res = cross_check_b_via_subdifferential(
        fn_of("affine"), [0.5, 0.1], [-0.5, -0.3], 0.25, est([1.25, -0.75])
    )
    assert res.outcome == PASS
    assert res.b_direct == pytest.approx(1.0)


def test_cross_check_equal_values_inconclusive():
    res = cross_check_b_via_subdifferential(
        fn_of("affine"), [0.0, 0.0], [0.75 * 0.8, 1.25 * 0.8], 0.5,
        est([1.25, -0.75]),
    )
    assert res.outcome == INCONCLUSIVE


def test_cross_check_generator_independence_fractional():
    fn = fn_of("fractional")
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = np.array([rng.uniform(0.3, 1.8), rng.uniform(-0.8, 0.8)])
        y = np.array([rng.uniform(0.3, 1.8), rng.uniform(-0.8, 0.8)])
        lam = rng.uniform(0.1, 0.9)
        z = x + lam * (y - x)
        fx, fy, fz = fn.value(x), fn.value(y), fn.value(z)
        if min(abs(fy - fx), abs(fz - fx), abs(fz - fy)) < 1e-3:
            continue
        res = cross_check_b_via_subdifferential(fn, x, y, lam, est(fn.grad(z)))
        assert res.outcome == PASS


# -- q limit ---------------------------------------------------------------------


def test_q_limit_fractional_matches_coordinate_ratio():
    q = estimate_q_limit(fn_of("fractional"), [1.0, 0.0], [2.0, 2.0])
    assert q.converged
    assert q.limit == pytest.approx(2.0, abs=1e-6)
    assert q.closed_form == pytest.approx(2.0, rel=1e-12)


def test_q_limit_affine_is_one():
    q = estimate_q_limit(fn_of("affine"), [0.4, 0.1], [-0.2, -0.6])
    assert q.limit == pytest.approx(1.0, abs=1e-9)


def test_q_limit_arctan_four_over_pi():
    q = estimate_q_limit(fn_of("arctan"), [0.0], [1.0])
    assert q.limit == pytest.approx(4.0 / np.pi, abs=1e-4)
    assert q.closed_form == pytest.approx(4.0 / np.pi, rel=1e-12)


def test_q_limit_rejects_equal_values():
    with pytest.raises(ValueError):
        estimate_q_limit(fn_of("affine"), [0.0, 0.0], [0.75 * 0.8, 1.25 * 0.8])


# -- kernel conditions -------------------------------------------------------------


def test_gradient_kernel_cubic_refutes():
    check = check_gradient_kernel(fn_of("cubic"), [0.0], [0.5], [0.0])
    assert check.outcome == FAIL
    assert check.residual == pytest.approx(0.125)
    assert check.credible


def test_gradient_kernel_fractional_equal_ratio_ray():
    check = check_gradient_kernel(
        fn_of("fractional"), [1.0, 0.0], [2.0, 0.0], [0.0, 1.0]
    )
    assert check.outcome == PASS


def test_gradient_kernel_affine():
    # Kernel directions of c keep an affine function constant.
    x = np.array([0.1, 0.1])
    d = np.array([0.75, 1.25])  # orthogonal to (1.25, -0.75)
    check = check_gradient_kernel(fn_of("affine"), x, x + 0.3 * d, [1.25, -0.75])
    assert check.outcome == PASS


def test_gradient_kernel_vacuous_off_kernel():
    check = check_gradient_kernel(fn_of("cubic"), [0.5], [-0.5], [0.75])
    assert check.outcome == VACUOUS


def test_subdiff_kernel_twoslope_vacuous_in_1d():
    sub = est([1.0], [2.0], at_kink=True)
    res = check_subdiff_kernel_pair(
        fn_of("twoslope"), [0.0], [0.5], sub, est([-1.0], [-2.0], at_kink=True)
    )
    assert res.overall.outcome == VACUOUS
    assert res.lower == VACUOUS and res.upper == VACUOUS


def test_subdiff_kernel_cubic_zero_gradient_fails():
    res = check_subdiff_kernel_pair(
        fn_of("cubic"), [0.0], [-0.5], est([0.0]), est([0.0])
    )
    assert res.overall.outcome == FAIL
    assert res.lower == FAIL


def test_subdiff_kernel_affine_passes():
    x = np.array([0.0, 0.0])
    d = np.array([0.75, 1.25])
    res = check_subdiff_kernel_pair(
        fn_of("affine"), x, 0.4 * d, est([1.25, -0.75]), est([-1.25, 0.75])
    )
    assert res.overall.outcome == PASS


# -- consistency properties ---------------------------------------------------------


def test_b_consistency_smooth_member():
    fn = fn_of("fractional")
    rng = np.random.default_rng(17)
    done = 0
    while done < 200:
        x = np.array([rng.uniform(0.3, 1.8), rng.uniform(-0.8, 0.8)])
        y = np.array([rng.uniform(0.3, 1.8), rng.uniform(-0.8, 0.8)])
        lam = rng.uniform(0.05, 0.95)
        z = x + lam * (y - x)
        fx, fy, fz = fn.value(x), fn.value(y), fn.value(z)
        if min(abs(fy - fx), abs(fz - fx), abs(fz - fy)) < 1e-3:
            continue
        res = cross_check_b_via_subdifferential(fn, x, y, lam, est(fn.grad(z)))
        assert res.outcome == PASS
        assert res.residual <= 1e-6 * (1.0 + abs(res.b_direct))
        done += 1


def test_b_consistency_nonsmooth_member():
    fn = fn_of("twoslope")
    rng = np.random.default_rng(23)
    done = 0
    while done < 200:
        x = np.array([rng.uniform(-0.9, 0.9)])
        y = np.array([rng.uniform(-0.9, 0.9)])
        lam = rng.uniform(0.05, 0.95)
        z = x + lam * (y - x)
        if abs(z[0]) < 1e-6 or abs(x[0] - y[0]) < 1e-3:
            continue
        fx, fy, fz = fn.value(x), fn.value(y), fn.value(z)
        if min(abs(fy - fx), abs(fz - fx), abs(fz - fy)) < 1e-3:
            continue
        res = cross_check_b_via_subdifferential(
            fn, x, y, lam, est(fn.grad(z)), tolerance=1e-4
        )
        assert res.outcome == PASS
        done += 1


def test_degenerate_band_keeps_segment_flat_for_quasilinear():
    # Equal endpoint values on a certified-quasilinear member: the whole
    # segment stays inside the band.
    fn = fn_of("affine")
    x = np.array([0.0, 0.0])
    y = 0.8 * np.array([0.75, 1.25])
    fx, fy = fn.value(x), fn.value(y)
    assert abs(fy - fx) <= eps_strict(fx, fy)
    for lam in LAM_GRID:
        z = x + lam * (y - x)
        assert abs(fn.value(z) - fx) <= eps_strict(fx, fy)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(-0.9, 0.9), st.floats(-0.9, 0.9), st.floats(0.01, 0.99),
    st.sampled_from(["affine", "fractional", "arctan", "cubic", "twoslope"]),
)
def test_strict_b_implies_weak_b(a, b, lam, name):
    entry = corpus_entry(name)
    if entry.handle.dimension == 2:
        x = np.array([1.0 + a / 2.0, b / 2.0])
        y = np.array([1.0 + b / 3.0, a / 3.0])
    else:
        x, y = np.array([a]), np.array([b])
    if np.array_equal(x, y):
        return
    rec = compute_b(entry.handle, x, y, lam)
    if rec.strict:
        assert rec.weak


@settings(max_examples=200, deadline=None)
@given(st.floats(-0.85, 0.85), st.floats(-0.85, 0.85))
def test_pseudoconvex_pass_implies_weak_monotone_pass(a, b):
    fn = fn_of("arctan")
    x, y = np.array([3 * a]), np.array([3 * b])
    if np.array_equal(x, y):
        return
    sub = est(fn.grad(x))
    fx, fy = fn.value(x), fn.value(y)
    if not (fy < fx - eps_strict(fx, fy)):
        return
    first = check_pseudoconvex_pair(fn, x, y, sub)
    if first.outcome == PASS:
        assert check_weak_monotone_pair(fn, x, y, sub).outcome == PASS


# -- margins: the score counterexample refinement climbs ----------------------


@pytest.mark.parametrize("name", ["cubic", "ramp", "paraboloid", "fractional"])
def test_margin_is_residual_when_failing_and_nonpositive_when_passing(name):
    entry = corpus_entry(name)
    fn = entry.handle
    points = sample_region(entry.region, 60, seed=11)
    # Axis-aligned partners hit the kernel and flat-piece cases as well.
    partners = points[30:] + [np.where(np.arange(fn.dimension) == 0, p, 0.0) for p in points[:30]]
    checked = 0
    for x, y in zip(points[:30] * 2, partners):
        if np.array_equal(x, y):
            continue
        sub = est(*(g for g in [fn.grad(x)] if g is not None), [0.0] * fn.dimension)
        checks = [
            check_quasiconvex_segment(fn, x, y, LAM_GRID),
            check_semistrict_quasiconvex_segment(fn, x, y, LAM_GRID),
            check_interlacing(fn, x, y, LAM_GRID),
            check_pseudoconvex_pair(fn, x, y, sub),
            check_weak_monotone_pair(fn, x, y, sub),
            check_subdiff_kernel_pair(fn, x, y, sub, est(*(-g for g in sub.generators))).overall,
            # Ascending pairs as well as descending ones.
            check_interpolation_bounds(fn, x, y, 0.25, strict=True),
        ]
        for check in checks:
            if check.outcome == FAIL:
                assert check.margin == check.residual, check
            elif check.outcome == PASS:
                assert check.margin <= 0.0, check
            checked += check.outcome in (FAIL, PASS)
    assert checked > 100
