import re
import string
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gencvx import campaign, corpus, corpus_entry, function_from_expression
from gencvx.checks import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    PREDICATES,
    VACUOUS,
    Check,
    Generators,
    Request,
    dots,
    check_gradient_kernel,
    check_interlacing,
    check_interpolation_bounds,
    check_pseudoconvex_pair,
    check_quasiconvex_segment,
    check_semistrict_quasiconvex_segment,
    check_subdiff_kernel_pair,
    check_symmetric_equality,
    check_symmetric_inequality,
    check_requests,
    check_weak_monotone_pair,
    compute_b,
    compute_p,
    cross_check_b_via_subdifferential,
    eps_strict,
    estimate_q_limit,
    kernel_rows,
    noise_floor,
    read_rule,
    verify_p_identity,
)
from gencvx.functions import negate_handle
from gencvx.geometry import sample_region, segment_point
from gencvx.nonsmooth import EstimationError, SubdifferentialEstimate, subdifferential

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


def test_noise_floor_is_relative():
    assert noise_floor(0.0, 0.0) == 0.0
    assert noise_floor(1e-3, -1e-13) == pytest.approx(1e-15)


def test_interlacing_tiny_strict_values_are_no_tie():
    # f(y) = -1e-13 and every interior value lies strictly above it: floats
    # resolve values this small, so nothing is pinned and nothing refutes.
    fn = function_from_expression("0.001*max(x1, 0) + 1e-13*min(x1, 0)", 1)
    check = check_interlacing(fn, [1.0], [-1.0], LAM_GRID)
    assert check.outcome == INCONCLUSIVE


@pytest.mark.parametrize("source, x, y, kernel", [
    ("0.001*max(x1, 0) - 1e-13", [1.0], [-1.0], check_interlacing),
    ("-0.001*max(x1, 0) - 1e-13", [-1.0], [1.0], check_semistrict_quasiconvex_segment),
], ids=["interlacing", "semistrict"])
def test_exact_tie_at_tiny_scale_fails(source, x, y, kernel):
    # The flat piece sits at -1e-13: an exact tie pins at any scale.
    fn = function_from_expression(source, 1)
    check = kernel(fn, x, y, LAM_GRID)
    assert check.outcome == FAIL and check.credible
    assert check.fz == -1e-13


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


def _symmetric_by_compute_p(fn, x, y, gxs, gys):
    """check_symmetric_inequality's outcome and residual or margin, with p
    read by compute_p for each generator pair."""
    fx, fy = fn.values(np.stack([x, y]))
    eps, sums = eps_strict(fx, fy), []
    for g in gxs:
        for h in gys:
            s = sum((pv.p if not pv.band and pv.positive else 1.0) * pv.denominator
                    for pv in (compute_p(fn, x, y, g), compute_p(fn, y, x, h)))
            if s > eps:
                return FAIL, s
            sums.append(s)
    return PASS, max(sums) - eps


@pytest.mark.parametrize("gys, outcome", [
    ([[0.4, 0.9], [0.0, 1.0], [1.0, 0.5]], PASS),
    ([[0.4, 0.9], [-3.0, 0.0]], FAIL),  # p < 0 at y: p = 1 and S = 1/3 + 1.5
])
def test_symmetric_inequality_reads_f_once(gys, outcome):
    # One two-row read of f for the pair, whatever the generators, and the
    # sums compute_p gives, bit for bit: a valid p, one in the band and a
    # nonpositive one at x.
    entry = corpus_entry("fractional")
    reads = []

    def counted(points):
        reads.append(len(points))
        return entry.handle.evaluate_rows(points)

    fn = replace(entry.handle, evaluate_rows=counted)
    x, y = np.array([1.0, 0.0]), np.array([1.5, 0.5])
    gxs = [[0.3, 1.1], [-0.5, 0.5], [1.0, -2.0]]
    check = check_symmetric_inequality(fn, x, y, est(*gxs), est(*gys))
    assert reads == [2]
    want, value = _symmetric_by_compute_p(entry.handle, x, y, gxs, gys)
    assert (check.outcome, check.residual if want == FAIL else check.margin) == (outcome, value)
    assert want == outcome


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


def test_cross_check_nonpositive_q_inconclusive():
    # z = (0.05, 0.2) lies below both ends of the paraboloid's pair, and
    # its gradient (0.1, 0.4) has <xi, x - y> = -0.21 < 0 while f(x) > f(z):
    # q(z, x) is negative, so b has no subdifferential route here.
    e = corpus_entry("paraboloid")
    x, y = np.array([-0.6, 0.1]), np.array([0.7, 0.3])
    sub = subdifferential(e.handle, e.region, segment_point(x, y, 0.5), radius=1e-5, count=9, seed=1)
    res = cross_check_b_via_subdifferential(e.handle, x, y, 0.5, sub)
    assert (res.outcome, res.b_generators, res.residual, res.detail) == (
        INCONCLUSIVE, (), 0.0, "q-factor not positive; p undefined here")


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
# A subnormal gap f(y) - f(x): its margins on the lam*b scale overflow, unread.
@example(a=0.0, b=1.051010365959842e-107, lam=0.5, name="cubic")
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


# -- row kernels against the scalar loops they replaced ------------------------
#
# Each reference reads f one point at a time and walks the lambdas in grid
# order, as the checks did before they became row kernels.  It returns
# (outcome, margin, residual, lam, fz, threshold, detail).


def _ref_quasiconvex(fn, x, y, lams):
    fx, fy = fn.value(x), fn.value(y)
    eps = eps_strict(fx, fy)
    top = max(fx, fy)
    worst, bump = None, -np.inf
    for lam, z in zip(lams, segment_point(x, y, lams)):
        fz = fn.value(z)
        if 0.0 < lam < 1.0:
            bump = max(bump, fz - top)
        if fz > top + eps and (worst is None or fz > worst[1]):
            worst = (lam, fz)
    margin = bump if bump > eps else bump - eps
    if worst is None:
        return PASS, margin, 0.0, None, None, np.inf, ""
    lam, fz = worst
    return (FAIL, margin, fz - top, lam, fz, 100 * eps,
            "interior value exceeds endpoint maximum")


def _ref_descent(fn, x, y, lams, two_sided):
    fx, fy = fn.value(x), fn.value(y)
    eps, eta = eps_strict(fx, fy), noise_floor(fx, fy)
    if not (fy < fx - eps):
        return VACUOUS, -1000.0 - (fy - fx), 0.0, None, None, np.inf, ""
    gap, near_tie, worst, margin = fx - fy, None, None, -np.inf
    lams = [lam for lam in lams if 0.0 < lam < 1.0]
    for lam, z in zip(lams, segment_point(x, y, lams)):
        fz = fn.value(z)
        pinned = fz >= fx - eta or (two_sided and fz <= fy + eta)
        if pinned:
            r = gap * min(lam, 1.0 - lam)
            margin = max(margin, r)
            if worst is None or r > worst[0]:
                worst = (r, lam, fz)
        else:
            margin = max(margin, max(fz - fx, fy - fz) if two_sided else fz - fx)
            if not ((fy + eps < fz or not two_sided) and fz < fx - eps):
                near_tie = lam
    if worst is not None:
        r, lam, fz = worst
        if two_sided:
            side = "below f(y)" if fz <= fy + eta else "above f(x)"
            detail = f"interior value {fz:.6g} pinned {side}"
        else:
            detail = f"f(z) = {fz:.6g} does not descend below f(x) = {fx:.6g}"
        return FAIL, margin, gap * min(lam, 1.0 - lam), lam, fz, 100 * eps, detail
    if near_tie is not None:
        detail = ("interior value inside the strictness band" if two_sided
                  else "descent inside the strictness band")
        return INCONCLUSIVE, margin, 0.0, near_tie, None, np.inf, detail
    return PASS, margin, 0.0, None, None, np.inf, ""


def _ref_bounds(fn, x, y, lam, strict):
    rec = compute_b(fn, x, y, lam)
    fx, fy, fz = rec.fx, rec.fy, rec.fz
    gap, eps, eta = abs(fy - fx), eps_strict(fx, fy), noise_floor(fx, fy)
    lo, hi = min(fx, fy), max(fx, fy)
    if gap <= eps:
        margin = -1000.0
    elif fz <= lo + eta or fz >= hi - eta:
        margin = gap * min(lam, 1.0 - lam)
    else:
        margin = max(fz - hi, lo - fz)
    if rec.degenerate:
        return VACUOUS, margin, 0.0, lam, fz, np.inf, ""
    if rec.strict if strict else rec.weak:
        return PASS, margin, 0.0, lam, fz, np.inf, ""
    if rec.strict_violated if strict else rec.weak_violated:
        return (FAIL, margin, gap * min(lam, 1.0 - lam), lam, fz, 100 * eps,
                f"lambda*b = {rec.lam_b:.9g} outside the required range")
    return (INCONCLUSIVE, margin, 0.0, lam, fz, np.inf,
            f"lambda*b = {rec.lam_b:.9g} pinned at a bound")


# Beside the corpus members: a plateau, where segment values tie with each
# other and with an endpoint; twin peaks, whose ties from x to y = -x weigh
# the same at lambda 15/32 and 17/32; and a slope so small that descents fall
# inside the eps band.  So ties and near-ties meet the kernels' tie rules.
_KERNEL_EXTRA = {
    "plateau": "min(1 - abs(x1), 0.5)",
    "twin-peaks": "-abs(abs(x1) - 0.5) - 0.01*x1",
    "tiny-slope": "1e-6*x1",
}


def _kernel_case(name):
    """A handle, and sampled pairs, pairs of equal value and pairs on flat
    pieces."""
    if name in _KERNEL_EXTRA:
        fn = function_from_expression(_KERNEL_EXTRA[name], 1, name=name)
        points = [np.array([v]) for v in np.linspace(-0.95, 0.95, 24)[np.r_[0:24:2, 1:24:2]]]
    else:
        fn = fn_of(name)
        points = sample_region(corpus_entry(name).region, 24, seed=5)
    pairs = list(zip(points[:12], points[12:]))
    pairs += [(y, x) for x, y in pairs[:4]]
    if name == "affine":  # f is constant along (0.75, 1.25)
        pairs += [(p, p + 0.4 * np.array([0.75, 1.25])) for p in points[:4]]
    elif name == "fractional":  # and along rays from the origin
        pairs += [(p, 1.3 * p) for p in points[:4]]
    else:
        pairs += [(np.array([a]), np.array([b])) for a, b in (
            (-0.8, -0.2), (-0.6, 0.5), (0.5, -0.6), (-0.3, 0.0), (-0.4, 0.4), (0.9, -0.1),
            (-0.9, 0.9), (0.0, 0.9), (0.2, -0.9), (-1.0, 1.0))]
    return fn, pairs


def _same(row, ref):
    got = (row.outcome, row.margin, row.residual, row.lam, row.fz, row.threshold, row.detail)
    assert got == ref, (got, ref)


@pytest.mark.parametrize("name", ["affine", "ramp", "fractional", *_KERNEL_EXTRA])
@pytest.mark.parametrize("negated", [False, True])
def test_row_kernels_match_the_scalar_loops(name, negated):
    fn, pairs = _kernel_case(name)
    fn = negate_handle(fn) if negated else fn
    xs, ys = (np.array(side) for side in zip(*pairs))
    lams = list(LAM_GRID)
    seen = set()
    for predicate, wrapper, ref in (
        ("quasiconvex-segment", check_quasiconvex_segment,
         lambda x, y: _ref_quasiconvex(fn, x, y, lams)),
        ("semistrict-quasiconvex-segment", check_semistrict_quasiconvex_segment,
         lambda x, y: _ref_descent(fn, x, y, lams, False)),
        ("interlacing-segment", check_interlacing,
         lambda x, y: _ref_descent(fn, x, y, lams, True)),
    ):
        (rows,) = check_requests(fn, [Request(predicate, xs, ys, LAM_GRID)])
        for i, (x, y) in enumerate(pairs):
            expected = ref(x, y)
            _same(rows.check(i, x, y), expected)
            _same(wrapper(fn, x, y, LAM_GRID), expected)
            seen.add((predicate, expected[0]))
    sweep = np.array(lams[1:-1])
    for strict in (True, False):
        predicate = "interpolation-strict-bounds" if strict else "interpolation-weak-bounds"
        (rows,) = check_requests(fn, [Request(
            predicate, np.repeat(xs, len(sweep), axis=0), np.repeat(ys, len(sweep), axis=0),
            np.tile(sweep, len(pairs))[:, None])])
        for i, (x, y) in enumerate(pairs):
            for j, lam in enumerate(sweep):
                ref = _ref_bounds(fn, x, y, lam, strict)
                _same(rows.check(i * len(sweep) + j, x, y), ref)
                _same(check_interpolation_bounds(fn, x, y, lam, strict), ref)
                seen.add((predicate, ref[0]))
    with pytest.raises(ValueError):  # rows that neither match nor broadcast
        check_requests(fn, [Request("quasiconvex-segment", xs[:3], ys[:2], LAM_GRID)])
    outcomes = {outcome for _, outcome in seen}
    assert {PASS, VACUOUS} <= outcomes
    if name == "ramp":
        assert {("interlacing-segment", FAIL), ("interpolation-weak-bounds", FAIL)} <= seen
    if name == "plateau":
        assert negated or {("quasiconvex-segment", FAIL),
                           ("semistrict-quasiconvex-segment", FAIL)} <= seen
    if name == "tiny-slope":
        assert {("interlacing-segment", INCONCLUSIVE),
                ("interpolation-strict-bounds", INCONCLUSIVE)} <= seen


# -- generator kernels against the scalar loops they replaced -------------------
#
# Each reference reads f one point at a time and walks the generators in
# estimate order, as the checks did before they became row kernels, and
# reads an estimate's generators only where the loop reaches them.


def _ref_pseudoconvex(fn, x, y, sub_x):
    fx, fy = fn.value(x), fn.value(y)
    if not (fy < fx - eps_strict(fx, fy)):
        return Check("pseudoconvex-pair", x, y, fx, fy, VACUOUS, margin=-1000.0 - (fy - fx))
    eps = eps_strict(fx, fy)
    worst = -np.inf
    for k, g in enumerate(sub_x.generators):
        v = float(np.dot(g, y - x))
        if not (v < -eps):
            return Check("pseudoconvex-pair", x, y, fx, fy, FAIL, residual=fx - fy,
                         threshold=100 * eps, generator=g, generator_index=k,
                         detail=f"<g, y-x> = {v:.6g} is not below -eps", margin=fx - fy)
        worst = max(worst, v)
    return Check("pseudoconvex-pair", x, y, fx, fy, PASS, margin=worst + eps)


def _ref_p(fn, x, y, g):
    fx, fy = fn.value(x), fn.value(y)
    num, den = fy - fx, float(np.dot(g, y - x))
    if abs(den) <= eps_strict(fx, fy):
        return 1.0, True, num, den
    return num / den, False, num, den


def _ref_nonpositive(num, den, eps):
    return min(abs(num), abs(den)) if abs(num) > eps else abs(den)


def _ref_proportional_margin(check, sub_x):
    gap = abs(check.fy - check.fx)
    if gap <= 3.0 * eps_strict(check.fx, check.fy):
        margin = -1000.0 + gap
    elif check.outcome == FAIL:
        margin = check.residual
    else:
        margin = -min(abs(float(np.dot(g, check.y - check.x))) for g in sub_x.generators)
    return replace(check, margin=margin)


def _ref_identity(fn, x, y, sub_x):
    fx, fy = fn.value(x), fn.value(y)
    eps = eps_strict(fx, fy)
    out = Check("proportional-identity", x, y, fx, fy, PASS)
    for k, g in enumerate(sub_x.generators):
        p, band, num, den = _ref_p(fn, x, y, g)
        r = abs(num - p * den)
        fail = dict(threshold=100 * eps, generator=g, generator_index=k)
        if band:
            if r > eps:
                out = Check("proportional-identity", x, y, fx, fy, FAIL, residual=abs(num),
                            detail="<g, y-x> vanishes while the values differ", **fail)
                break
            continue
        if not p > 0.0:
            out = Check("proportional-identity", x, y, fx, fy, FAIL,
                        residual=_ref_nonpositive(num, den, eps),
                        detail=f"proportional factor p = {p:.6g} is not positive", **fail)
            break
        if r > eps:
            out = Check("proportional-identity", x, y, fx, fy, FAIL, residual=r,
                        detail="identity residual above margin", **fail)
            break
    return _ref_proportional_margin(out, sub_x)


def _ref_symmetric(fn, x, y, sub_x, sub_y):
    fx, fy = fn.value(x), fn.value(y)
    eps = eps_strict(fx, fy)
    limit = 100 * eps

    def failed(residual, g, k, detail):
        return Check("symmetric-equality", x, y, fx, fy, FAIL, residual=residual,
                     threshold=limit, generator=g, generator_index=k, detail=detail)

    out, saw_band = None, False
    for k, g in enumerate(sub_x.generators):
        p1, band1, num1, den1 = _ref_p(fn, x, y, g)
        if not band1 and not p1 > 0.0:
            out = failed(_ref_nonpositive(num1, den1, eps), g, k,
                         f"forward proportional factor p = {p1:.6g} is not positive")
            break
        for j, h in enumerate(sub_y.generators):
            p2, band2, num2, den2 = _ref_p(fn, y, x, h)
            if not band2 and not p2 > 0.0:
                out = failed(_ref_nonpositive(num2, den2, eps), h, j,
                             f"reverse proportional factor p = {p2:.6g} is not positive")
                break
            s = p1 * den1 + p2 * den2
            if band1 or band2:
                saw_band = True
                if abs(s) > limit:
                    out = failed(abs(s), g, k, "symmetric sum large despite a vanishing pairing")
                    break
                continue
            if abs(s) > eps:
                out = failed(abs(s), g, k, f"symmetric sum S = {s:.6g} is nonzero")
                break
        if out is not None:
            break
    if out is None:
        out = (Check("symmetric-equality", x, y, fx, fy, INCONCLUSIVE,
                     detail="pairing inside the equality band; sum not decidable")
               if saw_band else Check("symmetric-equality", x, y, fx, fy, PASS))
    return _ref_proportional_margin(out, sub_x)


def _ref_gradient_kernel(fn, x, y, g):
    fx, fy = fn.value(x), fn.value(y)
    eps = eps_strict(fx, fy)
    d = float(np.dot(g, y - x))
    if abs(d) > eps:
        return Check("gradient-kernel", x, y, fx, fy, VACUOUS, margin=-abs(d))
    gap = abs(fy - fx)
    if gap > eps:
        return Check("gradient-kernel", x, y, fx, fy, FAIL, residual=gap, threshold=100 * eps,
                     generator=g, generator_index=0,
                     detail="kernel direction changes the value", margin=gap)
    return Check("gradient-kernel", x, y, fx, fy, PASS, margin=gap - eps)


def _ref_kernel_at(fn, x, y, ests):
    """The gradient kernel condition's reference on the estimate at x: the
    gradient loop on a one-generator estimate, else the subdifferential
    loops with the gradient notes, naming the generator of f."""
    gens = ests.at(x).generators
    if len(gens) == 1:
        return _ref_gradient_kernel(fn, x, y, gens[0])
    want = _ref_subdiff_kernel(fn, x, y, ests.at(x), ests.at(x, negated=True))[0]
    upper = want.detail.endswith("f(y) <= f(x)")
    return replace(want, predicate="gradient-kernel",
                   detail="kernel direction changes the value" if want.outcome == FAIL else "",
                   generator=-want.generator if upper else want.generator)


def _ref_subdiff_kernel(fn, x, y, sub_x, sub_neg_x):
    fx, fy = fn.value(x), fn.value(y)
    eps, gap, d = eps_strict(fx, fy), abs(fy - fx), y - x
    closest = min(abs(float(np.dot(g, d))) for g in (*sub_x.generators, *sub_neg_x.generators))
    margin = -closest if closest > eps else (gap if gap > eps else gap - eps)

    def side(gens, lower):
        for k, g in enumerate(gens):
            if abs(float(np.dot(g, d))) > eps:
                continue
            if (fy < fx - eps) if lower else (fy > fx + eps):
                which = "f(y) >= f(x)" if lower else "f(y) <= f(x)"
                return FAIL, Check("subdifferential-kernel", x, y, fx, fy, FAIL, residual=gap,
                                   threshold=100 * eps, generator=g, generator_index=k,
                                   detail=f"kernel generator violates {which}", margin=margin)
            return PASS, None
        return VACUOUS, None

    low, fail = side(sub_x.generators, True)
    up, fail_up = side(sub_neg_x.generators, False)
    fail = fail or fail_up
    combined = PASS if PASS in (low, up) else VACUOUS
    return (fail or Check("subdifferential-kernel", x, y, fx, fy, combined, margin=margin)), low, up


class _Estimates:
    """Generator sets by point, read lazily: a point mapped to an error
    raises it whenever its generators are read."""

    def __init__(self, table):
        self.table = table

    def at(self, point, negated=False):
        sets = self

        class Lazy:
            @property
            def generators(self):
                got = sets.table[np.asarray(point, dtype=float).tobytes()]
                if isinstance(got, Exception):
                    raise type(got)(*got.args)
                return tuple(-g for g in got) if negated else got

        return Lazy()

    def rows(self, points):
        return Generators.of([self.table[p.tobytes()] for p in points], points.shape[1])


def _same_check(got, want):
    """Every field of two Checks, arrays and floats by their bytes."""
    def fields(c):
        g = None if c.generator is None else np.asarray(c.generator, dtype=float).tobytes()
        return (c.predicate, c.x.tobytes(), c.y.tobytes(), c.fx, c.fy, c.outcome, c.residual,
                c.threshold, g, c.generator_index, c.lam, c.fz, c.detail,
                np.float64(c.margin).tobytes())
    assert fields(got) == fields(want), (fields(got), fields(want))


def _outcome_of(call):
    try:
        return call(), None
    except EstimationError as exc:
        return None, str(exc)


_GEN_SOURCES = [(e.handle, e.region) for e in corpus()] + [
    (function_from_expression("max(x1, x2) - abs(x1)", 2), None)]
# Coordinates where values tie (abs, max, flat pieces) and pairings vanish.
_GEN_COORDS = st.sampled_from([-1.0, -0.5, -0.25, 0.0, -0.0, 0.25, 0.5, 0.75, 1.0])


@st.composite
def _generator_case(draw):
    """A handle (f or -f), k rows of pairs, generator sets at their points
    (some several generators, some orthogonal to a row's y - x, some failed)
    and a gradient at x for every row.  Some rows' gradients are also the
    one-generator estimate at a fresh point, the x of an added row that
    keeps the y and the gradient of its row."""
    fn, region = draw(st.sampled_from(_GEN_SOURCES))
    if draw(st.booleans()):
        fn = negate_handle(fn)
    n, k = fn.dimension, draw(st.integers(1, 6))

    def inside(p):
        if region is not None and not region.contains(p):
            p = np.array([draw(st.floats(0.1, 2.0)), *p[1:]])  # fractional's half-plane
        return p

    def point():
        return inside(np.array([draw(st.one_of(_GEN_COORDS, st.floats(-1, 1))) for _ in range(n)]))

    xs = np.array([point() for _ in range(k)])
    # Half the partners mirror x, which ties the values of even functions.
    ys = np.array([point() if draw(st.booleans()) else inside(-x[::-1]) for x in xs])
    table = {}
    for i, p in enumerate([*xs, *ys]):
        key = p.tobytes()
        if key in table:
            continue
        if draw(st.integers(0, 9)) == 0:
            table[key] = EstimationError(f"failed near {p}")
            continue
        gens = []
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["grad", "coords", "normal", "band"]))
            g = fn.grad(p) if kind == "grad" else None
            if g is None or kind == "coords":
                g = np.array([draw(_GEN_COORDS) for _ in range(n)])
            if kind == "normal":
                g = np.array([draw(st.floats(-3, 3)) for _ in range(n)])
            if kind == "band":
                d = ys[i % k] - xs[i % k]
                if d @ d > 0:
                    g = g - d * (g @ d) / (d @ d)
            gens.append(np.asarray(g, dtype=float))
        table[key] = tuple(gens)
    grads = np.array([np.array([draw(_GEN_COORDS) for _ in range(n)]) for _ in range(k)])
    added = []
    for y, g in zip(ys, grads):
        x = point()
        if draw(st.booleans()) and x.tobytes() not in table and not np.array_equal(x, y):
            table[x.tobytes()] = (g,)
            added.append((x, y, g))
    if added:
        more = [np.array(column) for column in zip(*added)]
        xs, ys, grads = (np.concatenate([a, b]) for a, b in zip((xs, ys, grads), more))
    return fn, xs, ys, _Estimates(table), grads


@settings(max_examples=300, deadline=None)
@given(_generator_case())
def test_generator_kernels_match_the_scalar_loops(case):
    fn, xs, ys, ests, grads = case
    rows = {
        name: check_requests(fn, [Request(name, xs, ys)], ests.rows)[0]
        for name in ("pseudoconvex-pair", "proportional-identity", "symmetric-equality",
                     "gradient-kernel")
    }
    for i, (x, y) in enumerate(zip(xs, ys)):
        refs = {
            "pseudoconvex-pair": lambda: _ref_pseudoconvex(fn, x, y, ests.at(x)),
            "proportional-identity": lambda: _ref_identity(fn, x, y, ests.at(x)),
            "symmetric-equality": lambda: _ref_symmetric(fn, x, y, ests.at(x), ests.at(y)),
            "gradient-kernel": lambda: _ref_kernel_at(fn, x, y, ests),
        }
        for name, ref in refs.items():
            want, error = _outcome_of(ref)
            got, got_error = _outcome_of(lambda: rows[name].check(i, x, y))
            assert got_error == error, name
            if error is None:
                _same_check(got, want)
                assert rows[name].margin[i] == want.margin
            else:
                assert i in rows[name].failed and np.isnan(rows[name].margin[i])
    # The one-row wrappers run the same kernels on given estimates.
    for i, (x, y) in enumerate(zip(xs, ys)):
        sub_x, sub_y = ests.at(x), ests.at(y)
        if any(isinstance(ests.table[p.tobytes()], Exception) for p in (x, y)):
            continue
        neg_x = est(*(-g for g in sub_x.generators))
        sub_x, sub_y = est(*sub_x.generators), est(*sub_y.generators)
        _same_check(check_pseudoconvex_pair(fn, x, y, sub_x), _ref_pseudoconvex(fn, x, y, sub_x))
        _same_check(verify_p_identity(fn, x, y, sub_x), _ref_identity(fn, x, y, sub_x))
        _same_check(check_symmetric_equality(fn, x, y, sub_x, sub_y),
                    _ref_symmetric(fn, x, y, sub_x, sub_y))
        _same_check(check_gradient_kernel(fn, x, y, grads[i]),
                    _ref_gradient_kernel(fn, x, y, grads[i]))
        got = check_subdiff_kernel_pair(fn, x, y, sub_x, neg_x)
        want, low, up = _ref_subdiff_kernel(fn, x, y, sub_x, neg_x)
        _same_check(got.overall, want)
        assert (got.lower, got.upper) == (low, up)


@pytest.mark.parametrize("name", ["affine", "ramp", "fractional", *_KERNEL_EXTRA])
def test_rows_on_f_and_on_minus_f_in_one_call_equal_the_negated_handle(name):
    # A per-row mask puts rows on f and on -f in one call: f is read in the
    # call's usual number of values calls, and each row equals its one-row
    # run on negate_handle(f) with the generators negated, bit for bit, a
    # failed estimate included.  Every kernel gives its note codes as ints.
    fn, pairs = _kernel_case(name)
    xs, ys = (np.array(side) for side in zip(*pairs))
    negated = np.arange(len(xs)) % 3 == 1
    table = {p.tobytes(): (p if fn.grad(p) is None else fn.grad(p), 0.5 * p - 0.25)
             for p in np.concatenate([xs, ys])}
    table[xs[4].tobytes()] = EstimationError(f"failed near {xs[4]}")

    def generators(sign):
        return lambda points: Generators.of(
            [got if isinstance(got, Exception) else tuple(sign * g for g in got)
             for got in (table[p.tobytes()] for p in points)], points.shape[1])

    reads = []

    def counted(points):
        reads.append(len(points))
        return fn.evaluate_rows(points)

    once = replace(fn, evaluate_rows=counted)
    for predicate, record in PREDICATES.items():
        lams = np.full((len(xs), 1), 0.25) if "bounds" in predicate else LAM_GRID
        reads.clear()
        grid = lams if record.segment else None
        (rows,) = check_requests(once, [Request(predicate, xs, ys, grid, negated)], generators(1.0))
        assert len(reads) == (2 if record.segment else 1)
        assert rows.note.dtype.kind == "i", predicate
        for i, (x, y, neg) in enumerate(zip(xs, ys, negated)):
            handle = negate_handle(fn) if neg else fn
            if record.segment:
                grid = lams[i:i + 1] if lams.ndim > 1 else lams
            (one,) = check_requests(handle, [Request(predicate, x, y, grid)],
                                    generators(-1.0 if neg else 1.0))
            got, error = _outcome_of(lambda: rows.check(i, x, y))
            want, want_error = _outcome_of(lambda: one.check(0, x, y))
            assert error == want_error, (predicate, i)
            if want is not None:
                _same_check(got, want)
    assert negated.any() and not negated.all()


@pytest.mark.parametrize("predicate", ["gradient-kernel", "subdifferential-kernel"])
def test_a_kernel_condition_reads_generators_once_per_request(predicate):
    # The generators of -f at x are those of f negated, so a kernel
    # condition reads generators once per request (it read them twice, f's
    # and -f's), rows on f and on -f alike.
    fn, pairs = _kernel_case("ramp")
    xs, ys = (np.array(side) for side in zip(*pairs))
    calls = []

    def generators(points):
        calls.append(len(points))
        return Generators.of([(p, 0.5 * p - 0.25) for p in points], points.shape[1])

    for negated in (False, True, np.arange(len(xs)) % 2 == 1):
        calls.clear()
        check_requests(fn, [Request(predicate, xs, ys, None, negated)], generators)
        assert calls == [len(xs)]


def test_generator_kernels_cover_every_outcome():
    # Fixed rows where each kernel meets each of its outcomes, band and
    # several-generator rows included, against the reference loops.
    cubic, ramp = fn_of("cubic"), fn_of("ramp")
    kink = est([0.0], [2.0])
    cases = [
        (cubic, [0.0], [-0.5], est([0.0])),    # descends with a zero gradient
        (cubic, [0.5], [-0.5], est([0.75])),   # descends, strictly negative pairing
        (cubic, [-0.5], [0.5], est([0.75])),   # ascends: vacuous
        (ramp, [0.0], [-0.5], kink),           # flat side, kink set
        (ramp, [0.0], [0.5], kink),            # ramp side, kink set
        (ramp, [-0.5], [-0.25], est([0.0])),   # tied values, flat piece
        (fn_of("arctan"), [0.5], [-0.5], est([0.8], [-0.8])),  # one positive, one negative p
        (fn_of("paraboloid"), [1.0, 0.0], [1.0, 1.0], est([2.0, 0.0])),  # rises along the kernel
    ]
    seen = set()
    for fn, x, y, sub in cases:
        x, y = np.array(x), np.array(y)
        checks = [
            (check_pseudoconvex_pair(fn, x, y, sub), _ref_pseudoconvex(fn, x, y, sub)),
            (verify_p_identity(fn, x, y, sub), _ref_identity(fn, x, y, sub)),
            (check_symmetric_equality(fn, x, y, sub, sub), _ref_symmetric(fn, x, y, sub, sub)),
            (check_gradient_kernel(fn, x, y, sub.generators[0]),
             _ref_gradient_kernel(fn, x, y, sub.generators[0])),
        ]
        neg = est(*(-g for g in sub.generators))
        checks.append((check_subdiff_kernel_pair(fn, x, y, sub, neg).overall,
                       _ref_subdiff_kernel(fn, x, y, sub, neg)[0]))
        for got, want in checks:
            _same_check(got, want)
            seen.add((want.predicate, want.outcome))
    for pred in ("pseudoconvex-pair", "gradient-kernel", "subdifferential-kernel"):
        assert {(pred, o) for o in (PASS, VACUOUS, FAIL)} <= seen
    assert {("proportional-identity", PASS), ("proportional-identity", FAIL),
            ("symmetric-equality", PASS), ("symmetric-equality", FAIL),
            ("symmetric-equality", INCONCLUSIVE)} <= seen
    # The paraboloid row fails on the upper side, on the generator of -f:
    # the gradient kernel condition names the gradient of f, the
    # subdifferential one the generator of -f, signed zero included.
    x, y, sub = np.array([1.0, 0.0]), np.array([1.0, 1.0]), est([2.0, 0.0])
    grad = check_gradient_kernel(fn_of("paraboloid"), x, y, sub.generators[0])
    pair = check_subdiff_kernel_pair(fn_of("paraboloid"), x, y, sub, est([-2.0, -0.0]))
    assert (grad.outcome, grad.residual, pair.upper) == (FAIL, 1.0, FAIL)
    assert grad.generator.tobytes() == np.array([2.0, 0.0]).tobytes()
    assert pair.overall.generator.tobytes() == np.array([-2.0, -0.0]).tobytes()


def test_no_requests_give_no_rows():
    def unread(points):
        raise AssertionError("f read for no rows")

    assert check_requests(replace(fn_of("paraboloid"), evaluate_rows=unread), []) == []


@pytest.mark.parametrize("x, y", [([[1.0, 1.0]], [[0.1, 0.1]]), ([[0.1, 0.1]], [[1.0, 1.0]])])
def test_generator_requests_without_generators_raise_before_f_is_read(x, y):
    # A descending and an ascending pair alike: nothing can be read without
    # the generators, so nothing is.
    def unread(points):
        raise AssertionError("f read for a request that cannot run")

    fn = replace(fn_of("paraboloid"), evaluate_rows=unread)
    with pytest.raises(ValueError, match="'pseudoconvex-pair' reads generators"):
        check_requests(fn, [Request("pseudoconvex-pair", x, y)])


def test_predicate_table_rejects_wrong_calls_and_names_every_predicate():
    # A predicate run by the wrong entry point, or a name not in the table,
    # raises ValueError naming it before anything is read; every predicate
    # a campaign probe runs is in the table, and every record's notes start
    # with the empty detail and format at most a row's noted value and f(x).
    fn = fn_of("paraboloid")
    x, y = np.array([[0.1, 0.2]]), np.array([[0.5, -0.3]])

    def generators(points):
        raise AssertionError("a rejected call read generators")

    def segment(name):
        return check_requests(fn, [Request(name, x, y, LAM_GRID)])

    def generator(name):
        return check_requests(fn, [Request(name, x, y)], generators)

    with pytest.raises(ValueError, match="'pseudoconvex-pair' is a generator predicate"):
        segment("pseudoconvex-pair")
    with pytest.raises(ValueError, match="'quasiconvex-segment' is a segment predicate"):
        generator("quasiconvex-segment")
    fx, lams = np.zeros(1), LAM_GRID[None]
    with pytest.raises(ValueError, match="'gradient-kernel' is a generator predicate"):
        read_rule("gradient-kernel", LAM_GRID, fx, fx)
    with pytest.raises(ValueError, match="'symmetric-equality' is a generator predicate"):
        kernel_rows("symmetric-equality", fx, fx, lams, np.zeros_like(lams))
    unknown = re.escape(f"unknown predicate 'convex-pair' (known: {', '.join(PREDICATES)})")
    for run in (segment, generator):
        with pytest.raises(ValueError, match=unknown):
            run("convex-pair")
    probes = [p for probes in campaign._PROBES.values() for p in probes]
    named = {p.predicate for p in probes} | {p.nonsmooth for p in probes if p.nonsmooth}
    assert named <= set(PREDICATES)
    for name, record in PREDICATES.items():
        fields = {f for note in record.notes for _, f, _, _ in string.Formatter().parse(note)
                  if f is not None}
        assert record.notes[0] == "" and fields <= {"v", "fx"}, (name, fields)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_dots_match_np_dot_bit_for_bit(n, k, seed):
    # Signed zeros included: np.dot keeps the product's sign in one
    # dimension, and a detail formats it ("-0").
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((k, n)) * rng.choice([1e-9, 1.0, 1e9], (k, n))
    d = rng.standard_normal((k, n))
    g[rng.random((k, n)) < 0.3] = 0.0
    d[rng.random((k, n)) < 0.3] = -0.0
    want = np.array([float(np.dot(a, b)) for a, b in zip(g, d)])
    assert dots(g, d).tobytes() == want.tobytes()
