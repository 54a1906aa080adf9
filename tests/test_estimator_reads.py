"""The estimators read f in rows and test membership by mask; each result
must equal, bit for bit, what reading one point at a time gives: the scalar
reference value walk of test_expr and a plain per-point membership test."""

import contextlib
import io

import numpy as np
import pytest

from gencvx import cli, corpus_entry
from gencvx.checks import _b_rows, compute_b, compute_b_rows, estimate_q_limit
from gencvx.nonsmooth import ClarkeScheme, InteriorRoomError, clarke_directional, directional_derivative
from test_expr import _ref_value
from test_geometry import _plain_contains

SEEDS = (0, 3, 2**33 + 1)


def _f(entry, p):
    return _ref_value(entry.handle.expression, np.asarray(p, dtype=float))


def _ref_clarke(entry, x, v, scheme):
    """clarke_directional one probe at a time: each probe's ball draw, both
    points tested alone, f read at each alone."""
    region, n = entry.region, x.size
    per_scale = []
    for k, t in enumerate(scheme.steps):
        rng = np.random.default_rng(np.random.SeedSequence((scheme.seed & 0xFFFFFFFFFFFFFFFF, 0xC1A, k)))
        delta = scheme.neighborhood_factor * t
        best = -np.inf
        for _ in range(scheme.probes_per_scale):
            quotient = None
            for _ in range(100):
                raw = rng.standard_normal(size=(1, n))
                radii = delta * rng.uniform(0.0, 1.0, size=(1, 1)) ** (1.0 / n)
                y = (x + raw / np.linalg.norm(raw, axis=-1, keepdims=True) * radii)[0]
                y_step = y + t * v
                if _plain_contains(region, y, 0.0) and _plain_contains(region, y_step, 0.0):
                    quotient = (_f(entry, y_step) - _f(entry, y)) / t
                    break
            if quotient is None:
                best = np.nan
                break
            best = max(best, quotient)
        per_scale.append(best)
    finest = [s for s in per_scale if np.isfinite(s)][-3:]
    if not finest:
        return InteriorRoomError
    return float(max(finest))


def _ref_directional(entry, x, v, steps=(1e-3, 1e-4, 1e-5)):
    fx = _f(entry, x)
    hs, qs = [], []
    for h in steps:
        p = x + h * v
        if _plain_contains(entry.region, p, 0.0):
            hs.append(h)
            qs.append((_f(entry, p) - fx) / h)
    if len(hs) < 2:
        return InteriorRoomError
    h, q = np.array(hs), np.array(qs)
    sh, sq, shh, shq = h.sum(), q.sum(), (h * h).sum(), (h * q).sum()
    return float((shh * sq - sh * shq) / (len(hs) * shh - sh * sh))


def _ref_b(entry, x, y, lam):
    """compute_b's fields with f read at x, y and z(lam) one at a time."""
    fx, fy, fz = _f(entry, x), _f(entry, y), _f(entry, x + lam * (y - x))
    b, degenerate, strict, weak, _, _ = (v.item() for v in _b_rows(*map(np.float64, (fx, fy, fz, lam))))
    return lam, b, fx, fy, fz, degenerate, strict, weak


def _fields(rec):
    return rec.lam, rec.b, rec.fx, rec.fy, rec.fz, rec.degenerate, rec.strict, rec.weak


def _ref_q_limit(entry, x, y, schedule=(1e-1, 1e-2, 1e-3, 1e-4)):
    bs = [_ref_b(entry, x, y, lam)[1] for lam in schedule]
    table = [list(bs)]
    for level in range(1, len(bs)):
        factor = (schedule[0] / schedule[1]) ** level
        prev = table[-1]
        table.append([(factor * prev[i + 1] - prev[i]) / (factor - 1.0) for i in range(len(prev) - 1)])
    return tuple(bs), float(table[-1][-1])


def _outcome(call):
    try:
        return call()
    except InteriorRoomError:
        return InteriorRoomError


# Points and directions at the kinks, at smooth points, and at the
# fractional member's constraint x1 >= 0.05, where probes and steps leave
# the region.
_CASES = [
    ("ramp", [0.0], [1.0]),
    ("ramp", [0.0], [-0.75]),
    ("twoslope", [0.0], [0.8]),
    ("twoslope", [0.0], [-1.25]),
    ("arctan", [0.7], [-1.0]),
    ("paraboloid", [0.3, -0.6], [0.6, 0.8]),
    ("fractional", [0.0502, 0.3], [-1.0, 0.25]),
    ("fractional", [0.05, -0.4], [-1.0, 0.0]),
]


@pytest.mark.parametrize("name, x, v", _CASES)
def test_directional_estimates_equal_one_point_reads(name, x, v):
    entry = corpus_entry(name)
    x, v = np.array(x), np.array(v)
    for seed in SEEDS:
        scheme = ClarkeScheme(seed=seed)
        got = _outcome(lambda: clarke_directional(entry.handle, entry.region, x, v, scheme))
        assert got == _ref_clarke(entry, x, v, scheme)
    got = _outcome(lambda: directional_derivative(entry.handle, entry.region, x, v))
    assert got == _ref_directional(entry, x, v)
    if name == "fractional":  # some steps leave through the constraint
        assert not all(_plain_contains(entry.region, x + h * v, 0.0) for h in (1e-3, 1e-4, 1e-5))


def _pairs(name, seed):
    entry = corpus_entry(name)
    rng = np.random.default_rng(seed)
    m = entry.region.margin
    out = []
    for _ in range(4):
        x = rng.uniform(entry.region.lower + m, entry.region.upper - m)
        y = rng.uniform(entry.region.lower + m, entry.region.upper - m)
        if name == "fractional":
            x[0] = 0.05  # on the constraint
        out.append((x, y))
    if entry.handle.dimension == 1:
        out.append((np.array([-0.5]), np.array([0.5])))  # z(1/2) on the kink of ramp and twoslope
    return entry, out


@pytest.mark.parametrize("name", ["ramp", "twoslope", "arctan", "paraboloid", "fractional"])
@pytest.mark.parametrize("seed", [1, 7, 42])
def test_b_and_q_limits_equal_one_point_reads(name, seed):
    entry, pairs = _pairs(name, seed)
    lams = [k / 10 for k in range(1, 10)]
    for x, y in pairs:
        rows = compute_b_rows(entry.handle, x, y, lams)
        for lam, rec in zip(lams, rows):
            want = _ref_b(entry, x, y, lam)
            assert _fields(rec) == want
            assert _fields(compute_b(entry.handle, x, y, lam)) == want
        if abs(_f(entry, y) - _f(entry, x)) > 1e-3:
            q = estimate_q_limit(entry.handle, x, y)
            assert (q.b_values, q.limit) == _ref_q_limit(entry, x, y)


def _fmt(v):
    return f"{v:.17g}"


@pytest.mark.parametrize("name", ["ramp", "twoslope", "arctan", "paraboloid", "fractional"])
def test_bcurve_equals_one_point_reads(name):
    entry, pairs = _pairs(name, 5)
    for x, y in pairs:
        assert _plain_contains(entry.region, x, 0.0) and _plain_contains(entry.region, y, 0.0)
        argv = ["bcurve", "--corpus", name, "--grid", "7",
                "--x=" + ",".join(repr(c) for c in x.tolist()),
                "--y=" + ",".join(repr(c) for c in y.tolist())]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == cli.EXIT_OK
        want = ["lambda,b,lambda_b,strict,weak,degenerate"]
        for k in range(1, 8):
            lam, b, _, _, _, degenerate, strict, weak = _ref_b(entry, x, y, k / 8)
            want.append(",".join((_fmt(lam), _fmt(b), _fmt(lam * b),
                                  str(strict).lower(), str(weak).lower(), str(degenerate).lower())))
        assert out.getvalue() == "\n".join(want) + "\n"
