"""Output checks, run after the timed requests and outside every timed span.

Each check takes the records the requests produced and returns the list of
failures it found, each naming the check and the request.  None of them
compares with an earlier run of gencvx: verdicts are compared with the
brute-force labels of `oracle`, estimates with closed forms, and witnesses
are replayed through the program under the run's own plan.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from gencvx import campaign

from . import oracle

HOLDS = "holds-at-samples"
REFUTED = "refuted"


def check_labels(records: list[dict], labels: dict[str, dict[str, bool]]) -> list[str]:
    """Every verdict is the oracle's label: holds where it holds, refuted where not."""
    out = []
    for rec in records:
        want = labels[rec["function"]]
        for prop, verdict in rec["verdicts"].items():
            expected = HOLDS if want[prop] else REFUTED
            if verdict != expected:
                out.append(
                    f"label: {rec['label']} round {rec['round']}: {prop} is {verdict}, "
                    f"the oracle says {expected}"
                )
    return out


def check_replays(records: list[dict], targets: dict[str, tuple]) -> list[str]:
    """Each witness replays to FAIL with its residual bit for bit, above its threshold.

    `targets` maps a function name to the (handle, region) it was analysed on.
    """
    out = []
    for rec in records:
        fn, region = targets[rec["function"]]
        plan = rec["config"].plan()
        for w in rec["witnesses"]:
            where = f"{rec['label']} round {rec['round']}: {w.property}/{w.predicate}"
            res = campaign.replay_witness(fn, region, w, plan)
            if res.outcome != "fail":
                out.append(f"replay: {where}: replays to {res.outcome}")
            elif res.residual != w.residual:
                out.append(f"replay: {where}: residual {res.residual!r} != recorded {w.residual!r}")
            if not w.residual > w.threshold:
                out.append(f"replay: {where}: residual {w.residual!r} not above {w.threshold!r}")
    return out


def check_lattice(records: list[dict]) -> list[str]:
    """No function's verdicts within one round break a textbook implication."""
    sets: dict[tuple, dict[str, str]] = defaultdict(dict)
    for rec in records:
        sets[(rec["round"], rec["function"])].update(rec["verdicts"])
    return [
        f"lattice: {name} round {r}: {v}"
        for (r, name), verdicts in sorted(sets.items())
        for v in oracle.lattice_violations(verdicts)
    ]


# --------------------------------------------------------------------------
# estimators
# --------------------------------------------------------------------------

# Relative tolerance for b values and q limits; both are exact up to
# rounding on the pairs the workload draws (value gaps of at least 0.05).
B_TOL = 1e-9
Q_TOL = 1e-6
# The linear fit in directional_derivative leaves an O(h^2) term of about
# |f'''| |v|^3 h^2 / 6 <= 4e-7 |v|^3 (steps up to h = 1e-3, |f'''| <= 2 for
# atan); piecewise-linear kinks are exact up to rounding.
DIRECTIONAL_TOL = 1e-6
ROUNDING_TOL = 1e-7


def clarke_tolerance(steps: tuple[float, ...], factor: float, curvature: float, v) -> float:
    """Error bound for the probe-cloud estimate of f0(x; v).

    The estimate is a maximum of difference quotients with step t at base
    points within factor*t of x, over the three finest steps.  For a C^2
    function each quotient is within curvature*|v|*(factor*t + t*|v|/2) of
    <grad f(x), v>, so twice that bound at the largest of the three steps,
    plus a rounding allowance for dividing by the finest step, covers it.
    """
    t = steps[-3] if len(steps) >= 3 else steps[0]
    nv = float(np.linalg.norm(v))
    return 2.0 * curvature * nv * (factor * t + t * nv / 2.0) + ROUNDING_TOL


def _estimator_failures(rec: dict) -> list[str]:
    kind, name = rec["kind"], rec["function"]
    where = f"{rec['label']} round {rec['round']}"
    if kind == "bcurve":
        out = []
        for lam, b, lam_b in zip(rec["lam"], rec["b"], rec["lam_b"]):
            if name == "fractional":
                want = oracle.fractional_b(rec["x"], rec["y"], lam)
                if abs(b - want) > B_TOL * max(1.0, abs(want)):
                    out.append(f"b-closed-form: {where}: b({lam}) = {b!r}, closed form {want!r}")
            elif name == "affine":
                if abs(b - 1.0) > B_TOL:
                    out.append(f"b-affine: {where}: b({lam}) = {b!r}, expected 1")
            elif not 0.0 < lam_b < 1.0:
                out.append(f"b-strict-bounds: {where}: lambda*b({lam}) = {lam_b!r} not in (0, 1)")
        if len(rec["b"]) == 0:
            out.append(f"bcurve-empty: {where}: no rows")
        return out
    if kind == "q_limit":
        want = oracle.fractional_q(rec["x"], rec["y"])
        if abs(rec["limit"] - want) > Q_TOL * (1.0 + abs(want)):
            return [f"q-closed-form: {where}: q = {rec['limit']!r}, closed form {want!r}"]
        return []
    if kind == "cross_check":
        if rec["outcome"] != "pass":
            return [f"b-cross-check: {where}: outcome {rec['outcome']}, expected pass"]
        return []
    x, v, got = rec["x"], rec["v"], rec["value"]
    if kind == "directional":
        if name in oracle.KINK_SLOPES:
            want = oracle.one_sided_kink(oracle.KINK_SLOPES[name], float(v[0]))
            tol = ROUNDING_TOL
        else:
            want = float(np.dot(oracle.SMOOTH_GRADIENTS[name](x), v))
            tol = DIRECTIONAL_TOL * (1.0 + float(np.linalg.norm(v))) ** 3
        if abs(got - want) > tol:
            return [f"directional-closed-form: {where}: {got!r}, closed form {want!r} (tol {tol:.3g})"]
        return []
    if kind == "clarke":
        if name in oracle.KINK_SLOPES:
            want = oracle.clarke_kink(oracle.KINK_SLOPES[name], float(v[0]))
            tol = clarke_tolerance(rec["steps"], rec["factor"], 0.0, v)
        else:
            want = float(np.dot(oracle.SMOOTH_GRADIENTS[name](x), v))
            radius = (rec["factor"] + float(np.linalg.norm(v))) * rec["steps"][0]
            curv = oracle.curvature_bound(name, x, radius)
            tol = clarke_tolerance(rec["steps"], rec["factor"], curv, v)
        if abs(got - want) > tol:
            return [f"clarke-closed-form: {where}: {got!r}, closed form {want!r} (tol {tol:.3g})"]
        return []
    return [f"unknown-record: {where}: kind {kind!r}"]


def check_estimates(records: list[dict]) -> list[str]:
    """Every estimate against its closed form."""
    return [f for rec in records for f in _estimator_failures(rec)]
