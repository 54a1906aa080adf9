"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.  Tolerances are pinned here and nowhere else.
"""

import hashlib
import json
import time
from contextlib import contextmanager

import numpy as np

from gencvx import (
    Candidate,
    ClarkeScheme,
    SamplingPlan,
    check_implication_lattice,
    check_subdiff_kernel_pair,
    check_symmetric_equality,
    classify,
    clarke_directional,
    compute_b,
    compute_p,
    corpus,
    corpus_entry,
    estimate_q_limit,
    function_from_expression,
    negate_estimate,
    refine_counterexample,
    replay_witness,
    sample_region,
    subdifferential,
)
from gencvx.cli import EXIT_OK, main
from gencvx.geometry import parse_region
from gencvx.report import Report, RunConfig


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def _pairs(region, count, seed, min_gap, value, max_draws=4000):
    """Point pairs with a value gap above min_gap (near-ties excluded)."""
    pts = sample_region(region, 2 * max_draws, seed)
    out = []
    for i in range(0, len(pts), 2):
        x, y = pts[i], pts[i + 1]
        if abs(value(y) - value(x)) > min_gap:
            out.append((x, y))
        if len(out) == count:
            return out
    raise AssertionError("not enough usable pairs")


def test_criterion_1_fractional_closed_form_reproduction():
    with criterion(1, "closed-form b reproduction for the fractional function"):
        e = corpus_entry("fractional")
        fn = e.handle
        start = time.perf_counter()
        lams = np.linspace(0.0, 1.0, 33)[1:-1]
        pts = sample_region(e.region, 200, seed=2024)
        pairs = [(pts[2 * i], pts[2 * i + 1]) for i in range(100)]
        compared = 0
        for x, y in pairs:
            fx, fy = fn.value(x), fn.value(y)
            for lam in lams:
                rec = compute_b(fn, x, y, float(lam))
                assert 0.0 < rec.lam_b <= 1.0 + 1e-12
                if abs(fy - fx) <= 1e-3:
                    continue  # float cancellation dominates b there
                closed = y[0] / (x[0] + lam * (y[0] - x[0]))
                assert abs(rec.b - closed) <= 1e-9 * max(1.0, abs(closed))
                compared += 1
        elapsed = time.perf_counter() - start
        assert compared >= 90 * len(lams)
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_corpus_classification_exit_0(tmp_path):
    with criterion(2, "cmd_corpus with the default plan and seed 42 exits 0"):
        start = time.perf_counter()
        code = main(["corpus", "--seed", "42", "--out", str(tmp_path / "corpus.json")])
        elapsed = time.perf_counter() - start
        assert code == EXIT_OK
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_3_symmetric_equality_identity():
    with criterion(3, "symmetric-equality identity tiny on pseudolinear members, "
                      "refuted for the paraboloid"):
        checked = 0
        for name in ("affine", "fractional", "arctan"):
            e = corpus_entry(name)
            fn = e.handle
            for x, y in _pairs(e.region, 400, seed=99, min_gap=1e-6, value=fn.value):
                sub_x = subdifferential(fn, e.region, x, 1e-5, 8, seed=1)
                sub_y = subdifferential(fn, e.region, y, 1e-5, 8, seed=2)
                for gx in sub_x.generators:
                    for gy in sub_y.generators:
                        p1 = compute_p(fn, x, y, gx)
                        p2 = compute_p(fn, y, x, gy)
                        assert not p1.band and not p2.band
                        assert p1.positive and p2.positive
                        s = p1.p * p1.denominator + p2.p * p2.denominator
                        assert abs(s) <= 1e-8
                        checked += 1
        assert checked >= 1000

        e7 = corpus_entry("paraboloid")
        fn7 = e7.handle
        refuted = None
        for x, y in _pairs(e7.region, 50, seed=4, min_gap=1e-4, value=fn7.value):
            sub_x = subdifferential(fn7, e7.region, x, 1e-5, 8, seed=3)
            sub_y = subdifferential(fn7, e7.region, y, 1e-5, 8, seed=4)
            res = check_symmetric_equality(fn7, x, y, sub_x, sub_y)
            if res.outcome == "fail" and res.credible:
                refuted = res
                break
        assert refuted is not None


def test_criterion_4_q_limit_matches_closed_form():
    with criterion(4, "q-limit extrapolation matches the first-order closed form"):
        for name in ("fractional", "arctan"):
            e = corpus_entry(name)
            fn = e.handle
            for x, y in _pairs(e.region, 50, seed=7, min_gap=1e-3, value=fn.value):
                q = estimate_q_limit(fn, x, y)
                assert q.closed_form is not None
                assert abs(q.limit - q.closed_form) <= 1e-4 * (1.0 + abs(q.closed_form))
                if name == "fractional":
                    ratio = y[0] / x[0]
                    assert abs(q.limit - ratio) <= 1e-4 * (1.0 + abs(ratio))


def test_criterion_5_kernel_refutations():
    with criterion(5, "gradient kernel refutes the cubic near the origin; "
                      "subdifferential kernel passes on the two-slope function"):
        e4 = corpus_entry("cubic")
        cand = Candidate("gradient-kernel", False, np.array([0.1]), np.array([-0.9]))
        result = refine_counterexample(e4.handle, e4.region, cand, rounds=3)
        assert result.witness is not None
        assert abs(result.witness.x[0]) <= 1e-3
        assert result.witness.residual > result.witness.threshold

        e6 = corpus_entry("twoslope")
        fn = e6.handle
        pts = sample_region(e6.region, 400, seed=12)
        for i in range(200):
            x, y = pts[2 * i], pts[2 * i + 1]
            if np.array_equal(x, y):
                continue
            sub = subdifferential(fn, e6.region, x, 1e-5, 8, seed=5)
            res = check_subdiff_kernel_pair(fn, x, y, sub, negate_estimate(sub))
            assert res.overall.outcome in ("pass", "vacuous")


def test_criterion_6_clarke_estimator():
    with criterion(6, "generalized directional derivative: |x| kink and smooth probes"):
        box1 = parse_region("box(-1..1)", 1)
        fabs = function_from_expression("abs(x1)", 1)
        for v in (1.0, -1.0):
            got = clarke_directional(fabs, box1, [0.0], [v], ClarkeScheme(seed=6))
            assert abs(got - 1.0) <= 5e-2

        rng = np.random.default_rng(31)
        checked = 0
        for e in corpus():
            if e.handle.smoothness != "smooth":
                continue
            for x in sample_region(e.region, 40, seed=15):
                if e.region.interior_slack(x) < 0.12:
                    continue
                v = rng.standard_normal(x.size)
                v /= np.linalg.norm(v)
                g = e.handle.grad(x)
                got = clarke_directional(e.handle, e.region, x, v, ClarkeScheme(seed=8))
                assert abs(got - float(np.dot(g, v))) <= 1e-3 * (
                    1.0 + np.linalg.norm(g) * np.linalg.norm(v)
                )
                checked += 1
                if checked >= 100:
                    break
            if checked >= 100:
                break
        assert checked >= 100


def test_criterion_7_ad_against_central_differences():
    with criterion(7, "forward-mode gradients match central differences"):
        step = 1e-5
        for e in corpus():
            if e.handle.smoothness != "smooth":
                continue
            tree = e.handle.expression
            from gencvx.expr import eval_dual, eval_value

            for p in sample_region(e.region, 100, seed=44):
                g = eval_dual(tree, p).gradient
                for i in range(p.size):
                    unit = np.zeros(p.size)
                    unit[i] = step
                    fd = (eval_value(tree, p + unit) - eval_value(tree, p - unit)) / (2 * step)
                    assert abs(g[i] - fd) / (1.0 + abs(g[i])) <= 1e-6


def test_criterion_8_determinism_and_replay(tmp_path):
    with criterion(8, "byte-identical reports and bit-exact witness replay"):
        args = ["analyze", "--corpus", "cubic", "--properties",
                "pseudoconvex,pseudolinear", "--seed", "42"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(args + ["--out", str(out1)])
        main(args + ["--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

        doc = Report.parse(out1.read_text())
        config = RunConfig.from_dict(doc["config"])
        entry = corpus_entry(config.corpus_name)
        witnesses = Report.witnesses_from_dict(doc)
        assert witnesses
        for w in witnesses:
            res = replay_witness(entry.handle, entry.region, w, config.plan())
            assert res.outcome == "fail"
            assert res.residual == w.residual


# sha256 of json.dumps([v.to_dict() for v in verdicts], sort_keys=True) for
# each (corpus member, seed), witness residuals included.  Reports must stay
# byte-identical, so a change that is faster but one ulp off fails here.  A
# change that moves verdicts or residuals on purpose updates these digests
# and says so in CHANGES.md.
REPORT_SHA256 = {
    ("affine", 0): "da644d76bfeb630afac470b7c0763f28bb2f031589010b3968c85c22180e6f7e",
    ("fractional", 0): "183e0db9bb4c2f0325d6b7479fee18264d0a1cd209451d1c2277c6783a21135a",
    ("arctan", 0): "5af32ece9c031631eb3268e34dd2b47abdba96acf9075d3f05154083e1ba2049",
    ("cubic", 0): "3eec9780d91060189cdf2c9eeeb6e2ceeb8028d4d9264d2f068216a215f367ce",
    ("ramp", 0): "9bf9c881bb84763490110d54cdea4844e14f1dde390b82c545f0657790171662",
    ("twoslope", 0): "5af32ece9c031631eb3268e34dd2b47abdba96acf9075d3f05154083e1ba2049",
    ("paraboloid", 0): "7b368954099c4ac922724dbbe115ef6568cbfb08aa57b7209fff2274e045b1d4",
    ("affine", 1): "a2f65a0ad3dc81844842415b95152d63d7252bbbfb4c4e3436b222cab2159eac",
    ("fractional", 1): "d33f6b507f486e30c6718f44cee3b0555a80c1025bdd02c4c1602d8661c15c31",
    ("arctan", 1): "5af32ece9c031631eb3268e34dd2b47abdba96acf9075d3f05154083e1ba2049",
    ("cubic", 1): "ade5d325765888b138a9b6b3f849cae624a571ff49a1f68574816d753b6be9dd",
    ("ramp", 1): "c3f7ad0aba791b8255d6113f1040286c0dbaf3da1332b49ce1214570f1aa2776",
    ("twoslope", 1): "5af32ece9c031631eb3268e34dd2b47abdba96acf9075d3f05154083e1ba2049",
    ("paraboloid", 1): "17b7a79dfef35d355a3a2f6830d6493eae1755e0989004182e8105cc7f9cf26a",
    ("affine", 2): "22113f92fe78fa09a1c5c56521ec663ff1c9bf39f8773eaad3c8e824893b0aab",
    ("fractional", 2): "39c0e6f789491d9322cff718c214221d614535c3fc1967c958c36972068fd61b",
    ("arctan", 2): "5af32ece9c031631eb3268e34dd2b47abdba96acf9075d3f05154083e1ba2049",
    ("cubic", 2): "ee80075124b23ce13801d24ffa3c80f26abc0d792815e1313a95040764c82811",
    ("ramp", 2): "6bc78a73d3be70b69dd2fb15956ab8ceb4e275aca855eef5be32d9dc149811c5",
    ("twoslope", 2): "5af32ece9c031631eb3268e34dd2b47abdba96acf9075d3f05154083e1ba2049",
    ("paraboloid", 2): "d4b61d0ddc87ac2d7d841d5fadeb912fee4e6e419c3e0a5eea24065a2c41e77c",
    ("affine", 7): "a2f65a0ad3dc81844842415b95152d63d7252bbbfb4c4e3436b222cab2159eac",
    ("fractional", 7): "14effe276c0f5223909dc0dcc63add81058dff2dddf27ea98294a46dfa328d89",
    ("arctan", 7): "5af32ece9c031631eb3268e34dd2b47abdba96acf9075d3f05154083e1ba2049",
    ("cubic", 7): "00474a15ce8b61dc03489b4da5342967098afe54082869e69b9c51e7d4b74cd6",
    ("ramp", 7): "b98670f4ff1cc14582044e109032e28371f02480f381754626fb731bc6f45ece",
    ("twoslope", 7): "5af32ece9c031631eb3268e34dd2b47abdba96acf9075d3f05154083e1ba2049",
    ("paraboloid", 7): "22b3b7e78f1546667a61d2d315644f6105c1bedbbd2b52d177289373415a3047",
    ("affine", 42): "d037acada4451cad8019c857b545da19222e99a6f03221125a71eaacd2052caa",
    ("fractional", 42): "ba7d780e5b90900e4bedf296b52d7b89e4bea0b151cb65a513a9511c0a186ec8",
    ("arctan", 42): "5af32ece9c031631eb3268e34dd2b47abdba96acf9075d3f05154083e1ba2049",
    ("cubic", 42): "7a5c785880b6b769dbbd6a4bac85164d7db4a8f364049779fe283304ba03b371",
    ("ramp", 42): "4649d500749a4bd5389dfd1d1f38ad09457763c06ea5e1574df6b14538f86a93",
    ("twoslope", 42): "5af32ece9c031631eb3268e34dd2b47abdba96acf9075d3f05154083e1ba2049",
    ("paraboloid", 42): "1e7b23d27ec68a56705642cb3aa2fe01a5b53daf6229455cd9acbadf74e63c08",
}


def test_criterion_9_implication_lattice_five_seeds():
    with criterion(9, "implication lattice clean and reports pinned over the corpus "
                      "for 5 seeds"):
        digests = {}
        for seed in (0, 1, 2, 7, 42):
            plan = SamplingPlan(seed=seed)
            verdict_sets = {}
            for e in corpus():
                verdicts = classify(e.handle, e.region, None, plan)
                verdict_sets[e.handle.name] = {v.property: v.verdict for v in verdicts}
                text = json.dumps([v.to_dict() for v in verdicts], sort_keys=True)
                digests[e.handle.name, seed] = hashlib.sha256(text.encode()).hexdigest()
            assert check_implication_lattice(verdict_sets) == []
        assert digests == REPORT_SHA256
