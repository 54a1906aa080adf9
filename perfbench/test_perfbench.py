"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

Each workload runs at a small size and its checks pass on the real outputs;
then each check is fed a deliberately wrong verdict, witness residual or
estimate and must report it, so that no check passes vacuously.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [p for p in (ROOT, os.path.join(ROOT, "src")) if p not in sys.path]

from gencvx import corpus  # noqa: E402

from perfbench import oracle, run, tracing, verify, workloads  # noqa: E402

HAND_LABELS = {
    # convex and piecewise linear: pseudoconvex, never concave-side
    "max2": {"pseudoconvex", "quasiconvex", "semistrictly-quasiconvex"},
    "l1-5": {"pseudoconvex", "quasiconvex", "semistrictly-quasiconvex"},
    # strictly increasing piecewise-linear functions of one affine form
    "twoslope3": set(oracle.PROPERTIES),
    "min5": set(oracle.PROPERTIES),
    # nondecreasing with a flat piece: quasilinear and pseudoconvex only
    "ramp4": {"pseudoconvex", "quasiconvex", "quasiconcave", "quasilinear",
              "semistrictly-quasiconvex"},
    # flat top: quasiconvex and nothing stronger
    "capped-max2": {"quasiconvex"},
}


def _run_round(requests):
    records = []
    for req in requests:
        rec = req.collect(req.call())
        rec.update(label=req.label, round=0)
        records.append(rec)
    return records


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("out"))


@pytest.fixture(scope="module")
def corpus_records(out_dir):
    """corpus-all at a small size: the two kinked members of one round."""
    wl = workloads.build("corpus-all", 42, out_dir)
    reqs = [r for r in wl.requests(0) if r.label in ("classify:ramp", "classify:twoslope")]
    return _run_round(reqs)


@pytest.fixture(scope="module")
def kink_run(out_dir):
    """kinks-analyze at a small size: the 2-D functions of one round."""
    wl = workloads.build("kinks-analyze", 7, out_dir)
    reqs = [r for r in wl.requests(0) if ":max2:" in r.label or ":capped-max2:" in r.label]
    return wl, _run_round(reqs)


@pytest.fixture(scope="module")
def estimator_records(out_dir):
    wl = workloads.build("estimators", 42, out_dir)
    return _run_round(wl.requests(0))


def _corpus_targets():
    return {e.handle.name: (e.handle, e.region) for e in corpus()}


def _corpus_labels():
    return {name: oracle.labels(t) for name, t in oracle.corpus_targets().items()}


# -- the oracle -------------------------------------------------------------


def test_oracle_reproduces_the_corpus_labels():
    for entry in corpus():
        assert oracle.labels(oracle.corpus_targets()[entry.handle.name]) == entry.labels


@pytest.mark.parametrize("target", oracle.kink_targets(), ids=lambda t: t.name)
def test_oracle_kink_labels_match_hand_derivation(target):
    got = oracle.labels(target)
    assert {p for p, holds in got.items() if holds} == HAND_LABELS[target.name]


def test_kink_targets_agree_with_their_dsl_text():
    rng = np.random.default_rng(0)
    for t in oracle.kink_targets():
        fn = workloads.functions.function_from_expression(t.source, t.dimension)
        pts = rng.uniform(-1.0, 1.0, (50, t.dimension))
        assert np.allclose(t.f(pts), [fn.value(p) for p in pts], rtol=0, atol=1e-12)


# -- checks pass on real outputs and fail on wrong ones ---------------------


def test_corpus_all_leaves_out_only_the_listed_verdicts(out_dir):
    wl = workloads.build("corpus-all", 1, out_dir)
    results = {r.label: r.results for r in wl.requests(0)}
    assert len(results) == 7 and results["classify:cubic"] == 6
    assert sum(results.values()) == 7 * 9 - 3


def test_corpus_checks_pass(corpus_records):
    assert corpus_records and any(r["witnesses"] for r in corpus_records)
    assert verify.check_labels(corpus_records, _corpus_labels()) == []
    assert verify.check_replays(corpus_records, _corpus_targets()) == []
    assert verify.check_lattice(corpus_records) == []


def test_label_check_catches_a_wrong_verdict(corpus_records):
    bad = copy.deepcopy(corpus_records)
    bad[0]["verdicts"]["pseudoconvex"] = "refuted"  # ramp is pseudoconvex
    bad[1]["verdicts"]["quasiconvex"] = "inconclusive"
    failures = verify.check_labels(bad, _corpus_labels())
    assert len(failures) == 2 and all(f.startswith("label:") for f in failures)


def test_replay_check_catches_a_wrong_residual(corpus_records):
    rec = next(r for r in corpus_records if r["witnesses"])
    w = rec["witnesses"][0]
    nudged = dataclasses.replace(w, residual=float(np.nextafter(w.residual, np.inf)))
    below = dataclasses.replace(w, threshold=w.residual)
    for wrong in (nudged, below):
        bad = dict(rec, witnesses=[wrong])
        failures = verify.check_replays([bad], _corpus_targets())
        assert failures and all(f.startswith("replay:") for f in failures)


def test_lattice_check_catches_a_broken_implication():
    rec = {"function": "f", "round": 0, "verdicts": {
        "semistrictly-quasiconvex": "holds-at-samples", "quasiconvex": "refuted"}}
    assert verify.check_lattice([rec]) == [
        "lattice: f round 0: semistrictly-quasiconvex holds but quasiconvex is refuted"
    ]


def test_kink_checks_pass_and_catch_wrong_verdicts(kink_run):
    wl, records = kink_run
    labels = {t.name: oracle.labels(t) for t in wl.targets}
    assert records and any(r["witnesses"] for r in records)
    assert verify.check_labels(records, labels) == []
    assert verify.check_replays(records, wl.parsed) == []
    bad = copy.deepcopy(records)
    for rec in bad:
        (prop,) = rec["verdicts"]
        rec["verdicts"][prop] = "holds-at-samples" if rec["verdicts"][prop] == "refuted" else "refuted"
    assert len(verify.check_labels(bad, labels)) == len(records)


def test_estimator_checks_pass(estimator_records):
    kinds = {r["kind"] for r in estimator_records}
    assert kinds == {"bcurve", "q_limit", "cross_check", "directional", "clarke"}
    assert verify.check_estimates(estimator_records) == []


def _first(records, kind, function=None):
    return copy.deepcopy(next(
        r for r in records if r["kind"] == kind and (function is None or r["function"] == function)
    ))


@pytest.mark.parametrize("case", [
    ("bcurve", "fractional", lambda r: r["b"].__setitem__(3, r["b"][3] * (1 + 1e-6))),
    ("bcurve", "affine", lambda r: r["b"].__setitem__(0, 1.0 + 1e-6)),
    ("bcurve", "cubic", lambda r: r["lam_b"].__setitem__(0, 1.0)),
    ("q_limit", "fractional", lambda r: r.update(limit=r["limit"] * (1 + 1e-4))),
    ("cross_check", "arctan", lambda r: r.update(outcome="inconclusive")),
    ("directional", "ramp", lambda r: r.update(value=r["value"] + 1e-6)),
    ("directional", "arctan", lambda r: r.update(value=r["value"] + 1e-4)),
    ("clarke", "twoslope", lambda r: r.update(value=r["value"] - 1e-5)),
    ("clarke", "paraboloid", lambda r: r.update(value=r["value"] + 5e-3)),
], ids=lambda c: f"{c[0]}-{c[1]}")
def test_estimator_check_catches_a_wrong_estimate(estimator_records, case):
    kind, function, spoil = case
    rec = _first(estimator_records, kind, function)
    assert verify.check_estimates([rec]) == []
    spoil(rec)
    assert verify.check_estimates([rec])


def test_clarke_tolerance_is_tight_at_kinks():
    # Piecewise-linear kinks leave only rounding: the tolerance is that alone.
    assert verify.clarke_tolerance((1e-2, 1e-4, 1e-6), 10.0, 0.0, [1.0]) == verify.ROUNDING_TOL


# -- the tracer and the command ----------------------------------------------


def test_tracer_counts_repeat_and_uninstall_restores(out_dir):
    import gencvx.campaign
    import gencvx.expr

    originals = (gencvx.expr.eval_value, gencvx.campaign.subdifferential,
                 workloads.functions.FunctionHandle.value)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wl = workloads.build("estimators", 3, out_dir)
            run.run_requests(wl, seconds=None, rounds=1, tracer=tracer)
        finally:
            tracer.uninstall()
        m = tracer.metrics()
        assert set(m) == set(tracing.PER_LAYER)
        counts.append({k: v for k, v in m.items() if tracing.PER_LAYER[k][0] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["nonsmooth.clarke_calls"] == 11
    assert (gencvx.expr.eval_value, gencvx.campaign.subdifferential,
            workloads.functions.FunctionHandle.value) == originals


def test_command_prints_metrics_last():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "estimators",
         "--seed", "5", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 27
    assert set(doc["metrics"]) == {"setup_s", "results_per_s", "request_p50_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in doc["metrics"].values())


def test_command_names_a_failing_check(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "fractional_q", lambda x, y: -1.0)  # a wrong closed form
    code = run.main(["--workload", "estimators", "--seed", "3", "--seconds", "0.1"])
    out, err = capsys.readouterr()
    assert code == 1
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False
    assert "CHECK FAILED q-closed-form:" in err


def test_command_fails_without_the_program(tmp_path):
    """In a directory with only the benchmark's own files it exits non-zero, silently."""
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "estimators", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

