#!/usr/bin/env python3
"""gencvx benchmark: one workload, end to end or per layer.

    python3 perfbench/run.py --workload corpus-all --seed 42 --seconds 15 --trace 0

Run from the root of a gencvx checkout; the package is imported from its
`src` directory.  With `--trace 0` the run times whole rounds of requests,
at least the workload's minimum number and until `--seconds` have passed,
and prints the end-to-end metrics.  With `--trace 1` it runs a fixed number
of rounds with every public gencvx function wrapped in a span, prints the
per-layer metrics and writes the spans to
`perfbench/out/trace-<workload>-<seed>.json`.  Either way the outputs are
checked afterwards, the last line of standard output is one JSON object, and
the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

# The workloads of perfbench/workloads.py; named here so that the set-up
# probes can time that module's import.
WORKLOADS = ("corpus-all", "kinks-analyze", "estimators")
# Fresh interpreters that time the set-up; the median is reported.
SETUP_PROBES = 5
# Rounds of a traced run: fixed, so its counts repeat exactly for a seed.
TRACE_ROUNDS = {"corpus-all": 1, "kinks-analyze": 1, "estimators": 10}


def _paths() -> None:
    for p in (ROOT, os.path.join(ROOT, "src")):
        if p not in sys.path:
            sys.path.insert(0, p)


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from importing gencvx to a workload ready for its first request."""
    t0 = perf_counter()
    from perfbench import workloads

    workloads.build(workload, seed, OUT_DIR)
    return perf_counter() - t0


def _setup_times(workload: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_requests(wl, *, seconds: float | None, rounds: int | None, tracer=None) -> dict:
    """Issue whole rounds of requests: `rounds` times, or else at least
    `wl.min_rounds` times and until `seconds` have passed."""
    records, durations, failures = [], [], []
    attempted = results = 0
    busy = 0.0
    start = perf_counter()
    r = 0
    while (r < rounds) if rounds is not None else (
        r < wl.min_rounds or perf_counter() - start < seconds
    ):
        for req in wl.requests(r):
            scope = tracer.scope("request", attempted) if tracer is not None else nullcontext()
            attempted += 1
            t0 = perf_counter()
            try:
                with scope:
                    out = req.call()
            except Exception as exc:  # the run goes on; the failure is counted
                failures.append(f"{req.label} round {r}: {exc!r}")
                traceback.print_exc(file=sys.stderr)
                continue
            d = perf_counter() - t0
            durations.append(d)
            busy += d
            results += req.results
            rec = req.collect(out)
            rec.update(label=req.label, round=r)
            records.append(rec)
        r += 1
    return {
        "records": records, "durations": durations, "failures": failures,
        "attempted": attempted, "results": results, "busy": busy, "rounds": r,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def check_outputs(workload: str, wl, records: list[dict]) -> list[str]:
    from perfbench import oracle, verify

    if workload == "estimators":
        return verify.check_estimates(records)
    if workload == "corpus-all":
        targets = {e.handle.name: (e.handle, e.region) for e in wl.entries}
        labels = {name: oracle.labels(t) for name, t in oracle.corpus_targets().items()}
    else:
        targets = wl.parsed
        labels = {t.name: oracle.labels(t) for t in wl.targets}
    return (
        verify.check_labels(records, labels)
        + verify.check_replays(records, targets)
        + verify.check_lattice(records)
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _paths()

    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed)))
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    setup_times = None if args.trace else _setup_times(args.workload, args.seed)

    tracer = None
    if args.trace:
        from perfbench.tracing import Tracer

        tracer = Tracer()
        tracer.install()
    scope = tracer.scope if tracer is not None else (lambda name: nullcontext())
    try:
        with scope("setup"):
            from perfbench import workloads

            wl = workloads.build(args.workload, args.seed, OUT_DIR)
        run = run_requests(
            wl,
            seconds=args.seconds,
            rounds=TRACE_ROUNDS[args.workload] if tracer is not None else None,
            tracer=tracer,
        )
        with scope("check"):
            failures = check_outputs(args.workload, wl, run["records"])
    finally:
        if tracer is not None:
            tracer.uninstall()

    for f in failures:
        print(f"CHECK FAILED {f}", file=sys.stderr)
    for f in run["failures"]:
        print(f"OPERATION FAILED {f}", file=sys.stderr)

    results_per_s = run["results"] / run["busy"] if run["busy"] > 0 else 0.0
    p50 = statistics.median(run["durations"]) if run["durations"] else 0.0
    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "results_per_s": {"value": results_per_s, "unit": "1/s"},
            "request_p50_s": {"value": p50, "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    else:
        from perfbench.tracing import PER_LAYER

        values = tracer.metrics()
        metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}
        tracer.write(
            os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json"),
            {
                "workload": args.workload, "seed": args.seed, "rounds": run["rounds"],
                "requests": run["attempted"], "results": run["results"],
                "traced_results_per_s": results_per_s, "traced_request_p50_s": p50,
                "per_layer": values,
            },
        )
    print(json.dumps({
        "correct": not failures,
        "attempted": run["attempted"],
        "failed": len(run["failures"]),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
