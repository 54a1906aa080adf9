"""Command line interface.

Verbs:
    analyze   classify one function (corpus member or DSL source) and write
              a JSON report; exit 0 when nothing is refuted, 2 on refutation,
              1 on error.
    bcurve    emit the interpolation-coefficient curve b(lambda) as CSV.
    corpus    classify every corpus member against its ground-truth labels
              and check the verdicts against the implication lattice; exit 0
              on full agreement, 3 on insufficient sampling, 4 on a label
              mismatch or a lattice violation.  The member replaces any
              corpus or function target given; every other setting applies.

`--config FILE` loads a JSON RunConfig; explicit flags override file fields.
The environment variable GENCVX_SEED is the seed fallback when no --seed is
given anywhere.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .campaign import HOLDS, REFUTED, check_implication_lattice, classify
from .checks import compute_b_rows
from .functions import corpus, corpus_entry, function_from_expression
from .geometry import parse_region
from .report import Report, RunConfig

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REFUTED = 2
EXIT_INSUFFICIENT = 3
EXIT_MISMATCH = 4


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _resolve_config(args, **fixed) -> RunConfig:
    """The file's fields, overridden by the flags given, then by `fixed`."""
    base: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            base = json.load(fh)
    overrides = {
        "corpus_name": args.corpus,
        "function_source": args.function,
        "dimension": args.dim,
        "region_text": args.region,
        "properties": tuple(args.properties.split(",")) if args.properties else None,
        "pair_count": args.samples,
        "lambda_grid": args.lambda_grid,
        "refinement_rounds": args.refine_rounds,
        "seed": args.seed,
        "subdiff_radius": args.subdiff_radius,
        "subdiff_count": args.subdiff_count,
    }
    merged = dict(base)
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    merged.update(fixed)
    if merged.get("seed") is None:
        env = os.environ.get("GENCVX_SEED")
        merged["seed"] = int(env) if env else 0
    # RunConfig.from_dict rejects unknown keys.
    return RunConfig.from_dict({k: v for k, v in merged.items() if v is not None})


def _load_target(config: RunConfig):
    """The run's handle and region, built once per process (_build_target)."""
    return _build_target(
        config.corpus_name, config.function_source, config.dimension, config.region_text
    )


@functools.lru_cache(maxsize=32, typed=True)
def _build_target(corpus_name, function_source, dimension, region_text):
    """Handles and regions are immutable, and a DSL handle's tree keeps its
    compiled walks, so in-process callers that run main per request reuse a
    built target: a repeat skips the parse, the walk compilations, the
    region's feasibility probe and the corpus member's build.  A build that
    raises is not kept, so a bad target raises on every call.  Keys are
    typed: a config file's dimension 2.0 is not served the build for 2."""
    if corpus_name is not None:
        entry = corpus_entry(corpus_name)
        return entry.handle, entry.region
    fn = function_from_expression(function_source, dimension)
    region = parse_region(region_text, dimension)
    return fn, region


def _print_summary(verdicts) -> None:
    for v in verdicts:
        print(
            f"{v.property:28s} {v.verdict:17s} "
            f"witnesses={len(v.witnesses)} max_residual={v.max_residual:.6g}"
        )


def cmd_analyze(args) -> int:
    config = _resolve_config(args)
    fn, region = _load_target(config)
    verdicts = classify(fn, region, config.properties, config.plan())
    report = Report(
        config=config,
        verdicts=tuple(verdicts),
        workload={
            "pairs": config.pair_count,
            "lambda_grid": config.lambda_grid,
            "properties": len(config.properties),
        },
    )
    out = args.out or "report.json"
    text = report.to_json()
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    print(f"function: {fn.name}")
    _print_summary(verdicts)
    print(f"report: {out}")
    return EXIT_REFUTED if report.any_refuted() else EXIT_OK


def _parse_point(text: str, dimension: int) -> np.ndarray:
    vals = [float(t) for t in text.split(",")]
    if len(vals) != dimension:
        raise ValueError(f"point {text!r} has {len(vals)} coordinates, need {dimension}")
    return np.array(vals)


def cmd_bcurve(args) -> int:
    if args.grid < 1:
        raise ValueError(f"--grid must be at least 1, got {args.grid}")
    config = _resolve_config(args)
    fn, region = _load_target(config)
    x = _parse_point(args.x, fn.dimension)
    y = _parse_point(args.y, fn.dimension)
    for name, p in (("x", x), ("y", y)):
        if not region.contains(p):
            raise ValueError(f"point {name}={p.tolist()} is outside the region")
    lines = ["lambda,b,lambda_b,strict,weak,degenerate"]
    lams = [k / (args.grid + 1) for k in range(1, args.grid + 1)]
    for rec in compute_b_rows(fn, x, y, lams):
        lines.append(
            ",".join(
                (
                    _fmt(rec.lam),
                    _fmt(rec.b),
                    _fmt(rec.lam_b),
                    str(rec.strict).lower(),
                    str(rec.weak).lower(),
                    str(rec.degenerate).lower(),
                )
            )
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"curve: {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_corpus(args, label_overrides: dict[str, dict[str, bool]] | None = None) -> int:
    mismatches: list[str] = []
    starved: list[str] = []
    results = {}
    for entry in corpus():
        name = entry.handle.name
        # Each member replaces the target; --config and the flags set the rest.
        config = _resolve_config(
            args, corpus_name=name, function_source=None, dimension=None, region_text=None
        )
        verdicts = classify(entry.handle, entry.region, config.properties, config.plan())
        labels = dict(entry.labels)
        if label_overrides and name in label_overrides:
            labels.update(label_overrides[name])
        results[name] = {
            "verdicts": {v.property: v.verdict for v in verdicts},
            "labels": labels,
            "config": config.to_dict(),
        }
        print(f"-- {name}")
        for v in verdicts:
            expected = HOLDS if labels[v.property] else REFUTED
            status = "ok"
            if v.verdict == "inconclusive":
                status = "insufficient"
                starved.append(f"{name}/{v.property}")
            elif v.verdict != expected:
                status = f"MISMATCH (expected {expected})"
                mismatches.append(f"{name}/{v.property}: verdict={v.verdict} expected={expected}")
            print(f"   {v.property:28s} {v.verdict:17s} [{status}]")
    # Self-check: a violated implication is a tool bug, whatever the labels say.
    violations = check_implication_lattice({n: r["verdicts"] for n, r in results.items()})

    if args.out:
        doc = {
            "schema_version": "v1",
            "kind": "corpus",
            "seed": config.seed,
            "entries": results,
            "mismatches": mismatches,
            "insufficient": starved,
            "lattice_violations": [v.to_dict() for v in violations],
        }
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        print(f"report: {args.out}")

    if mismatches:
        print("label mismatches:")
        for m in mismatches:
            print(f"  {m}")
    if violations:
        print("implication lattice violations:")
        for v in violations:
            print(f"  {v.function}: {v.antecedent} holds but {v.consequent} is refuted")
    if mismatches or violations:
        return EXIT_MISMATCH
    if starved:
        print(f"insufficient sampling for {len(starved)} verdict(s)")
        return EXIT_INSUFFICIENT
    print("corpus verdicts match all ground-truth labels")
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, help="JSON config file (flags override)")
    p.add_argument("--corpus", type=str, help="corpus function name")
    p.add_argument("--function", type=str, help="DSL source, e.g. 'x2/x1'")
    p.add_argument("--dim", type=int, help="dimension for --function")
    p.add_argument("--region", type=str, help="region text, e.g. 'x1 > 0.05, box(0..2, -1..1)'")
    p.add_argument("--properties", type=str, help="comma-separated property list")
    p.add_argument("--samples", type=int, help="point pairs per property (default 200)")
    p.add_argument("--lambda-grid", dest="lambda_grid", type=int, help="lambda grid size (default 33)")
    p.add_argument("--refine-rounds", dest="refine_rounds", type=int, help="refinement rounds (default 3)")
    p.add_argument("--seed", type=int, help="campaign seed (env GENCVX_SEED, then 0)")
    p.add_argument("--subdiff-radius", dest="subdiff_radius", type=float, help="sampling radius (default 1e-5)")
    p.add_argument("--subdiff-count", dest="subdiff_count", type=int, help="gradient samples (default max(8, 2n+1))")
    p.add_argument("--out", type=str, help="output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gencvx",
        description="Certify at samples, or refute with witnesses, generalized "
        "convexity properties of functions on convex regions.",
    )
    sub = parser.add_subparsers(dest="command")

    pa = sub.add_parser("analyze", help="classify one function")
    _add_common(pa)

    pb = sub.add_parser("bcurve", help="emit b(lambda) as CSV")
    _add_common(pb)
    pb.add_argument("--x", type=str, required=True, help="first point, comma-separated")
    pb.add_argument("--y", type=str, required=True, help="second point, comma-separated")
    pb.add_argument("--grid", type=int, default=9, help="interior lambda count (default 9)")

    pc = sub.add_parser("corpus", help="verify corpus members against their labels")
    _add_common(pc)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reads arguments with, built once per process: a build
    costs many times a parse, and in-process callers run main per request."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_OK
    try:
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "bcurve":
            return cmd_bcurve(args)
        if args.command == "corpus":
            return cmd_corpus(args)
    except (ValueError, KeyError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    parser.print_help()
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
