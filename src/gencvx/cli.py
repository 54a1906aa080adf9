"""Command line interface.

Verbs:
    analyze   classify one function (corpus member or DSL source) and write
              a JSON report; exit 0 when nothing is refuted, 2 on refutation,
              4 when the verdicts violate the implication lattice (whatever
              else was refuted).
    bcurve    emit the interpolation-coefficient curve b(lambda) as CSV.
    corpus    classify every corpus member against its ground-truth labels
              and check the verdicts against the implication lattice; exit 0
              on full agreement, 3 on insufficient sampling, 4 on a label
              mismatch or a lattice violation.  Each member is the target.

Each verb takes only the flags it reads: bcurve no sampling flags, corpus no
target flags.  Any verb exits 1 on an error, a usage error among them.
`--config FILE` loads a JSON RunConfig; explicit flags override file fields.
GENCVX_SEED is the seed of analyze and corpus when no --seed is given anywhere.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import fields

import numpy as np

from .campaign import HOLDS, REFUTED, SamplingPlan, check_implication_lattice, classify
from .checks import compute_b_rows
from .functions import corpus, corpus_entry, function_from_expression
from .geometry import parse_region
from .report import SCHEMA_VERSION, Report, RunConfig

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REFUTED = 2
EXIT_INSUFFICIENT = 3
EXIT_MISMATCH = 4


def _fmt(v: float) -> str:
    return f"{v:.17g}"


_FIELDS = {f.name for f in fields(RunConfig)}


def _resolve_config(args, **fixed) -> RunConfig:
    """The file's fields, overridden by the flags given, then by `fixed`.
    The flags' dests are the RunConfig fields they set."""
    base: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            base = json.load(fh)
        if not isinstance(base, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object, "
                             f"got a {type(base).__name__}")
    flags = {k: v for k, v in vars(args).items() if k in _FIELDS and v is not None}
    merged = {**base, **flags, **fixed}
    if hasattr(args, "seed") and merged.get("seed") is None:  # a verb that reads a seed
        env = os.environ.get("GENCVX_SEED")
        merged["seed"] = int(env) if env else 0
    # RunConfig.from_dict rejects unknown keys.
    return RunConfig.from_dict({k: v for k, v in merged.items() if v is not None})


def _load_target(config: RunConfig):
    """The run's handle and region, built once per process (_build_target)."""
    return _build_target(
        config.corpus_name, config.function_source, config.dimension, config.region_text
    )


@functools.lru_cache(maxsize=32)
def _build_target(corpus_name, function_source, dimension, region_text):
    """Handles and regions are immutable, and a DSL handle's tree keeps its
    compiled walks, so in-process callers that run main per request reuse a
    built target: a repeat skips the parse, the walk compilations, the
    region's feasibility probe and the corpus member's build.  A build that
    raises is not kept, so a bad target raises on every call."""
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
    violations = check_implication_lattice({fn.name: {v.property: v.verdict for v in verdicts}})
    if violations:
        _print_violations(violations, sys.stderr)
        return EXIT_MISMATCH
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
        flags = (rec.strict, rec.weak, rec.degenerate)
        lines.append(",".join([_fmt(rec.lam), _fmt(rec.b), _fmt(rec.lam_b)]
                              + [str(f).lower() for f in flags]))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"curve: {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _print_violations(violations, file=None) -> None:
    print("implication lattice violations:", file=file)
    for v in violations:
        print(f"  {v.function}: {v.antecedent} holds but {v.consequent} is refuted", file=file)


def cmd_corpus(args) -> int:
    mismatches: list[str] = []
    starved: list[str] = []
    results = {}
    for entry in corpus():
        name = entry.handle.name
        # Each member is the target, whatever --config names; the file and the flags set the rest.
        config = _resolve_config(
            args, corpus_name=name, function_source=None, dimension=None, region_text=None
        )
        verdicts = classify(entry.handle, entry.region, config.properties, config.plan())
        results[name] = {
            "verdicts": {v.property: v.verdict for v in verdicts},
            "labels": dict(entry.labels),
            "config": config.to_dict(),
        }
        print(f"-- {name}")
        for v in verdicts:
            expected = HOLDS if entry.labels[v.property] else REFUTED
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
            "schema_version": SCHEMA_VERSION,
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
        _print_violations(violations)
    if mismatches or violations:
        return EXIT_MISMATCH
    if starved:
        print(f"insufficient sampling for {len(starved)} verdict(s)")
        return EXIT_INSUFFICIENT
    print("corpus verdicts match all ground-truth labels")
    return EXIT_OK


def _verb(sub, name: str, text: str, target: bool, sampling: bool) -> argparse.ArgumentParser:
    """A verb's parser: --config, the target and the sampling flags where it
    reads them, and --out.  An absent flag is None, so that it overrides no
    field of the config file."""
    p = sub.add_parser(name, help=text)
    p.add_argument("--config", help="JSON config file (flags override)")
    if target:
        p.add_argument("--corpus", dest="corpus_name", help="corpus function name")
        p.add_argument("--function", dest="function_source", help="DSL source, e.g. 'x2/x1'")
        p.add_argument("--dim", dest="dimension", type=int, help="dimension for --function")
        p.add_argument("--region", dest="region_text", help="region text, e.g. 'x1 > 0.05, box(0..2, -1..1)'")
    if sampling:
        d = SamplingPlan()
        p.add_argument("--properties", type=lambda t: tuple(t.split(",")) if t else None,
                       help="comma-separated property list")
        p.add_argument("--samples", dest="pair_count", type=int, help=f"point pairs per property (default {d.pair_count})")
        p.add_argument("--lambda-grid", type=int, help=f"lambda grid size (default {d.lambda_grid})")
        p.add_argument("--refine-rounds", dest="refinement_rounds", type=int, help=f"refinement rounds (default {d.refinement_rounds})")
        p.add_argument("--seed", type=int, help=f"campaign seed (env GENCVX_SEED, then {d.seed})")
        p.add_argument("--subdiff-radius", type=float, help=f"sampling radius (default {d.subdiff_radius})")
        p.add_argument("--subdiff-count", type=int, help="gradient samples (default max(8, 2n+1))")
    p.add_argument("--out", help="output path")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gencvx",
        description="Certify at samples, or refute with witnesses, generalized "
        "convexity properties of functions on convex regions.",
    )
    sub = parser.add_subparsers(dest="command")
    _verb(sub, "analyze", "classify one function", target=True, sampling=True)
    pb = _verb(sub, "bcurve", "emit b(lambda) as CSV", target=True, sampling=False)
    pb.add_argument("--x", required=True, help="first point, comma-separated")
    pb.add_argument("--y", required=True, help="second point, comma-separated")
    pb.add_argument("--grid", type=int, default=9, help="interior lambda count (default 9)")
    _verb(sub, "corpus", "verify corpus members against their labels", target=False, sampling=True)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reads arguments with, built once per process: a build
    costs many times a parse, and in-process callers run main per request."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed a usage error, or the help
        return EXIT_OK if exc.code in (0, None) else EXIT_ERROR
    if args.command is None:
        parser.print_help()
        return EXIT_OK
    verbs = {"analyze": cmd_analyze, "bcurve": cmd_bcurve, "corpus": cmd_corpus}
    try:
        return verbs[args.command](args)
    except (ValueError, KeyError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
