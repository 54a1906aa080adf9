import argparse
import json
from dataclasses import replace

import pytest

from gencvx import cli, corpus
from gencvx.cli import (
    EXIT_ERROR,
    EXIT_INSUFFICIENT,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_REFUTED,
    build_parser,
    main,
)
from gencvx.campaign import HOLDS, REFUTED, LatticeViolation, PropertyVerdict
from gencvx.report import Report, RunConfig


def test_analyze_fractional_pseudolinear(tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "analyze", "--corpus", "fractional", "--properties", "pseudolinear",
        "--seed", "42", "--out", str(out),
    ])
    assert code == EXIT_OK
    doc = Report.parse(out.read_text())
    assert doc["config"]["corpus_name"] == "fractional"
    assert doc["properties"][0]["verdict"] == "holds-at-samples"
    assert doc["assumptions"]


def test_analyze_cubic_pseudoconvex_refuted(tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "analyze", "--function", "x1^3", "--dim", "1", "--region", "box(-1..1)",
        "--properties", "pseudoconvex", "--seed", "42", "--samples", "60",
        "--out", str(out),
    ])
    assert code == EXIT_REFUTED
    doc = Report.parse(out.read_text())
    (prop,) = doc["properties"]
    assert prop["verdict"] == "refuted"
    w = prop["witnesses"][0]
    assert abs(w["x"][0]) <= 1e-3


def test_analyze_syntax_error_no_partial_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["analyze", "--function", "min(x1", "--dim", "1",
                 "--region", "box(-1..1)", "--out", str(out)])
    assert code == EXIT_ERROR
    assert not out.exists()
    assert "offset 7" in capsys.readouterr().err


def test_analyze_rejects_conflicting_sources(tmp_path):
    code = main(["analyze", "--corpus", "affine", "--function", "x1",
                 "--dim", "1", "--region", "box(-1..1)",
                 "--out", str(tmp_path / "r.json")])
    assert code == EXIT_ERROR


def test_byte_identical_reports(tmp_path):
    args = ["analyze", "--corpus", "cubic", "--properties", "pseudoconvex,quasiconvex",
            "--seed", "3", "--samples", "40"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(out1)]) == EXIT_REFUTED
    assert main(args + ["--out", str(out2)]) == EXIT_REFUTED
    assert out1.read_bytes() == out2.read_bytes()


def test_analyze_a_tiny_strict_descent_is_no_tie(tmp_path):
    # Its pair descends from 4.92e-14 to 3.45e-18 on -f: strict, though both
    # values lie within 1e-12 of each other.  A noise floor with an absolute
    # term pinned it and refuted.
    t = "0.338*x1 - 0.568*x2 - 0.182"
    code = main(["analyze", "--function", f"max({t}, 0) + min({t}, 0)^3", "--dim", "2",
                 "--region", "box(-1..1, -1..1)", "--properties", "semistrictly-quasiconcave",
                 "--seed", "0", "--out", str(tmp_path / "r.json")])
    assert code == EXIT_OK


# -- the built-target cache ----------------------------------------------------

_BUILDERS = ("corpus_entry", "function_from_expression", "parse_region")


@pytest.fixture
def builds(monkeypatch):
    """Calls of each builder cli names, counted from an empty target cache."""
    counts = dict.fromkeys(_BUILDERS, 0)
    for name in _BUILDERS:

        def counted(*args, _name=name, _build=getattr(cli, name)):
            counts[_name] += 1
            return _build(*args)

        monkeypatch.setattr(cli, name, counted)
    cli._build_target.cache_clear()
    yield counts
    cli._build_target.cache_clear()


_DSL = ["--function", "max(x1, x2) + 0.5*x1", "--dim", "2",
        "--region", "x1 + x2 < 1.5, box(-1..1, -1..1)"]


@pytest.mark.parametrize("target, built", [
    (_DSL, {"function_from_expression": 1, "parse_region": 1}),
    (["--corpus", "ramp"], {"corpus_entry": 1}),
], ids=["dsl", "corpus"])
def test_a_repeat_analyze_builds_nothing_and_writes_the_same_bytes(tmp_path, builds, target, built):
    args = ["analyze", *target, "--properties", "quasiconvex,semistrictly-quasiconcave",
            "--seed", "3", "--samples", "40"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    code = main(args + ["--out", str(out1)])
    assert code in (EXIT_OK, EXIT_REFUTED)
    first = dict(builds)
    assert main(args + ["--out", str(out2)]) == code
    assert builds == first == dict.fromkeys(_BUILDERS, 0) | built
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("target, built", [
    (_DSL, {"function_from_expression": 1, "parse_region": 1}),
    (["--corpus", "affine"], {"corpus_entry": 1}),
], ids=["dsl", "corpus"])
def test_a_repeat_bcurve_builds_nothing_and_writes_the_same_csv(tmp_path, builds, target, built):
    args = ["bcurve", *target, "--x=0.5,0.1", "--y=-0.4,-0.2"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    assert builds == dict.fromkeys(_BUILDERS, 0) | built
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("config, error, builder", [
    (RunConfig(function_source="min(x1", dimension=1, region_text="box(-1..1)"),
     "offset 7", "function_from_expression"),
    (RunConfig(corpus_name="nope"), "unknown corpus function 'nope'", "corpus_entry"),
    (RunConfig(function_source="x1", dimension=2, region_text="x1 + x2 > 1.9, box(0..1, 0..1)"),
     "region too thin", "parse_region"),
], ids=["malformed-function", "unknown-member", "thin-region"])
def test_a_bad_target_raises_on_every_call(builds, config, error, builder):
    for calls in (1, 2):
        with pytest.raises((ValueError, KeyError), match=error):
            cli._load_target(config)
        assert builds[builder] == calls


def test_bcurve_matches_closed_form(tmp_path, capsys):
    code = main([
        "bcurve", "--function", "x2/x1", "--dim", "2",
        "--region", "x1 > 0.05, box(0..3, -1..3)",
        "--x", "1,0", "--y", "2,2", "--grid", "5",
    ])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "lambda,b,lambda_b,strict,weak,degenerate"
    assert len(lines) == 6
    for k, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        lam = k / 6
        assert float(cells[0]) == pytest.approx(lam, abs=1e-15)
        assert float(cells[1]) == pytest.approx(2.0 / (1.0 + lam), rel=1e-12)
        assert cells[3] == "true" and cells[4] == "true" and cells[5] == "false"
        # 17 significant digits and a dot decimal separator
        assert "." in cells[1]


def test_bcurve_affine_constant_one(capsys):
    code = main([
        "bcurve", "--corpus", "affine", "--x=0.5,0.1", "--y=-0.4,-0.2",
        "--grid", "3",
    ])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    for line in lines[1:]:
        assert float(line.split(",")[1]) == pytest.approx(1.0, abs=1e-12)


def test_bcurve_degenerate_pair_marker(capsys):
    code = main([
        "bcurve", "--corpus", "affine", "--x", "0,0", "--y", "0.6,1.0",
        "--grid", "3",
    ])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[1]) == 1.0
        assert cells[5] == "true"


def test_bcurve_rejects_point_outside_region(tmp_path):
    code = main([
        "bcurve", "--corpus", "fractional", "--x", "0.01,0", "--y", "1,0",
    ])
    assert code == EXIT_ERROR


@pytest.mark.parametrize("grid", ["0", "-2"])
def test_bcurve_rejects_a_grid_without_points(grid, capsys):
    code = main([
        "bcurve", "--corpus", "fractional", "--x", "1,0", "--y", "1.5,0.5", "--grid", grid,
    ])
    assert code == EXIT_ERROR
    out = capsys.readouterr()
    assert out.out == ""
    assert f"--grid must be at least 1, got {grid}" in out.err


def test_bcurve_writes_file(tmp_path):
    out = tmp_path / "curve.csv"
    code = main([
        "bcurve", "--corpus", "affine", "--x=0.5,0.1", "--y=-0.4,-0.2",
        "--grid", "4", "--out", str(out),
    ])
    assert code == EXIT_OK
    text = out.read_text()
    assert text.endswith("\n")
    assert "\r" not in text


def test_corpus_starved_plan_exits_3(capsys):
    code = main(["corpus", "--samples", "1", "--seed", "42"])
    assert code == EXIT_INSUFFICIENT


def test_corpus_injected_wrong_label_exits_4(tmp_path, monkeypatch, capsys):
    def wrong_labels():
        return [replace(e, labels={**e.labels, "pseudoconvex": False})
                if e.handle.name == "affine" else e for e in corpus()]

    monkeypatch.setattr(cli, "corpus", wrong_labels)
    out = tmp_path / "corpus.json"
    code = main(["corpus", "--samples", "40", "--seed", "42", "--out", str(out)])
    assert code == EXIT_MISMATCH
    doc = json.loads(out.read_text())
    assert doc["mismatches"]
    assert "affine/pseudoconvex" in doc["mismatches"][0]


def test_corpus_applies_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"corpus_name": "affine", "pair_count": 20}))
    out = tmp_path / "corpus.json"
    code = main(["corpus", "--config", str(cfg), "--seed", "42", "--out", str(out)])
    assert code in (EXIT_OK, EXIT_INSUFFICIENT, EXIT_MISMATCH)
    doc = json.loads(out.read_text())
    assert len(doc["entries"]) == 7
    for name, entry in doc["entries"].items():
        assert entry["config"]["pair_count"] == 20
        assert entry["config"]["corpus_name"] == name


def test_corpus_reads_its_config_file_once(tmp_path, monkeypatch):
    # The file is resolved once and each member takes it with its own name;
    # opening it once per member would open it 7 times.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pair_count": 8, "properties": ["quasiconvex"]}))
    opened = []

    def counted(path, *args, **kwargs):
        opened.append(path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", counted, raising=False)
    main(["corpus", "--config", str(cfg), "--seed", "1"])
    assert opened == [str(cfg)]


def test_corpus_lattice_violation_exits_4(tmp_path, monkeypatch, capsys):
    import gencvx.cli as cli

    def violated(verdict_sets):
        return [LatticeViolation("affine", "pseudoconvex", "quasiconvex")]

    monkeypatch.setattr(cli, "check_implication_lattice", violated)
    out = tmp_path / "corpus.json"
    code = main(["corpus", "--samples", "40", "--seed", "42", "--properties", "quasiconvex",
                 "--out", str(out)])
    assert code == EXIT_MISMATCH
    doc = json.loads(out.read_text())
    assert doc["mismatches"] == []
    assert doc["lattice_violations"] == [
        {"function": "affine", "antecedent": "pseudoconvex", "consequent": "quasiconvex"}
    ]
    assert "affine: pseudoconvex holds but quasiconvex is refuted" in capsys.readouterr().out


@pytest.mark.parametrize("quasiconcave, code", [(REFUTED, EXIT_MISMATCH), (HOLDS, EXIT_OK)])
def test_analyze_checks_its_verdicts_against_the_lattice(tmp_path, monkeypatch, capsys,
                                                         quasiconcave, code):
    # pseudoconcave implies quasiconcave, so refuting only the consequent is
    # a tool bug: analyze names the edge on stderr and exits 4, over the 2 a
    # refutation gives, and writes the report all the same.
    def stub(fn, region, properties, plan):
        verdicts = {"pseudoconcave": HOLDS, "quasiconcave": quasiconcave}
        return [PropertyVerdict(p, verdicts[p], 1, 0, 0, 0, ()) for p in properties]

    monkeypatch.setattr(cli, "classify", stub)
    out = tmp_path / "r.json"
    assert main(["analyze", "--function", "x1", "--dim", "1", "--region", "box(-1..1)",
                 "--properties", "pseudoconcave,quasiconcave", "--out", str(out)]) == code
    doc = Report.parse(out.read_text())
    assert [p["verdict"] for p in doc["properties"]] == [HOLDS, quasiconcave]
    err = capsys.readouterr().err
    edge = "x1: pseudoconcave holds but quasiconcave is refuted"
    assert (edge in err) == (code == EXIT_MISMATCH)


def test_bcurve_sqrt_through_zero(capsys):
    code = main([
        "bcurve", "--function", "sqrt(x1^2)", "--dim", "1",
        "--region", "box(-1..1)", "--x=-1", "--y", "1", "--grid", "1",
    ])
    assert code == EXIT_OK
    (header, row) = capsys.readouterr().out.strip().splitlines()
    assert row.split(",")[0] == "0.5"
    assert row.endswith(",true")  # f(x) = f(y): the degenerate marker


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "corpus_name": "cubic",
        "properties": ["pseudoconvex"],
        "seed": 1,
        "pair_count": 40,
    }))
    out = tmp_path / "r.json"
    code = main(["analyze", "--config", str(cfg), "--seed", "9", "--out", str(out)])
    assert code == EXIT_REFUTED
    doc = Report.parse(out.read_text())
    assert doc["config"]["seed"] == 9          # flag wins
    assert doc["config"]["pair_count"] == 40   # file field kept


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"corpus_name": "cubic", "bogus": 1}))
    assert main(["analyze", "--config", str(cfg), "--out",
                 str(tmp_path / "r.json")]) == EXIT_ERROR


_DSL_CONFIG = {"function_source": "x1^2", "dimension": 1, "region_text": "box(-1..1)",
               "properties": ["quasiconvex"], "pair_count": 20}


@pytest.mark.parametrize("field, value", [
    ("dimension", 1.0),
    ("dimension", True),
    ("lambda_grid", 2.5),
    ("pair_count", 20.0),
    ("seed", 1.5),
    ("subdiff_radius", "1e-5"),
    ("subdiff_radius", float("nan")),
    ("properties", "quasiconvex"),  # not split into letters
    ("subdiff_count", 9.0),  # not echoed as 9.0
    ("config", [_DSL_CONFIG]),  # the file holds a list, not an object
])
def test_bad_config_file_values_are_named(tmp_path, capsys, field, value):
    # Each is one error line naming the field, never a traceback or a report.
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(value if field == "config" else {**_DSL_CONFIG, field: value}))
    out = tmp_path / "r.json"
    assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == EXIT_ERROR
    assert not out.exists()
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {field} ")


def test_analyze_rejects_an_empty_property_list(tmp_path, capsys):
    # Only an absent property list means every property: an empty one is an
    # error, not a report of 9 verdicts whose config names none.
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"properties": []}))
    out = tmp_path / "r.json"
    code = main(["analyze", "--corpus", "ramp", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_ERROR
    assert not out.exists()
    assert "no properties requested" in capsys.readouterr().err


def test_env_seed_fallback(tmp_path, monkeypatch):
    out = tmp_path / "r.json"
    monkeypatch.setenv("GENCVX_SEED", "5")
    code = main(["analyze", "--corpus", "affine", "--properties", "quasiconvex",
                 "--samples", "20", "--out", str(out)])
    assert code == EXIT_OK
    assert Report.parse(out.read_text())["config"]["seed"] == 5


def test_report_round_trip():
    config = RunConfig(corpus_name="affine", properties=("quasiconvex",), seed=0)
    report = Report(config=config, verdicts=(), workload={"pairs": 1})
    doc = Report.parse(report.to_json())
    assert doc == report.to_dict()


@pytest.mark.parametrize("prop", ["quasiconvex", "pseudoconvex"])
def test_analyze_rejects_too_few_subdifferential_samples(tmp_path, capsys, prop):
    # Rejected before any sampling, whether or not the properties estimate
    # subdifferentials: paraboloid is 2-D, so at least 5 are needed.
    out = tmp_path / "report.json"
    code = main(["analyze", "--corpus", "paraboloid", "--properties", prop,
                 "--subdiff-count", "0", "--out", str(out)])
    assert code == EXIT_ERROR
    assert not out.exists()
    assert "subdifferential count must be >= 2n+1 = 5, got 0" in capsys.readouterr().err
    assert main(["analyze", "--corpus", "paraboloid", "--properties", prop,
                 "--subdiff-count", "5", "--samples", "20", "--out", str(out)]) in (
        EXIT_OK, EXIT_REFUTED)


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig()  # no source
    with pytest.raises(ValueError):
        RunConfig(corpus_name="affine", function_source="x1")  # both
    with pytest.raises(ValueError):
        RunConfig(function_source="x1")  # missing dim/region
    with pytest.raises(ValueError):
        RunConfig(corpus_name="affine", properties=("nope",))
    with pytest.raises(ValueError, match="no properties requested"):
        RunConfig(corpus_name="affine", properties=())
    with pytest.raises(ValueError):
        RunConfig.from_dict({"corpus_name": "affine", "bogus": 3})


def test_parser_has_documented_flags():
    parser = build_parser()
    text = parser.format_help()
    for verb in ("analyze", "bcurve", "corpus"):
        assert verb in text


# -- the flag surface ----------------------------------------------------------

_BCURVE = ["bcurve", "--corpus", "affine", "--x=0.5,0.1", "--y=-0.4,-0.2", "--grid", "2"]
_BCURVE_CSV = ("lambda,b,lambda_b,strict,weak,degenerate\n"
               "0.33333333333333331,1.0000000000000002,0.33333333333333337,true,true,false\n"
               "0.66666666666666663,1,0.66666666666666663,true,true,false\n")
_TARGET = {"--corpus", "--function", "--dim", "--region"}
_SAMPLING = {"--samples", "--lambda-grid", "--refine-rounds", "--seed", "--subdiff-radius",
             "--subdiff-count"}


def _flags(verb: str) -> set[str]:
    (verbs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {s for a in verbs.choices[verb]._actions for s in a.option_strings} - {"-h", "--help"}


def test_each_verb_takes_only_the_flags_it_reads():
    common = {"--config", "--out"}
    assert _flags("analyze") == common | _TARGET | {"--properties"} | _SAMPLING
    assert _flags("bcurve") == common | _TARGET | {"--x", "--y", "--grid"}
    assert _flags("corpus") == common | {"--properties"} | _SAMPLING


@pytest.mark.parametrize("verb, flag", [("bcurve", f) for f in sorted(_SAMPLING | {"--properties"})]
                         + [("corpus", f) for f in sorted(_TARGET)])
def test_a_flag_the_verb_does_not_read_is_a_usage_error(capsys, verb, flag):
    # argparse's usage error exits 2, the code of a refutation: main
    # returns EXIT_ERROR instead, before any run.
    argv = _BCURVE if verb == "bcurve" else ["corpus"]
    assert main([*argv, flag, "0"]) == EXIT_ERROR
    assert f"unrecognized arguments: {flag} 0" in capsys.readouterr().err


def test_an_unknown_flag_is_a_usage_error_and_help_is_not(capsys):
    assert main(["analyze", "--corpus", "affine", "--bogus", "1"]) == EXIT_ERROR
    assert "unrecognized arguments: --bogus 1" in capsys.readouterr().err
    assert main(["analyze", "--help"]) == EXIT_OK
    assert "--subdiff-radius" in capsys.readouterr().out


@pytest.mark.parametrize("fields", [{"pair_count": 0}, {"properties": ["nope"]}, {"bogus": 1}])
def test_bcurve_checks_and_uses_only_the_target_fields_of_its_config(tmp_path, capsys, fields):
    # bcurve reads no sampling field, so a bad one in the file is no error;
    # a key that is no RunConfig field still is.
    cfg, out = tmp_path / "c.json", tmp_path / "b.csv"
    cfg.write_text(json.dumps(fields))
    code = main([*_BCURVE, "--config", str(cfg), "--out", str(out)])
    if "bogus" in fields:
        assert code == EXIT_ERROR and not out.exists()
        assert "unknown config keys: bogus" in capsys.readouterr().err
    else:
        assert code == EXIT_OK and out.read_text() == _BCURVE_CSV


def test_only_a_verb_that_reads_a_seed_reads_gencvx_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GENCVX_SEED", "abc")
    out = tmp_path / "b.csv"
    assert main([*_BCURVE, "--out", str(out)]) == EXIT_OK
    assert out.read_text() == _BCURVE_CSV
    capsys.readouterr()
    report = tmp_path / "r.json"
    assert main(["analyze", "--corpus", "affine", "--out", str(report)]) == EXIT_ERROR
    assert "'abc'" in capsys.readouterr().err
    assert not report.exists()
