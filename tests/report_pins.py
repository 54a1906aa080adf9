"""Pinned reports as text: report_pins.jsonl holds one classify verdict per
line, as json.dumps({"key": [...], "suite": suite, "verdict": v.to_dict()},
sort_keys=True), in the order the suite makes them.

Reports must stay byte-identical, so a pinned suite compares the text of
every verdict it makes with its stored line: a change that is faster but one
ulp off fails, and the failure names the first verdict and field that
differ.  A change that moves verdicts or residuals on purpose rewrites the
suite's lines (pin_lines gives them), says so in CHANGES.md, and its diff of
this file shows what moved.
"""

import json
from pathlib import Path

PINS = Path(__file__).with_name("report_pins.jsonl")


def pin_lines(suite: str, verdicts: dict) -> list[str]:
    """The lines of a suite: verdicts maps each key, a tuple, to the
    to_dict() of its verdicts, in order."""
    return [json.dumps({"key": list(key), "suite": suite, "verdict": v}, sort_keys=True)
            for key, vs in verdicts.items() for v in vs]


def stored_lines(suite: str) -> list[str]:
    """The suite's lines in report_pins.jsonl, in file order."""
    return [line for line in PINS.read_text(encoding="utf-8").splitlines()
            if json.loads(line)["suite"] == suite]


def _first_difference(got, want, path: str):
    """(path, got, want) at the first field, in sorted key order, where the
    two JSON values differ in text; None where they do not."""
    if isinstance(got, dict) and isinstance(want, dict):
        for k in sorted(set(got) | set(want)):
            diff = _first_difference(got.get(k), want.get(k), f"{path}.{k}".lstrip("."))
            if diff:
                return diff
        return None
    if isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        for i, (g, w) in enumerate(zip(got, want)):
            diff = _first_difference(g, w, f"{path}[{i}]")
            if diff:
                return diff
        return None
    return None if json.dumps(got) == json.dumps(want) else (path, got, want)


def assert_pinned(suite: str, verdicts: dict) -> None:
    """AssertionError unless the verdicts' lines equal the stored ones, text
    for text, naming the first (key, property) and field that differ."""
    got, want = pin_lines(suite, verdicts), stored_lines(suite)
    for g, w in zip(got, want):
        if g != w:
            g, w = json.loads(g), json.loads(w)
            at = f"{suite} {tuple(w['key'])} {w['verdict']['property']}"
            path, mine, pinned = _first_difference(g, w, "")
            raise AssertionError(f"{at}: {path} is {mine!r}, pinned {pinned!r}")
    assert len(got) == len(want), f"{suite}: {len(got)} verdicts made, {len(want)} pinned"
