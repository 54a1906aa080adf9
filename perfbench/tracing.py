"""Spans around calls into gencvx's public functions, installed from outside.

The tracer replaces each traced function (or method) with a wrapper in every
gencvx module that holds a reference to it, so calls between modules are
seen as well as the benchmark's own calls.  Each call opens a span with a
name, a start, an end, its parent span and the request it belongs to.  A
span's self time is its duration minus the time its child spans cover.

Calls made millions of times per request (value and gradient evaluation,
region membership, segment points) are "hot": they are timed and counted and
their time is charged to the parent, but no span is stored for each one, so
a traced run keeps its memory bounded.  All other spans are kept in memory
and written when the run ends.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# (dotted name under gencvx, metric group, kind).  A "span" is stored; a
# "hot" call is timed and counted but not stored; a "leaf" is hot and runs
# nothing traced inside it, so it needs no frame of its own.
TRACED = (
    ("expr.parse", "expr.parse", "span"),
    ("expr.eval_value", "expr.value", "leaf"),
    ("expr.eval_dual", "expr.grad", "leaf"),
    ("functions.FunctionHandle.value", "functions.value", "hot"),
    ("functions.FunctionHandle.grad", "functions.grad", "hot"),
    ("functions.function_from_expression", "functions.build", "span"),
    ("functions.corpus", "functions.build", "span"),
    ("functions.corpus_entry", "functions.build", "span"),
    ("geometry.Region.contains", "geometry.contains", "leaf"),
    ("geometry.segment_point", "geometry.segment_point", "leaf"),
    ("geometry.parse_region", "geometry.parse_region", "span"),
    ("geometry.sample_region", "geometry.sample_region", "span"),
    ("nonsmooth.subdifferential", "nonsmooth.subdifferential", "span"),
    ("nonsmooth.clarke_directional", "nonsmooth.clarke", "span"),
    ("nonsmooth.directional_derivative", "nonsmooth.directional", "span"),
    ("nonsmooth.negate_estimate", "nonsmooth.negate", "span"),
    ("checks.check_quasiconvex_segment", "checks.segment", "span"),
    ("checks.check_semistrict_quasiconvex_segment", "checks.segment", "span"),
    ("checks.check_interlacing", "checks.segment", "span"),
    ("checks.check_pseudoconvex_pair", "checks.pair", "span"),
    ("checks.check_weak_monotone_pair", "checks.pair", "span"),
    ("checks.verify_p_identity", "checks.pair", "span"),
    ("checks.compute_p", "checks.pair", "span"),
    ("checks.check_symmetric_equality", "checks.pair", "span"),
    ("checks.check_symmetric_inequality", "checks.pair", "span"),
    ("checks.check_gradient_kernel", "checks.pair", "span"),
    ("checks.check_subdiff_kernel_pair", "checks.pair", "span"),
    ("checks.compute_b", "checks.compute_b", "span"),
    ("checks.estimate_q_limit", "checks.q_limit", "span"),
    ("checks.cross_check_b_via_subdifferential", "checks.cross_check", "span"),
    ("campaign.classify", "campaign.classify", "span"),
    ("campaign.refine_counterexample", "campaign.refine", "span"),
    ("campaign.replay_witness", "campaign.replay", "span"),
    ("report.Report.to_json", "report.to_json", "span"),
    ("report.Report.to_dict", "report.to_json", "span"),
    ("cli.main", "cli", "span"),
    ("cli.cmd_analyze", "cli", "span"),
    ("cli.cmd_bcurve", "cli", "span"),
    ("cli.cmd_corpus", "cli", "span"),
)

# Per-layer metrics: name -> (unit, better).  `metrics()` fills every one.
PER_LAYER = {
    "expr.value_calls": ("count", "lower"),
    "expr.evals_per_unique_point": ("ratio", "lower"),
    "expr.value_s": ("s", "lower"),
    "expr.values_per_s": ("1/s", "higher"),
    "expr.grad_calls": ("count", "lower"),
    "expr.parse_s": ("s", "lower"),
    "functions.value_self_s": ("s", "lower"),
    "functions.grad_calls": ("count", "lower"),
    "geometry.contains_calls": ("count", "lower"),
    "geometry.contains_s": ("s", "lower"),
    "geometry.segment_point_s": ("s", "lower"),
    "nonsmooth.subdifferential_calls": ("count", "lower"),
    "nonsmooth.subdifferential_s": ("s", "lower"),
    "nonsmooth.kink_rechecks": ("count", "lower"),
    "nonsmooth.clarke_calls": ("count", "lower"),
    "nonsmooth.clarke_s": ("s", "lower"),
    "checks.segment_s": ("s", "lower"),
    "checks.pair_s": ("s", "lower"),
    "checks.compute_b_calls": ("count", "lower"),
    "checks.compute_b_s": ("s", "lower"),
    "checks.q_limit_s": ("s", "lower"),
    "checks.cross_check_s": ("s", "lower"),
    "campaign.classify_s": ("s", "lower"),
    "campaign.self_s": ("s", "lower"),
    "campaign.replay_s": ("s", "lower"),
    "report.to_json_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
}


@dataclass
class _Stat:
    calls: int = 0
    total: float = 0.0  # inclusive time
    own: float = 0.0  # self time


class _Frame:
    __slots__ = ("span", "child")

    def __init__(self, span: int):
        self.span = span
        self.child = 0.0


def _resolve(dotted: str):
    """(owner, attribute) for 'module.function' or 'module.Class.method' under gencvx."""
    parts = dotted.split(".")
    owner = importlib.import_module(f"gencvx.{parts[0]}")
    for p in parts[1:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


class Tracer:
    """Install with `install()`, run the traced work, then `uninstall()`."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.groups: dict[str, str] = {}
        self.spans: list[tuple] = []  # (id, parent, request, name, start, end)
        self.request = -1  # the current request index; -1 outside requests
        self.unique_points = 0  # distinct (function, point) pairs, summed per request
        self.kink_rechecks = 0
        self._points: set = set()
        self._stack = [_Frame(0)]
        self._next_id = 1
        self._last_subdiff = None
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    @contextmanager
    def scope(self, name: str, request: int = -1):
        """A span opened by the benchmark itself: set-up, one request, or the
        checks.  Distinct points are counted per scope."""
        self.stats.setdefault(name, _Stat())
        self.groups.setdefault(name, "bench")
        self.request = request
        self._points.clear()
        frame = self._enter()
        t0 = perf_counter()
        try:
            yield
        finally:
            self._leave(name, frame, t0, perf_counter(), True)
            self.unique_points += len(self._points)
            self._points.clear()
            self.request = -1

    def _enter(self) -> _Frame:
        frame = _Frame(self._next_id)
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _leave(self, name: str, frame: _Frame, start: float, end: float, keep: bool) -> None:
        self._stack.pop()
        parent = self._stack[-1]
        d = end - start
        parent.child += d
        st = self.stats[name]
        st.calls += 1
        st.total += d
        st.own += d - frame.child
        if keep:
            self.spans.append((frame.span, parent.span, self.request, name, start, end))

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn, kind: str):
        tracer = self
        stats = self.stats
        stack = self._stack
        if kind == "leaf":
            count_point = name == "expr.eval_value"
            points = self._points

            def leaf(*args, _fn=fn, **kwargs):
                if count_point:  # eval_value(expression, point)
                    points.add((id(args[0]), _point_key(args[1])))
                t0 = perf_counter()
                try:
                    return _fn(*args, **kwargs)
                finally:
                    d = perf_counter() - t0
                    stack[-1].child += d
                    st = stats[name]
                    st.calls += 1
                    st.total += d
                    st.own += d

            return leaf

        keep = kind == "span"
        after = self._note_subdifferential if name == "nonsmooth.subdifferential" else None

        def traced(*args, _fn=fn, **kwargs):
            frame = tracer._enter()
            t0 = perf_counter()
            try:
                out = _fn(*args, **kwargs)
            finally:
                tracer._leave(name, frame, t0, perf_counter(), keep)
            if after is not None:
                after(out, *args, **kwargs)
            return out

        return traced

    def _note_subdifferential(self, est, fn, region, x, radius, count, seed=0) -> None:
        """Count the campaign's re-check of a flagged kink at radius/1000: a
        call at the same point and seed right after one that found a kink."""
        key = (_point_key(x), seed)
        last = self._last_subdiff
        if (
            last is not None
            and last[0] == key
            and last[2]
            and math.isclose(radius * 1000.0, last[1], rel_tol=1e-9)
        ):
            self.kink_rechecks += 1
        self._last_subdiff = (key, radius, est.at_kink)

    def install(self) -> None:
        for dotted, _, _ in TRACED:
            _resolve(dotted)  # import every traced module before rebinding names
        modules = [
            m for n, m in list(sys.modules.items())
            if n.split(".")[0] in ("gencvx", "perfbench")
        ]
        for dotted, group, kind in TRACED:
            owner, attr = _resolve(dotted)
            original = getattr(owner, attr)
            self.stats[dotted] = _Stat()
            self.groups[dotted] = group
            wrapper = self._wrap(dotted, original, kind)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            # Rebind names imported with `from .module import name`.
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def _group(self, group: str, field: str) -> float:
        return sum(
            getattr(self.stats[n], field) for n, g in self.groups.items() if g == group
        )

    def metrics(self) -> dict[str, float]:
        value_calls = self._group("expr.value", "calls")
        value_s = self._group("expr.value", "total")
        return {
            "expr.value_calls": value_calls,
            "expr.evals_per_unique_point": value_calls / self.unique_points if self.unique_points else 0.0,
            "expr.value_s": value_s,
            "expr.values_per_s": value_calls / value_s if value_s else 0.0,
            "expr.grad_calls": self._group("expr.grad", "calls"),
            "expr.parse_s": self._group("expr.parse", "own"),
            "functions.value_self_s": self._group("functions.value", "own"),
            "functions.grad_calls": self._group("functions.grad", "calls"),
            "geometry.contains_calls": self._group("geometry.contains", "calls"),
            "geometry.contains_s": self._group("geometry.contains", "own"),
            "geometry.segment_point_s": self._group("geometry.segment_point", "own"),
            "nonsmooth.subdifferential_calls": self._group("nonsmooth.subdifferential", "calls"),
            "nonsmooth.subdifferential_s": self._group("nonsmooth.subdifferential", "own"),
            "nonsmooth.kink_rechecks": self.kink_rechecks,
            "nonsmooth.clarke_calls": self._group("nonsmooth.clarke", "calls"),
            "nonsmooth.clarke_s": self._group("nonsmooth.clarke", "own"),
            "checks.segment_s": self._group("checks.segment", "own"),
            "checks.pair_s": self._group("checks.pair", "own"),
            "checks.compute_b_calls": self._group("checks.compute_b", "calls"),
            "checks.compute_b_s": self._group("checks.compute_b", "own"),
            "checks.q_limit_s": self._group("checks.q_limit", "own"),
            "checks.cross_check_s": self._group("checks.cross_check", "own"),
            "campaign.classify_s": self._group("campaign.classify", "total"),
            "campaign.self_s": self._group("campaign.classify", "own"),
            "campaign.replay_s": self._group("campaign.replay", "total"),
            "report.to_json_s": self._group("report.to_json", "own"),
            "cli.self_s": self._group("cli", "own"),
        }

    def write(self, path: str, extra: dict) -> None:
        """Write the spans and the per-name totals as one JSON document."""
        doc = {
            "fields": ["id", "parent", "request", "name", "start", "end"],
            "spans": self.spans,
            "totals": {
                n: {"group": self.groups[n], "calls": s.calls, "total_s": s.total, "self_s": s.own}
                for n, s in sorted(self.stats.items())
            },
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")


def _point_key(point) -> bytes:
    return np.ascontiguousarray(point, dtype=float).tobytes()
