"""Run configuration and the versioned JSON report (schema v1).

Reports are fully deterministic: the configuration is echoed verbatim, keys
are sorted, and no wall-clock data enters the file, so identical runs are
byte-identical.  Witnesses serialize with enough context to be replayed from
the report alone.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field, fields

from .campaign import PropertyVerdict, SamplingPlan, Witness, _check_types
from .functions import PROPERTIES

__all__ = ["SCHEMA_VERSION", "TOOL_VERSION", "ASSUMPTIONS", "RunConfig", "Report"]

SCHEMA_VERSION = "v1"
TOOL_VERSION = "0.1.0"

# Operating assumptions restated in every report.
ASSUMPTIONS = (
    "subdifferentials are estimated by gradient sampling; analysed functions "
    "are assumed locally Lipschitz on the region, where the Clarke and "
    "Clarke-Rockafellar constructions coincide",
    "set-valued conditions are evaluated on finite generator sets; they are "
    "affine in the generator, so generator satisfaction is equivalent to "
    "convex-hull satisfaction",
    "strict inequalities and first-order pairings are tested at the margin "
    "eps = 1e-7*(1 + |f(x)| + |f(y)|), so pseudoconvex-pair tests "
    "eps-pseudoconvexity",
    "holds-at-samples reports the absence of sampled violations, not a proof "
    "over the continuum",
)


@dataclass(frozen=True)
class RunConfig(SamplingPlan):
    """Everything needed to reproduce a run, echoed into its report: the
    target and properties, and the sampling settings SamplingPlan declares."""

    corpus_name: str | None = None
    function_source: str | None = None
    dimension: int | None = None
    region_text: str | None = None
    properties: tuple[str, ...] = PROPERTIES

    def __post_init__(self):
        _check_types(self, str, "a string", "corpus_name function_source region_text", optional=True)
        _check_types(self, numbers.Integral, "an integer", "dimension", optional=True)
        if not (isinstance(self.properties, (list, tuple))
                and all(isinstance(p, str) for p in self.properties)):
            raise ValueError(f"properties must be a list of property names, "
                             f"got {self.properties!r}")
        if (self.corpus_name is None) == (self.function_source is None):
            raise ValueError("exactly one of corpus_name / function_source is required")
        if self.function_source is not None:
            if self.dimension is None or self.region_text is None:
                raise ValueError("a DSL function needs --dim and --region")
        if not self.properties:
            raise ValueError("no properties requested")
        bad = [p for p in self.properties if p not in PROPERTIES]
        if bad:
            raise ValueError(f"unknown properties: {', '.join(bad)}")
        object.__setattr__(self, "properties", tuple(self.properties))
        super().__post_init__()  # the sampling settings' checks

    def plan(self) -> SamplingPlan:
        return SamplingPlan(**{f.name: getattr(self, f.name) for f in fields(SamplingPlan)})

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["properties"] = list(self.properties)
        return d

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        known = {f.name for f in fields(RunConfig)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
        return RunConfig(**d)  # __post_init__ makes properties a tuple


@dataclass(frozen=True)
class Report:
    config: RunConfig
    verdicts: tuple[PropertyVerdict, ...]
    workload: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "tool_version": TOOL_VERSION,
            "assumptions": list(ASSUMPTIONS),
            "config": self.config.to_dict(),
            "properties": [v.to_dict() for v in self.verdicts],
            "workload": dict(sorted(self.workload.items())),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @staticmethod
    def parse(text: str) -> dict:
        doc = json.loads(text)
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"unsupported report schema {doc.get('schema_version')!r}")
        return doc

    @staticmethod
    def witnesses_from_dict(doc: dict) -> list[Witness]:
        out = []
        for prop in doc["properties"]:
            for w in prop["witnesses"]:
                out.append(Witness.from_dict(w))
        return out

    def any_refuted(self) -> bool:
        return any(v.verdict == "refuted" for v in self.verdicts)
