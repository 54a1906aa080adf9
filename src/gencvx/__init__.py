"""gencvx: sample-based generalized-convexity certification and refutation.

The toolkit evaluates the defining implications of pseudoconvexity,
pseudolinearity, quasiconvexity and their semistrict variants on sampled
point pairs and segments, estimates subdifferentials by gradient sampling,
and aggregates outcomes into per-property verdicts with replayable
counterexample witnesses.
"""

from .campaign import (
    IMPLICATIONS,
    Candidate,
    PropertyVerdict,
    SamplingPlan,
    Witness,
    check_implication_lattice,
    classify,
    refine_counterexample,
    replay_witness,
)
from .checks import (
    BRecord,
    PairCheck,
    QLimit,
    SegmentCheck,
    check_gradient_kernel,
    check_interlacing,
    check_interpolation_bounds,
    check_pseudoconvex_pair,
    check_quasiconvex_segment,
    check_semistrict_quasiconvex_segment,
    check_subdiff_kernel_pair,
    check_symmetric_equality,
    check_symmetric_inequality,
    check_weak_monotone_pair,
    compute_b,
    compute_p,
    cross_check_b_via_subdifferential,
    eps_strict,
    estimate_q_limit,
    verify_p_identity,
)
from .expr import DualValue, EvalError, ParseError, eval_dual, eval_value, parse, pretty
from .functions import (
    PROPERTIES,
    CorpusEntry,
    FunctionHandle,
    corpus,
    corpus_entry,
    function_from_expression,
    negate_handle,
)
from .geometry import (
    Region,
    RegionTooThinError,
    Segment,
    as_point,
    parse_region,
    sample_region,
    segment_point,
)
from .nonsmooth import (
    ClarkeScheme,
    SubdifferentialEstimate,
    clarke_directional,
    directional_derivative,
    negate_estimate,
    subdifferential,
)
from .report import ASSUMPTIONS, Report, RunConfig

__version__ = "0.1.0"
