"""Exact continued-fraction arithmetic, the Gauss system, and its renewal law.

The package is organised around one pipeline: expand reals into digit
windows with certified error control, drive the two-sided shift and
its suspension flow, and confront sampled renewal overshoots with the
closed form of their limiting distribution.  A digit window is a plain
tuple of positive ints, checked by ``cf.digit_window``; a point of the
extension, a cylinder and a box each hold one window per side, the
future digits (a_1, a_2, ...) and the past digits (a_0, a_-1, ...).
"""

from .cf import (
    Convergent,
    RenewalResult,
    convergents,
    evaluate_cf,
    expand_digits,
    renewal_index,
)
from .errors import (
    BudgetExceeded,
    CFRenewalError,
    IncompatibleTables,
    InsufficientDigits,
    InvalidBins,
    InvalidDigits,
    InvalidSampleCount,
    OutOfChart,
    PrecisionExhausted,
    RationalInput,
    TrailingUnderflow,
    Unreachable,
)
from .fixedreal import FixedReal
from .flow import (
    CorrectionSeries,
    FlowPoint,
    RenewalFlowReport,
    birkhoff_sum,
    correction_f,
    flow_evolve,
    renewal_time,
    renewal_vs_flow_check,
    roof_phi,
)
from .gauss import (
    Cylinder,
    NaturalExtPoint,
    cylinder_measure,
    digit_frequency,
    gauss_map,
    mu1_cdf,
    sample_mu1,
    sample_mu2,
    sample_mu2_window,
)
from .limitlaw import (
    LEVY_CONSTANT,
    DistributionTable,
    default_ratio_edges,
    empirical_pn,
    ks_distance,
    normalization_constant,
    theoretical_pn,
    theoretical_table,
)
from .mixing import (
    BoxSpec,
    CorrelationEstimate,
    connect_via_leaves,
    correlation_estimate,
    flow_pair_distance,
    holonomy_invariant,
    stable_leaf_point,
)
from .streams import CHUNK, substream

__version__ = "0.1.0"

__all__ = [
    "BoxSpec",
    "BudgetExceeded",
    "CFRenewalError",
    "CHUNK",
    "Convergent",
    "CorrectionSeries",
    "CorrelationEstimate",
    "Cylinder",
    "DistributionTable",
    "FixedReal",
    "FlowPoint",
    "IncompatibleTables",
    "InsufficientDigits",
    "InvalidBins",
    "InvalidDigits",
    "InvalidSampleCount",
    "LEVY_CONSTANT",
    "NaturalExtPoint",
    "OutOfChart",
    "PrecisionExhausted",
    "RationalInput",
    "RenewalFlowReport",
    "RenewalResult",
    "TrailingUnderflow",
    "Unreachable",
    "birkhoff_sum",
    "connect_via_leaves",
    "convergents",
    "correction_f",
    "correlation_estimate",
    "cylinder_measure",
    "default_ratio_edges",
    "digit_frequency",
    "empirical_pn",
    "evaluate_cf",
    "expand_digits",
    "flow_evolve",
    "flow_pair_distance",
    "gauss_map",
    "holonomy_invariant",
    "ks_distance",
    "mu1_cdf",
    "normalization_constant",
    "renewal_index",
    "renewal_time",
    "renewal_vs_flow_check",
    "roof_phi",
    "sample_mu1",
    "sample_mu2",
    "sample_mu2_window",
    "stable_leaf_point",
    "substream",
    "theoretical_pn",
    "theoretical_table",
]
