"""Mining frequent approximate order-preserving patterns from time series.

A pattern is the rank vector of a window: the shape of its rises and falls.
This package finds every pattern whose approximate occurrences (within a
per-position and a total rank-error bound) meet a support threshold, using
occurrence-list screening and pruning to avoid rescanning the series, plus
the baseline strategies and a definitional reference miner for validation.
"""

__version__ = "0.1.0"

from .core import (
    FrequentPattern,
    MiningParams,
    OccurrenceSet,
    Pattern,
    RankVector,
    TimeSeries,
    compute_ranks,
    delta_distance,
    gamma_distance,
)
from .miner import (
    ALGORITHMS,
    MiningStats,
    alar,
    checking,
    matching,
    mine,
    screen,
)
from .oracle import oracle_exact_opp, oracle_mine, scan_occurrences
from .patterns import (
    FusionResult,
    enumerate_extensions,
    enumeration_candidates,
    fuse,
    fusible,
    fusion_candidates,
    fusion_pairs,
    prefixorder,
    suffixorder,
)

__all__ = [
    "ALGORITHMS",
    "FrequentPattern",
    "FusionResult",
    "MiningParams",
    "MiningStats",
    "OccurrenceSet",
    "Pattern",
    "RankVector",
    "TimeSeries",
    "__version__",
    "alar",
    "checking",
    "compute_ranks",
    "delta_distance",
    "enumerate_extensions",
    "enumeration_candidates",
    "fuse",
    "fusible",
    "fusion_candidates",
    "fusion_pairs",
    "gamma_distance",
    "matching",
    "mine",
    "oracle_exact_opp",
    "oracle_mine",
    "prefixorder",
    "scan_occurrences",
    "screen",
    "suffixorder",
]
