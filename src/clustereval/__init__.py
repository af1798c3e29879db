"""Clustering agreement evaluation.

Scores a predicted clustering against a truth clustering with five standard
measures (Cluster-F, K-metric, splitting & lumping error, pairwise-F,
B-cubed), computed either by a linear single-pass engine or by brute-force
reference oracles, plus a seeded synthetic pair generator and a CLI.
"""

__version__ = "0.1.0"

from .errors import (
    ClusterEvalError,
    DuplicateInstance,
    EmptyClustering,
    ExtraInPredicted,
    InfeasibleConfig,
    MissingFromPredicted,
    PairBudgetExceeded,
    ParseError,
    ValidationError,
)
from .model import (
    Clustering,
    EvalPair,
    FullReport,
    MetricTriple,
    ReportStats,
    SplitLumpResult,
    geometric_mean,
    harmonic_mean,
    validate,
)

__all__ = [
    "__version__",
    "ClusterEvalError",
    "Clustering",
    "DuplicateInstance",
    "EmptyClustering",
    "EvalPair",
    "ExtraInPredicted",
    "FullReport",
    "InfeasibleConfig",
    "MetricTriple",
    "MissingFromPredicted",
    "PairBudgetExceeded",
    "ParseError",
    "ReportStats",
    "SplitLumpResult",
    "ValidationError",
    "geometric_mean",
    "harmonic_mean",
    "validate",
]
