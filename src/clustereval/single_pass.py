"""Linear-time evaluator built on two hash tables.

:func:`~clustereval.model.validate` records the predicted cluster of every
truth instance. :func:`evaluate_all` counts how each truth cluster, a slice
of that list, spreads over predicted clusters, and feeds all five measures
from one loop over those counts; the per-measure functions are projections
of its report. Counts and pair totals are exact Python integers.
"""

from __future__ import annotations

from collections import Counter

from .model import (
    FLAG_DEGENERATE_PRECISION,
    FLAG_DEGENERATE_RECALL,
    EvalPair,
    FullReport,
    MetricTriple,
    ReportStats,
    SplitLumpResult,
    geometric_mean,
    harmonic_mean,
)

__all__ = [
    "evaluate_all",
    "cluster_f",
    "k_metric",
    "b_cubed",
    "split_lump",
    "pairwise_f",
    "harmonic_mean",
    "geometric_mean",
]


def evaluate_all(pair: EvalPair) -> FullReport:
    """All five measures from one pass over the truth clusters.

    A Cluster-F match is a tally entry covering a whole truth cluster with an
    equal-sized predicted cluster. K-metric and B-cubed share the purity
    sums. SE&LE measures against the best match: the largest overlap, ties
    going to the smaller predicted cluster (which of several equal-sized
    ones wins changes no number). A side with no pairs at all has its
    pairwise ratio defined as 1.0 and is flagged.
    """
    sizes = pair.predicted.sizes

    matches = 0
    aap_total = 0.0
    acp_total = 0.0
    split_total = 0
    lump_total = 0
    matched_size_total = 0
    truth_pair_total = 0
    shared_pair_total = 0

    stop = 0
    for size in pair.truth.sizes:
        start, stop = stop, stop + size
        max_val = max_size = 0
        for key, value in Counter(pair.assignments[start:stop]).items():
            key_size = sizes[key]
            if value == size and key_size == size:
                matches += 1
            aap_total += value * value / size
            acp_total += value * value / key_size
            shared_pair_total += value * (value - 1) // 2
            if value > max_val or (value == max_val and key_size < max_size):
                max_val, max_size = value, key_size
        truth_pair_total += size * (size - 1) // 2
        split_total += size - max_val
        lump_total += max_size - max_val
        matched_size_total += max_size

    instance_total = pair.n_instances
    aap = aap_total / instance_total
    acp = acp_total / instance_total
    se = split_total / instance_total
    le = lump_total / matched_size_total

    flags = list(pair.flags)
    if truth_pair_total:
        pairwise_recall = shared_pair_total / truth_pair_total
    else:
        pairwise_recall = 1.0
        flags.append(FLAG_DEGENERATE_RECALL)
    predicted_pair_total = sum(k * (k - 1) // 2 for k in sizes)
    if predicted_pair_total:
        pairwise_precision = shared_pair_total / predicted_pair_total
    else:
        pairwise_precision = 1.0
        flags.append(FLAG_DEGENERATE_PRECISION)

    return FullReport(
        cluster_f=MetricTriple.harmonic(matches / len(pair.truth.sizes), matches / len(sizes)),
        k_metric=MetricTriple.geometric(aap, acp),
        b_cubed=MetricTriple.harmonic(aap, acp),
        se_le=SplitLumpResult(se, le, MetricTriple.harmonic(1.0 - se, 1.0 - le)),
        pairwise=MetricTriple.harmonic(pairwise_recall, pairwise_precision),
        stats=ReportStats(
            n_truth_clusters=len(pair.truth.sizes),
            n_predicted_clusters=len(sizes),
            n_instances=instance_total,
            pair_tr_sum=truth_pair_total,
            pair_pr_sum=predicted_pair_total,
            pair_int_sum=shared_pair_total,
        ),
        flags=tuple(flags),
    )


def cluster_f(pair: EvalPair) -> MetricTriple:
    """Exact-cluster-match recall/precision with harmonic combination."""
    return evaluate_all(pair).cluster_f


def k_metric(pair: EvalPair) -> MetricTriple:
    """Geometric mean of average author purity and average cluster purity."""
    return evaluate_all(pair).k_metric


def b_cubed(pair: EvalPair) -> MetricTriple:
    """Per-instance recall/precision (equal to the purity sums), harmonically combined."""
    return evaluate_all(pair).b_cubed


def split_lump(pair: EvalPair) -> SplitLumpResult:
    """Splitting and lumping error rates against best-matching clusters."""
    return evaluate_all(pair).se_le


def pairwise_f(pair: EvalPair) -> MetricTriple:
    """Recall/precision over unordered same-cluster instance pairs."""
    return evaluate_all(pair).pairwise
