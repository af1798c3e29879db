"""Linear-time evaluator built on two hash tables.

:func:`build_index` maps every predicted instance to its cluster, and
:func:`tally_truth` counts how one truth cluster spreads over predicted
clusters. :func:`evaluate_all` tallies each truth cluster once and feeds all
five measures from it; the per-measure functions are projections of its
report. Counts and pair totals are exact Python integers.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .errors import UnindexedInstance
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
    "PredictedIndex",
    "TruthTally",
    "build_index",
    "tally_truth",
    "evaluate_all",
    "cluster_f",
    "k_metric",
    "b_cubed",
    "split_lump",
    "pairwise_f",
    "harmonic_mean",
    "geometric_mean",
]


class PredictedIndex(NamedTuple):
    """Dense instance -> predicted-cluster index, plus per-cluster sizes.

    ``assignments[d]`` is the cluster index of dense instance ``d``;
    ``pair_total`` is the number of unordered same-cluster instance pairs on
    the predicted side, sum of k*(k-1)/2 over cluster sizes k.
    """

    assignments: list[int]
    cluster_sizes: list[int]
    pair_total: int


class TruthTally(NamedTuple):
    """How one truth cluster's instances spread over predicted clusters.

    ``counts[i]`` is the number of the truth cluster's instances that landed
    in predicted cluster ``i``. ``max_key`` is the predicted cluster with the
    largest count; ties prefer the smaller predicted cluster, then the
    smaller index, so results never depend on hash iteration order.
    """

    counts: Counter
    max_key: int
    max_val: int


def build_index(pair: EvalPair) -> PredictedIndex:
    """Index every predicted instance by its cluster, recording sizes and pairs."""
    assignments = [-1] * len(pair.instances)
    cluster_sizes = []
    pair_total = 0
    for i, cluster in enumerate(pair.predicted_dense):
        for p in cluster:
            assignments[p] = i
        k = len(cluster)
        cluster_sizes.append(k)
        pair_total += k * (k - 1) // 2
    return PredictedIndex(assignments, cluster_sizes, pair_total)


def tally_truth(cluster: tuple[int, ...], index: PredictedIndex) -> TruthTally:
    """Count the truth cluster's instances per predicted cluster index."""
    try:
        counts = Counter(map(index.assignments.__getitem__, cluster))
    except IndexError:
        raise UnindexedInstance("truth instance outside the indexed dense range") from None
    if -1 in counts:
        raise UnindexedInstance("truth instance missing from the predicted index")
    sizes = index.cluster_sizes
    max_key = -1
    max_val = 0
    max_size = 0
    for key, value in counts.items():
        key_size = sizes[key]
        if value > max_val or (
            value == max_val and (key_size < max_size or (key_size == max_size and key < max_key))
        ):
            max_key, max_val, max_size = key, value, key_size
    return TruthTally(counts, max_key, max_val)


def evaluate_all(pair: EvalPair) -> FullReport:
    """All five measures from one pass over the truth clusters.

    A Cluster-F match is a tally entry covering a whole truth cluster with an
    equal-sized predicted cluster. K-metric and B-cubed share the purity
    sums. SE&LE measures against the tally maximum. A side with no pairs at
    all has its pairwise ratio defined as 1.0 and is flagged.
    """
    index = build_index(pair)
    sizes = index.cluster_sizes

    matches = 0
    aap_total = 0.0
    acp_total = 0.0
    split_total = 0
    lump_total = 0
    matched_size_total = 0
    truth_pair_total = 0
    shared_pair_total = 0

    for cluster in pair.truth_dense:
        size = len(cluster)
        counts, max_key, max_val = tally_truth(cluster, index)
        for key, value in counts.items():
            key_size = sizes[key]
            if value == size and key_size == size:
                matches += 1
            aap_total += value * value / size
            acp_total += value * value / key_size
            shared_pair_total += value * (value - 1) // 2
        max_size = sizes[max_key]
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
    if index.pair_total:
        pairwise_precision = shared_pair_total / index.pair_total
    else:
        pairwise_precision = 1.0
        flags.append(FLAG_DEGENERATE_PRECISION)

    return FullReport(
        cluster_f=MetricTriple.harmonic(matches / len(pair.truth_dense), matches / len(pair.predicted_dense)),
        k_metric=MetricTriple.geometric(aap, acp),
        b_cubed=MetricTriple.harmonic(aap, acp),
        se_le=SplitLumpResult(se, le, MetricTriple.harmonic(1.0 - se, 1.0 - le)),
        pairwise=MetricTriple.harmonic(pairwise_recall, pairwise_precision),
        stats=ReportStats(
            n_truth_clusters=len(pair.truth_dense),
            n_predicted_clusters=len(pair.predicted_dense),
            n_instances=instance_total,
            pair_tr_sum=truth_pair_total,
            pair_pr_sum=index.pair_total,
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
