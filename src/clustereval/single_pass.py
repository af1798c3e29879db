"""Linear-time evaluator built on two hash tables.

:func:`~clustereval.model.validate` records the predicted cluster of every
truth instance. :func:`evaluate_all`, this module's one entry point, counts
how each truth cluster, a slice of that list, spreads over predicted
clusters, and feeds all five measures from one loop over those counts.
Tallies are exact integers, and each ratio one ``Fraction`` rounded to a
float once.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .model import (
    FLAG_DEGENERATE_PRECISION,
    FLAG_DEGENERATE_RECALL,
    EvalPair,
    FullReport,
    MetricTriple,
    ReportStats,
    SplitLumpResult,
)

__all__ = ["evaluate_all"]


def _purity(squares_by_size: list[int], sizes, instance_total: int) -> Fraction:
    """Sum over clusters of (summed squared overlaps) / size, over N, as one exact ratio."""
    return sum(Fraction(squares_by_size[size], size) for size in set(sizes)) / instance_total


def evaluate_all(pair: EvalPair) -> FullReport:
    """All five measures from one pass over the truth clusters.

    A Cluster-F match is a tally entry covering a whole truth cluster with an
    equal-sized predicted cluster. K-metric and B-cubed share the purity
    sums: squared overlaps, summed per size of the cluster they divide by.
    SE&LE measures against the best match: the largest overlap, ties going
    to the smaller predicted cluster (which of several equal-sized ones wins
    changes no number). A side with no pairs has its pairwise ratio 1, flagged.
    """
    sizes = pair.predicted.sizes
    aap_squares = [0] * (max(pair.truth.sizes) + 1)  # by truth size
    acp_squares = [0] * (max(sizes) + 1)  # by predicted size

    matches = 0
    split_total = 0
    lump_total = 0
    matched_size_total = 0
    truth_pair_total = 0

    stop = 0
    for size in pair.truth.sizes:
        start, stop = stop, stop + size
        max_val = max_size = squares = 0
        for key, value in Counter(pair.assignments[start:stop]).items():
            key_size = sizes[key]
            if value == size and key_size == size:
                matches += 1
            square = value * value
            squares += square
            acp_squares[key_size] += square
            if value > max_val or (value == max_val and key_size < max_size):
                max_val, max_size = value, key_size
        aap_squares[size] += squares
        truth_pair_total += size * (size - 1) // 2
        split_total += size - max_val
        lump_total += max_size - max_val
        matched_size_total += max_size

    instance_total = pair.n_instances
    aap = _purity(aap_squares, pair.truth.sizes, instance_total)
    acp = _purity(acp_squares, sizes, instance_total)
    se = Fraction(split_total, instance_total)
    le = Fraction(lump_total, matched_size_total)

    # Each cell's overlap v holds v*(v-1)/2 shared pairs, and the overlaps sum to N.
    shared_pair_total = (sum(aap_squares) - instance_total) // 2
    predicted_pair_total = sum(k * (k - 1) // 2 for k in sizes)
    flags = list(pair.flags)
    if not truth_pair_total:
        flags.append(FLAG_DEGENERATE_RECALL)
    if not predicted_pair_total:
        flags.append(FLAG_DEGENERATE_PRECISION)

    n_truth, n_predicted = len(pair.truth.sizes), len(sizes)
    return FullReport(
        cluster_f=MetricTriple.harmonic(Fraction(matches, n_truth), Fraction(matches, n_predicted)),
        k_metric=MetricTriple.geometric(aap, acp),
        se_le=SplitLumpResult.from_rates(se, le),
        pairwise=MetricTriple.harmonic(
            Fraction(shared_pair_total, truth_pair_total) if truth_pair_total else 1,
            Fraction(shared_pair_total, predicted_pair_total) if predicted_pair_total else 1,
        ),
        b_cubed=MetricTriple.harmonic(aap, acp),
        stats=ReportStats(
            n_truth_clusters=n_truth,
            n_predicted_clusters=n_predicted,
            n_instances=instance_total,
            pair_tr_sum=truth_pair_total,
            pair_pr_sum=predicted_pair_total,
            pair_int_sum=shared_pair_total,
        ),
        flags=tuple(flags),
    )

