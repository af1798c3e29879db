"""Brute-force reference implementations of the five measures.

These follow each measure's definition literally: explicit set operations on
every pair of clusters, per-instance cluster lookups, and every same-cluster
pair enumerated and counted, none kept. Each truth/predicted cluster pair
gets one disjointness test, and each pair that meets is intersected once per
report, into a sparse overlap table that K-metric, SE/LE and B-cubed read;
Cluster-F compares the clusters by set equality. The oracle is
intentionally slow, numbers the ids itself, and reads the two clusterings,
never the labels :func:`~clustereval.model.validate` computes, so agreement
between the two engines is a meaningful correctness check: each ratio is a
``Fraction`` rounded once, so the reports must be equal. Every function
takes the two clusterings of a pair that ``validate`` accepts, truth first,
and checks nothing of them but the pair budget. Use it on small inputs
only: the pairs it visits, same-cluster instance pairs and truth ×
predicted cluster pairs, are capped by that budget.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, starmap
from operator import countOf, eq
from typing import Iterator

from .errors import PairBudgetExceeded
from .model import (
    FLAG_DEGENERATE_PRECISION,
    FLAG_DEGENERATE_RECALL,
    FLAG_EXTRA_IN_PREDICTED,
    Clustering,
    FullReport,
    MetricTriple,
    ReportStats,
    SplitLumpResult,
)

DEFAULT_PAIR_BUDGET = 100_000_000


def _dense_clusters(truth: Clustering, predicted: Clustering) -> tuple[list[frozenset], list[frozenset]]:
    """Both sides' clusters as sets of ints, numbered here rather than taken from the fast path.

    One dict numbers the ids, truth ids in cluster order and then the
    predicted-only extras, so an id is the same int on both sides. Raw ids
    need not be orderable against each other.
    """
    dense: dict = {}
    sides = (truth.clusters, predicted.clusters)
    return tuple([frozenset([dense.setdefault(x, len(dense)) for x in c]) for c in side] for side in sides)


def _overlap_table(truth_sets: list[frozenset], predicted_sets: list[frozenset]) -> list[dict[int, int]]:
    """For each truth cluster, predicted index -> overlap size, over the predicted clusters it meets.

    Every (truth, predicted) pair gets one disjointness test, and only the
    pairs that meet are intersected, each once. That is still
    ``O(|T|·|P|)`` set operations, with no index that skips a pair, but the
    table holds only the nonzero cells, one per contingency cell.
    """
    return [{j: len(t & p) for j, p in enumerate(predicted_sets) if not t.isdisjoint(p)} for t in truth_sets]


def _tables(
    truth: Clustering, predicted: Clustering, pair_budget: int
) -> tuple[list[frozenset], list[frozenset], list[dict[int, int]]]:
    """Both sides' dense clusters and their overlap table, the arguments of the per-measure helpers.

    :class:`PairBudgetExceeded` when the table's cluster pairs alone exceed ``pair_budget``.
    """
    _check(_cluster_pairs(truth, predicted), pair_budget)
    truth_sets, predicted_sets = _dense_clusters(truth, predicted)
    return truth_sets, predicted_sets, _overlap_table(truth_sets, predicted_sets)


def _cluster_f(truth_sets: list[frozenset], predicted_sets: list[frozenset]) -> MetricTriple:
    matches = sum(map(truth_sets.count, predicted_sets))
    return MetricTriple.harmonic(Fraction(matches, len(truth_sets)), Fraction(matches, len(predicted_sets)))


def cluster_f(truth: Clustering, predicted: Clustering, pair_budget: int = DEFAULT_PAIR_BUDGET) -> MetricTriple:
    """Count predicted clusters that equal a truth cluster, comparing every pair of clusters by set equality."""
    _check(_cluster_pairs(truth, predicted), pair_budget)
    return _cluster_f(*_dense_clusters(truth, predicted))


def _k_metric(
    truth_sets: list[frozenset], predicted_sets: list[frozenset], overlaps: list[dict[int, int]]
) -> MetricTriple:
    n = sum(map(len, truth_sets))
    aap = sum(Fraction(sum(v * v for v in row.values()), len(t)) for t, row in zip(truth_sets, overlaps))
    columns = [0] * len(predicted_sets)
    for row in overlaps:
        for j, v in row.items():
            columns[j] += v * v
    acp = sum(Fraction(column, len(p)) for column, p in zip(columns, predicted_sets))
    return MetricTriple.geometric(aap / n, acp / n)


def k_metric(truth: Clustering, predicted: Clustering, pair_budget: int = DEFAULT_PAIR_BUDGET) -> MetricTriple:
    """Purity sums of squared overlaps, one exact ratio per cluster.

    The recall sum adds each truth cluster's row of the overlap table; the
    precision sum adds each predicted cluster's column. A predicted cluster
    that meets no truth cluster has an empty column and adds 0.
    """
    return _k_metric(*_tables(truth, predicted, pair_budget))


def _b_cubed(
    truth_sets: list[frozenset], predicted_sets: list[frozenset], overlaps: list[dict[int, int]]
) -> MetricTriple:
    predicted_of = {x: j for j, p in enumerate(predicted_sets) for x in p}
    n = 0
    recall_sum = 0
    precision_numerators = [0] * len(predicted_sets)
    for truth_cluster, row in zip(truth_sets, overlaps):
        recall_numerator = 0
        for x in truth_cluster:
            n += 1
            own_predicted = predicted_of[x]
            overlap = row[own_predicted]
            recall_numerator += overlap
            precision_numerators[own_predicted] += overlap
        recall_sum += Fraction(recall_numerator, len(truth_cluster))
    precision_sum = sum(Fraction(numerator, len(p)) for numerator, p in zip(precision_numerators, predicted_sets))
    return MetricTriple.harmonic(recall_sum / n, precision_sum / n)


def b_cubed(truth: Clustering, predicted: Clustering, pair_budget: int = DEFAULT_PAIR_BUDGET) -> MetricTriple:
    """Instance-level recall/precision, one lookup per instance.

    Each truth instance finds its predicted cluster in a dict from id to
    predicted index and reads the overlap of its two clusters from the
    table. Overlaps are summed per truth (recall) and predicted (precision)
    cluster, then divided by its size.
    """
    return _b_cubed(*_tables(truth, predicted, pair_budget))


def _split_lump(
    truth_sets: list[frozenset], predicted_sets: list[frozenset], overlaps: list[dict[int, int]]
) -> SplitLumpResult:
    split_instances = lumped_instances = matched_instances = 0
    for t, row in zip(truth_sets, overlaps):
        _, _, best = min((-overlap, len(predicted_sets[j]), j) for j, overlap in row.items())
        matched = predicted_sets[best]
        split_instances += len(t - matched)
        lumped_instances += len(matched - t)
        matched_instances += len(matched)
    se = Fraction(split_instances, sum(map(len, truth_sets)))
    le = Fraction(lumped_instances, matched_instances)
    return SplitLumpResult.from_rates(se, le)


def split_lump(
    truth: Clustering, predicted: Clustering, pair_budget: int = DEFAULT_PAIR_BUDGET
) -> SplitLumpResult:
    """Splitting/lumping errors via explicit set differences.

    The best-matching predicted cluster for a truth cluster is the one with
    the largest overlap in its row of the table; ties prefer the smaller
    cluster, then the smaller index, which changes no number but makes the
    choice definite. Every truth cluster meets some predicted cluster, so
    its row is never empty.
    """
    return _split_lump(*_tables(truth, predicted, pair_budget))


def _instance_pairs(truth: Clustering, predicted: Clustering) -> int:
    """The same-cluster instance pairs that enumerating both sides visits."""
    return sum(k * (k - 1) // 2 for k in truth.sizes + predicted.sizes)


def _cluster_pairs(truth: Clustering, predicted: Clustering) -> int:
    """The truth × predicted cluster pairs that the overlap table and Cluster-F each test."""
    return len(truth.sizes) * len(predicted.sizes)


def pair_demand(truth: Clustering, predicted: Clustering) -> int:
    """The pairs :func:`evaluate_all` visits, checked against the budget: instance pairs plus cluster pairs."""
    return _instance_pairs(truth, predicted) + _cluster_pairs(truth, predicted)


def check_budget(truth: Clustering, predicted: Clustering, pair_budget: int) -> None:
    """:class:`PairBudgetExceeded` when :func:`evaluate_all` would visit more than ``pair_budget`` pairs."""
    _check(pair_demand(truth, predicted), pair_budget)


def _count(pairs: Iterator[tuple]) -> int:
    """How many pairs an iterator yields, each walked and none kept: every pair has two items."""
    return countOf(map(len, pairs), 2)


def _check(needed: int, pair_budget: int) -> None:
    """:class:`PairBudgetExceeded` when ``needed`` pairs are more than ``pair_budget``."""
    if needed > pair_budget:
        raise PairBudgetExceeded(needed, pair_budget)


def _pair_counts(truth: Clustering, predicted: Clustering, pair_budget: int) -> tuple[int, int, int]:
    """Shared, truth and predicted pairs; :class:`PairBudgetExceeded` when there are more than ``pair_budget``."""
    _check(_instance_pairs(truth, predicted), pair_budget)
    return _count_pairs(*_dense_clusters(truth, predicted))


def _count_pairs(truth_sets: list[frozenset], predicted_sets: list[frozenset]) -> tuple[int, int, int]:
    """Shared, truth and predicted pairs, counted while enumerating them.

    Every pair of every cluster is walked, and nothing of it outlives its
    count. A truth pair is shared when its two ids are in the same predicted
    cluster, looked up in a dict of the oracle's own numbering, which covers
    the predicted-only ids too.
    """
    predicted_of = {x: idx for idx, p in enumerate(predicted_sets) for x in p}
    shared = truth_total = 0
    for t in truth_sets:
        truth_total += _count(combinations(t, 2))
        shared += countOf(starmap(eq, combinations(map(predicted_of.__getitem__, t), 2)), True)
    return shared, truth_total, sum(_count(combinations(p, 2)) for p in predicted_sets)


def _pairwise(shared: int, truth_total: int, predicted_total: int) -> MetricTriple:
    """Shared pairs over each side's pairs; a side with no pairs has its ratio defined as 1."""
    recall = Fraction(shared, truth_total) if truth_total else 1
    return MetricTriple.harmonic(recall, Fraction(shared, predicted_total) if predicted_total else 1)


def pairwise_f(truth: Clustering, predicted: Clustering, pair_budget: int = DEFAULT_PAIR_BUDGET) -> MetricTriple:
    """Enumerate both sides' same-cluster pairs and count the truth pairs that predicted shares.

    Raises :class:`PairBudgetExceeded` when enumeration would visit more
    instance pairs than ``pair_budget``; it tests no cluster pairs. The
    zero-pair sides are defined as 1.0 like in the single-pass engine.
    """
    return _pairwise(*_pair_counts(truth, predicted, pair_budget))


def evaluate_all(truth: Clustering, predicted: Clustering, pair_budget: int = DEFAULT_PAIR_BUDGET) -> FullReport:
    """Full report from the five brute-force measures.

    The ids are numbered once and the overlap table built once, and every
    measure but Pairwise-F reads them. Pair statistics come from enumerating
    every pair, not from any closed form, and the predicted-only extras from
    a set difference, not from the instance counts, keeping the report
    fully independent of the single-pass engine. Raises
    :class:`PairBudgetExceeded` when :func:`pair_demand` exceeds ``pair_budget``.
    """
    check_budget(truth, predicted, pair_budget)
    truth_sets, predicted_sets = _dense_clusters(truth, predicted)
    overlaps = _overlap_table(truth_sets, predicted_sets)
    shared, truth_total, predicted_total = _count_pairs(truth_sets, predicted_sets)

    flags = []
    if extra := set(predicted.ids) - set(truth.ids):
        flags.append(FLAG_EXTRA_IN_PREDICTED.format(len(extra)))
    if not truth_total:
        flags.append(FLAG_DEGENERATE_RECALL)
    if not predicted_total:
        flags.append(FLAG_DEGENERATE_PRECISION)

    return FullReport(
        cluster_f=_cluster_f(truth_sets, predicted_sets),
        k_metric=_k_metric(truth_sets, predicted_sets, overlaps),
        se_le=_split_lump(truth_sets, predicted_sets, overlaps),
        pairwise=_pairwise(shared, truth_total, predicted_total),
        b_cubed=_b_cubed(truth_sets, predicted_sets, overlaps),
        stats=ReportStats(
            n_truth_clusters=len(truth_sets),
            n_predicted_clusters=len(predicted_sets),
            n_instances=sum(map(len, truth_sets)),
            pair_tr_sum=truth_total,
            pair_pr_sum=predicted_total,
            pair_int_sum=shared,
        ),
        flags=tuple(flags),
    )
