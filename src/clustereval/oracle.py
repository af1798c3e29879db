"""Brute-force reference implementations of the five measures.

These follow each measure's definition literally: nested cluster-by-cluster
set intersections, per-instance cluster lookups, and materialized pair sets.
They are intentionally slow and share nothing with the single-pass engine
beyond the core data model, so agreement between the two engines is a
meaningful correctness check: each ratio is a ``Fraction`` rounded once, so
the reports must be equal. Use them on small inputs only; pair enumeration
is capped by a budget.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations
from typing import Iterable, Iterator

from .errors import PairBudgetExceeded
from .model import (
    FLAG_DEGENERATE_PRECISION,
    FLAG_DEGENERATE_RECALL,
    EvalPair,
    FullReport,
    MetricTriple,
    ReportStats,
    SplitLumpResult,
)

DEFAULT_PAIR_BUDGET = 100_000_000


def iter_pairs(cluster: Iterable[int]) -> Iterator[tuple[int, int]]:
    """All unordered instance pairs of one cluster, smaller id first."""
    return combinations(sorted(cluster), 2)


def pair_set(clusters: Iterable[Iterable[int]]) -> frozenset:
    """The set of unordered same-cluster instance pairs of a clustering."""
    return frozenset(chain.from_iterable(map(iter_pairs, clusters)))


def cluster_f(pair: EvalPair) -> MetricTriple:
    """Count predicted clusters that equal a truth cluster, by set equality."""
    truth_sets = [frozenset(c) for c in pair.truth_dense]
    predicted_sets = [frozenset(c) for c in pair.predicted_dense]
    matches = 0
    for p in predicted_sets:
        for t in truth_sets:
            if p == t:
                matches += 1
    return MetricTriple.harmonic(Fraction(matches, len(truth_sets)), Fraction(matches, len(predicted_sets)))


def k_metric(pair: EvalPair) -> MetricTriple:
    """Purity sums via explicit intersections, in the definitional orders.

    The recall sum walks truth clusters against predicted ones; the
    precision sum walks predicted clusters against truth ones, one exact
    ratio per cluster.
    """
    truth_sets = [frozenset(c) for c in pair.truth_dense]
    predicted_sets = [frozenset(c) for c in pair.predicted_dense]
    n = sum(len(t) for t in truth_sets)
    aap = sum(Fraction(sum(len(t & p) ** 2 for p in predicted_sets), len(t)) for t in truth_sets)
    acp = sum(Fraction(sum(len(p & t) ** 2 for t in truth_sets), len(p)) for p in predicted_sets)
    return MetricTriple.geometric(aap / n, acp / n)


def b_cubed(pair: EvalPair) -> MetricTriple:
    """Instance-level recall/precision, one lookup and intersection per instance.

    Overlaps are summed per truth (recall) and predicted (precision) cluster, then divided by its size.
    """
    truth_sets = [frozenset(c) for c in pair.truth_dense]
    predicted_sets = [frozenset(c) for c in pair.predicted_dense]
    n = 0
    recall_sum = 0
    precision_numerators = dict.fromkeys(predicted_sets, 0)
    for truth_cluster in truth_sets:
        recall_numerator = 0
        for t in sorted(truth_cluster):
            n += 1
            own_predicted = next(c for c in predicted_sets if t in c)
            overlap = len(own_predicted & truth_cluster)
            recall_numerator += overlap
            precision_numerators[own_predicted] += overlap
        recall_sum += Fraction(recall_numerator, len(truth_cluster))
    precision_sum = sum(Fraction(numerator, len(p)) for p, numerator in precision_numerators.items())
    return MetricTriple.harmonic(recall_sum / n, precision_sum / n)


def split_lump(pair: EvalPair) -> SplitLumpResult:
    """Splitting/lumping errors via explicit set differences.

    The best-matching predicted cluster for a truth cluster is the one with
    the largest overlap; ties prefer the smaller cluster, then the smaller
    index, which changes no number but makes the choice definite.
    """
    truth_sets = [frozenset(c) for c in pair.truth_dense]
    predicted_sets = [frozenset(c) for c in pair.predicted_dense]
    split_instances = 0
    truth_instances = 0
    lumped_instances = 0
    matched_instances = 0
    for t in truth_sets:
        best = None
        for idx, p in enumerate(predicted_sets):
            rank = (-len(t & p), len(p), idx)
            if best is None or rank < best:
                best = rank
        matched = predicted_sets[best[2]]
        split_instances += len(t - matched)
        lumped_instances += len(matched - t)
        truth_instances += len(t)
        matched_instances += len(matched)
    se = Fraction(split_instances, truth_instances)
    le = Fraction(lumped_instances, matched_instances)
    return SplitLumpResult.from_rates(se, le)


def pair_demand(pair: EvalPair) -> int:
    """Pairs that enumerating both sides materializes, checked against the budget."""
    return sum(k * (k - 1) // 2 for k in pair.truth.sizes + pair.predicted.sizes)


def _pair_sets(pair: EvalPair, pair_budget: int) -> tuple[frozenset, frozenset]:
    """Both sides' pair sets; :class:`PairBudgetExceeded` when they would exceed ``pair_budget``."""
    needed = pair_demand(pair)
    if needed > pair_budget:
        raise PairBudgetExceeded(needed, pair_budget)
    return pair_set(pair.truth_dense), pair_set(pair.predicted_dense)


def _pairwise(shared: int, truth_total: int, predicted_total: int) -> MetricTriple:
    """Shared pairs over each side's pairs; a side with no pairs has its ratio defined as 1."""
    recall = Fraction(shared, truth_total) if truth_total else 1
    return MetricTriple.harmonic(recall, Fraction(shared, predicted_total) if predicted_total else 1)


def pairwise_f(pair: EvalPair, pair_budget: int = DEFAULT_PAIR_BUDGET) -> MetricTriple:
    """Materialize both pair sets and intersect them.

    Raises :class:`PairBudgetExceeded` when enumeration would produce more
    pairs than ``pair_budget``; the zero-pair sides are defined as 1.0 like
    in the single-pass engine.
    """
    truth_pairs, predicted_pairs = _pair_sets(pair, pair_budget)
    return _pairwise(len(truth_pairs & predicted_pairs), len(truth_pairs), len(predicted_pairs))


def evaluate_all(pair: EvalPair, pair_budget: int = DEFAULT_PAIR_BUDGET) -> FullReport:
    """Full report from the five brute-force measures.

    Pair statistics come from the materialized pair sets, not from any
    closed form, keeping the report fully independent of the single-pass
    engine.
    """
    truth_pairs, predicted_pairs = _pair_sets(pair, pair_budget)
    shared = len(truth_pairs & predicted_pairs)

    flags = list(pair.flags)
    if not truth_pairs:
        flags.append(FLAG_DEGENERATE_RECALL)
    if not predicted_pairs:
        flags.append(FLAG_DEGENERATE_PRECISION)

    return FullReport(
        cluster_f=cluster_f(pair),
        k_metric=k_metric(pair),
        se_le=split_lump(pair),
        pairwise=_pairwise(shared, len(truth_pairs), len(predicted_pairs)),
        b_cubed=b_cubed(pair),
        stats=ReportStats(
            n_truth_clusters=len(pair.truth_dense),
            n_predicted_clusters=len(pair.predicted_dense),
            n_instances=sum(len(c) for c in pair.truth_dense),
            pair_tr_sum=len(truth_pairs),
            pair_pr_sum=len(predicted_pairs),
            pair_int_sum=shared,
        ),
        flags=tuple(flags),
    )
