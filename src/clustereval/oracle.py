"""Brute-force reference implementations of the five measures.

These follow each measure's definition literally: nested cluster-by-cluster
set intersections, per-instance cluster lookups, and every same-cluster pair
enumerated and counted, none kept. They are intentionally slow, number the
ids themselves, and read nothing of the pair but its two clusterings, so
agreement between the two engines is a meaningful correctness check: each
ratio is a ``Fraction`` rounded once, so the reports must be equal. Use them
on small inputs only; pair enumeration is capped by a budget.
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
    EvalPair,
    FullReport,
    MetricTriple,
    ReportStats,
    SplitLumpResult,
)

DEFAULT_PAIR_BUDGET = 100_000_000


def _dense_clusters(pair: EvalPair) -> tuple[list[frozenset], list[frozenset]]:
    """Both sides' clusters as sets of ints, numbered here rather than taken from the fast path.

    One dict numbers the ids, truth ids in cluster order and then the
    predicted-only extras, so an id is the same int on both sides. Raw ids
    need not be orderable against each other; the ints are.
    """
    dense: dict = {}
    sides = (pair.truth.clusters, pair.predicted.clusters)
    return tuple([frozenset([dense.setdefault(x, len(dense)) for x in c]) for c in side] for side in sides)


def cluster_f(pair: EvalPair) -> MetricTriple:
    """Count predicted clusters that equal a truth cluster, by set equality."""
    truth_sets, predicted_sets = _dense_clusters(pair)
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
    truth_sets, predicted_sets = _dense_clusters(pair)
    n = sum(len(t) for t in truth_sets)
    aap = sum(Fraction(sum(len(t & p) ** 2 for p in predicted_sets), len(t)) for t in truth_sets)
    acp = sum(Fraction(sum(len(p & t) ** 2 for t in truth_sets), len(p)) for p in predicted_sets)
    return MetricTriple.geometric(aap / n, acp / n)


def b_cubed(pair: EvalPair) -> MetricTriple:
    """Instance-level recall/precision, one lookup and intersection per instance.

    Overlaps are summed per truth (recall) and predicted (precision) cluster, then divided by its size.
    """
    truth_sets, predicted_sets = _dense_clusters(pair)
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
    truth_sets, predicted_sets = _dense_clusters(pair)
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
    """Pairs that enumerating both sides visits, checked against the budget."""
    return sum(k * (k - 1) // 2 for k in pair.truth.sizes + pair.predicted.sizes)


def _count(pairs: Iterator[tuple]) -> int:
    """How many pairs an iterator yields, each walked and none kept: every pair has two items."""
    return countOf(map(len, pairs), 2)


def _pair_counts(pair: EvalPair, pair_budget: int) -> tuple[int, int, int]:
    """Shared, truth and predicted pairs, counted while enumerating them; :class:`PairBudgetExceeded` past ``pair_budget``.

    Every pair of every cluster is walked, and nothing of it outlives its
    count. A truth pair is shared when its two ids are in the same predicted
    cluster, looked up in a dict of the oracle's own numbering, which covers
    the predicted-only ids too.
    """
    needed = pair_demand(pair)
    if needed > pair_budget:
        raise PairBudgetExceeded(needed, pair_budget)
    truth_sets, predicted_sets = _dense_clusters(pair)
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


def pairwise_f(pair: EvalPair, pair_budget: int = DEFAULT_PAIR_BUDGET) -> MetricTriple:
    """Enumerate both sides' same-cluster pairs and count the truth pairs that predicted shares.

    Raises :class:`PairBudgetExceeded` when enumeration would visit more
    pairs than ``pair_budget``; the zero-pair sides are defined as 1.0 like
    in the single-pass engine.
    """
    return _pairwise(*_pair_counts(pair, pair_budget))


def evaluate_all(pair: EvalPair, pair_budget: int = DEFAULT_PAIR_BUDGET) -> FullReport:
    """Full report from the five brute-force measures.

    Pair statistics come from enumerating every pair, not from any
    closed form, and the predicted-only extras from a set difference, not
    from the instance counts, keeping the report fully independent of the
    single-pass engine.
    """
    shared, truth_total, predicted_total = _pair_counts(pair, pair_budget)
    truth_sets, predicted_sets = _dense_clusters(pair)

    flags = []
    if extra := set(pair.predicted.ids) - set(pair.truth.ids):
        flags.append(FLAG_EXTRA_IN_PREDICTED.format(len(extra)))
    if not truth_total:
        flags.append(FLAG_DEGENERATE_RECALL)
    if not predicted_total:
        flags.append(FLAG_DEGENERATE_PRECISION)

    return FullReport(
        cluster_f=cluster_f(pair),
        k_metric=k_metric(pair),
        se_le=split_lump(pair),
        pairwise=_pairwise(shared, truth_total, predicted_total),
        b_cubed=b_cubed(pair),
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
