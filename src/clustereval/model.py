"""Clustering data model: partitions and pair validation.

A :class:`Clustering` is a list of opaque instance ids cut into non-empty
clusters, stored as a flat id column and a cluster size column whose shape
is checked at construction. An :class:`EvalPair` pairs a truth clustering
with a predicted one and, when built, checks every id once in one table:
predicted id to predicted cluster. Popping each truth id from it labels the
truth instances, finds repeats and missing ids, and leaves the
predicted-only extras. :func:`validate` builds the pair that all evaluators
consume; it holds the two clusterings, the coverage mode and the labels,
and each engine forms its own flags from them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, count, pairwise, repeat
from numbers import Real
from typing import Hashable, Iterable

from .errors import (
    DuplicateInstance,
    EmptyClustering,
    ExtraInPredicted,
    MissingFromPredicted,
    ValidationError,
)

COVERAGE_MODES = ("strict", "lenient")
_ANY_KEY = object()  # a key that is not a str, see EvalPair.__post_init__

FLAG_EXTRA_IN_PREDICTED = "extra_in_predicted: {} instance(s) appear only in the predicted clustering"
FLAG_DEGENERATE_RECALL = "degenerate_pairwise_recall: no instance pairs in truth clusters; recall defined as 1.0"
FLAG_DEGENERATE_PRECISION = (
    "degenerate_pairwise_precision: no instance pairs in predicted clusters; precision defined as 1.0"
)


def harmonic_mean(recall: Real, precision: Real) -> Real:
    """2rp/(r+p), defined as 0 when both inputs are 0; exact on ``Fraction`` inputs."""
    total = recall + precision
    if total == 0:
        return 0.0
    return 2 * recall * precision / total


def geometric_mean(recall: Real, precision: Real) -> float:
    """sqrt(rp) correctly rounded: the root of the exact product, rounded to a double once."""
    product = Fraction(recall) * Fraction(precision)
    num, den = product.numerator, product.denominator
    # root = floor(sqrt(product) * 2**shift) has at least 55 bits, two more than a double. An
    # inexact root gets its last bit set, so no midpoint between two doubles lies between it and
    # the true root, and rounding it once rounds the true root.
    shift = max(0, 56 - (num.bit_length() - den.bit_length()) // 2)
    scaled = num << 2 * shift
    root = math.isqrt(scaled // den)
    if root * root * den != scaled:
        root |= 1
    return float(Fraction(root, 1 << shift))


@dataclass(frozen=True)
class MetricTriple:
    """Recall, precision and their combined score; the constructors round each exact value once."""

    recall: float
    precision: float
    combined: float

    @classmethod
    def harmonic(cls, recall: Real, precision: Real) -> "MetricTriple":
        return cls(float(recall), float(precision), float(harmonic_mean(recall, precision)))

    @classmethod
    def geometric(cls, recall: Real, precision: Real) -> "MetricTriple":
        return cls(float(recall), float(precision), geometric_mean(recall, precision))


@dataclass(frozen=True)
class SplitLumpResult:
    """Splitting/lumping error rates and their conversion, in report order.

    The conversion is recall = 1 - se, precision = 1 - le, combined harmonic.
    """

    se: float
    le: float
    recall: float
    precision: float
    combined: float

    @classmethod
    def from_rates(cls, se: Real, le: Real) -> "SplitLumpResult":
        """The result for exact rates ``se`` and ``le``, each field rounded once."""
        recall, precision = 1 - se, 1 - le
        return cls(float(se), float(le), float(recall), float(precision), float(harmonic_mean(recall, precision)))


@dataclass(frozen=True)
class ReportStats:
    n_truth_clusters: int
    n_predicted_clusters: int
    n_instances: int
    pair_tr_sum: int
    pair_pr_sum: int
    pair_int_sum: int


@dataclass(frozen=True)
class FullReport:
    """All five measures plus input statistics from one evaluation run.

    These dataclasses are the report document's schema: it renders every
    field under its own name, in field order.
    """

    cluster_f: MetricTriple
    k_metric: MetricTriple
    se_le: SplitLumpResult
    pairwise: MetricTriple
    b_cubed: MetricTriple
    stats: ReportStats
    flags: tuple[str, ...]


@dataclass(frozen=True)
class Clustering:
    """Instance ids cut into non-empty clusters, stored as two columns.

    ``ids`` lists every instance in cluster order and ``sizes`` the cluster
    lengths, so cluster ``k`` is the ``sizes[k]`` ids after the first
    ``sum(sizes[:k])``. The constructor stores both as tuples and checks the
    shape: no cluster is empty and the integer sizes partition the ids. That
    the ids are distinct, so the clusters are disjoint, is checked by
    :func:`validate`, in the one table it builds for the pair. Cluster and
    instance order are kept as given, which makes everything downstream
    deterministic. Clusterings with equal columns compare and hash equal;
    :meth:`partition` is the order-insensitive view.
    """

    ids: tuple[Hashable, ...]
    sizes: tuple[int, ...]

    def __post_init__(self):
        # Stored as tuples whatever sequences were passed, so equal columns compare and hash equal.
        object.__setattr__(self, "ids", ids := tuple(self.ids))
        object.__setattr__(self, "sizes", sizes := tuple(self.sizes))
        if 0 in sizes:
            raise ValidationError(f"cluster at position {sizes.index(0)} is empty")
        try:  # a float, Fraction or Decimal size makes the sum non-integral, which has no index
            partitions = operator.index(sum(sizes)) == len(ids) and min(sizes, default=1) >= 0
        except TypeError:
            partitions = False
        if not partitions:
            raise ValidationError(f"cluster sizes do not partition the {len(ids)} ids")

    @property
    def n_instances(self) -> int:
        return len(self.ids)

    @cached_property
    def clusters(self) -> tuple[tuple[Hashable, ...], ...]:
        """The clusters as tuples of ids, cut from ``ids`` on first read."""
        ids = self.ids
        return tuple(ids[start:stop] for start, stop in pairwise(accumulate(self.sizes, initial=0)))

    @classmethod
    def from_clusters(cls, clusters: Iterable[Iterable[Hashable]]) -> "Clustering":
        """Build from any iterables; sets are canonicalized by sorting on ``str``."""
        canon = [tuple(sorted(c, key=str)) if isinstance(c, (set, frozenset)) else tuple(c) for c in clusters]
        return cls(tuple(chain.from_iterable(canon)), tuple(map(len, canon)))

    def partition(self) -> frozenset:
        """Order-insensitive view, for partition-equality comparisons."""
        return frozenset(frozenset(c) for c in self.clusters)


def _id_error(truth: Clustering, predicted: Clustering) -> ValidationError:
    """The error for a pair whose ids do not line up, by precedence.

    The first id in truth that an earlier one equals, then the same in
    predicted, then the truth ids missing from predicted. Only this error
    path builds sets.
    """
    for clustering in (truth, predicted):
        seen = set()
        for instance in clustering.ids:
            if instance in seen:
                return DuplicateInstance(instance)
            seen.add(instance)
    return MissingFromPredicted(set(truth.ids) - set(predicted.ids))


@dataclass(frozen=True)
class EvalPair:
    """A validated (truth, predicted) pair as one flat list of predicted labels.

    The constructor checks the ids of both clusterings and labels each truth
    instance itself, so ``assignments`` is not an argument and always
    matches the clusterings. ``assignments[d]`` is the predicted cluster
    index of the ``d``-th truth instance in cluster order, so each truth
    cluster is a slice of it.

    Every id is checked in one table, predicted id to predicted cluster
    index: a repeated predicted id makes the table shorter than the id
    column, and each truth id is popped from it, so a truth id that is
    missing from predicted or repeated in truth finds no entry. What is left
    are the predicted-only extras. A repeat on either side is a
    :class:`DuplicateInstance` (truth checked first). Strict mode requires
    identical instance sets. Lenient mode lets the predicted clustering carry
    extra instances (they stay in the predicted cluster sizes and pair
    totals, and each engine flags them); truth instances missing from
    predicted are fatal in both modes.
    """

    truth: Clustering
    predicted: Clustering
    coverage_mode: str
    assignments: list[int] = field(init=False)

    def __post_init__(self):
        truth, predicted, mode = self.truth, self.predicted, self.coverage_mode
        if mode not in COVERAGE_MODES:
            raise ValueError(f"unknown coverage mode {mode!r}")
        if not truth.sizes:
            raise EmptyClustering("truth clustering has no clusters")
        if not predicted.sizes:
            raise EmptyClustering("predicted clustering has no clusters")

        # A dict whose keys are all str stores no hashes, so each resize rereads them from the key
        # objects, scattered over the heap; one other key for the build keeps the hashes in the table,
        # which makes building and popping a 1.2M-id table about a fifth faster.
        label_of = {_ANY_KEY: None}
        label_of.update(zip(predicted.ids, chain.from_iterable(map(repeat, count(), predicted.sizes))))
        del label_of[_ANY_KEY]
        if len(label_of) < predicted.n_instances:  # a predicted id repeats
            raise _id_error(truth, predicted)
        try:
            assignments = list(map(label_of.pop, truth.ids))
        except KeyError:  # a truth id is missing from predicted, or repeats in truth
            raise _id_error(truth, predicted) from None
        # Every truth id was popped once, so the ids left are the predicted-only extras.
        if label_of and mode == "strict":
            raise ExtraInPredicted(label_of)
        object.__setattr__(self, "assignments", assignments)

    @property
    def n_instances(self) -> int:
        """N: the number of truth-side instances."""
        return self.truth.n_instances


def validate(truth: Clustering, predicted: Clustering, mode: str = "strict") -> EvalPair:
    """The :class:`EvalPair` of the two clusterings under coverage ``mode``."""
    return EvalPair(truth, predicted, mode)
