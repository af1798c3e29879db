"""Clustering data model: partitions, identifier interning, pair validation.

A :class:`Clustering` is a partition of opaque instance ids into disjoint,
non-empty clusters, checked at construction. An :class:`EvalPair` pairs a
truth clustering with a predicted one and, when built, looks the predicted
cluster of every truth instance up once (coverage follows from that list);
:func:`validate` builds the pair that all evaluators consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count, repeat
from typing import Hashable, Iterable

from .errors import (
    DuplicateInstance,
    EmptyClustering,
    ExtraInPredicted,
    MissingFromPredicted,
    ValidationError,
)

COVERAGE_MODES = ("strict", "lenient")

FLAG_DEGENERATE_RECALL = "degenerate_pairwise_recall: no instance pairs in truth clusters; recall defined as 1.0"
FLAG_DEGENERATE_PRECISION = (
    "degenerate_pairwise_precision: no instance pairs in predicted clusters; precision defined as 1.0"
)


def harmonic_mean(recall: float, precision: float) -> float:
    """2rp/(r+p), defined as 0 when both inputs are 0."""
    total = recall + precision
    if total == 0:
        return 0.0
    return 2.0 * recall * precision / total


def geometric_mean(recall: float, precision: float) -> float:
    return math.sqrt(recall * precision)


@dataclass(frozen=True)
class MetricTriple:
    """Recall, precision and their combined score for one measure."""

    recall: float
    precision: float
    combined: float
    mean_kind: str  # "harmonic" | "geometric"

    @classmethod
    def harmonic(cls, recall: float, precision: float) -> "MetricTriple":
        return cls(recall, precision, harmonic_mean(recall, precision), "harmonic")

    @classmethod
    def geometric(cls, recall: float, precision: float) -> "MetricTriple":
        return cls(recall, precision, geometric_mean(recall, precision), "geometric")


@dataclass(frozen=True)
class SplitLumpResult:
    """Raw splitting/lumping error rates plus their recall/precision conversion.

    The conversion is recall = 1 - se, precision = 1 - le, combined harmonic.
    """

    se: float
    le: float
    converted: MetricTriple


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
    """All five measures plus input statistics from one evaluation run."""

    cluster_f: MetricTriple
    k_metric: MetricTriple
    b_cubed: MetricTriple
    se_le: SplitLumpResult
    pairwise: MetricTriple
    stats: ReportStats
    flags: tuple[str, ...]


@dataclass(frozen=True)
class Clustering:
    """A partition of instance ids into disjoint, non-empty clusters.

    The constructor checks both invariants and ``n_instances`` is derived,
    so every ``Clustering`` is valid. Cluster and instance order are kept as
    given, which makes everything downstream deterministic.
    """

    clusters: tuple[tuple[Hashable, ...], ...]
    role: str = "truth"  # "truth" | "predicted"

    def __post_init__(self):
        if not all(self.clusters):
            pos = next(pos for pos, cluster in enumerate(self.clusters) if not cluster)
            raise ValidationError(f"{self.role} cluster at position {pos} is empty")
        if len(set(chain.from_iterable(self.clusters))) != self.n_instances:
            seen = set()
            for instance in chain.from_iterable(self.clusters):
                if instance in seen:
                    raise DuplicateInstance(instance)
                seen.add(instance)

    @property
    def n_instances(self) -> int:
        return sum(map(len, self.clusters))

    @classmethod
    def from_clusters(cls, clusters: Iterable[Iterable[Hashable]], role: str = "truth") -> "Clustering":
        """Build from any iterables; sets are canonicalized by sorting on ``str``."""
        canon = (tuple(sorted(c, key=str)) if isinstance(c, (set, frozenset)) else tuple(c) for c in clusters)
        return cls(tuple(canon), role)

    def instance_set(self) -> set:
        return set(chain.from_iterable(self.clusters))

    def partition(self) -> frozenset:
        """Order-insensitive view, for partition-equality comparisons."""
        return frozenset(frozenset(c) for c in self.clusters)


@dataclass(frozen=True)
class EvalPair:
    """A validated (truth, predicted) pair as one flat list of predicted labels.

    The constructor checks coverage between the two clusterings and labels
    each truth instance itself, so ``assignments`` and ``flags`` are not
    arguments and always match the clusterings. ``assignments[d]`` is the
    predicted cluster index of the ``d``-th truth instance in cluster order,
    so each truth cluster is a slice of it.

    Strict mode requires identical instance sets. Lenient mode lets the
    predicted clustering carry extra instances (they stay in the predicted
    cluster sizes and pair totals, and are reported in ``flags``); truth
    instances missing from predicted are fatal in both modes.
    """

    truth: Clustering
    predicted: Clustering
    coverage_mode: str
    assignments: list[int] = field(init=False)
    flags: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        truth, predicted, mode = self.truth, self.predicted, self.coverage_mode
        if mode not in COVERAGE_MODES:
            raise ValueError(f"unknown coverage mode {mode!r}")
        if not truth.clusters:
            raise EmptyClustering("truth clustering has no clusters")
        if not predicted.clusters:
            raise EmptyClustering("predicted clustering has no clusters")

        labels = chain.from_iterable(map(repeat, count(), map(len, predicted.clusters)))
        label_of = dict(zip(chain.from_iterable(predicted.clusters), labels))
        try:
            assignments = list(map(label_of.__getitem__, chain.from_iterable(truth.clusters)))
        except KeyError:
            raise MissingFromPredicted(truth.instance_set() - predicted.instance_set()) from None
        # Every truth id was hit once, so the remaining predicted ids are extras.
        n_extra = predicted.n_instances - len(assignments)
        flags: tuple[str, ...] = ()
        if n_extra:
            if mode == "strict":
                raise ExtraInPredicted(predicted.instance_set() - truth.instance_set())
            flags = (f"extra_in_predicted: {n_extra} instance(s) appear only in the predicted clustering",)
        object.__setattr__(self, "assignments", assignments)
        object.__setattr__(self, "flags", flags)

    @property
    def n_instances(self) -> int:
        """N: the number of truth-side instances."""
        return self.truth.n_instances

    @cached_property
    def _dense_views(self) -> tuple[tuple, tuple, tuple]:
        """``(instances, truth_dense, predicted_dense)``, built on first read, for the oracle and tests.

        ``instances[d]`` is the raw id behind dense index ``d``: truth ids in cluster order, then
        predicted-only extras. Both sides go through one dict, so equal dense ids are the same ints.
        """
        dense = dict(zip(chain.from_iterable(self.truth.clusters), count()))
        truth_dense = tuple(tuple(map(dense.__getitem__, c)) for c in self.truth.clusters)
        predicted_dense = tuple(tuple([dense.setdefault(x, len(dense)) for x in c]) for c in self.predicted.clusters)
        return tuple(dense), truth_dense, predicted_dense

    instances = property(lambda self: self._dense_views[0])
    truth_dense = property(lambda self: self._dense_views[1])
    predicted_dense = property(lambda self: self._dense_views[2])


def validate(truth: Clustering, predicted: Clustering, mode: str = "strict") -> EvalPair:
    """The :class:`EvalPair` of the two clusterings under coverage ``mode``."""
    return EvalPair(truth, predicted, mode)
