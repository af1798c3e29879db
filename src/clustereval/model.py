"""Clustering data model: partitions, identifier interning, pair validation.

A :class:`Clustering` is a partition of opaque instance ids into disjoint,
non-empty clusters, stored as a flat id column and a cluster size column
and checked at construction. An :class:`EvalPair` pairs a truth clustering
with a predicted one and, when built, looks the predicted cluster of every
truth instance up once (coverage follows from that list); :func:`validate`
builds the pair that all evaluators consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    return math.sqrt(recall * precision)


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


def _cut(flat: tuple, sizes: Iterable[int]) -> tuple[tuple, ...]:
    """``flat`` cut into consecutive slices of the given sizes."""
    return tuple(flat[start:stop] for start, stop in pairwise(accumulate(sizes, initial=0)))


@dataclass(frozen=True)
class Clustering:
    """A partition of instance ids into disjoint, non-empty clusters, stored as two columns.

    ``ids`` lists every instance in cluster order and ``sizes`` the cluster
    lengths, so cluster ``k`` is the ``sizes[k]`` ids after the first
    ``sum(sizes[:k])``. The constructor stores both as tuples, checks that
    they agree and checks both invariants, so every ``Clustering`` is valid. Cluster and instance
    order are kept as given, which makes everything downstream deterministic.
    """

    ids: tuple[Hashable, ...]
    sizes: tuple[int, ...]
    role: str = "truth"  # "truth" | "predicted"

    def __post_init__(self):
        # Stored as tuples whatever sequences were passed, so equal partitions compare equal.
        object.__setattr__(self, "ids", ids := tuple(self.ids))
        object.__setattr__(self, "sizes", sizes := tuple(self.sizes))
        if 0 in sizes:
            raise ValidationError(f"{self.role} cluster at position {sizes.index(0)} is empty")
        if sum(sizes) != len(ids) or min(sizes, default=1) < 0:
            raise ValidationError(f"{self.role} cluster sizes do not partition its {len(ids)} ids")
        if len(set(ids)) != len(ids):
            seen = set()
            for instance in ids:
                if instance in seen:
                    raise DuplicateInstance(instance)
                seen.add(instance)

    @property
    def n_instances(self) -> int:
        return len(self.ids)

    @cached_property
    def clusters(self) -> tuple[tuple[Hashable, ...], ...]:
        """The clusters as tuples of ids, cut from ``ids`` on first read."""
        return _cut(self.ids, self.sizes)

    @classmethod
    def from_clusters(cls, clusters: Iterable[Iterable[Hashable]], role: str = "truth") -> "Clustering":
        """Build from any iterables; sets are canonicalized by sorting on ``str``."""
        canon = [tuple(sorted(c, key=str)) if isinstance(c, (set, frozenset)) else tuple(c) for c in clusters]
        return cls(tuple(chain.from_iterable(canon)), tuple(map(len, canon)), role)

    def instance_set(self) -> set:
        return set(self.ids)

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
        if not truth.sizes:
            raise EmptyClustering("truth clustering has no clusters")
        if not predicted.sizes:
            raise EmptyClustering("predicted clustering has no clusters")

        label_of = dict(zip(predicted.ids, chain.from_iterable(map(repeat, count(), predicted.sizes))))
        try:
            assignments = list(map(label_of.__getitem__, truth.ids))
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
        dense = dict(zip(self.truth.ids, count()))
        truth_flat = tuple(dense.values())
        predicted_flat = tuple([dense.setdefault(x, len(dense)) for x in self.predicted.ids])
        return tuple(dense), _cut(truth_flat, self.truth.sizes), _cut(predicted_flat, self.predicted.sizes)

    instances = property(lambda self: self._dense_views[0])
    truth_dense = property(lambda self: self._dense_views[1])
    predicted_dense = property(lambda self: self._dense_views[2])


def validate(truth: Clustering, predicted: Clustering, mode: str = "strict") -> EvalPair:
    """The :class:`EvalPair` of the two clusterings under coverage ``mode``."""
    return EvalPair(truth, predicted, mode)
