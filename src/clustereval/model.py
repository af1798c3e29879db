"""Clustering data model: partitions and pair validation.

A :class:`Clustering` is a list of opaque instance ids cut into non-empty
clusters, stored as a flat id column and a cluster size column whose shape
is checked at construction. An :class:`EvalPair` is a validated
truth/predicted pair as labels only: both sides' cluster sizes, the
predicted cluster of each truth instance, the predicted instance count and
the coverage mode. :func:`validate` builds it in one join, checking every
id once in one table: predicted id to predicted cluster. Popping each truth
id from it labels the truth instances, finds repeats and missing ids, and
leaves the predicted-only extras. The join takes either side as a
:class:`Clustering` or as the chunks a parser yields, and truth also as a
parse that takes the pop and yields labels, so a file pair becomes labels
without an id column. Each engine forms its own flags; the oracle reads
the two clusterings instead.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, count, pairwise, repeat
from numbers import Real
from typing import Callable, Hashable, Iterable

from .errors import (
    DuplicateInstance,
    EmptyClustering,
    ExtraInPredicted,
    MissingFromPredicted,
    ValidationError,
)

COVERAGE_MODES = ("strict", "lenient")
_ANY_KEY = object()  # a key that is not a str, see validate
# A clustering's two columns in pieces: collected in order, the pieces' ids and sizes are the columns.
Chunks = Iterable[tuple[Iterable[Hashable], Iterable[int]]]
# A parse that calls the function it is given once per id, in cluster order, and yields chunks of its results.
KeyedChunks = Callable[[Callable[[Hashable], Hashable]], Chunks]

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

    @classmethod
    def from_chunks(cls, chunks: Chunks) -> "Clustering":
        """Build from ``(ids, sizes)`` chunks, as :func:`~clustereval.io_formats.parse_chunks` gives them."""
        ids, sizes = [], []
        for chunk_ids, chunk_sizes in chunks:
            ids += chunk_ids
            sizes += chunk_sizes
        return cls(ids, sizes)

    def partition(self) -> frozenset:
        """Order-insensitive view, for partition-equality comparisons."""
        return frozenset(frozenset(c) for c in self.clusters)


def _id_error(truth: Clustering | Chunks | KeyedChunks, predicted: Clustering | Chunks) -> ValidationError:
    """The error for a pair that the join cannot label, ranked in this one place.

    With two clusterings: an empty side (truth first), the first truth id
    an earlier one equals, the same in predicted, each naming its side,
    then the truth ids missing from predicted. Only this error path builds
    sets. Chunks are spent by then, so a side given otherwise gets an error
    naming no id.
    """
    if not (isinstance(truth, Clustering) and isinstance(predicted, Clustering)):
        return ValidationError("the instance ids of the two clusterings do not line up")
    try:
        _check_sides(truth.sizes, predicted.sizes)
    except EmptyClustering as exc:
        return exc
    for side, clustering in (("truth", truth), ("predicted", predicted)):
        seen = set()
        for instance in clustering.ids:
            if instance in seen:
                return DuplicateInstance(instance, side=side)
            seen.add(instance)
    return MissingFromPredicted(set(truth.ids) - set(predicted.ids))


def _chunks(side: Clustering | Chunks) -> Chunks:
    """A side of a pair as chunks: a clustering is one chunk of its two columns."""
    return ((side.ids, side.sizes),) if isinstance(side, Clustering) else side


def _keyed(side: Clustering | Chunks | KeyedChunks, key) -> Chunks:
    """The chunks of ``side`` with ``key`` of each id in place of the id: a parse applies it as it reads."""
    if callable(side):
        return side(key)
    return ((map(key, ids), sizes) for ids, sizes in _chunks(side))


def _check_sides(truth_sizes, predicted_sizes) -> None:
    """:class:`EmptyClustering` for a side with no clusters, truth first."""
    for side, sizes in (("truth", truth_sizes), ("predicted", predicted_sizes)):
        if not sizes:
            raise EmptyClustering(f"{side} clustering has no clusters")


@dataclass(frozen=True)
class EvalPair:
    """A validated (truth, predicted) pair as labels: what every engine but the oracle reads.

    ``assignments[d]`` is the predicted cluster index of the ``d``-th truth
    instance in cluster order, so truth cluster ``k`` is the
    ``truth_sizes[k]`` labels after the first ``sum(truth_sizes[:k])``.
    ``predicted_sizes`` are the predicted cluster lengths, predicted-only
    extras included, and ``n_predicted`` is their sum. :func:`validate`
    builds a pair and checks its ids; the constructor checks the coverage
    mode again, so a strict pair, built or replaced, has no predicted-only
    extras.
    """

    truth_sizes: tuple[int, ...]
    predicted_sizes: tuple[int, ...]
    assignments: list[int]
    n_predicted: int
    coverage_mode: str

    def __post_init__(self):
        if self.coverage_mode not in COVERAGE_MODES:
            raise ValueError(f"unknown coverage mode {self.coverage_mode!r}")
        if self.coverage_mode == "strict" and self.n_predicted != len(self.assignments):
            raise ValidationError(
                f"a strict pair has as many predicted instances as truth instances, not "
                f"{self.n_predicted} and {len(self.assignments)} (use lenient coverage to accept extras)"
            )

    @property
    def n_instances(self) -> int:
        """N: the number of truth-side instances."""
        return len(self.assignments)


def validate(
    truth: Clustering | Chunks | KeyedChunks, predicted: Clustering | Chunks, mode: str = "strict"
) -> EvalPair:
    """The :class:`EvalPair` of the two clusterings under coverage ``mode``, in one join.

    Each side is a :class:`Clustering`, or ``(ids, sizes)`` chunks whose
    ids and sizes, collected in order, are its two columns, as
    :func:`~clustereval.io_formats.parse_chunks` gives them. Truth may also
    be a callable that takes a function of one id and returns the chunks
    with that function's result in place of each id, as ``parse_chunks``
    does given ``key``. The predicted chunks fill one table, predicted id
    to predicted cluster index, and are then dropped; each truth id is
    popped from it, so a truth id lives only as long as its chunk, and
    only as long as its row when a callable truth side pops it as it is
    read. A repeated predicted id makes the table
    shorter than the predicted instance count, and a truth id missing from
    predicted or repeated in truth finds no entry. What is left are the
    predicted-only extras. A repeat on either side is a
    :class:`DuplicateInstance` (truth checked first) whose ``side`` names
    the clustering that holds it, and a truth id missing
    from predicted is fatal in both modes. Strict mode requires identical
    instance sets; lenient mode lets the predicted clustering carry extra
    instances, which stay in the predicted cluster sizes and pair totals,
    and each engine flags them.

    A pair the join cannot label gets the one error :func:`_id_error`
    ranks, and a pair it labels is checked for an empty side, then for
    strict-mode extras. With a side not given as a clustering, ids that do
    not line up raise a :class:`ValidationError` that names none, and a
    caller that still holds the input parses it to find the culprit.
    """
    if mode not in COVERAGE_MODES:
        raise ValueError(f"unknown coverage mode {mode!r}")

    # A dict whose keys are all str stores no hashes, so each resize rereads them from the key
    # objects, scattered over the heap; one other key for the build keeps the hashes in the table.
    # That costs 8 bytes per entry: on 1.2M-id file pairs the CLI's join took 6-9% less CPU and
    # 11-13 MB more peak RSS with it (medians of 6 alternating runs, CPython 3.11, 2 vCPUs).
    label_of = {_ANY_KEY: None}
    predicted_sizes = []
    for ids, sizes in _chunks(predicted):
        label_of.update(zip(ids, chain.from_iterable(map(repeat, count(len(predicted_sizes)), sizes))))
        predicted_sizes += sizes
    del label_of[_ANY_KEY]
    n_predicted = sum(predicted_sizes)
    truth_sizes, assignments = [], []
    try:
        if len(label_of) < n_predicted:  # a predicted id repeats
            raise KeyError
        for labels, sizes in _keyed(truth, label_of.pop):
            assignments += labels
            truth_sizes += sizes
    except KeyError:  # a predicted id repeats, or a truth id is missing from predicted or repeats in truth
        raise _id_error(truth, predicted) from None
    _check_sides(truth_sizes, predicted_sizes)
    # Every truth id was popped once, so the ids left are the predicted-only extras.
    if label_of and mode == "strict":
        raise ExtraInPredicted(label_of)
    return EvalPair(tuple(truth_sizes), tuple(predicted_sizes), assignments, n_predicted, mode)
