"""Seeded generator of truth/predicted clustering pairs.

The PRNG is CPython's ``random.Random`` (Mersenne Twister, MT19937), whose
output for a given seed is identical on every platform, so equal configs
always produce byte-identical pairs.

Truth cluster sizes follow a Pareto-like skew (``size_skew = 0`` is uniform)
apportioned to the exact instance total by largest-remainder rounding. The
predicted clustering is derived from truth by first splitting clusters at a
uniform random cut, then merging randomly paired clusters.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import InfeasibleConfig
from .model import Clustering


@dataclass(frozen=True)
class SynthConfig:
    n_instances: int
    n_truth_clusters: int
    size_skew: float = 0.0
    split_rate: float = 0.0
    merge_rate: float = 0.0
    seed: int = 0


def _check(config: SynthConfig) -> None:
    if config.n_instances < 1:
        raise InfeasibleConfig("n_instances must be at least 1")
    if config.n_truth_clusters < 1:
        raise InfeasibleConfig("n_truth_clusters must be at least 1")
    if config.n_truth_clusters > config.n_instances:
        raise InfeasibleConfig(
            f"cannot place {config.n_instances} instances into "
            f"{config.n_truth_clusters} non-empty clusters"
        )
    if config.size_skew < 0:
        raise InfeasibleConfig("size_skew must be >= 0")
    if not math.isfinite(config.size_skew):
        raise InfeasibleConfig("size_skew must be finite")
    for name in ("split_rate", "merge_rate"):
        rate = getattr(config, name)
        if not 0.0 <= rate <= 1.0:
            raise InfeasibleConfig(f"{name} must lie in [0, 1]")


def _cluster_sizes(rng: random.Random, config: SynthConfig) -> list[int]:
    """Sizes >= 1 summing exactly to n_instances, largest-remainder rounded."""
    k = config.n_truth_clusters
    n = config.n_instances
    if config.size_skew == 0:
        weights = [1.0] * k
    else:
        # 1 - random() lies in (0, 1]; raising it to -skew gives a heavy tail.
        try:
            weights = [(1.0 - rng.random()) ** -config.size_skew for _ in range(k)]
        except OverflowError:
            weights = [math.inf]  # a weight past the float range, rejected with the total below
    spare = n - k
    if not math.isfinite(total_weight := sum(weights)):
        raise InfeasibleConfig(f"size_skew {config.size_skew} overflows the cluster size weights")
    quotas = [w / total_weight * spare for w in weights]
    base = [int(q) for q in quotas]
    order = sorted(range(k), key=lambda i: (base[i] - quotas[i], i))
    for i in order[: spare - sum(base)]:
        base[i] += 1
    return [1 + b for b in base]


def _split(rng: random.Random, clusters: list[tuple[int, ...]], rate: float) -> list[tuple[int, ...]]:
    out = []
    for cluster in clusters:
        if len(cluster) >= 2 and rng.random() < rate:
            cut = rng.randint(1, len(cluster) - 1)
            out.append(cluster[:cut])
            out.append(cluster[cut:])
        else:
            out.append(cluster)
    return out


def _merge(rng: random.Random, clusters: list[tuple[int, ...]], rate: float) -> list[tuple[int, ...]]:
    """Join randomly paired marked clusters; an odd leftover stays unmerged."""
    marked = [i for i in range(len(clusters)) if rng.random() < rate]
    rng.shuffle(marked)
    merged = list(clusters)
    dropped = set()
    for a, b in zip(marked[0::2], marked[1::2]):
        keep, drop = min(a, b), max(a, b)
        merged[keep] = merged[keep] + merged[drop]
        dropped.add(drop)
    return [c for i, c in enumerate(merged) if i not in dropped]


def generate(config: SynthConfig) -> tuple[Clustering, Clustering]:
    """The truth and predicted clusterings of one pair, valid in strict mode; equal configs give identical output."""
    _check(config)
    rng = random.Random(config.seed)
    sizes = _cluster_sizes(rng, config)

    truth_clusters = []
    next_id = 1
    for size in sizes:
        truth_clusters.append(tuple(range(next_id, next_id + size)))
        next_id += size

    predicted_clusters = _split(rng, truth_clusters, config.split_rate)
    predicted_clusters = _merge(rng, predicted_clusters, config.merge_rate)

    return Clustering.from_clusters(truth_clusters), Clustering.from_clusters(predicted_clusters)
