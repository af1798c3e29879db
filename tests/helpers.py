"""Shared construction helpers and hypothesis strategies."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from clustereval.errors import DuplicateInstance, ExtraInPredicted, MissingFromPredicted
from clustereval.model import Clustering, EvalPair, validate
from clustereval.synth import SynthConfig, generate

# The worked example used throughout: three truth clusters over eight
# instances, the predicted side lumping the last two together.
GOLDEN_TRUTH = (("1", "2", "3"), ("4", "5"), ("6", "7", "8"))
GOLDEN_PRED = (("1", "2", "3"), ("4", "5", "6", "7", "8"))

GOLDEN_TRUTH_TEXT = "1 2 3\n4 5\n6 7 8\n"
GOLDEN_PRED_TEXT = "1 2 3\n4 5 6 7 8\n"


def golden_pair() -> EvalPair:
    truth = Clustering.from_clusters(GOLDEN_TRUTH)
    predicted = Clustering.from_clusters(GOLDEN_PRED)
    return validate(truth, predicted)


def reference_id_error(truth: Clustering, predicted: Clustering, mode: str):
    """What ``validate`` rejects in the ids of a pair, by plain sets: ``(error type, payload)`` or None.

    In order: the first truth id that an earlier one equals, the same in
    predicted, truth ids missing from predicted, then predicted-only extras
    in strict mode.
    """
    for ids in (truth.ids, predicted.ids):
        if repeats := [x for i, x in enumerate(ids) if x in ids[:i]]:
            return DuplicateInstance, repeats[0]
    truth_ids, predicted_ids = set(truth.ids), set(predicted.ids)
    if missing := truth_ids - predicted_ids:
        return MissingFromPredicted, sorted(missing, key=str)
    if mode == "strict" and (extra := predicted_ids - truth_ids):
        return ExtraInPredicted, sorted(extra, key=str)
    return None


def clusters_from_labels(labels) -> list[tuple[int, ...]]:
    """Group instance indices 0..n-1 by their label."""
    groups: dict = {}
    for idx, label in enumerate(labels):
        groups.setdefault(label, []).append(idx)
    return [tuple(g) for g in groups.values()]


def pair_from_labels(truth_labels, predicted_labels, mode: str = "strict") -> EvalPair:
    truth = Clustering.from_clusters(clusters_from_labels(truth_labels))
    predicted = Clustering.from_clusters(clusters_from_labels(predicted_labels))
    return validate(truth, predicted, mode)


def random_pair(rng: random.Random, max_n: int = 200) -> EvalPair:
    """A random strict pair by independent label assignment."""
    n = rng.randint(1, max_n)
    truth_k = rng.randint(1, n)
    predicted_k = rng.randint(1, n)
    truth_labels = [rng.randrange(truth_k) for _ in range(n)]
    predicted_labels = [rng.randrange(predicted_k) for _ in range(n)]
    return pair_from_labels(truth_labels, predicted_labels)


def random_synth_pair(rng: random.Random, max_n: int = 200) -> EvalPair:
    n = rng.randint(1, max_n)
    config = SynthConfig(
        n_instances=n,
        n_truth_clusters=rng.randint(1, n),
        size_skew=rng.uniform(0.0, 2.5),
        split_rate=rng.random(),
        merge_rate=rng.random(),
        seed=rng.getrandbits(63),
    )
    return generate(config)


def random_synth_pair_in_mode(rng: random.Random, mode: str) -> EvalPair:
    """A random synth pair under ``mode``; a lenient one gets 1-5 predicted-only extras."""
    pair = random_synth_pair(rng)
    predicted = [list(c) for c in pair.predicted.clusters]
    if mode == "lenient":
        # predicted-only extras, each joining a random cluster or a new one of its own
        first = max(pair.truth.ids) + 1
        for extra in range(first, first + rng.randint(1, 5)):
            k = rng.randrange(len(predicted) + 1)
            if k == len(predicted):
                predicted.append([])
            predicted[k].append(extra)
    return validate(pair.truth, Clustering.from_clusters(predicted), mode)


@st.composite
def eval_pairs(draw, max_n: int = 50, max_labels: int = 10):
    """Strict pairs from two independent random label assignments."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    labels = st.lists(
        st.integers(min_value=0, max_value=max_labels - 1), min_size=n, max_size=n
    )
    return pair_from_labels(draw(labels), draw(labels))
