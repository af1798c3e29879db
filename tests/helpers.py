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


def golden_sides() -> tuple[Clustering, Clustering]:
    """The worked example's truth and predicted clusterings, which the oracle reads."""
    return Clustering.from_clusters(GOLDEN_TRUTH), Clustering.from_clusters(GOLDEN_PRED)


def golden_pair() -> EvalPair:
    return validate(*golden_sides())


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


def sides_from_labels(truth_labels, predicted_labels) -> tuple[Clustering, Clustering]:
    """The truth and predicted clusterings that group instance indices by the two label lists."""
    truth = Clustering.from_clusters(clusters_from_labels(truth_labels))
    return truth, Clustering.from_clusters(clusters_from_labels(predicted_labels))


def pair_from_labels(truth_labels, predicted_labels, mode: str = "strict") -> EvalPair:
    return validate(*sides_from_labels(truth_labels, predicted_labels), mode)


def random_sides(rng: random.Random, max_n: int = 200) -> tuple[Clustering, Clustering]:
    """The clusterings of a random strict pair by independent label assignment."""
    n = rng.randint(1, max_n)
    truth_k = rng.randint(1, n)
    predicted_k = rng.randint(1, n)
    truth_labels = [rng.randrange(truth_k) for _ in range(n)]
    predicted_labels = [rng.randrange(predicted_k) for _ in range(n)]
    return sides_from_labels(truth_labels, predicted_labels)


def random_synth_sides(rng: random.Random, max_n: int = 200) -> tuple[Clustering, Clustering]:
    """The clusterings of a random synthetic strict pair."""
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


def random_synth_sides_in_mode(rng: random.Random, mode: str) -> tuple[Clustering, Clustering]:
    """The clusterings of a random synth pair valid under ``mode``; a lenient one gets 1-5 predicted-only extras."""
    truth, predicted = random_synth_sides(rng)
    predicted = [list(c) for c in predicted.clusters]
    if mode == "lenient":
        # predicted-only extras, each joining a random cluster or a new one of its own
        first = max(truth.ids) + 1
        for extra in range(first, first + rng.randint(1, 5)):
            k = rng.randrange(len(predicted) + 1)
            if k == len(predicted):
                predicted.append([])
            predicted[k].append(extra)
    return truth, Clustering.from_clusters(predicted)


@st.composite
def eval_sides(draw, max_n: int = 50, max_labels: int = 10):
    """The clusterings of strict pairs from two independent random label assignments."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    labels = st.lists(
        st.integers(min_value=0, max_value=max_labels - 1), min_size=n, max_size=n
    )
    return sides_from_labels(draw(labels), draw(labels))


def eval_pairs(max_n: int = 50, max_labels: int = 10):
    """Strict validated pairs from two independent random label assignments."""
    return eval_sides(max_n, max_labels).map(lambda sides: validate(*sides))


@st.composite
def file_pairs(draw, max_ids: int = 12):
    """A truth and a predicted file's bytes in one format, with the format: mostly a valid pair or nearly one.

    Predicted may drop a truth id or add extras, either side may repeat an id or hold a malformed row or an
    invalid byte, and each file is decorated with comments, blank lines, CRLF line ends or a BOM.
    """
    format = draw(st.sampled_from(["clusters", "pairs"]))
    ids = [f"i{k}" for k in range(draw(st.integers(1, max_ids)))]
    extras = [f"x{k}" for k in range(draw(st.integers(0, 2)))]
    # Hypothesis draws the ends of an integer range often, so each rare case is a value inside it.
    kept = ids[draw(st.integers(0, 4)) == 3 :]  # predicted may drop one truth id

    def render(members):
        members = list(draw(st.permutations(members)))
        if draw(st.integers(0, 9)) == 4:  # a repeat
            members.insert(draw(st.integers(0, len(members))), draw(st.sampled_from(ids)))
        labels = draw(st.lists(st.integers(0, 3), min_size=len(members), max_size=len(members)))
        if format == "clusters":
            lines = [" ".join(members[i] for i in c) for c in clusters_from_labels(labels)]
        else:
            lines = [f"{x}\tc{label}" for x, label in zip(members, labels)]
        for _ in range(draw(st.integers(0, 3))):
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["# note", "", "   ", "\t"])))
        if format == "pairs" and draw(st.integers(0, 9)) == 5:
            lines.insert(draw(st.integers(0, len(lines))), "a\tb\tc")
        eol = draw(st.sampled_from(["\n", "\r\n"]))
        data = (eol.join(lines) + eol).encode()
        if draw(st.booleans()):
            data = b"\xef\xbb\xbf" + data
        if draw(st.integers(0, 9)) == 6:
            cut = draw(st.integers(0, len(data)))
            data = data[:cut] + b"\xff" + data[cut:]
        return data

    return render(ids), render(kept + extras), format
