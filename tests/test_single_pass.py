"""Single-pass evaluators: worked-example values, properties, fusion identity."""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustereval import oracle
from clustereval.model import Clustering, validate
from clustereval.single_pass import evaluate_all

from helpers import eval_pairs, golden_pair, pair_from_labels, random_pair


def sizes_and_slices(pair):
    """Predicted cluster sizes, and each truth cluster's slice of the label list."""
    stops = list(accumulate(len(c) for c in pair.truth.clusters))
    slices = [pair.assignments[stop - len(c) : stop] for c, stop in zip(pair.truth.clusters, stops)]
    return [len(c) for c in pair.predicted.clusters], slices


class TestBuildIndex:
    """The predicted side of the index: cluster count and pair total, from ``evaluate_all`` stats."""

    def test_golden_sizes_and_pairs(self):
        stats = evaluate_all(golden_pair()).stats
        assert (stats.n_predicted_clusters, stats.pair_pr_sum) == (2, 13)  # 3 + 10

    def test_singleton_has_no_pairs(self):
        stats = evaluate_all(pair_from_labels([0], [0])).stats
        assert (stats.n_predicted_clusters, stats.pair_pr_sum) == (1, 0)

    def test_hundred_singletons(self):
        labels = list(range(100))
        stats = evaluate_all(pair_from_labels(labels, labels)).stats
        assert (stats.n_predicted_clusters, stats.pair_pr_sum) == (100, 0)

    def test_random_pair_sizes_and_pairs(self):
        pair = random_pair(random.Random(5), max_n=120)
        stats = evaluate_all(pair).stats
        assert stats.n_predicted_clusters == len(pair.predicted.clusters)
        assert stats.pair_pr_sum == sum(math.comb(len(c), 2) for c in pair.predicted.clusters)


def reference_split_lump(pair):
    """SE and LE from a reference tally: a ``Counter`` per truth slice, whose
    best match is the ``(-count, size, index)`` minimum."""
    sizes, slices = sizes_and_slices(pair)
    split_total = lump_total = matched_total = 0
    for labels in slices:
        counts = Counter(labels)
        best = min(counts, key=lambda key: (-counts[key], sizes[key], key))
        split_total += len(labels) - counts[best]
        lump_total += sizes[best] - counts[best]
        matched_total += sizes[best]
    return split_total / len(pair.assignments), lump_total / matched_total


class TestTallyTruth:
    """The best-match tally inside ``evaluate_all``, seen through its SE, LE and matches."""

    def test_lumped_cluster(self):
        # the (4,5) cluster's best match is the 5-cluster, overlap 2: it lumps 3 of 5;
        # with (6,7,8) lumping 2 and (1,2,3) intact, LE = (0 + 3 + 2) / (3 + 5 + 5)
        result = evaluate_all(golden_pair()).se_le
        assert result.se == 0.0
        assert result.le == 5 / 13

    def test_intact_cluster(self):
        # (1,2,3) is its own predicted cluster: the one exact match, no split, no lump
        pair = golden_pair()
        report = evaluate_all(pair)
        assert (report.cluster_f.recall, report.cluster_f.precision) == (1 / 3, 1 / 2)
        result = evaluate_all(pair_from_labels([0, 0, 0, 1, 1], [0, 0, 0, 1, 1])).se_le
        assert (result.se, result.le) == (0.0, 0.0)

    def test_symmetric_tie_breaks_to_smallest_index(self):
        # truth (a,b) splits evenly over two equal-size predicted clusters; either
        # choice gives the rates the oracle's lowest-index choice gives
        pair = pair_from_labels([0, 0, 1, 1], [0, 1, 0, 1])
        result = evaluate_all(pair).se_le
        assert (result.se, result.le) == (0.5, 0.5)
        assert result == oracle.split_lump(pair)

    def test_tie_prefers_smaller_predicted_cluster(self):
        # truth (0,1) overlaps both predicted clusters by 1; the size-2 one wins,
        # so LE = (1 + 1) / (2 + 3); were the size-3 one chosen it would be 3/6
        pair = pair_from_labels([0, 0, 1, 1, 1], [0, 1, 0, 0, 1])
        assert [len(c) for c in pair.predicted.clusters] == [3, 2]
        assert evaluate_all(pair).se_le.le == 2 / 5

    @given(eval_pairs())
    def test_se_le_match_reference_tally(self, pair):
        result = evaluate_all(pair).se_le
        assert (result.se, result.le) == reference_split_lump(pair)


class TestClusterF:
    def test_golden(self):
        triple = evaluate_all(golden_pair()).cluster_f
        assert triple.recall == float(Fraction(1, 3))
        assert triple.precision == float(Fraction(1, 2))
        assert triple.combined == float(Fraction(2, 5))
        assert triple.recall == pytest.approx(0.3333, abs=1e-4)

    def test_perfect(self):
        pair = pair_from_labels([0, 0, 1, 2], [0, 0, 1, 2])
        triple = evaluate_all(pair).cluster_f
        assert (triple.recall, triple.precision, triple.combined) == (1.0, 1.0, 1.0)

    def test_no_exact_match(self):
        pair = pair_from_labels([0, 1, 2], [9, 9, 9])
        triple = evaluate_all(pair).cluster_f
        assert (triple.recall, triple.precision, triple.combined) == (0.0, 0.0, 0.0)


class TestKMetric:
    def test_golden(self):
        triple = evaluate_all(golden_pair()).k_metric
        assert triple.recall == 1.0
        assert triple.precision == float(Fraction(7, 10))
        assert triple.combined == pytest.approx(0.8367, abs=1e-4)
        assert triple.combined == math.sqrt(float(Fraction(7, 10)))

    def test_perfect(self):
        pair = pair_from_labels([0, 1, 1, 2], [0, 1, 1, 2])
        triple = evaluate_all(pair).k_metric
        assert (triple.recall, triple.precision, triple.combined) == (1.0, 1.0, 1.0)

    def test_halved_cluster(self):
        pair = pair_from_labels([0, 0, 0, 0], [0, 0, 1, 1])
        triple = evaluate_all(pair).k_metric
        assert (triple.recall, triple.precision) == (0.5, 1.0)
        assert triple.combined == math.sqrt(0.5)
        assert triple.combined == pytest.approx(0.7071, abs=1e-4)


class TestBCubed:
    def test_golden(self):
        triple = evaluate_all(golden_pair()).b_cubed
        assert triple.recall == 1.0
        assert triple.precision == float(Fraction(7, 10))
        assert triple.combined == float(Fraction(14, 17))
        assert triple.combined == pytest.approx(0.8235, abs=1e-4)

    def test_halved_cluster(self):
        pair = pair_from_labels([0, 0, 0, 0], [0, 0, 1, 1])
        triple = evaluate_all(pair).b_cubed
        assert (triple.recall, triple.precision) == (0.5, 1.0)
        assert triple.combined == float(Fraction(2, 3))

    @given(eval_pairs())
    def test_equals_k_metric_sides_exactly(self, pair):
        report = evaluate_all(pair)
        k, b = report.k_metric, report.b_cubed
        assert b.recall == k.recall and b.precision == k.precision


class TestSplitLump:
    def test_golden(self):
        result = evaluate_all(golden_pair()).se_le
        assert result.se == 0.0
        assert result.le == float(Fraction(5, 13))
        assert result.le == pytest.approx(0.3846, abs=1e-4)
        assert result.recall == 1.0
        assert result.precision == float(Fraction(8, 13))
        assert result.combined == float(Fraction(16, 21))
        assert result.combined == pytest.approx(0.7619, abs=1e-4)

    def test_perfect(self):
        pair = pair_from_labels([0, 0, 1], [0, 0, 1])
        result = evaluate_all(pair).se_le
        assert result.se == 0.0 and result.le == 0.0
        assert result.combined == 1.0

    def test_crossing_split(self):
        # T = {(1,2),(3,4)}, P = {(1,3),(2,4)}: every max overlap is 1
        pair = pair_from_labels([0, 0, 1, 1], [0, 1, 0, 1])
        result = evaluate_all(pair).se_le
        assert (result.se, result.le) == (0.5, 0.5)
        assert result.combined == 0.5

    @given(eval_pairs())
    def test_rates_in_unit_interval(self, pair):
        result = evaluate_all(pair).se_le
        assert 0.0 <= result.se <= 1.0
        assert 0.0 <= result.le <= 1.0


class TestPairwise:
    def test_golden(self):
        triple = evaluate_all(golden_pair()).pairwise
        assert triple.recall == 1.0
        assert triple.precision == float(Fraction(7, 13))
        assert triple.precision == pytest.approx(0.5385, abs=1e-4)
        assert triple.combined == float(Fraction(7, 10))

    def test_perfect(self):
        pair = pair_from_labels([0, 0, 1], [0, 0, 1])
        triple = evaluate_all(pair).pairwise
        assert (triple.recall, triple.precision, triple.combined) == (1.0, 1.0, 1.0)

    def test_all_singletons_vacuous_agreement(self):
        labels = list(range(12))
        pair = pair_from_labels(labels, labels)
        triple = evaluate_all(pair).pairwise
        assert (triple.recall, triple.precision, triple.combined) == (1.0, 1.0, 1.0)
        report = evaluate_all(pair)
        assert any("degenerate_pairwise_recall" in f for f in report.flags)
        assert any("degenerate_pairwise_precision" in f for f in report.flags)


class TestEvaluateAll:
    def test_golden_report(self):
        report = evaluate_all(golden_pair())
        stats = report.stats
        assert (stats.n_truth_clusters, stats.n_predicted_clusters, stats.n_instances) == (3, 2, 8)
        assert (stats.pair_tr_sum, stats.pair_pr_sum, stats.pair_int_sum) == (7, 13, 7)
        assert report.flags == ()

    def test_perfect_fixed_point(self):
        pair = pair_from_labels([0, 1, 1, 2, 2, 2], [0, 1, 1, 2, 2, 2])
        report = evaluate_all(pair)
        for triple in (report.cluster_f, report.k_metric, report.b_cubed, report.pairwise, report.se_le):
            assert (triple.recall, triple.precision, triple.combined) == (1.0, 1.0, 1.0)
        assert report.se_le.se == 0.0 and report.se_le.le == 0.0

    def test_fusion_identity_on_random_corpus(self):
        rng = random.Random(20240101)
        for _ in range(200):
            pair = random_pair(rng, max_n=120)
            report = evaluate_all(pair)
            # the fused pass equals the five measures computed separately, by definition
            assert report.cluster_f == oracle.cluster_f(pair)
            assert report.k_metric == oracle.k_metric(pair)
            assert report.b_cubed == oracle.b_cubed(pair)
            assert report.se_le == oracle.split_lump(pair)
            assert report.pairwise == oracle.pairwise_f(pair)

    def test_b_cubed_and_k_metric_share_one_computation(self):
        report = evaluate_all(golden_pair())
        assert report.b_cubed.recall == report.k_metric.recall
        assert report.b_cubed.precision == report.k_metric.precision

    @given(eval_pairs())
    @settings(deadline=None)
    def test_every_value_in_unit_interval(self, pair):
        report = evaluate_all(pair)
        values = [report.se_le.se, report.se_le.le]
        for triple in (report.cluster_f, report.k_metric, report.b_cubed, report.pairwise, report.se_le):
            values += [triple.recall, triple.precision, triple.combined]
        assert all(0.0 <= v <= 1.0 for v in values)

    @given(eval_pairs())
    @settings(deadline=None)
    def test_accumulator_bounds(self, pair):
        report = evaluate_all(pair)
        stats = report.stats
        assert stats.pair_int_sum <= min(stats.pair_tr_sum, stats.pair_pr_sum)
        matches = round(report.cluster_f.recall * stats.n_truth_clusters)
        assert matches <= min(stats.n_truth_clusters, stats.n_predicted_clusters)

    def test_lenient_extras_enter_precision_denominators(self):
        truth = Clustering.from_clusters([("1", "2")], role="truth")
        predicted = Clustering.from_clusters([("1", "2", "x"), ("y",)], role="predicted")
        pair = validate(truth, predicted, "lenient")
        report = evaluate_all(pair)
        # predicted pairs include the extra instance: C(3,2) = 3
        assert report.stats.pair_pr_sum == 3
        assert report.stats.pair_int_sum == 1
        assert report.pairwise.precision == float(Fraction(1, 3))
        # N stays truth-sided
        assert report.stats.n_instances == 2
        assert any("extra_in_predicted" in f for f in report.flags)


class TestConversionIdentity:
    @given(eval_pairs())
    @settings(deadline=None)
    def test_converted_sides_are_one_minus_errors(self, pair):
        # the converted sides are 1 - SE and 1 - LE taken exactly, then rounded once
        sizes, slices = sizes_and_slices(pair)
        split = lump = matched = 0
        for labels in slices:
            counts = Counter(labels)
            best = min(counts, key=lambda key: (-counts[key], sizes[key]))
            split += len(labels) - counts[best]
            lump += sizes[best] - counts[best]
            matched += sizes[best]
        result = evaluate_all(pair).se_le
        assert result.recall == float(1 - Fraction(split, pair.n_instances))
        assert result.precision == float(1 - Fraction(lump, matched))


class TestConcurrency:
    def test_shared_pair_evaluates_identically_across_threads(self):
        from concurrent.futures import ThreadPoolExecutor

        pair = random_pair(random.Random(31), max_n=150)
        expected = evaluate_all(pair)
        with ThreadPoolExecutor(max_workers=8) as pool:
            reports = list(pool.map(lambda _: evaluate_all(pair), range(32)))
        assert all(report == expected for report in reports)


class TestRuntimeLinearity:
    def test_doubling_instances_less_than_quadruples_time(self):
        import time

        from clustereval.synth import SynthConfig, generate

        def best_time(n):
            pair = generate(
                SynthConfig(n, max(1, n // 80), size_skew=1.0, split_rate=0.2, merge_rate=0.2, seed=13)
            )
            times = []
            for _ in range(5):
                start = time.perf_counter()
                evaluate_all(pair)
                times.append(time.perf_counter() - start)
            return min(times)

        small = best_time(200_000)
        large = best_time(400_000)
        assert large < 4.0 * small, f"doubling N scaled time {large / small:.2f}x (limit 4x)"


class TestSwapDuality:
    @given(eval_pairs(max_n=40))
    @settings(deadline=None)
    def test_swapping_inputs_swaps_recall_and_precision(self, pair):
        swapped = validate(
            Clustering.from_clusters(pair.predicted.clusters, role="truth"),
            Clustering.from_clusters(pair.truth.clusters, role="predicted"),
        )
        fwd, rev = evaluate_all(pair), evaluate_all(swapped)
        # integer-ratio measures swap exactly
        assert fwd.cluster_f.recall == rev.cluster_f.precision
        assert fwd.cluster_f.precision == rev.cluster_f.recall
        assert fwd.pairwise.recall == rev.pairwise.precision
        assert fwd.pairwise.precision == rev.pairwise.recall
        # so do the purity sums, which are exact rationals rounded once
        assert fwd.k_metric.recall == rev.k_metric.precision
        assert fwd.k_metric.precision == rev.k_metric.recall
        assert fwd.k_metric.combined == rev.k_metric.combined
        assert fwd.b_cubed.combined == rev.b_cubed.combined


class TestMonotonicDegradation:
    @given(eval_pairs(max_n=30), st.randoms(use_true_random=False))
    @settings(deadline=None)
    def test_splitting_off_a_singleton_never_helps(self, pair, rng):
        # start from a perfect prediction, then exile one instance
        perfect = validate(
            Clustering.from_clusters(pair.truth.clusters, role="truth"),
            Clustering.from_clusters(pair.truth.clusters, role="predicted"),
        )
        donors = [c for c in perfect.truth.clusters if len(c) >= 2]
        if not donors:
            return
        donor = rng.choice(donors)
        exile = rng.choice(donor)
        new_predicted = [tuple(x for x in c if x != exile) if c == donor else c for c in perfect.truth.clusters]
        new_predicted.append((exile,))
        degraded = validate(
            perfect.truth,
            Clustering.from_clusters(new_predicted, role="predicted"),
        )
        before, after = evaluate_all(perfect), evaluate_all(degraded)
        assert after.pairwise.recall <= before.pairwise.recall
        assert after.k_metric.recall <= before.k_metric.recall
        assert after.b_cubed.recall <= before.b_cubed.recall


@st.composite
def labelled_instances(draw, seeded: tuple[int, ...], max_n: int = 30, max_labels: int = 4):
    """Truth and predicted labels that start with the ``seeded`` truth labels, then random ones."""
    n = draw(st.integers(min_value=len(seeded), max_value=max_n))
    label = st.integers(min_value=0, max_value=max_labels - 1)
    truth_rest = draw(st.lists(label, min_size=n - len(seeded), max_size=n - len(seeded)))
    return [*seeded, *truth_rest], draw(st.lists(label, min_size=n, max_size=n))


def members(truth_labels, category, min_size=1):
    """Distinct instances of one truth category, at least ``min_size`` of them."""
    indices = [i for i, label in enumerate(truth_labels) if label == category]
    return st.lists(st.sampled_from(indices), min_size=min_size, max_size=len(indices), unique=True)


@st.composite
def homogeneity_moves(draw):
    """A pair whose predicted side has one cluster holding instances of exactly two truth
    categories, and the same pair with that cluster split by category."""
    truth_labels, predicted_labels = draw(labelled_instances(seeded=(0, 1)))
    mixed, split = list(predicted_labels), list(predicted_labels)
    for category, part in ((0, "first"), (1, "second")):
        for i in draw(members(truth_labels, category)):
            mixed[i], split[i] = "mixed", part
    return pair_from_labels(truth_labels, mixed), pair_from_labels(truth_labels, split)


@st.composite
def completeness_moves(draw):
    """A pair whose predicted side has two clusters holding instances of one truth category
    only, and the same pair with those two clusters merged."""
    truth_labels, predicted_labels = draw(labelled_instances(seeded=(0, 0)))
    both = draw(members(truth_labels, 0, min_size=2))
    cut = draw(st.integers(min_value=1, max_value=len(both) - 1))
    apart, merged = list(predicted_labels), list(predicted_labels)
    for position, i in enumerate(both):
        apart[i] = "first" if position < cut else "second"
        merged[i] = "merged"
    return pair_from_labels(truth_labels, apart), pair_from_labels(truth_labels, merged)


@pytest.mark.parametrize("engine", [evaluate_all, oracle.evaluate_all], ids=["single_pass", "oracle"])
class TestAmigoConstraints:
    """Amigó et al. (2009) formal constraints that B-cubed and the K-metric strictly satisfy."""

    @given(homogeneity_moves())
    @settings(deadline=None)
    def test_cluster_homogeneity(self, engine, move):
        # splitting a two-category cluster by category raises both purity precisions, keeps recall
        before, after = map(engine, move)
        for name in ("b_cubed", "k_metric"):
            assert getattr(after, name).recall == getattr(before, name).recall
            assert getattr(after, name).precision > getattr(before, name).precision
            assert getattr(after, name).combined > getattr(before, name).combined

    @given(completeness_moves())
    @settings(deadline=None)
    def test_cluster_completeness(self, engine, move):
        # merging two clusters of one category raises both purity recalls, keeps precision
        before, after = map(engine, move)
        for name in ("b_cubed", "k_metric"):
            assert getattr(after, name).recall > getattr(before, name).recall
            assert getattr(after, name).precision == getattr(before, name).precision
            assert getattr(after, name).combined > getattr(before, name).combined
