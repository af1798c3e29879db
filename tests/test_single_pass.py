"""Single-pass evaluators: worked-example values, properties, fusion identity."""

import math
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustereval import oracle
from clustereval.model import Clustering, validate
from clustereval.single_pass import evaluate_all

from helpers import eval_pairs, eval_sides, golden_pair, pair_from_labels, random_sides, sides_from_labels


def sizes_and_slices(pair):
    """Predicted cluster sizes, and each truth cluster's slice of the label list."""
    stops = list(accumulate(pair.truth_sizes))
    slices = [pair.assignments[stop - size : stop] for size, stop in zip(pair.truth_sizes, stops)]
    return list(pair.predicted_sizes), slices


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
        truth, predicted = random_sides(random.Random(5), max_n=120)
        stats = evaluate_all(validate(truth, predicted)).stats
        assert stats.n_predicted_clusters == len(predicted.clusters)
        assert stats.pair_pr_sum == sum(math.comb(len(c), 2) for c in predicted.clusters)


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
        sides = sides_from_labels([0, 0, 1, 1], [0, 1, 0, 1])
        result = evaluate_all(validate(*sides)).se_le
        assert (result.se, result.le) == (0.5, 0.5)
        assert result == oracle.split_lump(*sides)

    def test_tie_prefers_smaller_predicted_cluster(self):
        # truth (0,1) overlaps both predicted clusters by 1; the size-2 one wins,
        # so LE = (1 + 1) / (2 + 3); were the size-3 one chosen it would be 3/6
        truth, predicted = sides_from_labels([0, 0, 1, 1, 1], [0, 1, 0, 0, 1])
        assert [len(c) for c in predicted.clusters] == [3, 2]
        assert evaluate_all(validate(truth, predicted)).se_le.le == 2 / 5

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
            sides = random_sides(rng, max_n=120)
            report = evaluate_all(validate(*sides))
            # the fused pass equals the five measures computed separately, by definition
            assert report.cluster_f == oracle.cluster_f(*sides)
            assert report.k_metric == oracle.k_metric(*sides)
            assert report.b_cubed == oracle.b_cubed(*sides)
            assert report.se_le == oracle.split_lump(*sides)
            assert report.pairwise == oracle.pairwise_f(*sides)

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
        truth = Clustering.from_clusters([("1", "2")])
        predicted = Clustering.from_clusters([("1", "2", "x"), ("y",)])
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

        pair = validate(*random_sides(random.Random(31), max_n=150))
        expected = evaluate_all(pair)
        with ThreadPoolExecutor(max_workers=8) as pool:
            reports = list(pool.map(lambda _: evaluate_all(pair), range(32)))
        assert all(report == expected for report in reports)


def best_time(pair, repeats=5):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        evaluate_all(pair)
        times.append(time.perf_counter() - start)
    return min(times)


class TestRuntimeLinearity:
    @pytest.mark.parametrize("split_rate", [0.0, 0.2, 1.0])
    def test_doubling_instances_less_than_quadruples_time(self, split_rate):
        from clustereval.synth import SynthConfig, generate

        def synth_time(n):
            config = SynthConfig(n, max(1, n // 80), size_skew=1.0, split_rate=split_rate, merge_rate=0.2, seed=13)
            return best_time(validate(*generate(config)))

        small = synth_time(200_000)
        large = synth_time(400_000)
        assert large < 4.0 * small, f"doubling N scaled time {large / small:.2f}x (limit 4x)"

    def test_one_cluster_split_into_singletons_stays_linear(self):
        # Every instance of the one truth cluster is its own predicted cluster: n cells to count.
        # A tally that scans the cluster once per distinct label would scale 16x here.
        def shattered_time(n):
            ids = tuple(range(n))
            return best_time(validate(Clustering(ids, (n,)), Clustering(ids, (1,) * n)))

        small = shattered_time(10_000)
        large = shattered_time(40_000)
        assert large < 8.0 * small, f"quadrupling N scaled time {large / small:.2f}x (limit 8x)"


class TestSwapDuality:
    @given(eval_sides(max_n=40))
    @settings(deadline=None)
    def test_swapping_inputs_swaps_recall_and_precision(self, sides):
        truth, predicted = sides
        swapped = validate(
            Clustering.from_clusters(predicted.clusters),
            Clustering.from_clusters(truth.clusters),
        )
        fwd, rev = evaluate_all(validate(truth, predicted)), evaluate_all(swapped)
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
    @given(eval_sides(max_n=30), st.randoms(use_true_random=False))
    @settings(deadline=None)
    def test_splitting_off_a_singleton_never_helps(self, sides, rng):
        # start from a perfect prediction, then exile one instance
        truth = Clustering.from_clusters(sides[0].clusters)
        perfect = validate(truth, Clustering.from_clusters(truth.clusters))
        donors = [c for c in truth.clusters if len(c) >= 2]
        if not donors:
            return
        donor = rng.choice(donors)
        exile = rng.choice(donor)
        new_predicted = [tuple(x for x in c if x != exile) if c == donor else c for c in truth.clusters]
        new_predicted.append((exile,))
        degraded = validate(
            truth,
            Clustering.from_clusters(new_predicted),
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
    return sides_from_labels(truth_labels, mixed), sides_from_labels(truth_labels, split)


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
    return sides_from_labels(truth_labels, apart), sides_from_labels(truth_labels, merged)


@st.composite
def rag_bag_moves(draw):
    """A pair with a clean predicted cluster (two or more instances of one truth category) and a
    rag bag (one instance each of two or more other categories), with an instance of a new
    category added to the clean cluster, and the same pair with it added to the rag bag."""
    truth_labels, predicted_labels = draw(labelled_instances(seeded=(0, 0, 1, 2)))
    base = list(predicted_labels)
    for i in draw(members(truth_labels, 0, min_size=2)):
        base[i] = "clean"
    for category in draw(st.lists(st.sampled_from(sorted(set(truth_labels) - {0})), min_size=2, unique=True)):
        base[draw(members(truth_labels, category))[0]] = "rag bag"
    truth_labels = [*truth_labels, "new"]
    return sides_from_labels(truth_labels, [*base, "clean"]), sides_from_labels(truth_labels, [*base, "rag bag"])


@st.composite
def size_vs_quantity_moves(draw):
    """For n >= 2, a truth category of n + 1 instances and n categories of two, predicted with one
    instance split off the big category, and the same pair with every two-instance category split
    in half instead. Any other instances are predicted alike in both."""
    n = draw(st.integers(min_value=2, max_value=8))
    truth_labels, predicted_labels = draw(labelled_instances(seeded=(), max_n=15))
    small = [f"small {k}" for k in range(n) for _ in range(2)]
    truth_labels = [*truth_labels, *["big"] * (n + 1), *small]
    one_off = [*predicted_labels, *["big"] * n, "split off", *small]
    halves = [*predicted_labels, *["big"] * (n + 1), *(f"half {i}" for i in range(2 * n))]
    return sides_from_labels(truth_labels, one_off), sides_from_labels(truth_labels, halves)


def single_pass_engine(sides):
    return evaluate_all(validate(*sides))


def oracle_engine(sides):
    return oracle.evaluate_all(*sides)


@pytest.mark.parametrize("engine", [single_pass_engine, oracle_engine], ids=["single_pass", "oracle"])
class TestAmigoConstraints:
    """Amigó et al. (2009) formal constraints: each one a measure satisfies is a property here, and each one
    it violates a pinned counter-example. B-cubed and the K-metric strictly satisfy all four."""

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

    @given(rag_bag_moves())
    @settings(deadline=None)
    def test_rag_bag(self, engine, move):
        # a new category's instance costs less precision in a rag bag than in a clean cluster
        to_clean, to_rag_bag = map(engine, move)
        for name in ("b_cubed", "k_metric"):
            assert getattr(to_rag_bag, name).recall == getattr(to_clean, name).recall
            assert getattr(to_rag_bag, name).precision > getattr(to_clean, name).precision
            assert getattr(to_rag_bag, name).combined > getattr(to_clean, name).combined

    @given(size_vs_quantity_moves())
    @settings(deadline=None)
    def test_size_vs_quantity(self, engine, move):
        # one instance split off a big cluster costs less recall than n small clusters split in half
        one_off, halves = map(engine, move)
        for name in ("b_cubed", "k_metric"):
            assert getattr(one_off, name).recall > getattr(halves, name).recall
            assert getattr(one_off, name).precision == getattr(halves, name).precision
            assert getattr(one_off, name).combined > getattr(halves, name).combined

    def test_pairwise_violates_rag_bag(self, engine):
        # truth {a1..a4} plus singletons b..f; f joins the clean {a1..a4} or the rag bag {b, c, d, e}
        truth = ["a"] * 4 + list("bcdef")
        to_clean = engine(sides_from_labels(truth, ["clean"] * 4 + ["rag bag"] * 4 + ["clean"]))
        to_rag_bag = engine(sides_from_labels(truth, ["clean"] * 4 + ["rag bag"] * 5))
        assert to_clean.pairwise.precision == 6 / 16
        assert to_clean.pairwise == to_rag_bag.pairwise

    def test_pairwise_violates_size_vs_quantity(self, engine):
        # n = 2: truth {a1, a2, a3}, {b1, b2}, {c1, c2}; a3 split off, or b and c split in half
        truth = list("aaabbcc")
        one_off = engine(sides_from_labels(truth, list("aaXbbcc")))
        halves = engine(sides_from_labels(truth, list("aaa") + ["b1", "b2", "c1", "c2"]))
        assert (one_off.pairwise.recall, one_off.pairwise.precision) == (3 / 5, 1.0)
        assert one_off.pairwise == halves.pairwise

    @given(homogeneity_moves())
    @settings(deadline=None)
    def test_pairwise_cluster_homogeneity(self, engine, move):
        # the split drops only cross-category pairs, none of them shared: recall stays, precision never falls,
        # and it rises once a pair is shared
        before, after = map(engine, move)
        assert after.pairwise.recall == before.pairwise.recall
        assert after.pairwise.precision >= before.pairwise.precision
        assert after.pairwise.combined >= before.pairwise.combined
        if before.stats.pair_int_sum:
            assert after.pairwise.precision > before.pairwise.precision
            assert after.pairwise.combined > before.pairwise.combined

    def test_pairwise_homogeneity_needs_a_shared_pair(self, engine):
        # truth {a1, a2}, {b}; the mixed {a1, b} split into {a1}, {b}: precision 0 -> 1, but recall stays 0
        truth = list("aab")
        mixed = engine(sides_from_labels(truth, ["mixed", "a", "mixed"]))
        split = engine(sides_from_labels(truth, ["first", "a", "second"]))
        assert (mixed.pairwise.precision, split.pairwise.precision) == (0.0, 1.0)
        assert mixed.pairwise.combined == split.pairwise.combined == 0.0

    @given(completeness_moves())
    @settings(deadline=None)
    def test_pairwise_cluster_completeness(self, engine, move):
        # the merge adds only shared pairs: recall rises, precision never falls
        before, after = map(engine, move)
        assert after.pairwise.recall > before.pairwise.recall
        assert after.pairwise.precision >= before.pairwise.precision
        assert after.pairwise.combined > before.pairwise.combined

    @given(size_vs_quantity_moves())
    @settings(deadline=None)
    def test_cluster_f_size_vs_quantity(self, engine, move):
        # one_off keeps the n small clusters as matches, halves only the big one, with fewer clusters
        one_off, halves = map(engine, move)
        assert one_off.cluster_f.recall > halves.cluster_f.recall
        assert one_off.cluster_f.precision > halves.cluster_f.precision
        assert one_off.cluster_f.combined > halves.cluster_f.combined

    def test_cluster_f_violates_cluster_homogeneity(self, engine):
        # truth {a1, a2}, {b1, b2}, {c}; the mixed {a1, b1} split into {a1}, {b1} adds a cluster and no match
        truth = list("aabbc")
        mixed = engine(sides_from_labels(truth, ["mixed", "a", "mixed", "b", "c"]))
        split = engine(sides_from_labels(truth, ["first", "a", "second", "b", "c"]))
        assert (mixed.cluster_f.precision, split.cluster_f.precision) == (1 / 4, 1 / 5)
        assert split.cluster_f.combined < mixed.cluster_f.combined

    def test_cluster_f_violates_cluster_completeness(self, engine):
        # truth {a1, a2, a3}; {a1}, {a2}, {a3} merged to {a1, a2}, {a3}: still no cluster matches
        truth = list("aaa")
        apart = engine(sides_from_labels(truth, ["first", "second", "a3"]))
        merged = engine(sides_from_labels(truth, ["merged", "merged", "a3"]))
        assert apart.cluster_f == merged.cluster_f
        assert merged.cluster_f.combined == 0.0

    def test_cluster_f_violates_rag_bag(self, engine):
        # truth {a1, a2, a3} plus singletons b, c, x; x joins the clean {a1, a2} or the rag bag {b, c}
        truth = list("aaabcx")
        to_clean = engine(sides_from_labels(truth, ["clean", "clean", "a3", "rag bag", "rag bag", "clean"]))
        to_rag_bag = engine(sides_from_labels(truth, ["clean", "clean", "a3", "rag bag", "rag bag", "rag bag"]))
        assert to_clean.cluster_f == to_rag_bag.cluster_f
        assert to_clean.cluster_f.combined == 0.0

    @given(size_vs_quantity_moves())
    @settings(deadline=None)
    def test_se_le_size_vs_quantity(self, engine, move):
        # one_off splits one instance off, halves one off each of n >= 2 small clusters; no lump either way
        one_off, halves = map(engine, move)
        assert one_off.se_le.recall > halves.se_le.recall
        assert one_off.se_le.precision >= halves.se_le.precision
        assert one_off.se_le.combined > halves.se_le.combined

    def test_se_le_violates_cluster_homogeneity(self, engine):
        # truth {a1, a2}, {b1, b2}; the mixed {a2, b2} split into {a2}, {b2}: every best match was a singleton
        truth = list("aabb")
        mixed = engine(sides_from_labels(truth, ["a1", "mixed", "b1", "mixed"]))
        split = engine(sides_from_labels(truth, ["a1", "first", "b1", "second"]))
        assert mixed.se_le == split.se_le
        assert (mixed.se_le.se, mixed.se_le.le) == (0.5, 0.0)

    def test_se_le_violates_cluster_completeness(self, engine):
        # truth {a1, a2, a3, a4}; {a1}, {a2} merged: {a3, a4} stays a best match of the same overlap
        truth = list("aaaa")
        apart = engine(sides_from_labels(truth, ["first", "second", "rest", "rest"]))
        merged = engine(sides_from_labels(truth, ["merged", "merged", "rest", "rest"]))
        assert apart.se_le == merged.se_le
        assert (apart.se_le.se, apart.se_le.le) == (0.5, 0.0)

    def test_se_le_violates_rag_bag(self, engine):
        # truth {a1, a2} plus singletons b, c, x; x in the rag bag {b, c} lumps b, c and x into a larger best match
        truth = list("aabcx")
        to_clean = engine(sides_from_labels(truth, ["clean", "clean", "rag bag", "rag bag", "clean"]))
        to_rag_bag = engine(sides_from_labels(truth, ["clean", "clean", "rag bag", "rag bag", "rag bag"]))
        assert to_clean.se_le.se == to_rag_bag.se_le.se == 0.0
        assert (to_clean.se_le.le, to_rag_bag.se_le.le) == (5 / 10, 6 / 11)
        assert to_rag_bag.se_le.combined < to_clean.se_le.combined
