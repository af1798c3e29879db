"""Brute-force oracles: definitional values, enumerated pair counts, engine agreement."""

import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustereval import oracle, single_pass
from clustereval.errors import PairBudgetExceeded
from clustereval.io_formats import build_report_document
from clustereval.model import COVERAGE_MODES, FLAG_EXTRA_IN_PREDICTED, Clustering, validate

from helpers import eval_sides, golden_sides, random_sides, random_synth_sides_in_mode, sides_from_labels


def pair_counts(truth_clusters, predicted_clusters, mode="strict"):
    """The oracle's (shared, truth, predicted) pair counts for two lists of clusters."""
    truth, predicted = Clustering.from_clusters(truth_clusters), Clustering.from_clusters(predicted_clusters)
    validate(truth, predicted, mode)
    return oracle._pair_counts(truth, predicted, oracle.DEFAULT_PAIR_BUDGET)


class TestPairSet:
    """A clustering's set of unordered same-cluster pairs, which the oracle counts without building it."""

    def test_canonical_orientation_and_no_self_pairs(self):
        # (3, 1, 2) has the pairs {1, 2}, {1, 3} and {2, 3}: no (a, a), and (a, b) is (b, a)
        assert pair_counts([(3, 1, 2)], [(1, 2, 3)]) == (3, 3, 3)
        # only {1, 2} is shared, listed in the opposite order on each side
        assert pair_counts([(3, 1, 2)], [(2, 1), (3,)]) == (1, 3, 1)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 10, 57])
    def test_size_matches_closed_form(self, k):
        # the singleton keeps the clustering non-empty at k = 0 and adds no pair
        clusters = [tuple(range(k)), ("solo",)] if k else [("solo",)]
        assert pair_counts(clusters, clusters) == (k * (k - 1) // 2,) * 3

    def test_large_cluster_pair_count(self):
        # a 3,964-instance cluster yields 7,854,666 enumerated pairs; its two halves 3,926,342
        ids = range(3964)
        counts = pair_counts([ids], [ids[:1982], ids[1982:]])
        assert counts == (3_926_342, 7_854_666, 3_926_342)
        assert counts[1] == 3964 * 3963 // 2 and counts[2] == 2 * (1982 * 1981 // 2)

    def test_lenient_extra_makes_predicted_pairs_only(self):
        # x is in predicted only: {a, x} and {b, x} are predicted pairs, and no truth pair has x
        truth, predicted = Clustering.from_clusters([("a", "b")]), Clustering.from_clusters([("a", "b", "x")])
        assert oracle._pair_counts(truth, predicted, oracle.DEFAULT_PAIR_BUDGET) == (1, 1, 3)
        slow, fast = oracle.evaluate_all(truth, predicted), single_pass.evaluate_all(validate(truth, predicted, "lenient"))
        assert (slow.stats.pair_int_sum, slow.stats.pair_tr_sum, slow.stats.pair_pr_sum) == (1, 1, 3)
        assert slow.flags == (FLAG_EXTRA_IN_PREDICTED.format(1),)
        assert (slow.stats, slow.flags) == (fast.stats, fast.flags)

    def test_counting_keeps_no_pairs(self):
        # 2,000 ids in one cluster make 1,999,000 pairs a side; as sets of tuples they take hundreds of MB
        sides = sides_from_labels([0] * 2000, [0] * 2000)
        tracemalloc.start()
        try:
            triple = oracle.pairwise_f(*sides)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (triple.recall, triple.precision) == (1.0, 1.0)
        assert peak < 4 * 2**20, f"pairwise_f peaked at {peak} traced bytes"


class TestOracleValues:
    def test_cluster_f_golden(self):
        triple = oracle.cluster_f(*golden_sides())
        assert triple.recall == float(Fraction(1, 3))
        assert triple.precision == 0.5
        assert triple.combined == float(Fraction(2, 5))

    def test_cluster_f_perfect_five_clusters(self):
        labels = [0, 0, 1, 2, 2, 3, 4, 4]
        triple = oracle.cluster_f(*sides_from_labels(labels, labels))
        assert (triple.recall, triple.precision, triple.combined) == (1.0, 1.0, 1.0)

    def test_k_metric_golden(self):
        triple = oracle.k_metric(*golden_sides())
        assert triple.recall == 1.0
        assert triple.precision == float(Fraction(7, 10))
        assert triple.combined == math.sqrt(float(Fraction(7, 10)))
        assert triple.combined == pytest.approx(0.8367, abs=1e-4)

    def test_k_metric_halved_cluster(self):
        triple = oracle.k_metric(*sides_from_labels([0, 0, 0, 0], [0, 0, 1, 1]))
        assert (triple.recall, triple.precision) == (0.5, 1.0)
        assert triple.combined == math.sqrt(0.5)

    def test_k_metric_all_singletons_identity(self):
        labels = list(range(7))
        triple = oracle.k_metric(*sides_from_labels(labels, labels))
        assert (triple.recall, triple.precision, triple.combined) == (1.0, 1.0, 1.0)

    def test_b_cubed_golden(self):
        triple = oracle.b_cubed(*golden_sides())
        assert triple.recall == 1.0
        assert triple.precision == float(Fraction(7, 10))
        assert triple.combined == float(Fraction(14, 17))
        assert triple.combined == pytest.approx(0.8235, abs=1e-4)

    def test_b_cubed_matches_k_metric_sides_on_golden(self):
        b = oracle.b_cubed(*golden_sides())
        k = oracle.k_metric(*golden_sides())
        assert (b.recall, b.precision) == (k.recall, k.precision)

    def test_split_lump_golden(self):
        result = oracle.split_lump(*golden_sides())
        assert result.se == 0.0
        assert result.le == float(Fraction(5, 13))

    def test_split_lump_crossing(self):
        result = oracle.split_lump(*sides_from_labels([0, 0, 1, 1], [0, 1, 0, 1]))
        assert (result.se, result.le) == (0.5, 0.5)

    def test_split_lump_perfect(self):
        result = oracle.split_lump(*sides_from_labels([0, 0, 1], [0, 0, 1]))
        assert (result.se, result.le) == (0.0, 0.0)
        assert result.combined == 1.0

    def test_pairwise_golden_intersection(self):
        sides = golden_sides()
        assert oracle._pair_counts(*sides, oracle.DEFAULT_PAIR_BUDGET) == (7, 7, 13)
        triple = oracle.pairwise_f(*sides)
        assert triple.recall == 1.0
        assert triple.precision == float(Fraction(7, 13))
        assert triple.combined == float(Fraction(7, 10))

    def test_pairwise_perfect(self):
        triple = oracle.pairwise_f(*sides_from_labels([0, 0, 1], [0, 0, 1]))
        assert (triple.recall, triple.precision, triple.combined) == (1.0, 1.0, 1.0)


class TestOverlapTable:
    """The ids are numbered and the cluster pairs intersected once per report, into a sparse table."""

    def test_evaluate_all_builds_each_table_once(self, monkeypatch):
        calls = Counter()
        for name in ("_dense_clusters", "_overlap_table"):
            def counted(*args, _build=getattr(oracle, name), _name=name):
                calls[_name] += 1
                return _build(*args)
            monkeypatch.setattr(oracle, name, counted)
        oracle.evaluate_all(*random_synth_sides_in_mode(random.Random(7), "lenient"))
        assert calls == {"_dense_clusters": 1, "_overlap_table": 1}

    @pytest.mark.parametrize("mode", COVERAGE_MODES)
    def test_each_measure_is_its_field_of_the_report(self, mode):
        rng = random.Random(20261020)
        for _ in range(150):
            sides = random_synth_sides_in_mode(rng, mode)
            report = oracle.evaluate_all(*sides)
            assert oracle.cluster_f(*sides) == report.cluster_f
            assert oracle.k_metric(*sides) == report.k_metric
            assert oracle.b_cubed(*sides) == report.b_cubed
            assert oracle.split_lump(*sides) == report.se_le
            assert oracle.pairwise_f(*sides) == report.pairwise

    def test_split_lump_tie_goes_to_the_smaller_cluster(self):
        # truth {1, 2} meets predicted {1, 3, 4} and {2} by one instance each. The smaller {2} wins
        # although it is listed later: SE = (1 + 1)/5 and LE = (0 + 1)/(1 + 3). Matching {1, 3, 4}
        # instead would make LE (2 + 1)/(3 + 3) = 1/2.
        sides = Clustering.from_clusters([(1, 2), (3, 4, 5)]), Clustering.from_clusters([(1, 3, 4), (2,), (5,)])
        truth_sets, predicted_sets = oracle._dense_clusters(*sides)
        assert oracle._overlap_table(truth_sets, predicted_sets) == [{0: 1, 1: 1}, {0: 2, 2: 1}]
        result = oracle.split_lump(*sides)
        assert (result.se, result.le) == (float(Fraction(2, 5)), 0.25)
        assert (result.recall, result.precision, result.combined) == (0.6, 0.75, float(Fraction(2, 3)))
        assert result == single_pass.evaluate_all(validate(*sides)).se_le

    def test_predicted_cluster_of_extras_only_meets_no_truth_row(self):
        # {x, y} is predicted-only: it is one of the 3 predicted clusters for Cluster-F, and it adds 0
        # to the precision numerators, so ACP = (2² + 1²)/3 + 1²/1 + 0/2 = 8/3 over 4 instances
        sides = (
            Clustering.from_clusters([("a", "b"), ("c",), ("d",)]),
            Clustering.from_clusters([("a", "b", "c"), ("d",), ("x", "y")]),
        )
        truth_sets, predicted_sets = oracle._dense_clusters(*sides)
        assert oracle._overlap_table(truth_sets, predicted_sets) == [{0: 2}, {0: 1}, {1: 1}]
        report = oracle.evaluate_all(*sides)
        third = float(Fraction(1, 3))
        assert (report.cluster_f.recall, report.cluster_f.precision, report.cluster_f.combined) == (third, third, third)
        assert (report.k_metric.recall, report.k_metric.precision) == (1.0, float(Fraction(2, 3)))
        assert report.k_metric.combined == math.sqrt(float(Fraction(2, 3)))
        assert (report.b_cubed.recall, report.b_cubed.precision, report.b_cubed.combined) == (1.0, float(Fraction(2, 3)), 0.8)
        assert (report.se_le.se, report.se_le.le) == (0.0, float(Fraction(3, 7)))
        assert (report.pairwise.recall, report.pairwise.precision, report.pairwise.combined) == (1.0, 0.25, 0.4)
        assert report.flags == (FLAG_EXTRA_IN_PREDICTED.format(2),)
        assert report == single_pass.evaluate_all(validate(*sides, "lenient"))

    def test_table_keeps_no_dense_matrix(self):
        # 3,000 truth pairs against 3,001 predicted clusters, each truth cluster meeting two of them:
        # a dense T x P table of 8-byte cells would take 72 MB, the sparse one holds 6,000 cells
        n = 6000
        truth, predicted = sides_from_labels([i // 2 for i in range(n)], [(i + 1) // 2 for i in range(n)])
        dense_bytes = 8 * len(truth.sizes) * len(predicted.sizes)
        tracemalloc.start()
        try:
            report = oracle.evaluate_all(truth, predicted)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report == single_pass.evaluate_all(validate(truth, predicted))
        assert peak < dense_bytes / 8, f"evaluate_all peaked at {peak} traced bytes; a dense table takes {dense_bytes}"


class TestPairBudget:
    def test_budget_exceeded(self):
        sides = sides_from_labels([0] * 30, [0] * 30)
        with pytest.raises(PairBudgetExceeded):
            oracle.pairwise_f(*sides, pair_budget=100)
        with pytest.raises(PairBudgetExceeded):
            oracle.evaluate_all(*sides, pair_budget=100)

    def test_budget_boundary_is_inclusive(self):
        sides = sides_from_labels([0] * 5, [0] * 5)  # 10 + 10 pairs
        oracle.pairwise_f(*sides, pair_budget=20)
        with pytest.raises(PairBudgetExceeded):
            oracle.pairwise_f(*sides, pair_budget=19)

    def test_cluster_pairs_count_toward_the_budget(self):
        # 3,000 singletons a side have no instance pair, but 9,000,000 truth x predicted cluster pairs
        sides = sides_from_labels(range(3000), range(3000))
        assert oracle.pair_demand(*sides) == 9_000_000
        assert oracle.pairwise_f(*sides, pair_budget=10**6).combined == 1.0  # it tests no cluster pairs
        for measure in (oracle.evaluate_all, oracle.cluster_f, oracle.k_metric, oracle.b_cubed, oracle.split_lump):
            with pytest.raises(PairBudgetExceeded) as caught:
                measure(*sides, pair_budget=10**6)
            assert caught.value.needed == 9_000_000


class TestEngineAgreement:
    @given(eval_sides())
    @settings(deadline=None)
    def test_b_cubed_equals_k_metric(self, sides):
        b = oracle.b_cubed(*sides)
        k = oracle.k_metric(*sides)
        assert (b.recall, b.precision) == (k.recall, k.precision)

    @given(eval_sides())
    @settings(deadline=None)
    def test_oracles_match_single_pass(self, sides):
        # both engines round the same exact rationals once, so they agree exactly
        report = single_pass.evaluate_all(validate(*sides))
        assert oracle.cluster_f(*sides) == report.cluster_f
        assert oracle.pairwise_f(*sides) == report.pairwise
        assert oracle.split_lump(*sides) == report.se_le
        assert oracle.k_metric(*sides) == report.k_metric
        assert oracle.b_cubed(*sides) == report.b_cubed

    def test_tie_break_agreement_on_adversarial_ties(self):
        rng = random.Random(99)
        for _ in range(100):
            # few labels and many instances produce frequent overlap ties
            n = rng.randint(2, 24)
            t_labels = [rng.randrange(3) for _ in range(n)]
            p_labels = [rng.randrange(3) for _ in range(n)]
            sides = sides_from_labels(t_labels, p_labels)
            assert oracle.split_lump(*sides) == single_pass.evaluate_all(validate(*sides)).se_le

    def test_full_reports_agree_on_random_corpus(self):
        rng = random.Random(20240202)
        for _ in range(60):
            sides = random_sides(rng, max_n=80)
            assert oracle.evaluate_all(*sides) == single_pass.evaluate_all(validate(*sides))

    @pytest.mark.parametrize("mode", COVERAGE_MODES)
    def test_report_documents_are_equal_on_synth_pairs(self, mode):
        rng = random.Random(20241018)
        for _ in range(300):
            sides = random_synth_sides_in_mode(rng, mode)
            fast = build_report_document(single_pass.evaluate_all(validate(*sides, mode)))
            slow = build_report_document(oracle.evaluate_all(*sides))
            assert fast == slow

    @pytest.mark.parametrize("mode", COVERAGE_MODES)
    def test_report_documents_are_equal_on_ids_that_cannot_be_ordered(self, mode):
        # the oracle numbers ids rather than sorting them, so ids of mixed types are fine
        ids = [1, "1", (2,), None, 3.5, b"1"]
        with pytest.raises(TypeError):
            sorted(ids)
        truth = Clustering.from_clusters([(1, "1", None), ((2,), 3.5, b"1")])
        predicted = [(1, (2,)), ("1", None, b"1"), (3.5,)]
        if mode == "lenient":
            predicted[2] += (frozenset({"extra"}),)
        predicted = Clustering.from_clusters(predicted)
        fast = build_report_document(single_pass.evaluate_all(validate(truth, predicted, mode)))
        assert build_report_document(oracle.evaluate_all(truth, predicted)) == fast
        assert fast["stats"]["pair_int_sum"] == 1 and len(fast["flags"]) == (mode == "lenient")

    def test_engines_agree_on_lenient_pairs(self):
        rng = random.Random(20240303)
        for _ in range(40):
            n = rng.randint(1, 60)
            extras = rng.randint(1, 10)
            truth_labels = [rng.randrange(6) for _ in range(n)]
            predicted_labels = [rng.randrange(6) for _ in range(n + extras)]
            truth_clusters = {}
            for idx, label in enumerate(truth_labels):
                truth_clusters.setdefault(label, []).append(idx)
            predicted_clusters = {}
            for idx, label in enumerate(predicted_labels):
                predicted_clusters.setdefault(label, []).append(idx)
            sides = (
                Clustering.from_clusters([tuple(c) for c in truth_clusters.values()]),
                Clustering.from_clusters([tuple(c) for c in predicted_clusters.values()]),
            )
            assert oracle.evaluate_all(*sides) == single_pass.evaluate_all(validate(*sides, "lenient"))
