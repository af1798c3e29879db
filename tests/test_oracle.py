"""Brute-force oracles: definitional values, pair sets, engine agreement."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustereval import oracle, single_pass
from clustereval.errors import PairBudgetExceeded
from clustereval.io_formats import build_report_document
from clustereval.model import COVERAGE_MODES, Clustering, validate
from clustereval.oracle import iter_pairs, pair_set

from helpers import eval_pairs, golden_pair, pair_from_labels, random_pair, random_synth_pair


class TestPairSet:
    def test_canonical_orientation_and_no_self_pairs(self):
        pairs = pair_set([(3, 1, 2)])
        assert isinstance(pairs, frozenset)
        assert pairs == {(1, 2), (1, 3), (2, 3)}
        assert all(a < b for a, b in pairs)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 10, 57])
    def test_size_matches_closed_form(self, k):
        clusters = [tuple(range(k))] if k else []
        assert len(pair_set(clusters)) == k * (k - 1) // 2

    def test_large_cluster_pair_count(self):
        # a 3,964-instance cluster yields 7,854,666 enumerated pairs
        count = sum(1 for _ in iter_pairs(range(3964)))
        assert count == 7_854_666
        assert count == 3964 * 3963 // 2


class TestOracleValues:
    def test_cluster_f_golden(self):
        triple = oracle.cluster_f(golden_pair())
        assert triple.recall == float(Fraction(1, 3))
        assert triple.precision == 0.5
        assert triple.combined == float(Fraction(2, 5))

    def test_cluster_f_perfect_five_clusters(self):
        labels = [0, 0, 1, 2, 2, 3, 4, 4]
        triple = oracle.cluster_f(pair_from_labels(labels, labels))
        assert (triple.recall, triple.precision, triple.combined) == (1.0, 1.0, 1.0)

    def test_k_metric_golden(self):
        triple = oracle.k_metric(golden_pair())
        assert triple.recall == 1.0
        assert triple.precision == float(Fraction(7, 10))
        assert triple.combined == math.sqrt(float(Fraction(7, 10)))
        assert triple.combined == pytest.approx(0.8367, abs=1e-4)

    def test_k_metric_halved_cluster(self):
        triple = oracle.k_metric(pair_from_labels([0, 0, 0, 0], [0, 0, 1, 1]))
        assert (triple.recall, triple.precision) == (0.5, 1.0)
        assert triple.combined == math.sqrt(0.5)

    def test_k_metric_all_singletons_identity(self):
        labels = list(range(7))
        triple = oracle.k_metric(pair_from_labels(labels, labels))
        assert (triple.recall, triple.precision, triple.combined) == (1.0, 1.0, 1.0)

    def test_b_cubed_golden(self):
        triple = oracle.b_cubed(golden_pair())
        assert triple.recall == 1.0
        assert triple.precision == float(Fraction(7, 10))
        assert triple.combined == float(Fraction(14, 17))
        assert triple.combined == pytest.approx(0.8235, abs=1e-4)

    def test_b_cubed_matches_k_metric_sides_on_golden(self):
        b = oracle.b_cubed(golden_pair())
        k = oracle.k_metric(golden_pair())
        assert (b.recall, b.precision) == (k.recall, k.precision)

    def test_split_lump_golden(self):
        result = oracle.split_lump(golden_pair())
        assert result.se == 0.0
        assert result.le == float(Fraction(5, 13))

    def test_split_lump_crossing(self):
        result = oracle.split_lump(pair_from_labels([0, 0, 1, 1], [0, 1, 0, 1]))
        assert (result.se, result.le) == (0.5, 0.5)

    def test_split_lump_perfect(self):
        result = oracle.split_lump(pair_from_labels([0, 0, 1], [0, 0, 1]))
        assert (result.se, result.le) == (0.0, 0.0)
        assert result.combined == 1.0

    def test_pairwise_golden_intersection(self):
        pair = golden_pair()
        truth_pairs = pair_set(pair.truth_dense)
        predicted_pairs = pair_set(pair.predicted_dense)
        assert len(truth_pairs & predicted_pairs) == 7
        triple = oracle.pairwise_f(pair)
        assert triple.recall == 1.0
        assert triple.precision == float(Fraction(7, 13))
        assert triple.combined == float(Fraction(7, 10))

    def test_pairwise_perfect(self):
        triple = oracle.pairwise_f(pair_from_labels([0, 0, 1], [0, 0, 1]))
        assert (triple.recall, triple.precision, triple.combined) == (1.0, 1.0, 1.0)


class TestPairBudget:
    def test_budget_exceeded(self):
        pair = pair_from_labels([0] * 30, [0] * 30)
        with pytest.raises(PairBudgetExceeded):
            oracle.pairwise_f(pair, pair_budget=100)
        with pytest.raises(PairBudgetExceeded):
            oracle.evaluate_all(pair, pair_budget=100)

    def test_budget_boundary_is_inclusive(self):
        pair = pair_from_labels([0] * 5, [0] * 5)  # 10 + 10 pairs
        oracle.pairwise_f(pair, pair_budget=20)
        with pytest.raises(PairBudgetExceeded):
            oracle.pairwise_f(pair, pair_budget=19)


class TestEngineAgreement:
    @given(eval_pairs())
    @settings(deadline=None)
    def test_b_cubed_equals_k_metric(self, pair):
        b = oracle.b_cubed(pair)
        k = oracle.k_metric(pair)
        assert (b.recall, b.precision) == (k.recall, k.precision)

    @given(eval_pairs())
    @settings(deadline=None)
    def test_oracles_match_single_pass(self, pair):
        # both engines round the same exact rationals once, so they agree exactly
        report = single_pass.evaluate_all(pair)
        assert oracle.cluster_f(pair) == report.cluster_f
        assert oracle.pairwise_f(pair) == report.pairwise
        assert oracle.split_lump(pair) == report.se_le
        assert oracle.k_metric(pair) == report.k_metric
        assert oracle.b_cubed(pair) == report.b_cubed

    def test_tie_break_agreement_on_adversarial_ties(self):
        rng = random.Random(99)
        for _ in range(100):
            # few labels and many instances produce frequent overlap ties
            n = rng.randint(2, 24)
            t_labels = [rng.randrange(3) for _ in range(n)]
            p_labels = [rng.randrange(3) for _ in range(n)]
            pair = pair_from_labels(t_labels, p_labels)
            assert oracle.split_lump(pair) == single_pass.evaluate_all(pair).se_le

    def test_full_reports_agree_on_random_corpus(self):
        rng = random.Random(20240202)
        for _ in range(60):
            pair = random_pair(rng, max_n=80)
            assert oracle.evaluate_all(pair) == single_pass.evaluate_all(pair)

    @pytest.mark.parametrize("mode", COVERAGE_MODES)
    def test_report_documents_are_equal_on_synth_pairs(self, mode):
        rng = random.Random(20241018)
        for _ in range(300):
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
            pair = validate(pair.truth, Clustering.from_clusters(predicted, role="predicted"), mode)
            fast = build_report_document(single_pass.evaluate_all(pair))
            slow = build_report_document(oracle.evaluate_all(pair))
            assert fast == slow

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
            pair = validate(
                Clustering.from_clusters([tuple(c) for c in truth_clusters.values()], role="truth"),
                Clustering.from_clusters([tuple(c) for c in predicted_clusters.values()], role="predicted"),
                "lenient",
            )
            assert oracle.evaluate_all(pair) == single_pass.evaluate_all(pair)
