"""Synthetic pair generator: determinism, soundness, perturbation trends."""

import math
import statistics

import pytest

from clustereval import single_pass
from clustereval.errors import InfeasibleConfig
from clustereval.model import validate
from clustereval.synth import SynthConfig, generate


class TestDeterminism:
    def test_equal_configs_give_identical_pairs(self):
        config = SynthConfig(3000, 60, size_skew=1.4, split_rate=0.35, merge_rate=0.25, seed=77)
        assert generate(config) == generate(config)

    def test_different_seeds_differ(self):
        base = dict(n_instances=500, n_truth_clusters=20, size_skew=1.0, split_rate=0.5, merge_rate=0.5)
        a = generate(SynthConfig(seed=1, **base))
        b = generate(SynthConfig(seed=2, **base))
        assert a[1] != b[1]


class TestSoundness:
    def test_counts_match_config(self):
        truth, predicted = generate(SynthConfig(10_000, 137, size_skew=2.0, split_rate=0.4, merge_rate=0.4, seed=5))
        assert validate(truth, predicted).n_instances == 10_000
        assert len(truth.clusters) == 137
        assert sum(len(c) for c in truth.clusters) == 10_000
        assert all(len(c) >= 1 for c in truth.clusters)

    def test_identity_perturbation_scores_perfect(self):
        truth, predicted = generate(SynthConfig(800, 40, size_skew=1.0, split_rate=0.0, merge_rate=0.0, seed=3))
        assert truth.partition() == predicted.partition()
        report = single_pass.evaluate_all(validate(truth, predicted))
        for triple in (report.cluster_f, report.k_metric, report.b_cubed, report.pairwise):
            assert (triple.recall, triple.precision, triple.combined) == (1.0, 1.0, 1.0)
        assert report.se_le.se == 0.0 and report.se_le.le == 0.0

    def test_generated_pairs_are_strict(self):
        truth, predicted = generate(SynthConfig(321, 17, size_skew=0.7, split_rate=0.9, merge_rate=0.9, seed=11))
        assert validate(truth, predicted, "strict").coverage_mode == "strict"
        assert set(truth.ids) == set(predicted.ids)

    def test_worked_example_shape_is_reachable(self):
        # sizes (3,3,2) with one intact cluster and the other two merged:
        # the same shape as the eight-instance worked example
        truth, predicted = generate(SynthConfig(8, 3, size_skew=0.0, split_rate=0.0, merge_rate=1.0, seed=0))
        assert sorted(len(c) for c in truth.clusters) == [2, 3, 3]
        assert sorted(len(c) for c in predicted.clusters) == [3, 5]
        truth_sets = {frozenset(c) for c in truth.clusters}
        intact = [frozenset(c) for c in predicted.clusters if frozenset(c) in truth_sets]
        assert len(intact) == 1 and len(intact[0]) == 3

    def test_uniform_sizes_are_balanced(self):
        truth, _ = generate(SynthConfig(100, 10, size_skew=0.0, seed=9))
        assert all(len(c) == 10 for c in truth.clusters)


class TestInfeasibleConfigs:
    @pytest.mark.parametrize(
        "config",
        [
            SynthConfig(n_instances=3, n_truth_clusters=4),
            SynthConfig(n_instances=0, n_truth_clusters=0),
            SynthConfig(n_instances=5, n_truth_clusters=0),
            SynthConfig(n_instances=5, n_truth_clusters=2, split_rate=1.5),
            SynthConfig(n_instances=5, n_truth_clusters=2, merge_rate=-0.1),
            SynthConfig(n_instances=5, n_truth_clusters=2, size_skew=-1.0),
            SynthConfig(n_instances=5, n_truth_clusters=2, size_skew=math.nan),
            SynthConfig(n_instances=5, n_truth_clusters=2, size_skew=math.inf),
            SynthConfig(n_instances=10, n_truth_clusters=3, size_skew=2000.0),  # the weights overflow
            SynthConfig(n_instances=10, n_truth_clusters=2, size_skew=440.0, seed=5062),  # only their sum does
        ],
    )
    def test_rejected(self, config):
        with pytest.raises(InfeasibleConfig):
            generate(config)


class TestPerturbationTrends:
    @staticmethod
    def _mean_score(split, merge, attr, seeds=range(40)):
        values = []
        for seed in seeds:
            sides = generate(
                SynthConfig(300, 30, size_skew=0.5, split_rate=split, merge_rate=merge, seed=seed)
            )
            report = single_pass.evaluate_all(validate(*sides))
            values.append(getattr(report.pairwise, attr))
        return statistics.fmean(values)

    def test_splitting_lowers_mean_pairwise_recall(self):
        low = self._mean_score(split=0.1, merge=0.0, attr="recall")
        high = self._mean_score(split=0.7, merge=0.0, attr="recall")
        assert high <= low + 0.01

    def test_merging_lowers_mean_pairwise_precision(self):
        low = self._mean_score(split=0.0, merge=0.1, attr="precision")
        high = self._mean_score(split=0.0, merge=0.7, attr="precision")
        assert high <= low + 0.01
