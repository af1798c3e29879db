"""Tests of the benchmark's input generator.

Run with: python3 -m pytest perfbench/test_gen.py
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

import gen

# Each workload's shape at a size small enough for a unit test.
SMALL = {
    name: dataclasses.replace(w, n_instances=3_000, n_clusters=max(1, w.n_clusters * 3_000 // w.n_instances))
    for name, w in gen.WORKLOADS.items()
}


def _read(path, file_format):
    """Clusters of a generated file, read without the program."""
    lines = path.read_text(encoding="ascii").splitlines()
    if file_format == "clusters":
        return [line.split(" ") for line in lines]
    groups = {}
    for line in lines:
        instance, label = line.split("\t")
        groups.setdefault(label, []).append(instance)
    return list(groups.values())


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_gives_identical_bytes(name, tmp_path):
    first = gen.generate(SMALL[name], 7, tmp_path / "a")
    second = gen.generate(SMALL[name], 7, tmp_path / "b")
    assert first.files == second.files
    assert first.truth_path.read_bytes() == second.truth_path.read_bytes()
    assert first.pred_path.read_bytes() == second.pred_path.read_bytes()
    assert (first.stats, first.measures, first.counts) == (second.stats, second.measures, second.counts)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_seeds_change_bytes_not_work(name, tmp_path):
    first = gen.generate(SMALL[name], 1, tmp_path / "a")
    other = gen.generate(SMALL[name], 2, tmp_path / "b")
    assert first.truth_path.read_bytes() != other.truth_path.read_bytes()
    assert first.pred_path.read_bytes() != other.pred_path.read_bytes()
    assert (first.stats, first.measures) == (other.stats, other.measures)
    for key in ("model.interned", "single_pass.cells", "oracle.pairs_enumerated"):
        assert first.counts[key] == other.counts[key]


def test_oracle_check_seed_0_bytes_are_pinned(tmp_path):
    """A full-size workload's digest, so a generator or interpreter change shows."""
    inputs = gen.generate(gen.WORKLOADS["oracle_check"], 0, tmp_path)
    assert inputs.files == {
        "truth.txt": {"bytes": 150000, "sha256": "8e8b77ecef5c3ff39b8eab2fd07d5140cbc41d6b03456216bf7fe3523f610f02"},
        "pred.txt": {"bytes": 150000, "sha256": "d4b86304fd4976a26540bab6ca25afb9c1872435d670f2bf1bc69f7a9a7dc280"},
    }


@pytest.mark.parametrize("name", sorted(SMALL))
def test_expected_stats_match_the_files(name, tmp_path):
    workload = SMALL[name]
    inputs = gen.generate(workload, 3, tmp_path)
    truth = _read(inputs.truth_path, workload.file_format)
    pred = _read(inputs.pred_path, workload.file_format)
    truth_ids = [i for c in truth for i in c]
    pred_ids = [i for c in pred for i in c]
    assert len(set(truth_ids)) == len(truth_ids) == workload.n_instances
    assert len(set(pred_ids)) == len(pred_ids) == inputs.counts["model.interned"]
    assert set(truth_ids) <= set(pred_ids)
    if workload.coverage == "strict":
        assert set(truth_ids) == set(pred_ids)

    truth_of = {i: t for t, c in enumerate(truth) for i in c}
    cells = Counter((truth_of[i], p) for p, c in enumerate(pred) for i in c if i in truth_of)

    def pairs(k):
        return k * (k - 1) // 2

    assert inputs.stats == {
        "n_truth_clusters": len(truth),
        "n_predicted_clusters": len(pred),
        "n_instances": len(truth_ids),
        "pair_tr_sum": sum(pairs(len(c)) for c in truth),
        "pair_pr_sum": sum(pairs(len(c)) for c in pred),
        "pair_int_sum": sum(pairs(v) for v in cells.values()),
    }
    assert inputs.counts["single_pass.cells"] == len(cells)
    assert inputs.counts["io_formats.input_bytes"] == (
        inputs.truth_path.stat().st_size + inputs.pred_path.stat().st_size
    )


def test_pareto_sizes_sum_and_skew():
    sizes = gen.pareto_sizes(1_200_000, 15_400, gen.SKEW)
    assert sum(sizes) == 1_200_000 and min(sizes) >= 1 and len(sizes) == 15_400
    assert max(sizes) > 100 * (1_200_000 // 15_400)
