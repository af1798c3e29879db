"""Seeded input generator for the benchmark, with the exact expected results.

Usage: ``python3 perfbench/gen.py WORKLOAD SEED OUT_DIR`` writes the
workload's truth and predicted files into OUT_DIR, with ``expected.json``
holding what :func:`load` reads back.

The generator is the benchmark's own, independent of ``clustereval.synth``,
so a change to the program cannot change the bytes a workload feeds it.
Everything is derived from ``random.Random`` seeded with a string, whose
output is fixed by the seed on every platform, so one workload and seed
always give byte-identical files (a test pins one digest).

Truth cluster sizes follow a Pareto skew: the weights are ``u ** -skew`` at
the expected order statistics ``u`` of a uniform sample, apportioned to the
instance total by largest remainder. The prediction splits a share of truth
clusters at a uniform cut, merges random pairs of the result, and in lenient
workloads adds predicted-only extras to random predicted clusters.

That partition is fixed per workload. The seed draws the instance ids
(random 14-hex-digit strings, like author-mention ids in name
disambiguation) and the order in which truth clusters are listed; the
predicted file lists clusters and members in id order, unrelated to truth
order, so neither side's hash-table access is artificially sequential. Every
seed therefore gives different bytes but the same amount of work and the
same expected report, so runs on different seeds differ only by the
machine's noise.

The expected report is computed from the contingency table the generator
knows, with exact integers and ``Fraction``, rounded to a double once.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

SKEW = 1.0
SPLIT_RATE = 0.2
MERGE_RATE = 0.2
EXPECTED = "expected.json"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "evaluate" or "check"
    n_instances: int
    n_clusters: int
    file_format: str  # "clusters" (cluster lines) or "pairs" (membership pairs)
    coverage: str  # "strict" or "lenient"
    extra_share: float = 0.0  # predicted-only extras, as a share of n_instances


# Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("big_clusters", "evaluate", 1_200_000, 15_400, "clusters", "strict"),
        Workload("tiny_clusters", "evaluate", 1_200_000, 400_000, "clusters", "strict"),
        Workload("pairs_lenient", "evaluate", 600_000, 7_700, "pairs", "lenient", extra_share=0.02),
        Workload("oracle_check", "check", 10_000, 1_000, "clusters", "strict"),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Written files plus everything the benchmark knows about them."""

    truth_path: Path
    pred_path: Path
    files: dict  # file name -> {"bytes": int, "sha256": str}
    stats: dict  # the report's stats block, exactly
    measures: dict  # measure -> field -> float, from exact rationals
    counts: dict  # per-layer work counts


def pareto_sizes(n: int, k: int, skew: float) -> list[int]:
    """k sizes >= 1 summing to n, weighted by the Pareto skew at fixed quantiles."""
    weights = [((i + 1) / (k + 1)) ** -skew for i in range(k)]
    spare = n - k
    total = sum(weights)
    quotas = [w / total * spare for w in weights]
    base = [int(q) for q in quotas]
    order = sorted(range(k), key=lambda i: (base[i] - quotas[i], i))
    for i in order[: spare - sum(base)]:
        base[i] += 1
    return [1 + b for b in base]


def instance_ids(count: int, rng: random.Random) -> list[str]:
    """``count`` distinct random 14-hex-digit ids."""
    while True:
        digits = rng.randbytes(7 * count).hex()
        ids = [digits[i : i + 14] for i in range(0, 14 * count, 14)]
        if len(set(ids)) == count:
            return ids


def _partition(workload: Workload):
    """Truth clusters as consecutive ranges of instance numbers, predicted as lists.

    Numbers from ``n_instances`` on are predicted-only extras. The partition
    depends on the workload alone, not on the seed.
    """
    rng = random.Random(f"{workload.name}/partition")
    n = workload.n_instances
    sizes = pareto_sizes(n, workload.n_clusters, SKEW)
    rng.shuffle(sizes)
    truth = []
    pos = 0
    for size in sizes:
        truth.append(range(pos, pos + size))
        pos += size

    pred = []
    for cluster in truth:
        if len(cluster) >= 2 and rng.random() < SPLIT_RATE:
            cut = rng.randint(1, len(cluster) - 1)
            pred.append(list(cluster[:cut]))
            pred.append(list(cluster[cut:]))
        else:
            pred.append(list(cluster))
    marked = [i for i in range(len(pred)) if rng.random() < MERGE_RATE]
    rng.shuffle(marked)
    for a, b in zip(marked[0::2], marked[1::2]):
        pred[a].extend(pred[b])
        pred[b] = None
    pred = [c for c in pred if c is not None]

    for extra in range(n, n + round(n * workload.extra_share)):
        pred[rng.randrange(len(pred))].append(extra)
    return truth, pred


def _render(clusters, ids, file_format: str, prefix: str) -> bytes:
    if file_format == "clusters":
        lines = [" ".join([ids[i] for i in c]) for c in clusters]
    else:
        # Rows in id order interleave the clusters, so labels arrive unsorted.
        lines = sorted(f"{ids[i]}\t{prefix}{k}" for k, c in enumerate(clusters) for i in c)
    return ("\n".join(lines) + "\n").encode("ascii")


def _harmonic(recall: Fraction, precision: Fraction) -> Fraction:
    total = recall + precision
    return 2 * recall * precision / total if total else Fraction(0)


def _triple(recall: Fraction, precision: Fraction, combined) -> dict:
    return {"recall": float(recall), "precision": float(precision), "combined": float(combined)}


def expected_report(truth, pred, n_instances: int):
    """The report's stats and measures, from the exact contingency table."""
    truth_of = [t for t, cluster in enumerate(truth) for _ in cluster]
    pred_of = [0] * n_instances
    for p, cluster in enumerate(pred):
        for i in cluster:
            if i < n_instances:
                pred_of[i] = p
    cells = Counter(zip(truth_of, pred_of))
    del truth_of, pred_of

    tsize = [len(c) for c in truth]
    psize = [len(c) for c in pred]
    matches = 0
    aap_by_size: dict[int, int] = defaultdict(int)  # truth size -> sum of squared overlaps
    acp_by_size: dict[int, int] = defaultdict(int)  # predicted size -> same
    best: dict[int, tuple[int, int]] = {}  # truth cluster -> (overlap, -predicted size)
    int_pairs = 0
    for (t, p), v in cells.items():
        if v == tsize[t] == psize[p]:
            matches += 1
        aap_by_size[tsize[t]] += v * v
        acp_by_size[psize[p]] += v * v
        int_pairs += v * (v - 1) // 2
        rank = (v, -psize[p])
        if rank > best.get(t, (0, 0)):
            best[t] = rank

    n = n_instances
    tr_pairs = sum(s * (s - 1) // 2 for s in tsize)
    pr_pairs = sum(s * (s - 1) // 2 for s in psize)
    aap = sum(Fraction(total, size) for size, total in aap_by_size.items()) / n
    acp = sum(Fraction(total, size) for size, total in acp_by_size.items()) / n
    split = sum(tsize[t] - v for t, (v, _) in best.items())
    lump = sum(-neg - v for v, neg in best.values())
    matched = sum(-neg for _, neg in best.values())
    se = Fraction(split, n)
    le = Fraction(lump, matched)
    cf_r = Fraction(matches, len(truth))
    cf_p = Fraction(matches, len(pred))
    pw_r = Fraction(int_pairs, tr_pairs) if tr_pairs else Fraction(1)
    pw_p = Fraction(int_pairs, pr_pairs) if pr_pairs else Fraction(1)

    stats = {
        "n_truth_clusters": len(truth),
        "n_predicted_clusters": len(pred),
        "n_instances": n,
        "pair_tr_sum": tr_pairs,
        "pair_pr_sum": pr_pairs,
        "pair_int_sum": int_pairs,
    }
    measures = {
        "cluster_f": _triple(cf_r, cf_p, _harmonic(cf_r, cf_p)),
        "k_metric": _triple(aap, acp, math.sqrt(aap * acp)),
        "se_le": {"se": float(se), "le": float(le), **_triple(1 - se, 1 - le, _harmonic(1 - se, 1 - le))},
        "pairwise": _triple(pw_r, pw_p, _harmonic(pw_r, pw_p)),
        "b_cubed": _triple(aap, acp, _harmonic(aap, acp)),
    }
    return stats, measures, len(cells)


def generate(workload: Workload, seed: int, out_dir: Path) -> Inputs:
    """Write the workload's truth/predicted pair for ``seed`` into ``out_dir``."""
    truth, pred = _partition(workload)
    n = workload.n_instances
    n_interned = n + round(n * workload.extra_share)
    rng = random.Random(f"{workload.name}/{seed}")
    ids = instance_ids(n_interned, rng)
    truth_listed = list(truth)
    rng.shuffle(truth_listed)
    by_id = ids.__getitem__
    pred_listed = sorted((sorted(c, key=by_id) for c in pred), key=lambda c: ids[c[0]])

    out_dir.mkdir(parents=True, exist_ok=True)
    suffix = "tsv" if workload.file_format == "pairs" else "txt"
    files = {}
    paths = []
    for role, clusters, prefix in (("truth", truth_listed, "t"), ("pred", pred_listed, "p")):
        data = _render(clusters, ids, workload.file_format, prefix)
        path = out_dir / f"{role}.{suffix}"
        path.write_bytes(data)
        files[path.name] = {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
        paths.append(path)
    del ids, truth_listed, pred_listed

    stats, measures, n_cells = expected_report(truth, pred, n)
    counts = {
        "io_formats.input_bytes": sum(f["bytes"] for f in files.values()),
        "model.interned": n_interned,
        "single_pass.cells": n_cells,
        "oracle.pairs_enumerated": stats["pair_tr_sum"] + stats["pair_pr_sum"],
    }
    return Inputs(paths[0], paths[1], files, stats, measures, counts)


def load(out_dir: Path) -> Inputs:
    """The inputs ``python3 gen.py`` wrote into ``out_dir``."""
    doc = json.loads((out_dir / EXPECTED).read_text(encoding="utf-8"))
    return Inputs(**{**doc, "truth_path": Path(doc["truth_path"]), "pred_path": Path(doc["pred_path"])})


def main(argv) -> int:
    name, seed, out_dir = argv
    inputs = generate(WORKLOADS[name], int(seed), Path(out_dir))
    doc = asdict(inputs)
    doc["truth_path"] = str(inputs.truth_path)
    doc["pred_path"] = str(inputs.pred_path)
    (Path(out_dir) / EXPECTED).write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
