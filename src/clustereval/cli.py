"""Command-line front end.

Subcommands:
  evaluate  score a predicted clustering file against a truth file
  check     run both engines and compare their reports (files or random trials)
  gen       write a seeded synthetic truth/predicted file pair
  bench     time the engines on synthetic workloads of given sizes

Exit codes: 0 success, 2 parse or usage error, 3 validation/config error,
5 engine divergence (check), 6 pair budget exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import random
import statistics
import sys
import time

from . import __version__, oracle, single_pass
from .errors import InfeasibleConfig, PairBudgetExceeded, ParseError, ValidationError
from .io_formats import (
    FORMAT_AUTO,
    FORMAT_CLUSTER_LINES,
    FORMAT_MEMBERSHIP_PAIRS,
    MEASURE_ORDER,
    build_report_document,
    parse_clustering_file,
    render_report_document,
    sniff_format,
    write_clustering,
    write_report,
)
from .model import EvalPair, validate
from .synth import SynthConfig, generate

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_DIVERGENCE = 5
EXIT_PAIR_BUDGET = 6

FLAG_AUTO_PAIRS_SINGLETONS = (
    "auto_pairs_all_singletons: --format auto read both files as membership pairs with one id per cluster; "
    "if they are tab-separated cluster lines, use --format clusters"
)

_FILE_FORMATS = {"auto": FORMAT_AUTO, "clusters": FORMAT_CLUSTER_LINES, "pairs": FORMAT_MEMBERSHIP_PAIRS}


def _load_pair(args) -> tuple[EvalPair, tuple[str, ...]]:
    """The validated pair of input files, and the flags on how they were read."""
    file_format = _FILE_FORMATS[args.format]
    if file_format == FORMAT_AUTO:
        # Detect once for both files; a file without data lines agrees with either format.
        truth_format, pred_format = sniff_format(args.truth), sniff_format(args.pred)
        if truth_format and pred_format and truth_format != pred_format:
            raise ParseError(f"{args.truth} reads as {truth_format} but {args.pred} as {pred_format}; use --format")
        file_format = truth_format or pred_format or FORMAT_AUTO
    truth = parse_clustering_file(args.truth, format=file_format, role="truth")
    predicted = parse_clustering_file(args.pred, format=file_format, role="predicted")
    pair = validate(truth, predicted, args.coverage)
    # Tab-separated cluster lines are detected as membership pairs too, and then every cluster is one id.
    singletons = truth.n_instances == len(truth.sizes) and predicted.n_instances == len(predicted.sizes)
    if args.format == "auto" and file_format == FORMAT_MEMBERSHIP_PAIRS and singletons:
        return pair, (FLAG_AUTO_PAIRS_SINGLETONS,)
    return pair, ()


def cmd_evaluate(args) -> int:
    pair, read_flags = _load_pair(args)
    start = time.perf_counter()
    if args.engine == "oracle":
        report = oracle.evaluate_all(pair, pair_budget=args.pair_budget)
    else:
        report = single_pass.evaluate_all(pair)
    elapsed = time.perf_counter() - start
    report = dataclasses.replace(report, flags=report.flags + read_flags)
    measures = MEASURE_ORDER if args.measure == "all" else (args.measure,)
    sys.stdout.write(
        write_report(report, style=args.output, engine=args.engine, timing_seconds=elapsed, measures=measures)
    )
    return EXIT_OK


def _check_one(pair: EvalPair, pair_budget: int, label: str) -> int:
    """Compare the two engines' report documents field by field, for exact equality."""
    fast = build_report_document(single_pass.evaluate_all(pair), engine="single_pass")
    slow = build_report_document(oracle.evaluate_all(pair, pair_budget=pair_budget), engine="oracle")
    divergent = [
        f"measures.{name}.{key}: single_pass={value!r} oracle={slow['measures'][name][key]!r}"
        for name, fields in fast["measures"].items()
        for key, value in fields.items()
        if value != slow["measures"][name][key]
    ]
    divergent += [
        f"{section}: single_pass={fast[section]!r} oracle={slow[section]!r}"
        for section in ("stats", "flags")
        if fast[section] != slow[section]
    ]
    if not divergent:
        return EXIT_OK
    sys.stderr.write(f"divergence on {label}:\n")
    for line in divergent:
        sys.stderr.write(f"  {line}\n")
    sys.stdout.write(render_report_document(fast))
    sys.stdout.write(render_report_document(slow))
    return EXIT_DIVERGENCE


def cmd_check(args) -> int:
    if args.trials:
        for name in ("truth", "pred", "coverage", "format"):
            if getattr(args, name) is not None:
                raise ParseError(f"check --trials draws random pairs and cannot be combined with --{name}")
        rng = random.Random(args.seed)
        for trial in range(args.trials):
            n = rng.randint(1, args.max_n)
            config = SynthConfig(
                n_instances=n,
                n_truth_clusters=rng.randint(1, n),
                size_skew=rng.uniform(0.0, 2.0),
                split_rate=rng.random(),
                merge_rate=rng.random(),
                seed=rng.getrandbits(63),
            )
            status = _check_one(generate(config), args.pair_budget, f"trial {trial} config {config}")
            if status != EXIT_OK:
                return status
        sys.stdout.write(f"check: {args.trials} randomized trials agreed exactly\n")
        return EXIT_OK

    if not (args.truth and args.pred):
        raise ParseError("check needs --truth and --pred, or --trials for randomized mode")
    # Left unset so that --trials can reject them; a file check takes evaluate's defaults.
    vars(args).update(coverage=args.coverage or "strict", format=args.format or "auto")
    pair, read_flags = _load_pair(args)
    status = _check_one(pair, args.pair_budget, f"{args.truth} vs {args.pred}")
    if status == EXIT_OK:
        sys.stdout.write("check: engines agree exactly\n")
    sys.stdout.writelines(f"flag: {flag}\n" for flag in read_flags)
    return status


def cmd_gen(args) -> int:
    config = SynthConfig(
        n_instances=args.n,
        n_truth_clusters=args.clusters,
        size_skew=args.skew,
        split_rate=args.split,
        merge_rate=args.merge,
        seed=args.seed,
    )
    pair = generate(config)
    file_format = FORMAT_MEMBERSHIP_PAIRS if args.format == "pairs" else FORMAT_CLUSTER_LINES
    with open(args.out_truth, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(write_clustering(pair.truth, format=file_format))
    with open(args.out_pred, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(write_clustering(pair.predicted, format=file_format))
    sys.stderr.write(
        f"gen: wrote {pair.n_instances} instances, {len(pair.truth.sizes)} truth / "
        f"{len(pair.predicted.sizes)} predicted clusters\n"
    )
    return EXIT_OK


def _time_call(fn, repeats: int) -> tuple[float, float, float]:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    mean = statistics.fmean(times)
    std = statistics.stdev(times) if len(times) > 1 else 0.0
    return min(times), mean, std


def cmd_bench(args) -> int:
    engines = ("single_pass", "oracle") if args.engine == "both" else (args.engine,)
    rows = []
    for n in args.sizes:
        config = SynthConfig(
            n_instances=n,
            n_truth_clusters=max(1, round(n / args.cluster_ratio)),
            size_skew=args.skew,
            split_rate=args.split,
            merge_rate=args.merge,
            seed=args.seed,
        )
        pair = generate(config)  # generation and parsing stay outside the timers
        for engine in engines:
            if engine == "oracle":
                demand = oracle.pair_demand(pair)
                if demand > args.pair_budget:
                    raise PairBudgetExceeded(demand, args.pair_budget)
                calls = {
                    "cluster_f": lambda p=pair: oracle.cluster_f(p),
                    "k_metric": lambda p=pair: oracle.k_metric(p),
                    "b_cubed": lambda p=pair: oracle.b_cubed(p),
                    "se_le": lambda p=pair: oracle.split_lump(p),
                    "pairwise": lambda p=pair: oracle.pairwise_f(p, pair_budget=args.pair_budget),
                    "all_in_one": lambda p=pair: oracle.evaluate_all(p, pair_budget=args.pair_budget),
                }
            else:
                # the single-pass engine computes all five measures in one pass, so it gets one row
                calls = {"all_in_one": lambda p=pair: single_pass.evaluate_all(p)}
            for name, fn in calls.items():
                best, mean, std = _time_call(fn, args.repeats)
                rows.append((n, engine, name, best, mean, std))

    header = f"{'N':>9}  {'engine':<12}{'measure':<12}{'best_s':>12}{'mean_s':>12}{'std_s':>12}"
    sys.stdout.write(header + "\n")
    for n, engine, name, best, mean, std in rows:
        sys.stdout.write(f"{n:>9}  {engine:<12}{name:<12}{best:>12.6f}{mean:>12.6f}{std:>12.6f}\n")
    return EXIT_OK


def _int_at_least(minimum: int):
    """An argparse ``int`` type that rejects values below ``minimum`` with a usage error (exit 2)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value" messages
    return parse


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:  # NaN fails this too
        raise argparse.ArgumentTypeError(f"must be greater than 0, got {text}")
    return value


_positive_float.__name__ = "float"


def _sizes(text: str) -> list[int]:
    try:
        sizes = [_int_at_least(1)(item) for item in text.split(",") if item]
    except ValueError:
        sizes = []
    if not sizes:
        raise argparse.ArgumentTypeError(f"must be comma-separated integers, got {text}")
    return sizes


def _add_input_options(parser: argparse.ArgumentParser, required: bool) -> None:
    parser.add_argument("--truth", required=required, help="truth clustering file")
    parser.add_argument("--pred", required=required, help="predicted clustering file")
    parser.add_argument("--coverage", choices=("strict", "lenient"), default="strict")
    parser.add_argument("--format", choices=tuple(_FILE_FORMATS), default="auto", help="input file format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clustereval",
        description="Score a predicted clustering against a truth clustering with five measures.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="evaluate a predicted clustering against truth")
    _add_input_options(p_eval, required=True)
    p_eval.add_argument("--measure", choices=("all",) + MEASURE_ORDER, default="all")
    p_eval.add_argument("--engine", choices=("single_pass", "oracle"), default="single_pass")
    p_eval.add_argument("--output", choices=("machine", "table"), default="machine")
    p_eval.add_argument("--pair-budget", type=_int_at_least(0), default=oracle.DEFAULT_PAIR_BUDGET)
    p_eval.set_defaults(func=cmd_evaluate)

    p_check = sub.add_parser("check", help="compare single_pass against the brute-force oracle")
    _add_input_options(p_check, required=False)
    p_check.add_argument(
        "--trials", type=_int_at_least(0), default=0, help="randomized trials instead of files"
    )
    p_check.add_argument(
        "--max-n", type=_int_at_least(1), default=200, help="max instances per randomized trial"
    )
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--pair-budget", type=_int_at_least(0), default=oracle.DEFAULT_PAIR_BUDGET)
    p_check.set_defaults(func=cmd_check, coverage=None, format=None)

    p_gen = sub.add_parser("gen", help="generate a synthetic truth/predicted pair")
    p_gen.add_argument("--n", type=int, required=True, help="number of instances")
    p_gen.add_argument("--clusters", type=int, required=True, help="number of truth clusters")
    p_gen.add_argument("--skew", type=float, default=0.0, help="cluster size skew (0 = uniform)")
    p_gen.add_argument("--split", type=float, default=0.0, help="per-cluster split probability")
    p_gen.add_argument("--merge", type=float, default=0.0, help="per-cluster merge probability")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out-truth", required=True)
    p_gen.add_argument("--out-pred", required=True)
    p_gen.add_argument("--format", choices=("clusters", "pairs"), default="clusters")
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="time the engines on synthetic workloads")
    p_bench.add_argument("--sizes", type=_sizes, required=True, help="comma-separated instance counts")
    p_bench.add_argument("--engine", choices=("single_pass", "oracle", "both"), default="single_pass")
    p_bench.add_argument(
        "--repeats", type=_int_at_least(1), default=10, help="trials per measurement; best is reported"
    )
    p_bench.add_argument(
        "--cluster-ratio", type=_positive_float, default=78.0, help="instances per truth cluster"
    )
    p_bench.add_argument("--skew", type=float, default=1.0)
    p_bench.add_argument("--split", type=float, default=0.2)
    p_bench.add_argument("--merge", type=float, default=0.2)
    p_bench.add_argument("--seed", type=int, default=20240501)
    p_bench.add_argument("--pair-budget", type=_int_at_least(0), default=oracle.DEFAULT_PAIR_BUDGET)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except (ValidationError, InfeasibleConfig) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except PairBudgetExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PAIR_BUDGET


def console_entry() -> None:
    raise SystemExit(main())
