"""Command-line front end.

Subcommands:
  evaluate  score a predicted clustering file against a truth file
  check     run both engines and compare their reports (files or random trials)
  gen       write a seeded synthetic truth/predicted file pair
  bench     time the engines on a truth/predicted file pair

Exit codes: 0 success, 2 parse or usage error (an input that cannot be read
included), 3 validation/config error, 4 failed write (stdout or gen's output
files), 5 engine divergence (check), 6 pair budget exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import random
import statistics
import sys
import time

from . import __version__, oracle, single_pass
from .errors import DuplicateInstance, EmptyClustering, ExtraInPredicted, InfeasibleConfig, PairBudgetExceeded
from .errors import ParseError, ValidationError
from .io_formats import (
    FORMAT_AUTO,
    FORMAT_CLUSTER_LINES,
    FORMAT_MEMBERSHIP_PAIRS,
    FORMATS,
    MEASURE_ORDER,
    build_report_document,
    _parse,
    parse_chunks,
    parse_clustering_file,  # unused here: perfbench/traced.py wraps it under this name
    raise_repeat,
    tab_after_first_data_line,
    write_clustering,
    write_report,
)
from .model import COVERAGE_MODES, Clustering, EvalPair, validate
from .synth import SynthConfig, generate

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_WRITE = 4
EXIT_DIVERGENCE = 5
EXIT_PAIR_BUDGET = 6

FLAG_AUTO_PAIRS_SINGLETONS = (
    "auto_pairs_all_singletons: --format auto read both files as membership pairs with one id per cluster; "
    "if they are tab-separated cluster lines, use --format clusters"
)
FLAG_AUTO_CLUSTERS_WITH_TABS = (
    "auto_clusters_with_tabs: --format auto read a file as cluster lines, but a data line after its first holds "
    "a TAB; if it is membership pairs whose first id holds a line break, use --format pairs"
)


def _formats_agree(truth_format: str | None, pred_format: str | None) -> bool:
    # A file without data lines (format None) agrees with either format.
    return not (truth_format and pred_format and truth_format != pred_format)


def _read_flags(args, pair: EvalPair, formats: tuple[str | None, str | None], held) -> tuple[str, ...]:
    """The flags on how the input files were read: ``formats`` they were read in, ``held`` their bytes."""
    if args.format != FORMAT_AUTO:
        return ()
    # Tab-separated cluster lines are detected as membership pairs too, and then every cluster is one id.
    singletons = pair.n_instances == len(pair.truth_sizes) and pair.n_predicted == len(pair.predicted_sizes)
    if FORMAT_MEMBERSHIP_PAIRS in formats and singletons:
        return (FLAG_AUTO_PAIRS_SINGLETONS,)
    # Membership pairs whose first id holds a line break are detected as cluster lines, with TABs further on.
    if any(f == FORMAT_CLUSTER_LINES and tab_after_first_data_line(data) for f, data in zip(formats, held)):
        return (FLAG_AUTO_CLUSTERS_WITH_TABS,)
    return ()


def _read_inputs(args) -> tuple[bytes, bytes | ParseError]:
    """Truth's bytes, then predicted's bytes or the ParseError its read became: the one place an input is opened.

    Each file is read once, whole, truth first; a truth read error is raised at once, predicted's in its turn.
    """
    held = []
    for path in (args.truth, args.pred):
        try:
            with open(path, "rb") as handle:
                held.append(handle.read())
        except OSError as exc:  # a failed read is bad input; main takes any other OSError for a failed write
            if not held:
                raise ParseError(str(exc)) from None
            held.append(ParseError(str(exc)))
    return tuple(held)


def _load_clusterings(args, held) -> tuple[Clustering, Clustering, EvalPair, tuple[str, ...]]:
    """Both input files as clusterings, their validated pair, and the flags on how they were read.

    ``held`` is what :func:`_read_inputs` read. Each side is parsed whole from its bytes, in the given format
    or the one detected from its own first data line, and a repeat's lines are found in the same bytes.
    """
    parsed = []
    for path, data in zip((args.truth, args.pred), held):
        if isinstance(data, ParseError):  # predicted's read error, which comes after truth's parse error
            raise data
        try:
            parsed.append(_parse(data, args.format))
        except ParseError as exc:
            exc.args = (f"{path}: {exc}",)  # the type and the line and column stay
            raise
    (truth, truth_format), (predicted, pred_format) = parsed
    if not _formats_agree(truth_format, pred_format):
        raise ParseError(f"{args.truth} reads as {truth_format} but {args.pred} as {pred_format}; use --format")
    try:
        pair = validate(truth, predicted, args.coverage)
    except DuplicateInstance as exc:
        # validate names the repeat, the first in cluster order, truth first; its file's bytes give its lines.
        side = 0 if truth.ids.count(exc.instance) > 1 else 1
        try:
            raise_repeat(held[side], (truth_format, pred_format)[side], exc.instance)
        except DuplicateInstance as with_lines:
            exc = with_lines
        exc.args = (f"{(args.truth, args.pred)[side]}: {exc}",)
        raise exc
    return truth, predicted, pair, _read_flags(args, pair, (truth_format, pred_format), held)


def _load_pair(args, held) -> tuple[EvalPair, tuple[str, ...]]:
    """The validated pair of input files as labels, and the flags on how they were read, in one streamed join.

    ``held`` is what :func:`_read_inputs` read. Each file's bytes are parsed inside :func:`validate`: the
    predicted ids fill the label table batch by batch, and truth's parse pops each id from it as it reads the
    id, so no id column is built. When the formats differ or the join fails before its end,
    :func:`_load_clusterings` runs on the same bytes, in the order that gives each error its precedence, and
    raises the error it finds there.
    """
    if isinstance(held[1], bytes):  # else predicted's read failed, which _load_clusterings raises in its turn
        truth_format = None

        def truth(key):  # validate hands it the pop once the predicted ids fill the table
            nonlocal truth_format
            chunks, truth_format = parse_chunks(held[0], args.format, key)
            if not _formats_agree(truth_format, pred_format):
                raise ParseError("the two files read in different formats")  # the replay names both
            return chunks

        try:
            predicted, pred_format = parse_chunks(held[1], args.format)
            pair = validate(truth, predicted, args.coverage)
            return pair, _read_flags(args, pair, (truth_format, pred_format), held)
        except (EmptyClustering, ExtraInPredicted):
            # The join raises these only once both streams were consumed with no parse or id error, so the
            # whole-clustering load would raise the same.
            raise
        except (ParseError, ValidationError):
            pass
    return _load_clusterings(args, held)[2:]


def _peak_rss_bytes() -> int | None:
    """The process's peak resident set size so far, or None where ``resource`` is missing (Windows)."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024  # bytes on macOS, KiB on Linux


def cmd_evaluate(args) -> int:
    held = _read_inputs(args)
    if args.engine == "oracle":  # the oracle numbers the ids itself, so it reads both clusterings
        truth, predicted, _, read_flags = _load_clusterings(args, held)
        start = time.perf_counter()
        report = oracle.evaluate_all(truth, predicted, pair_budget=args.pair_budget)
    else:
        pair, read_flags = _load_pair(args, held)
        start = time.perf_counter()
        report = single_pass.evaluate_all(pair)
    elapsed = time.perf_counter() - start
    report = dataclasses.replace(report, flags=report.flags + read_flags)
    measures = MEASURE_ORDER if args.measure == "all" else (args.measure,)
    doc = build_report_document(report, args.engine, elapsed, measures, _peak_rss_bytes())
    sys.stdout.write(write_report(doc, args.output))
    return EXIT_OK


def _check_one(truth: Clustering, predicted: Clustering, pair: EvalPair, pair_budget: int, label: str) -> int:
    """Compare the two engines' report documents field by field, for exact equality.

    ``pair`` is the validated pair of ``truth`` and ``predicted``; the oracle's budget is checked first.
    """
    oracle.check_budget(truth, predicted, pair_budget)
    fast = build_report_document(single_pass.evaluate_all(pair), engine="single_pass")
    slow = build_report_document(oracle.evaluate_all(truth, predicted, pair_budget=pair_budget), engine="oracle")
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
    sys.stdout.write(write_report(fast))
    sys.stdout.write(write_report(slow))
    return EXIT_DIVERGENCE


def cmd_check(args) -> int:
    # Each mode's options are left unset by the parser, so the other mode can reject them.
    if args.trials is not None:
        for name in ("truth", "pred", "coverage", "format"):
            if getattr(args, name) is not None:
                raise ParseError(f"check --trials draws random pairs and cannot be combined with --{name}")
        max_n = 200 if args.max_n is None else args.max_n
        rng = random.Random(0 if args.seed is None else args.seed)
        for trial in range(args.trials):
            n = rng.randint(1, max_n)
            config = SynthConfig(
                n_instances=n,
                n_truth_clusters=rng.randint(1, n),
                size_skew=rng.uniform(0.0, 2.0),
                split_rate=rng.random(),
                merge_rate=rng.random(),
                seed=rng.getrandbits(63),
            )
            truth, predicted = generate(config)
            pair = validate(truth, predicted, "strict")
            status = _check_one(truth, predicted, pair, args.pair_budget, f"trial {trial} config {config}")
            if status != EXIT_OK:
                return status
        sys.stdout.write(f"check: {args.trials} randomized trials agreed exactly\n")
        return EXIT_OK

    for option, value in (("--max-n", args.max_n), ("--seed", args.seed)):
        if value is not None:
            raise ParseError(f"check {option} shapes randomized trials and needs --trials")
    if not (args.truth and args.pred):
        raise ParseError("check needs --truth and --pred, or --trials for randomized mode")
    # A file check takes evaluate's defaults.
    vars(args).update(coverage=args.coverage or "strict", format=args.format or FORMAT_AUTO)
    truth, predicted, pair, read_flags = _load_clusterings(args, _read_inputs(args))
    status = _check_one(truth, predicted, pair, args.pair_budget, f"{args.truth} vs {args.pred}")
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
    truth, predicted = generate(config)
    with open(args.out_truth, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(write_clustering(truth, format=args.format))
    with open(args.out_pred, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(write_clustering(predicted, format=args.format))
    sys.stderr.write(
        f"gen: wrote {truth.n_instances} instances, {len(truth.sizes)} truth / "
        f"{len(predicted.sizes)} predicted clusters\n"
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
    truth, predicted, pair, read_flags = _load_clusterings(args, _read_inputs(args))  # before any timer starts
    engines = ("single_pass", "oracle") if args.engine == "both" else (args.engine,)
    if "oracle" in engines:
        oracle.check_budget(truth, predicted, args.pair_budget)  # before any engine is timed
    rows = []
    for engine in engines:
        if engine == "oracle":
            calls = {
                "cluster_f": lambda: oracle.cluster_f(truth, predicted, args.pair_budget),
                "k_metric": lambda: oracle.k_metric(truth, predicted, args.pair_budget),
                "b_cubed": lambda: oracle.b_cubed(truth, predicted, args.pair_budget),
                "se_le": lambda: oracle.split_lump(truth, predicted, args.pair_budget),
                "pairwise": lambda: oracle.pairwise_f(truth, predicted, args.pair_budget),
                "all_in_one": lambda: oracle.evaluate_all(truth, predicted, args.pair_budget),
            }
        else:
            # the single-pass engine computes all five measures in one pass, so it gets one row
            calls = {"all_in_one": lambda: single_pass.evaluate_all(pair)}
        for name, fn in calls.items():
            best, mean, std = _time_call(fn, args.repeats)
            rows.append((engine, name, best, mean, std))

    header = f"{'N':>9}  {'engine':<12}{'measure':<12}{'best_s':>12}{'mean_s':>12}{'std_s':>12}"
    sys.stdout.write(header + "\n")
    for engine, name, best, mean, std in rows:
        sys.stdout.write(f"{pair.n_instances:>9}  {engine:<12}{name:<12}{best:>12.6f}{mean:>12.6f}{std:>12.6f}\n")
    sys.stdout.writelines(f"flag: {flag}\n" for flag in read_flags)
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


def _add_input_options(parser: argparse.ArgumentParser, required: bool) -> None:
    parser.add_argument("--truth", required=required, help="truth clustering file")
    parser.add_argument("--pred", required=required, help="predicted clustering file")
    parser.add_argument("--coverage", choices=COVERAGE_MODES, default="strict")
    parser.add_argument("--format", choices=FORMATS, default=FORMAT_AUTO, help="input file format")


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose failed write of ``--help`` or ``--version`` to stdout raises, so main exits 4.

    argparse drops such an error, which unbuffered stdout gives at the write; a usage error's message to
    stderr is printed as argparse prints it. Subparsers are built from this class too.
    """

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_check.add_argument("--trials", type=_int_at_least(1), help="randomized trials instead of files")
    p_check.add_argument(
        "--max-n", type=_int_at_least(1), help="max instances per randomized trial (default 200)"
    )
    p_check.add_argument("--seed", type=int, help="seed of the randomized trials (default 0)")
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
    p_gen.add_argument("--format", choices=FORMATS[1:], default=FORMAT_CLUSTER_LINES)  # the two concrete formats
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="time the engines on a truth/predicted file pair")
    _add_input_options(p_bench, required=True)
    p_bench.add_argument("--engine", choices=("single_pass", "oracle", "both"), default="single_pass")
    p_bench.add_argument(
        "--repeats", type=_int_at_least(1), default=10, help="trials per measurement; best is reported"
    )
    p_bench.add_argument("--pair-budget", type=_int_at_least(0), default=oracle.DEFAULT_PAIR_BUDGET)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:  # after --help or --version: a failed write to stdout surfaces here, where it is caught
            sys.stdout.flush()
            raise
        status = args.func(args)
        sys.stdout.flush()  # a failed write to stdout surfaces here, where it is caught, not at exit
        return status
    except ParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except OSError as exc:  # _read_inputs turns a failed read into a ParseError, so this is a failed write
        sys.stderr.write(f"error: {exc}\n")
        try:
            sys.stdout.flush()
        except OSError:  # stdout failed: what it still holds goes to the null device, not to a second error at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_WRITE
    except (ValidationError, InfeasibleConfig) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except PairBudgetExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PAIR_BUDGET


def console_entry() -> None:
    raise SystemExit(main())
