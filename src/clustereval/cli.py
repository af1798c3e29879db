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
import contextlib
import dataclasses
import io
import os
import random
import stat
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
    """The flags on how the input files were read: ``formats`` they were read in, ``held`` as
    :func:`_read_inputs` gives them."""
    if args.format != FORMAT_AUTO:
        return ()
    # Tab-separated cluster lines are detected as membership pairs too, and then every cluster is one id.
    singletons = pair.n_instances == len(pair.truth_sizes) and pair.n_predicted == len(pair.predicted_sizes)
    if FORMAT_MEMBERSHIP_PAIRS in formats and singletons:
        return (FLAG_AUTO_PAIRS_SINGLETONS,)
    # Membership pairs whose first id holds a line break are detected as cluster lines, with TABs further on.
    if any(
        f == FORMAT_CLUSTER_LINES and _named(path, tab_after_first_data_line, source)
        for path, f, source in zip((args.truth, args.pred), formats, held)
    ):
        return (FLAG_AUTO_CLUSTERS_WITH_TABS,)
    return ()


def _named(path, read, *args):
    """``read(*args)``, where a ParseError names ``path`` first; its type and its line and column stay."""
    try:
        return read(*args)
    except ParseError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


@contextlib.contextmanager
def _read_inputs(args):
    """Truth and predicted as the parse reads them: the one place an input is opened.

    Each path is opened once, truth first, and a failed open or read is a ParseError. A regular file is
    given as its open handle, which the parse reads a batch at a time, and which is closed when the ``with``
    block ends, however it ends; an error path reads it again through that handle. Any other input (a pipe,
    a FIFO, a device) cannot be read again, so it is read whole, closed, and given as its bytes. When
    predicted's open or read fails, truth is parsed first, so a malformed truth file is reported before it,
    as when both files are read.
    """
    with contextlib.ExitStack() as stack:
        held = []
        for path in (args.truth, args.pred):
            try:
                handle = stack.enter_context(open(path, "rb"))
                if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
                    held.append(handle)
                else:
                    with handle:
                        held.append(handle.read())
            except OSError as exc:  # a failed read is bad input; main takes any other OSError for a failed write
                if held:
                    _named(args.truth, _parse, held[0], args.format)
                raise ParseError(str(exc)) from None
        yield tuple(held)


def _load_clusterings(args, held) -> tuple[Clustering, Clustering, EvalPair, tuple[str, ...]]:
    """Both input files as clusterings, their validated pair, and the flags on how they were read.

    ``held`` is the two inputs as :func:`_read_inputs` gives them. Each side is parsed whole, truth first,
    in the given format or the one detected from its own first data line. A repeat's lines are found by
    reading again the file that :func:`validate` names.
    """
    paths = (args.truth, args.pred)
    parsed = (_named(path, _parse, source, args.format) for path, source in zip(paths, held))
    (truth, predicted), formats = zip(*parsed)
    if not _formats_agree(*formats):
        raise ParseError(f"{args.truth} reads as {formats[0]} but {args.pred} as {formats[1]}; use --format")
    try:
        pair = validate(truth, predicted, args.coverage)
    except DuplicateInstance as exc:
        # validate names the repeat, the first in cluster order, truth first, and its side; a rescan of that
        # file gives its lines.
        side = ("truth", "predicted").index(exc.side)
        try:
            raise_repeat(held[side], formats[side], exc.instance)
        except (DuplicateInstance, ParseError) as found:  # the repeat with its lines, or a failed read
            exc = found
        exc.args = (f"{paths[side]}: {exc}",)
        raise exc
    return truth, predicted, pair, _read_flags(args, pair, formats, held)


def _load_pair(args, held) -> tuple[EvalPair, tuple[str, ...]]:
    """The validated pair of input files as labels, and the flags on how they were read, in one streamed join.

    ``held`` is the two inputs as :func:`_read_inputs` gives them. Each file is read and parsed inside
    :func:`validate`, batch by batch: the predicted ids fill the label table, and truth's parse pops each id
    from it as it reads the id, so no id column is built and no regular file is held whole. When the formats
    differ or the join fails before its end, :func:`_load_clusterings` reads both inputs again, in the order
    that gives each error its precedence, and raises the error it finds there.
    """
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


def _since(start: tuple[float, float]) -> dict:
    """A stage's ``wall_s`` and ``cpu_s`` since ``start``, a ``(perf_counter(), process_time())`` pair."""
    return {"wall_s": time.perf_counter() - start[0], "cpu_s": time.process_time() - start[1]}


def _timing(stages: dict) -> dict:
    """A report's ``timing``: the engine stage's wall time as ``seconds``, the process's ``peak_rss_bytes`` so
    far, which is left out where ``resource`` is missing (Windows), and the ``stages``."""
    timing = {"seconds": stages["engine"]["wall_s"]}
    try:
        import resource
    except ImportError:
        pass
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        timing["peak_rss_bytes"] = peak if sys.platform == "darwin" else peak * 1024  # KiB on Linux
    timing["stages"] = stages
    return timing


def cmd_evaluate(args) -> int:
    # load: open, read, parse and validate, which interleave for a regular file; engine: the measures
    start = time.perf_counter(), time.process_time()
    with _read_inputs(args) as held:
        if args.engine == "oracle":  # the oracle numbers the ids itself, so it reads both clusterings
            truth, predicted, _, read_flags = _load_clusterings(args, held)
        else:
            pair, read_flags = _load_pair(args, held)
    stages = {"load": _since(start)}
    start = time.perf_counter(), time.process_time()
    if args.engine == "oracle":
        report = oracle.evaluate_all(truth, predicted, pair_budget=args.pair_budget)
    else:
        report = single_pass.evaluate_all(pair)
    stages["engine"] = _since(start)
    report = dataclasses.replace(report, flags=report.flags + read_flags)
    measures = MEASURE_ORDER if args.measure == "all" else (args.measure,)
    doc = build_report_document(report, args.engine, _timing(stages), measures)
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
    with _read_inputs(args) as held:
        truth, predicted, pair, read_flags = _load_clusterings(args, held)
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
    with _read_inputs(args) as held:  # before any timer starts
        truth, predicted, pair, read_flags = _load_clusterings(args, held)
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


class _ClosedStdout(io.TextIOBase):
    """Stdout for a process started with it closed, where Python leaves ``sys.stdout`` None: each write raises
    an OSError, as a failed write does, so main exits 4; a command that writes nothing there is unaffected."""

    def write(self, text):
        raise OSError("stdout is closed")


class _ClosedStderr(io.TextIOBase):
    """Stderr for a process started with it closed, where Python leaves ``sys.stderr`` None: each write is
    dropped, so every command still exits with its documented code."""

    def write(self, text):
        return len(text)


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
    if sys.stdout is None:  # the process started with its stdout closed
        sys.stdout = _ClosedStdout()
    if sys.stderr is None:  # the process started with its stderr closed
        sys.stderr = _ClosedStderr()
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
    except OSError as exc:  # a failed open or read is a ParseError, so this is a failed write
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
