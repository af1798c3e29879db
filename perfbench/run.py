"""End-to-end benchmark of the clustereval command.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all --seed N --seconds S

One unit of work is one ``clustereval evaluate`` or ``check`` command on a
generated truth/predicted file pair, run as a child process
(``python -m clustereval`` with ``src`` on the path, so nothing is
installed). The load is a closed loop: one command at a time.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are measured:
median wall time, throughput, the child's peak RSS and the set-up time of
``clustereval --version``. With ``--trace 1`` some untraced commands run
first, then the same command runs in-process under ``traced.py`` for the
per-layer metrics. Every command's output is checked against the results the
generator knows exactly; a mismatch counts as a failed command.

The last line of stdout is the result object; the line before it is the run
record (interpreter, nproc, commit, seed, input sizes and digests, samples),
also written to ``.perfbench_work/results/``. ``--workload all`` instead
prints a table of every end-to-end metric, with ``fail_ratio``, for all
workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

SETUP_FIRST = 5  # set-up samples before the first command
SETUP_PER_COMMAND = 3  # and after each untraced command, so they span the run
MIN_SAMPLES = 3  # per untraced run, even past --seconds, unless the hard budget is spent
HARD_BUDGET_S = 110.0  # no new command starts once it would end past this many seconds
CHILD_TIMEOUT_S = 60.0
TOLERANCE = 1e-9  # absolute, per reported measure; reports print 12 decimals


class BenchError(Exception):
    """The benchmark cannot run here, so it prints no result."""


@dataclass(frozen=True)
class Sample:
    wall_s: float
    rss_mb: float
    exit: int
    stdout: bytes


def run_child(argv: list[str]) -> Sample:
    """Spawn ``argv`` in the repo root; wall time from spawn to exit, RSS from wait4."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out_path = WORK / "child.out"
    with open(out_path, "wb") as out, open(WORK / "child.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_maxrss / 1024, proc.returncode, out_path.read_bytes())


def _dig(doc, *keys):
    for key in keys:
        if not isinstance(doc, dict):
            return None
        doc = doc.get(key)
    return doc


def check_output(workload: gen.Workload, inputs: gen.Inputs, exit_code: int, stdout: bytes) -> str | None:
    """None if the command's output is correct, else what is wrong."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    if workload.command == "check":
        return None if b"check: engines agree" in stdout else "no agreement line in check output"
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return f"report does not parse: {exc}"
    for key, want in inputs.stats.items():
        got = _dig(doc, "stats", key)
        if got != want:
            return f"stats.{key} = {got!r}, expected {want}"
    for measure, fields in inputs.measures.items():
        for field, want in fields.items():
            got = _dig(doc, "measures", measure, field)
            if not isinstance(got, (int, float)) or abs(got - want) > TOLERANCE:
                return f"measures.{measure}.{field} = {got!r}, expected {want!r} within {TOLERANCE}"
    return None


def command_args(workload: gen.Workload, inputs: gen.Inputs) -> list[str]:
    args = [workload.command, "--truth", str(inputs.truth_path), "--pred", str(inputs.pred_path)]
    if workload.coverage != "strict":
        args += ["--coverage", workload.coverage]
    return args


def measure_setup(repeats: int) -> list[float]:
    """Wall times of ``clustereval --version``: interpreter start, import and argparse."""
    walls = []
    for _ in range(repeats):
        sample = run_child([sys.executable, "-m", "clustereval", "--version"])
        if sample.exit != 0 or not sample.stdout.startswith(b"clustereval"):
            raise BenchError(f"`clustereval --version` failed (exit {sample.exit}); is src/clustereval here?")
        walls.append(sample.wall_s)
    return walls


def make_inputs(workload: gen.Workload, seed: int) -> gen.Inputs:
    """Generate the inputs in a child process.

    A child's ru_maxrss includes the RSS of the process that spawned it, so
    this process must stay small for peak_rss_mb to be the command's own.
    """
    out_dir = WORK / workload.name
    (out_dir / gen.EXPECTED).unlink(missing_ok=True)
    sample = run_child([sys.executable, str(HERE / "gen.py"), workload.name, str(seed), str(out_dir)])
    if sample.exit != 0:
        raise BenchError(f"input generation failed (exit {sample.exit}), see {WORK / 'child.err'}")
    return gen.load(out_dir)


class Run:
    """Samples and failures of one benchmark run of one workload."""

    def __init__(self, workload: gen.Workload, inputs: gen.Inputs, setup: list[float]):
        self.workload = workload
        self.inputs = inputs
        self.args = command_args(workload, inputs)
        self.setup = setup
        self.samples: list[Sample] = []
        self.traces: list[dict] = []
        self.errors: list[str] = []
        self.attempted = 0
        self.started = time.perf_counter()

    def _record(self, exit_code: int, stdout: bytes) -> None:
        self.attempted += 1
        error = check_output(self.workload, self.inputs, exit_code, stdout)
        if error:
            self.errors.append(error)

    def _loop(self, step, deadline: float, minimum: int) -> None:
        """Run ``step`` at least ``minimum`` times, then while the next would end by ``deadline``."""
        took: list[float] = []
        while True:
            begun = time.perf_counter()
            expected_end = begun + (statistics.median(took) if took else 0.0)
            if len(took) >= minimum and expected_end > deadline:
                return
            if took and expected_end - self.started > HARD_BUDGET_S:
                return
            step()
            took.append(time.perf_counter() - begun)

    def untraced(self, deadline: float, minimum: int) -> None:
        def step():
            sample = run_child([sys.executable, "-m", "clustereval", *self.args])
            self.samples.append(sample)
            self._record(sample.exit, sample.stdout)
            self.setup += measure_setup(SETUP_PER_COMMAND)

        self._loop(step, deadline, minimum)

    def traced(self, deadline: float) -> None:
        def step():
            sample = run_child([sys.executable, str(HERE / "traced.py"), *self.args])
            try:
                result = json.loads(sample.stdout)
                exit_code, stdout = result["exit"], result["stdout"].encode()
            except (ValueError, KeyError, TypeError, AttributeError):
                self.attempted += 1
                self.errors.append(f"traced run printed no trace (exit {sample.exit})")
                return
            self._record(exit_code, stdout)
            self.traces.append(result)

        self._loop(step, deadline, 1)


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(trace: dict, counts: dict) -> dict:
    """Per-layer values of one traced command; None where the layer was not reached."""
    spans = trace["spans"]
    main_index = next(i for i, s in enumerate(spans) if s["name"] == "cli.main")
    main_s = _duration(spans[main_index])
    reached = {s["name"] for s in spans}

    def busy(name):
        return sum(_duration(s) for s in spans if s["name"] == name) if name in reached else None

    def rss_mb(name):
        return max(s["rss_kb"] for s in spans if s["name"] == name) / 1024 if name in reached else None

    def count(name, key):
        return counts[key] if name in reached else None

    parse_s = busy("io_formats.parse")
    input_bytes = count("io_formats.parse", "io_formats.input_bytes")
    return {
        "cli.main_s": main_s,
        "cli.self_s": main_s - sum(_duration(s) for s in spans if s["parent"] == main_index),
        "io_formats.parse_s": parse_s,
        "io_formats.input_bytes": input_bytes,
        "io_formats.parse_mb_per_s": input_bytes / 1e6 / parse_s if parse_s else None,
        "io_formats.render_s": busy("io_formats.render"),
        "model.validate_s": busy("model.validate"),
        "model.interned": count("model.validate", "model.interned"),
        "single_pass.evaluate_s": busy("single_pass.evaluate"),
        "single_pass.cells": count("single_pass.evaluate", "single_pass.cells"),
        "oracle.evaluate_s": busy("oracle.evaluate"),
        "oracle.pairs_enumerated": count("oracle.evaluate", "oracle.pairs_enumerated"),
        "io_formats.parse.rss_mb": rss_mb("io_formats.parse"),
        "model.validate.rss_mb": rss_mb("model.validate"),
        "single_pass.evaluate.rss_mb": rss_mb("single_pass.evaluate"),
    }


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() or None


def bench(workload: gen.Workload, seed: int, seconds: float, trace: bool):
    """Measure one workload; returns the end-to-end or per-layer values and the run record."""
    measure_setup(1)  # fails fast where the program is missing, and fills the bytecode cache
    inputs = make_inputs(workload, seed)
    run = Run(workload, inputs, measure_setup(SETUP_FIRST))
    start = time.perf_counter()
    if trace:
        run.untraced(start + seconds / 2, 1)
        run.traced(start + seconds)
    else:
        run.untraced(start + seconds, MIN_SAMPLES)

    walls = [s.wall_s for s in run.samples]
    wall_s = statistics.median(walls)
    setup_s = statistics.median(run.setup)
    values = {
        "wall_s": wall_s,
        "instances_per_s": workload.n_instances / wall_s,
        "peak_rss_mb": statistics.median(s.rss_mb for s in run.samples),
        "setup_s": setup_s,
        "fail_ratio": len(run.errors) / run.attempted,
    }
    absent = []
    if trace and run.traces:
        # One whole traced command, the one with the median cli.main_s, so its
        # child spans and cli.self_s add up to its cli.main_s exactly.
        layers = sorted((layer_metrics(t, inputs.counts) for t in run.traces), key=lambda m: m["cli.main_s"])
        values.update(layers[(len(layers) - 1) // 2])
        absent = [name for name, value in values.items() if value is None]
        values["trace.overhead_s"] = values["cli.main_s"] - (wall_s - setup_s)

    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "n_instances": workload.n_instances,
        "inputs": inputs.files,
        "counts": inputs.counts,
        "samples": {"wall_s": walls, "peak_rss_mb": [s.rss_mb for s in run.samples], "setup_s": run.setup},
        "attempted": run.attempted,
        "failed": len(run.errors),
        "errors": run.errors[:10],
        "absent": absent,
        "unwrapped": sorted({name for t in run.traces for name in t.get("unwrapped", [])}),
        "values": values,
    }
    return values, record


def metric_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = metric_spec()
    WORK.mkdir(exist_ok=True)
    try:
        if args.workload == "all":
            extra = [{"name": "fail_ratio", "unit": "ratio"}]
            for workload in gen.WORKLOADS.values():
                values, _ = bench(workload, args.seed, args.seconds, False)
                for metric in spec["end_to_end"] + extra:
                    name = metric["name"]
                    print(f"{workload.name:<14} {name:<16} {values[name]:>14.6g} {metric['unit']}")
            return 0
        values, record = bench(gen.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1

    section = "per_layer" if args.trace else "end_to_end"
    # An absent layer reports 0; the record names it.
    metrics = {m["name"]: {"value": values.get(m["name"]) or 0, "unit": m["unit"]} for m in spec[section]}
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    results_dir = WORK / "results"
    results_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps({"record": record, "result": result}, indent=1) + "\n")
    for error in record["errors"]:
        sys.stderr.write(f"perfbench: {args.workload}: {error}\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
