"""CLI subcommands, exit codes, and output schema stability."""

import argparse
import builtins
import collections
import contextlib
import dataclasses
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustereval import cli, io_formats, oracle, single_pass
from clustereval.cli import FLAG_AUTO_CLUSTERS_WITH_TABS, FLAG_AUTO_PAIRS_SINGLETONS, main
from clustereval.errors import ClusterEvalError, EmptyClustering
from clustereval.io_formats import MEASURE_ORDER
from clustereval.synth import SynthConfig, generate

from helpers import GOLDEN_PRED_TEXT, GOLDEN_TRUTH_TEXT, file_pairs


@pytest.fixture
def golden_files(tmp_path):
    truth = tmp_path / "truth.txt"
    pred = tmp_path / "pred.txt"
    truth.write_text(GOLDEN_TRUTH_TEXT)
    pred.write_text(GOLDEN_PRED_TEXT)
    return str(truth), str(pred)


PROJECTION_INPUTS = {
    "golden": (GOLDEN_TRUTH_TEXT, GOLDEN_PRED_TEXT),
    # every cluster on both sides a singleton: the full report has both degenerate pairwise flags
    "singletons_one": ("1\n", "1\n"),
    "singletons_reordered": ("a\nb\nc\n", "c\nb\na\n"),
    "singletons_pairs_format": ("x\t1\ny\t2\n", "y\tq\nx\tr\n"),
}


@pytest.fixture(params=list(PROJECTION_INPUTS))
def projection_files(request, tmp_path):
    truth_text, pred_text = PROJECTION_INPUTS[request.param]
    truth = tmp_path / "truth.txt"
    pred = tmp_path / "pred.txt"
    truth.write_text(truth_text)
    pred.write_text(pred_text)
    return str(truth), str(pred)


# The golden pair's machine report without its `timing` key, byte for byte.
GOLDEN_MACHINE = """{
  "schema_version": 1,
  "engine": "single_pass",
  "package_version": "0.1.0",
  "measures": {
    "cluster_f": {
      "recall": 0.3333333333333333,
      "precision": 0.5,
      "combined": 0.4
    },
    "k_metric": {
      "recall": 1.0,
      "precision": 0.7,
      "combined": 0.8366600265340756
    },
    "se_le": {
      "se": 0.0,
      "le": 0.38461538461538464,
      "recall": 1.0,
      "precision": 0.6153846153846154,
      "combined": 0.7619047619047619
    },
    "pairwise": {
      "recall": 1.0,
      "precision": 0.5384615384615384,
      "combined": 0.7
    },
    "b_cubed": {
      "recall": 1.0,
      "precision": 0.7,
      "combined": 0.8235294117647058
    }
  },
  "stats": {
    "n_truth_clusters": 3,
    "n_predicted_clusters": 2,
    "n_instances": 8,
    "pair_tr_sum": 7,
    "pair_pr_sum": 13,
    "pair_int_sum": 7
  },
  "flags": []
}
"""

GOLDEN_MACHINE_SE_LE = """{
  "schema_version": 1,
  "engine": "single_pass",
  "package_version": "0.1.0",
  "measures": {
    "se_le": {
      "se": 0.0,
      "le": 0.38461538461538464,
      "recall": 1.0,
      "precision": 0.6153846153846154,
      "combined": 0.7619047619047619
    }
  },
  "stats": {
    "n_truth_clusters": 3,
    "n_predicted_clusters": 2,
    "n_instances": 8,
    "pair_tr_sum": 7,
    "pair_pr_sum": 13,
    "pair_int_sum": 7
  },
  "flags": []
}
"""


def without_timing(out: str) -> str:
    """A machine report with its last key, `timing`, cut off; the cut part must be just that key."""
    body, timing = out.split(',\n  "timing": ', 1)
    number = r"-?(0|[1-9]\d*)(\.\d+)?([eE][-+]?\d+)?"
    assert re.fullmatch(r'\{\n    "seconds": ' + number + r',\n    "peak_rss_bytes": [1-9]\d*\n  \}\n\}\n', timing), timing
    return body + "\n}\n"


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


# Every command that reads a truth and a predicted file, by the name its tests take.
FILE_COMMANDS = {
    "evaluate": ("evaluate",),
    "oracle": ("evaluate", "--engine", "oracle"),
    "check": ("check",),
    "bench": ("bench", "--repeats", "1"),
}


def count_opens(monkeypatch, refuse_again=False):
    """A counter of the paths ``open`` is given from now on; with ``refuse_again``, a path's second open fails."""
    opened = collections.Counter()
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened[file] += 1
        if refuse_again and opened[file] > 1:
            raise PermissionError(13, "Permission denied", file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    return opened


class TestEvaluate:
    def test_golden_machine_output(self, capsys, golden_files):
        truth, pred = golden_files
        status, out, _ = run_cli(capsys, "evaluate", "--truth", truth, "--pred", pred)
        assert status == 0
        doc = json.loads(out)
        measures = doc["measures"]
        assert measures["cluster_f"]["combined"] == float(Fraction(2, 5))
        assert measures["k_metric"]["combined"] == pytest.approx(0.8367, abs=1e-4)
        assert measures["se_le"]["le"] == float(Fraction(5, 13))
        assert measures["pairwise"]["precision"] == float(Fraction(7, 13))
        assert measures["b_cubed"]["combined"] == pytest.approx(0.8235, abs=1e-4)
        assert doc["stats"]["n_instances"] == 8

    @pytest.mark.parametrize(
        "options, expected",
        [
            ((), GOLDEN_MACHINE),
            (("--measure", "se_le"), GOLDEN_MACHINE_SE_LE),
            (("--engine", "oracle"), GOLDEN_MACHINE.replace('"engine": "single_pass"', '"engine": "oracle"')),
        ],
        ids=["full", "se_le", "oracle"],
    )
    def test_golden_machine_bytes(self, capsys, golden_files, options, expected):
        truth, pred = golden_files
        status, out, err = run_cli(capsys, "evaluate", "--truth", truth, "--pred", pred, *options)
        assert (status, err) == (0, "")
        assert without_timing(out) == expected

    def test_golden_table_output(self, capsys, golden_files):
        truth, pred = golden_files
        status, out, _ = run_cli(capsys, "evaluate", "--truth", truth, "--pred", pred, "--output", "table")
        assert status == 0
        assert out == (
            "Measure        Recall  Precision        F\n"
            "Cluster-F      0.3333     0.5000   0.4000\n"
            "K-metric       1.0000     0.7000   0.8367\n"
            "SE&LE          1.0000     0.6154   0.7619\n"
            "Pairwise-F     1.0000     0.5385   0.7000\n"
            "B-cubed        1.0000     0.7000   0.8235\n"
            "\n"
            "SE = 0.0000   LE = 0.3846\n"
            "instances: 8   truth clusters: 3   predicted clusters: 2\n"
            "pairs: truth 7, predicted 13, shared 7\n"
        )
        status, out, _ = run_cli(
            capsys, "evaluate", "--truth", truth, "--pred", pred, "--output", "table", "--measure", "se_le"
        )
        assert status == 0
        assert out == (
            "Measure        Recall  Precision        F\n"
            "SE&LE          1.0000     0.6154   0.7619\n"
            "\n"
            "SE = 0.0000   LE = 0.3846\n"
            "instances: 8   truth clusters: 3   predicted clusters: 2\n"
            "pairs: truth 7, predicted 13, shared 7\n"
        )

    def test_single_measure(self, capsys, golden_files):
        truth, pred = golden_files
        status, out, _ = run_cli(capsys, "evaluate", "--truth", truth, "--pred", pred, "--measure", "pairwise")
        assert status == 0
        doc = json.loads(out)
        assert list(doc["measures"]) == ["pairwise"]
        assert doc["measures"]["pairwise"]["recall"] == float(Fraction(7, 7))

    def test_single_measure_se_le_carries_raw_rates(self, capsys, golden_files):
        truth, pred = golden_files
        status, out, _ = run_cli(capsys, "evaluate", "--truth", truth, "--pred", pred, "--measure", "se_le")
        assert status == 0
        doc = json.loads(out)
        assert doc["measures"]["se_le"]["se"] == 0.0

    @pytest.mark.parametrize("engine", ["single_pass", "oracle"])
    def test_single_measure_is_projection_of_full_report(self, capsys, projection_files, engine):
        truth, pred = projection_files
        base = ("evaluate", "--truth", truth, "--pred", pred, "--engine", engine)
        status, out, _ = run_cli(capsys, *base)
        assert status == 0
        full = json.loads(out)
        full.pop("timing")
        status, full_table, _ = run_cli(capsys, *base, "--output", "table")
        assert status == 0
        for measure in MEASURE_ORDER:
            status, out, _ = run_cli(capsys, *base, "--measure", measure)
            assert status == 0
            doc = json.loads(out)
            doc.pop("timing")
            assert doc == {**full, "measures": {measure: full["measures"][measure]}}
            status, table, _ = run_cli(capsys, *base, "--measure", measure, "--output", "table")
            assert status == 0
            assert set(table.splitlines()) <= set(full_table.splitlines())
            assert all(f"flag: {flag}" in table for flag in full["flags"])

    def test_oracle_engine(self, capsys, golden_files):
        truth, pred = golden_files
        status, out, _ = run_cli(capsys, "evaluate", "--truth", truth, "--pred", pred, "--engine", "oracle")
        assert status == 0
        doc = json.loads(out)
        assert doc["engine"] == "oracle"
        assert doc["measures"]["pairwise"]["precision"] == float(Fraction(7, 13))

    def test_perfect_prediction(self, capsys, tmp_path, golden_files):
        truth, _ = golden_files
        status, out, _ = run_cli(capsys, "evaluate", "--truth", truth, "--pred", truth)
        assert status == 0
        doc = json.loads(out)
        for fields in doc["measures"].values():
            assert fields["combined"] == 1.0

    def test_missing_instance_exits_3_and_names_it(self, capsys, tmp_path):
        truth = tmp_path / "t.txt"
        pred = tmp_path / "p.txt"
        truth.write_text("1 2 9\n")
        pred.write_text("1 2\n")
        status, _, err = run_cli(capsys, "evaluate", "--truth", str(truth), "--pred", str(pred))
        assert status == 3
        assert "'9'" in err

    def test_extra_instance_lenient_flagged(self, capsys, tmp_path):
        truth = tmp_path / "t.txt"
        pred = tmp_path / "p.txt"
        truth.write_text("1 2\n")
        pred.write_text("1 2\n3\n")
        status, out, _ = run_cli(
            capsys, "evaluate", "--truth", str(truth), "--pred", str(pred), "--coverage", "lenient"
        )
        assert status == 0
        doc = json.loads(out)
        assert any("extra_in_predicted" in f for f in doc["flags"])

    def test_parse_error_exits_2(self, capsys, tmp_path):
        truth = tmp_path / "t.txt"
        pred = tmp_path / "p.txt"
        truth.write_text("a\tX\tY\n")
        pred.write_text("a\n")
        status, _, err = run_cli(
            capsys, "evaluate", "--truth", str(truth), "--pred", str(pred), "--format", "pairs"
        )
        assert status == 2
        assert "line 1" in err

    @pytest.mark.parametrize("truth_text, pred_text", [("a\n", "a\tx\n"), ("a\tx\n", "a\n")])
    def test_mixed_formats_exit_2_naming_both(self, capsys, tmp_path, truth_text, pred_text):
        name = {"a\n": "clusters", "a\tx\n": "pairs"}  # each format as --format takes it
        truth = tmp_path / "t.txt"
        pred = tmp_path / "p.txt"
        truth.write_text(truth_text)
        pred.write_text(pred_text)
        for coverage in ("strict", "lenient"):
            status, out, err = run_cli(
                capsys, "evaluate", "--truth", str(truth), "--pred", str(pred), "--coverage", coverage
            )
            assert (status, out) == (2, "")
            assert err == f"error: {truth} reads as {name[truth_text]} but {pred} as {name[pred_text]}; use --format\n"

    def test_a_malformed_row_in_a_files_own_format_wins_over_a_mismatch(self, capsys, tmp_path):
        # each file is parsed in the format of its own first data line before the two formats are compared
        truth = tmp_path / "t.txt"
        pred = tmp_path / "p.txt"
        truth.write_text("a b\n")
        pred.write_text("a\tx\nb\ty\tz\n")
        status, out, err = run_cli(capsys, "evaluate", "--truth", str(truth), "--pred", str(pred))
        assert (status, out) == (2, "")
        assert err == f"error: {pred}: expected 'instance<TAB>label', found 3 tab-separated fields (line 2)\n"

    @pytest.mark.parametrize("file_format", ["auto", "clusters"])
    def test_a_directory_input_exits_2_naming_it(self, capsys, tmp_path, golden_files, file_format):
        truth, _ = golden_files
        status, out, err = run_cli(
            capsys, "evaluate", "--truth", truth, "--pred", str(tmp_path), "--format", file_format
        )
        assert (status, out) == (2, "")
        assert "Is a directory" in err and str(tmp_path) in err

    @pytest.mark.parametrize(
        "file_format, exit_code, message",
        [
            ("clusters", 3, "error: predicted instance(s) absent from truth clustering: 'x' "),
            ("pairs", 2, "error: expected 'instance<TAB>label', found 1 tab-separated fields (line 1)\n"),
        ],
    )
    def test_forced_format_reads_both_files_that_way(self, capsys, tmp_path, file_format, exit_code, message):
        truth = tmp_path / "t.txt"
        pred = tmp_path / "p.txt"
        truth.write_text("a\n")
        pred.write_text("a\tx\n")
        status, _, err = run_cli(
            capsys, "evaluate", "--truth", str(truth), "--pred", str(pred), "--format", file_format
        )
        assert status == exit_code
        if exit_code == 2:  # a parse error begins with its file's path, and the truth file's row fails first
            message = message.replace("error: ", f"error: {truth}: ", 1)
        assert err.startswith(message)

    def test_tab_separated_cluster_lines_read_as_singletons_are_flagged(self, capsys, tmp_path):
        # Two-id cluster lines separated by a TAB look like membership pairs, each id its own cluster.
        truth = tmp_path / "t.txt"
        pred = tmp_path / "p.txt"
        truth.write_text("a\tb\nc\td\n")
        pred.write_text("a\td\nc\tb\n")
        base = ("evaluate", "--truth", str(truth), "--pred", str(pred))
        flags = {}
        for file_format in ("auto", "pairs", "clusters"):
            status, out, _ = run_cli(capsys, *base, "--format", file_format)
            assert status == 0
            flags[file_format] = json.loads(out)["flags"]
        assert flags["auto"] == [*flags["pairs"], FLAG_AUTO_PAIRS_SINGLETONS]
        assert "--format clusters" in FLAG_AUTO_PAIRS_SINGLETONS
        assert FLAG_AUTO_PAIRS_SINGLETONS not in flags["pairs"] + flags["clusters"]
        status, table, _ = run_cli(capsys, *base, "--output", "table")
        assert status == 0 and f"flag: {FLAG_AUTO_PAIRS_SINGLETONS}\n" in table

    @pytest.mark.parametrize(
        "truth_text, pred_text, flagged",
        [
            ("a\x85b\tX\nc\tY\n", "a\x85b\tX\nc\tY\n", True),  # membership pairs whose first id holds a NEL
            ("a\nb c\td\n", "a b\nc d\n", True),  # a TAB after the first data line of one file
            ("a\n# b\tc\nb c\n", "a\nb c\n", False),  # a comment line's TAB does not count
            ("a b\nc\n", "a\nb c\n", False),
        ],
    )
    def test_cluster_lines_with_a_later_tab_are_flagged(self, capsys, tmp_path, truth_text, pred_text, flagged):
        truth = tmp_path / "t.txt"
        pred = tmp_path / "p.txt"
        truth.write_bytes(truth_text.encode())
        pred.write_bytes(pred_text.encode())
        base = ("--truth", str(truth), "--pred", str(pred))
        for file_format in ("auto", "clusters"):
            status, out, _ = run_cli(capsys, "evaluate", *base, "--format", file_format)
            assert status == 0
            assert (FLAG_AUTO_CLUSTERS_WITH_TABS in json.loads(out)["flags"]) == (flagged and file_format == "auto")
        status, out, _ = run_cli(capsys, "check", *base)
        assert status == 0 and (f"flag: {FLAG_AUTO_CLUSTERS_WITH_TABS}\n" in out) == flagged
        assert "--format pairs" in FLAG_AUTO_CLUSTERS_WITH_TABS

    def test_duplicate_exits_3_naming_both_lines(self, capsys, tmp_path):
        truth = tmp_path / "t.txt"
        truth.write_text("1\tA\n2\tA\n3\tB\n")  # in the predicted file's format
        pred = tmp_path / "p.txt"
        pred.write_text("1\tA\n# note\n2\tB\n1\tB\n")
        status, _, err = run_cli(capsys, "evaluate", "--truth", str(truth), "--pred", str(pred))
        assert status == 3
        assert err == f"error: {pred}: instance '1' appears in more than one cluster (lines 1 and 4)\n"

    @pytest.mark.parametrize(
        "truth_text, pred_text, lines",
        [
            ("1 2\n# note\n3 2\n", "3 1\n2\n", (1, 3)),  # a truth repeat
            ("1 2\n3\n", "3 1\n2 2\n", (2, 2)),  # a predicted repeat on one line
            ("1 2 1\n3\n", "3\n\n3 1 2\n", (1, 1)),  # repeats on both sides: truth is named first
        ],
    )
    def test_either_side_repeat_exits_3_naming_its_lines(self, capsys, tmp_path, truth_text, pred_text, lines):
        truth = tmp_path / "t.txt"
        pred = tmp_path / "p.txt"
        truth.write_text(truth_text)
        pred.write_text(pred_text)
        for coverage in ("strict", "lenient"):
            status, _, err = run_cli(
                capsys, "evaluate", "--truth", str(truth), "--pred", str(pred), "--coverage", coverage
            )
            assert status == 3
            assert err.endswith(f"appears in more than one cluster (lines {lines[0]} and {lines[1]})\n")

    @pytest.mark.parametrize("command", list(FILE_COMMANDS.values()), ids=list(FILE_COMMANDS))
    def test_a_repeat_in_a_pipe_names_its_lines(self, capsys, tmp_path, command):
        # the pipe's bytes, read once, give the lines, and the predicted repeat is not named in its place
        truth = tmp_path / "t.fifo"
        os.mkfifo(truth)
        pred = tmp_path / "p.txt"
        pred.write_text("1 2\n3 3\n")
        writer = threading.Thread(target=truth.write_text, args=("1 2\n# note\n3 1\n",), daemon=True)
        writer.start()
        status, out, err = run_cli(capsys, *command, "--truth", str(truth), "--pred", str(pred), "--format", "clusters")
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert (status, out) == (3, "")
        assert err == f"error: {truth}: instance '1' appears in more than one cluster (lines 1 and 3)\n"

    def test_a_pairs_repeat_is_the_first_in_cluster_order_from_a_file_or_a_pipe(self, capsys, tmp_path):
        # validate names the repeat, the first in the order rows are grouped by label; the held bytes give its lines.
        text = "a\tX\nb\tY\nb\tY\na\tX\n"
        regular, fifo, pred = tmp_path / "t.tsv", tmp_path / "t.fifo", tmp_path / "p.tsv"
        regular.write_text(text)
        os.mkfifo(fifo)
        pred.write_text("a\tX\nb\tX\n")
        status, _, err = run_cli(capsys, "evaluate", "--truth", str(regular), "--pred", str(pred))
        assert status == 3
        assert err == f"error: {regular}: instance 'a' appears in more than one cluster (lines 1 and 4)\n"
        writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
        writer.start()
        status, _, err = run_cli(capsys, "evaluate", "--truth", str(fifo), "--pred", str(pred))
        writer.join(timeout=10)
        assert (status, err) == (3, f"error: {fifo}: instance 'a' appears in more than one cluster (lines 1 and 4)\n")

    def test_a_predicted_repeat_behind_a_piped_truth_file_names_its_lines(self, capsys, tmp_path):
        # the repeat is named in the file that holds it, and a pipe before it does not stop that
        truth, pred = tmp_path / "t.fifo", tmp_path / "p.tsv"
        os.mkfifo(truth)
        pred.write_text("a\tX\n# note\nb\tX\nb\tY\n")
        writer = threading.Thread(target=truth.write_text, args=("a\tX\nb\tY\n",), daemon=True)
        writer.start()
        status, _, err = run_cli(capsys, "evaluate", "--truth", str(truth), "--pred", str(pred))
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert (status, err) == (3, f"error: {pred}: instance 'b' appears in more than one cluster (lines 3 and 4)\n")

    @pytest.mark.parametrize("side", ["--truth", "--pred"])
    def test_auto_format_reads_a_pipe_once(self, capsys, tmp_path, golden_files, side):
        # the format is detected on the lines the parse has read, so the pipe is opened once and read whole
        truth, pred = golden_files
        expected = run_cli(capsys, "evaluate", "--truth", truth, "--pred", pred, "--output", "table")
        files = {"--truth": truth, "--pred": pred}
        fifo = tmp_path / "in.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(Path(files[side]).read_text(),), daemon=True)
        writer.start()

        def unblock():  # a parse that opened the pipe a second time waits for another writer: an empty one
            with contextlib.suppress(OSError):
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))

        watchdog = threading.Timer(10, unblock)
        watchdog.daemon = True
        watchdog.start()
        pipe_argv = [arg for item in {**files, side: str(fifo)}.items() for arg in item]
        assert run_cli(capsys, "evaluate", *pipe_argv, "--format", "auto", "--output", "table") == expected
        watchdog.cancel()
        writer.join(timeout=10)
        assert not writer.is_alive()

    @pytest.mark.parametrize("side", ["--truth", "--pred"])
    def test_auto_format_reads_a_pipe_of_many_batches_once(self, monkeypatch, capsys, tmp_path, golden_files, side):
        monkeypatch.setattr(io_formats, "_BATCH", 1)  # a batch per line
        self.test_auto_format_reads_a_pipe_once(capsys, tmp_path, golden_files, side)

    def test_malformed_predicted_file_wins_over_a_truth_repeat(self, capsys, tmp_path):
        # both files are parsed before any id is checked
        truth = tmp_path / "t.txt"
        truth.write_text("1\tA\n1\tB\n2\tB\n")
        pred = tmp_path / "p.txt"
        pred.write_text("1\tA\n2\tB\tC\n")
        status, _, err = run_cli(capsys, "evaluate", "--truth", str(truth), "--pred", str(pred))
        assert status == 2
        assert err == f"error: {pred}: expected 'instance<TAB>label', found 3 tab-separated fields (line 2)\n"

    def test_malformed_row_after_a_duplicate_exits_2(self, capsys, tmp_path):
        # the whole file is read before the duplicate check, so the malformed row wins
        truth = tmp_path / "t.txt"
        truth.write_text("1\tA\n2\tA\n3\tB\n")  # in the predicted file's format
        pred = tmp_path / "p.txt"
        pred.write_text("1\tA\n# note\n2\tB\n1\tB\n3\tC\tD\n")
        status, _, err = run_cli(capsys, "evaluate", "--truth", str(truth), "--pred", str(pred))
        assert status == 2
        assert err == f"error: {pred}: expected 'instance<TAB>label', found 3 tab-separated fields (line 5)\n"

    def test_unreadable_file_exits_2(self, capsys, tmp_path):
        status, _, err = run_cli(
            capsys, "evaluate", "--truth", str(tmp_path / "absent.txt"), "--pred", str(tmp_path / "absent.txt")
        )
        assert status == 2
        assert "absent.txt" in err

    def test_empty_truth_exits_3(self, capsys, tmp_path, golden_files):
        _, pred = golden_files
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing here\n")
        status, _, err = run_cli(capsys, "evaluate", "--truth", str(empty), "--pred", pred)
        assert status == 3
        assert "no clusters" in err

    def test_machine_schema_stable_across_runs(self, capsys, golden_files):
        truth, pred = golden_files
        docs = []
        for _ in range(2):
            status, out, _ = run_cli(capsys, "evaluate", "--truth", truth, "--pred", pred)
            assert status == 0
            doc = json.loads(out)
            doc.pop("timing", None)
            docs.append(doc)
        assert docs[0] == docs[1]


# Membership-pairs rows enough to fill the first 1 MiB batch, so that what follows them is decoded later.
FILLER_ROWS = b"".join(b"f%06d\tF\n" % i for i in range(120_000))

# (truth bytes, predicted bytes, exit status, stderr) as the whole-column load gives them; None is a missing path.
PRECEDENCE_CASES = {
    "both_files_malformed": (
        b"a\tX\tY\n", b"b\tX\tY\n", 2,
        "error: {truth}: expected 'instance<TAB>label', found 3 tab-separated fields (line 1)\n",
    ),
    "a_truth_parse_error_and_a_predicted_repeat": (
        b"a\tX\n\tY\n", b"a\tX\na\tY\n", 2, "error: {truth}: empty instance id (line 2, column 1)\n",
    ),
    "a_predicted_parse_error_and_a_truth_repeat": (
        b"a\tX\na\tY\n", b"a\tX\nb\tX\tY\n", 2,
        "error: {pred}: expected 'instance<TAB>label', found 3 tab-separated fields (line 2)\n",
    ),
    "a_malformed_truth_file_and_a_missing_predicted_path": (
        b"a\tX\tY\n", None, 2,
        "error: {truth}: expected 'instance<TAB>label', found 3 tab-separated fields (line 1)\n",
    ),
    "a_missing_predicted_path": (b"1 2\n", None, 2, "error: [Errno 2] No such file or directory: '{pred}'\n"),
    "a_missing_truth_path_and_a_malformed_predicted_file": (
        None, b"a\tX\tY\n", 2, "error: [Errno 2] No such file or directory: '{truth}'\n",
    ),
    "an_invalid_predicted_byte_and_a_truth_repeat": (
        b"1 2\n3 1\n", b"1 2\n3 \xff\n", 2,
        "error: {pred}: input is not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 6: "
        "invalid start byte\n",
    ),
    "differing_formats_and_a_repeat": (
        b"1 2\n3 1\n", b"1\tX\n2\tX\n3\tY\n", 2,
        "error: {truth} reads as clusters but {pred} as pairs; use --format\n",
    ),
    "an_empty_truth_file": (b"", b"1 2 3\n", 3, "error: truth clustering has no clusters\n"),
    "an_empty_truth_file_and_a_predicted_repeat": (b"# none\n", b"1 2\n2\n", 3, "error: truth clustering has no clusters\n"),
    "a_missing_truth_id_and_a_predicted_repeat": (
        b"1 2\n", b"1 3\n3\n", 3, "error: {pred}: instance '3' appears in more than one cluster{lines}\n",
    ),
    # A membership-pairs truth id is popped from the table as its row is read, so these pops fail first.
    "a_missing_truth_id_then_a_three_field_row": (
        b"z\tX\nb\tY\tZ\n", b"a\tX\nb\tY\n", 2,
        "error: {truth}: expected 'instance<TAB>label', found 3 tab-separated fields (line 2)\n",
    ),
    "a_truth_repeat_then_an_invalid_byte": (
        b"a\tX\na\tY\n" + FILLER_ROWS + b"b\t\xff\n", b"a\tX\nb\tX\n", 2,
        "error: {truth}: input is not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position "
        f"{8 + len(FILLER_ROWS) + 2}: invalid start byte\n",
    ),
    "a_missing_truth_id_then_an_empty_label": (
        b"z\tX\nb\t \n", b"a\tX\nb\tX\n", 2, "error: {truth}: empty cluster label (line 2, column 3)\n",
    ),
}


class TestStreamedLoad:
    """``evaluate`` joins the two files' batches into labels, and on any failure gives the error, exit status and
    message that parsing both files whole and then validating them gives."""

    @pytest.mark.parametrize("source", ["file", "pipe"])
    @pytest.mark.parametrize("case", list(PRECEDENCE_CASES))
    def test_errors_keep_their_precedence(self, capsys, tmp_path, case, source):
        truth_data, pred_data, status, message = PRECEDENCE_CASES[case]
        paths, writers = {}, []
        for side, data in (("truth", truth_data), ("pred", pred_data)):
            paths[side] = path = tmp_path / f"{side}.{source}"
            if data is None:
                continue
            if source == "file":
                path.write_bytes(data)
                continue
            os.mkfifo(path)

            def feed(path=path, data=data):
                with contextlib.suppress(OSError):  # a load that stops before this pipe leaves it unread
                    path.write_bytes(data)

            writers.append((path, threading.Thread(target=feed, daemon=True)))
            writers[-1][1].start()
        result = run_cli(capsys, "evaluate", "--truth", str(paths["truth"]), "--pred", str(paths["pred"]))
        for path, writer in writers:
            deadline = time.monotonic() + 10
            while writer.is_alive() and time.monotonic() < deadline:
                # Let a writer that nothing read open its pipe and fail. A writer that had not reached its open
                # (the load can end before the thread runs) waits for the next reader, so open one until it ends.
                with contextlib.suppress(OSError):
                    os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))
                writer.join(timeout=0.05)
            assert not writer.is_alive()
        assert result == (status, "", message.format(**paths, lines=" (lines 1 and 2)"))

    @settings(max_examples=150, deadline=None)
    @given(files=file_pairs(), auto=st.booleans(), coverage=st.sampled_from(["strict", "lenient"]))
    def test_the_streamed_load_equals_the_whole_column_load(self, tmp_path_factory, files, auto, coverage):
        truth_data, pred_data, file_format = files
        folder = tmp_path_factory.mktemp("load")
        truth, pred = folder / "t", folder / "p"
        truth.write_bytes(truth_data)
        pred.write_bytes(pred_data)
        args = argparse.Namespace(
            truth=str(truth), pred=str(pred), format="auto" if auto else file_format, coverage=coverage
        )

        def outcome(load):
            try:
                return load(args, cli._read_inputs(args))
            except ClusterEvalError as exc:
                return type(exc), str(exc)

        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(io_formats, "_BATCH", 8)  # files of many batches
            assert outcome(cli._load_pair) == outcome(lambda args, held: cli._load_clusterings(args, held)[2:])

    @pytest.mark.parametrize(
        "truth_text, message",
        [
            ("1 2\n", "predicted instance(s) absent from truth clustering: '3' (use lenient coverage to accept them)"),
            ("# none\n", "truth clustering has no clusters"),
        ],
    )
    def test_errors_the_join_finds_at_its_end_are_not_replayed(
        self, monkeypatch, capsys, tmp_path, truth_text, message
    ):
        # once both streams are consumed cleanly, the whole-clustering load would raise the same error
        truth, pred = tmp_path / "t.txt", tmp_path / "p.txt"
        truth.write_text(truth_text)
        pred.write_text("1 2 3\n")

        def replay(args, held):
            raise AssertionError("the join's error was replayed")

        monkeypatch.setattr(cli, "_load_clusterings", replay)
        assert run_cli(capsys, "evaluate", "--truth", str(truth), "--pred", str(pred)) == (3, "", f"error: {message}\n")

    def test_ingest_keeps_no_id_column(self, monkeypatch, tmp_path):
        # 100k ids of 14 hex digits a side, in batches of 64 KiB, as a large file would be read. Loading the
        # two files as whole id columns peaks at 22.1 MB traced (CPython 3.11), the streamed join at 16.6 MB:
        # besides both files' bytes, it holds one table of the predicted ids and one batch.
        monkeypatch.setattr(io_formats, "_BATCH", 1 << 16)
        ids = [f"{x * 2654435761 % 2**56:014x}" for x in range(100_000)]
        paths = []
        for side, order in (("t", ids), ("p", random.Random(1).sample(ids, len(ids)))):
            paths.append(path := tmp_path / f"{side}.txt")
            path.write_text("".join(" ".join(order[i : i + 77]) + "\n" for i in range(0, len(order), 77)))
        args = argparse.Namespace(truth=str(paths[0]), pred=str(paths[1]), format="auto", coverage="strict")
        tracemalloc.start()
        try:
            pair, _ = cli._load_pair(args, cli._read_inputs(args))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pair.n_instances == 100_000
        assert peak < 18.5 * 2**20, f"the load peaked at {peak} traced bytes"

    def test_a_pairs_truth_file_adds_nothing_per_id_to_the_table_peak(self, monkeypatch, tmp_path):
        # A 100k-instance synth pair written as membership pairs, in batches of 64 KiB, as a large file would be
        # read. Building the predicted table alone peaks at 14.0 MB traced (CPython 3.11), and so does the whole
        # join, as truth's ids are popped row by row; grouping truth's ids before popping them peaked 3.3 MB
        # (34 bytes per id) higher. The slack is one pointer per id.
        monkeypatch.setattr(io_formats, "_BATCH", 1 << 16)
        config = SynthConfig(
            n_instances=100_000, n_truth_clusters=3000, size_skew=1.0, split_rate=0.2, merge_rate=0.2, seed=1
        )
        paths = []
        for name, side in zip("tp", generate(config)):
            paths.append(path := tmp_path / f"{name}.tsv")
            path.write_text(io_formats.write_clustering(side, io_formats.FORMAT_MEMBERSHIP_PAIRS))
        args = argparse.Namespace(truth=str(paths[0]), pred=str(paths[1]), format="auto", coverage="strict")
        held = cli._read_inputs(args)

        def peak(load):
            tracemalloc.start()
            try:
                load()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def table_alone():
            with pytest.raises(EmptyClustering):  # an empty truth file ends the join once the table is built
                cli._load_pair(args, (b"", held[1]))

        table = peak(table_alone)
        join = peak(lambda: cli._load_pair(args, held))
        assert join <= table + 8 * config.n_instances, f"the join peaked at {join} traced bytes, the table at {table}"

    def test_the_report_gives_the_peak_rss(self, capsys, golden_files):
        truth, pred = golden_files
        for engine in ("single_pass", "oracle"):
            status, out, _ = run_cli(capsys, "evaluate", "--truth", truth, "--pred", pred, "--engine", engine)
            timing = json.loads(out)["timing"]
            assert status == 0 and list(timing) == ["seconds", "peak_rss_bytes"]
            assert type(timing["peak_rss_bytes"]) is int and timing["peak_rss_bytes"] > 2**20


class TestReadOnce:
    """Every file command opens each input once, and a repeat's lines come from the bytes that read gave."""

    @pytest.mark.parametrize("command", list(FILE_COMMANDS.values()), ids=list(FILE_COMMANDS))
    @pytest.mark.parametrize("pred_text, status", [("3 1\n2\n", 0), ("3 1\n2 2\n", 3)])
    def test_each_path_is_opened_once(self, monkeypatch, capsys, tmp_path, command, pred_text, status):
        truth, pred = tmp_path / "t.txt", tmp_path / "p.txt"
        truth.write_text("1 2\n3\n")
        pred.write_text(pred_text)
        opened = count_opens(monkeypatch)
        result = run_cli(capsys, *command, "--truth", str(truth), "--pred", str(pred))
        monkeypatch.undo()
        assert result[0] == status
        assert (opened[str(truth)], opened[str(pred)]) == (1, 1)

    @pytest.mark.parametrize("command", list(FILE_COMMANDS.values()), ids=list(FILE_COMMANDS))
    def test_a_repeat_in_a_file_that_cannot_be_opened_again_names_its_lines(
        self, monkeypatch, capsys, tmp_path, command
    ):
        truth, pred = tmp_path / "t.txt", tmp_path / "p.txt"
        truth.write_text("1 2\n# note\n3 1\n")
        pred.write_text("1 2 3\n")
        count_opens(monkeypatch, refuse_again=True)
        result = run_cli(capsys, *command, "--truth", str(truth), "--pred", str(pred))
        monkeypatch.undo()
        assert result == (3, "", f"error: {truth}: instance '1' appears in more than one cluster (lines 1 and 3)\n")


class TestCheck:
    def test_golden_files_agree(self, capsys, golden_files):
        truth, pred = golden_files
        status, out, _ = run_cli(capsys, "check", "--truth", truth, "--pred", pred)
        assert status == 0
        assert out == "check: engines agree exactly\n"

    def test_randomized_trials(self, capsys):
        status, out, _ = run_cli(capsys, "check", "--trials", "25", "--max-n", "60", "--seed", "4")
        assert status == 0
        assert out == "check: 25 randomized trials agreed exactly\n"

    def test_read_flags_follow_the_verdict(self, capsys, tmp_path):
        # Tab-separated cluster lines that --format auto reads as all-singleton membership pairs.
        truth = tmp_path / "t.txt"
        pred = tmp_path / "p.txt"
        truth.write_text("a\tb\nc\td\n")
        pred.write_text("a\td\nc\tb\n")
        status, out, _ = run_cli(capsys, "check", "--truth", str(truth), "--pred", str(pred))
        assert status == 0
        assert out == f"check: engines agree exactly\nflag: {FLAG_AUTO_PAIRS_SINGLETONS}\n"
        status, out, _ = run_cli(capsys, "check", "--truth", str(truth), "--pred", str(pred), "--format", "clusters")
        assert status == 0
        assert out == "check: engines agree exactly\n"

    @pytest.mark.parametrize(
        "extra, option",
        [
            (("--truth", "nonexistent"), "--truth"),
            (("--pred", "nonexistent"), "--pred"),
            (("--coverage", "lenient"), "--coverage"),
            (("--coverage", "strict"), "--coverage"),
            (("--format", "pairs"), "--format"),
        ],
    )
    def test_trials_reject_file_options(self, capsys, extra, option):
        status, out, err = run_cli(capsys, "check", "--trials", "5", *extra)
        assert status == 2
        assert out == ""
        assert err == f"error: check --trials draws random pairs and cannot be combined with {option}\n"

    @pytest.mark.parametrize("option, value", [("--max-n", "50"), ("--seed", "3")])
    def test_file_check_rejects_trial_options(self, capsys, golden_files, option, value):
        truth, pred = golden_files
        for files in (("--truth", truth, "--pred", pred), ()):
            status, out, err = run_cli(capsys, "check", *files, option, value)
            assert (status, out) == (2, "")
            assert err == f"error: check {option} shapes randomized trials and needs --trials\n"

    def test_budget_exceeded_exits_6(self, capsys, golden_files):
        truth, pred = golden_files
        status, _, err = run_cli(capsys, "check", "--truth", truth, "--pred", pred, "--pair-budget", "3")
        assert status == 6
        assert "budget" in err

    def test_cluster_pairs_count_toward_the_budget(self, capsys, tmp_path):
        # 3,000 singletons a side have no instance pair, but 9,000,000 truth x predicted cluster pairs
        path = tmp_path / "singletons.txt"
        path.write_text("".join(f"{i}\n" for i in range(3000)))
        argv = ("check", "--truth", str(path), "--pred", str(path), "--pair-budget", "1000000")
        status, out, err = run_cli(capsys, *argv)
        assert (status, out) == (6, "")
        assert err.startswith("error: pair enumeration needs 9000000 pairs (") and "budget is 1000000;" in err

    def test_flag_disagreement_exits_5_and_names_flags(self, capsys, monkeypatch, golden_files):
        truth, pred = golden_files
        real = oracle.evaluate_all

        def with_extra_flag(truth, predicted, pair_budget=oracle.DEFAULT_PAIR_BUDGET):
            report = real(truth, predicted, pair_budget=pair_budget)
            return dataclasses.replace(report, flags=report.flags + ("spurious",))

        monkeypatch.setattr(oracle, "evaluate_all", with_extra_flag)
        status, _, err = run_cli(capsys, "check", "--truth", truth, "--pred", pred)
        assert status == 5
        assert "flags" in err and "measures." not in err

    def test_a_wrong_extra_count_exits_5(self, capsys, monkeypatch, tmp_path):
        # each engine counts the predicted-only extras its own way, so a single-pass miscount shows
        truth = tmp_path / "t.txt"
        pred = tmp_path / "p.txt"
        truth.write_text("1 2\n3\n")
        pred.write_text("1 2 3 x\n")
        args = ("check", "--truth", str(truth), "--pred", str(pred), "--coverage", "lenient")
        assert run_cli(capsys, *args)[0] == 0
        validated = cli.validate

        def miscounted(truth, predicted, mode):
            # after validation the predicted side counts one id too many, which only the single-pass count reads
            pair = validated(truth, predicted, mode)
            return dataclasses.replace(pair, n_predicted=pair.n_predicted + 1)

        monkeypatch.setattr(cli, "validate", miscounted)
        status, _, err = run_cli(capsys, *args)
        assert status == 5
        assert "flags: single_pass=['extra_in_predicted: 2 " in err
        assert "oracle=['extra_in_predicted: 1 " in err
        assert "measures." not in err and "stats" not in err

    def test_one_ulp_divergence_shows_in_the_printed_documents(self, capsys, monkeypatch, golden_files):
        truth, pred = golden_files
        real = oracle.evaluate_all

        def one_ulp_off(truth, predicted, pair_budget=oracle.DEFAULT_PAIR_BUDGET):
            report = real(truth, predicted, pair_budget=pair_budget)
            moved = dataclasses.replace(report.pairwise, precision=math.nextafter(report.pairwise.precision, 2.0))
            return dataclasses.replace(report, pairwise=moved)

        monkeypatch.setattr(oracle, "evaluate_all", one_ulp_off)
        status, out, err = run_cli(capsys, "check", "--truth", truth, "--pred", pred)
        assert status == 5
        assert "measures.pairwise.precision" in err
        # the two documents are printed back to back, the fast engine's first
        end = out.index("\n}\n") + 3
        fast, slow = out[:end].splitlines(), out[end:].splitlines()
        assert len(fast) == len(slow)
        moved = math.nextafter(7 / 13, 2.0)
        assert [(a, b) for a, b in zip(fast, slow) if a != b] == [
            ('  "engine": "single_pass",', '  "engine": "oracle",'),
            (f'      "precision": {7 / 13!r},', f'      "precision": {moved!r},'),
        ]
        assert json.loads(out[end:])["measures"]["pairwise"]["precision"] == moved

    def test_without_files_or_trials_exits_2(self, capsys, golden_files):
        truth, _ = golden_files
        for files in ((), ("--truth", truth)):
            status, out, err = run_cli(capsys, "check", *files)
            assert (status, out) == (2, "")
            assert err == "error: check needs --truth and --pred, or --trials for randomized mode\n"


class TestGen:
    def test_writes_loadable_pair(self, capsys, tmp_path):
        out_t = tmp_path / "t.txt"
        out_p = tmp_path / "p.txt"
        status, _, err = run_cli(
            capsys, "gen", "--n", "500", "--clusters", "20", "--skew", "1.0",
            "--split", "0.3", "--merge", "0.3", "--seed", "9",
            "--out-truth", str(out_t), "--out-pred", str(out_p),
        )
        assert status == 0
        status, out, _ = run_cli(capsys, "evaluate", "--truth", str(out_t), "--pred", str(out_p))
        assert status == 0
        assert json.loads(out)["stats"]["n_instances"] == 500

    def test_deterministic_bytes(self, capsys, tmp_path):
        paths = []
        for tag in ("a", "b"):
            out_t = tmp_path / f"t{tag}.txt"
            out_p = tmp_path / f"p{tag}.txt"
            status, _, _ = run_cli(
                capsys, "gen", "--n", "200", "--clusters", "10", "--split", "0.5",
                "--merge", "0.5", "--seed", "314",
                "--out-truth", str(out_t), "--out-pred", str(out_p),
            )
            assert status == 0
            paths.append((out_t.read_bytes(), out_p.read_bytes()))
        assert paths[0] == paths[1]

    def test_pairs_format_output(self, capsys, tmp_path):
        out_t = tmp_path / "t.tsv"
        out_p = tmp_path / "p.tsv"
        status, _, _ = run_cli(
            capsys, "gen", "--n", "30", "--clusters", "3", "--seed", "1",
            "--out-truth", str(out_t), "--out-pred", str(out_p), "--format", "pairs",
        )
        assert status == 0
        assert "\t" in out_t.read_text()
        status, _, _ = run_cli(capsys, "evaluate", "--truth", str(out_t), "--pred", str(out_p))
        assert status == 0

    def test_an_unwritable_output_file_exits_4(self, capsys, tmp_path):
        absent = tmp_path / "absent" / "t.txt"
        status, out, err = run_cli(
            capsys, "gen", "--n", "30", "--clusters", "3", "--seed", "1",
            "--out-truth", str(absent), "--out-pred", str(tmp_path / "p.txt"),
        )
        assert (status, out) == (4, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and str(absent) in err

    def test_infeasible_config_exits_3(self, capsys, tmp_path):
        status, _, err = run_cli(
            capsys, "gen", "--n", "3", "--clusters", "5", "--seed", "1",
            "--out-truth", str(tmp_path / "t"), "--out-pred", str(tmp_path / "p"),
        )
        assert status == 3


class TestNumericOptions:
    @pytest.mark.parametrize(
        "argv, option",
        [
            (("check", "--trials", "3", "--max-n", "0"), "--max-n"),
            (("check", "--trials", "-2"), "--trials"),
            (("bench", "--truth", "t", "--pred", "p", "--repeats", "0"), "--repeats"),
            (("check", "--truth", "t", "--pred", "p", "--pair-budget", "-1"), "--pair-budget"),
            (("check", "--trials", "1", "--max-n", "-1"), "--max-n"),
            (("bench", "--truth", "t", "--pred", "p", "--engine", "both", "--repeats", "-1"), "--repeats"),
            (("evaluate", "--truth", "t", "--pred", "p", "--pair-budget", "-5"), "--pair-budget"),
            (("check", "--trials", "1", "--pair-budget", "-1"), "--pair-budget"),
            (("bench", "--truth", "t", "--pred", "p", "--pair-budget", "-1"), "--pair-budget"),
            (("check", "--trials", "0"), "--trials"),
            (("check", "--trials", "0", "--truth", "t", "--pred", "p"), "--trials"),
        ],
    )
    def test_out_of_range_is_a_usage_error(self, capsys, argv, option):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert f"argument {option}: must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "skew, message",
        [
            pytest.param("nan", "size_skew must be finite", id="nan"),
            pytest.param("inf", "size_skew must be finite", id="inf"),
            # finite, but the cluster size weights it raises to overflow
            pytest.param("2000", "size_skew 2000.0 overflows the cluster size weights", id="2000"),
        ],
    )
    def test_non_finite_skew_exits_3(self, capsys, tmp_path, skew, message):
        status, _, err = run_cli(
            capsys, "gen", "--n", "10", "--clusters", "2", "--skew", skew,
            "--out-truth", str(tmp_path / "t"), "--out-pred", str(tmp_path / "p"),
        )
        assert status == 3
        assert message in err


class TestBench:
    @staticmethod
    def gen_pair(capsys, folder, n, clusters):
        """Bench's former in-memory pair: skew 1, split and merge 0.2, seed 20240501, here as files."""
        truth, pred = folder / f"t{n}.txt", folder / f"p{n}.txt"
        status, _, _ = run_cli(
            capsys, "gen", "--n", str(n), "--clusters", str(clusters), "--skew", "1", "--split", "0.2",
            "--merge", "0.2", "--seed", "20240501", "--out-truth", str(truth), "--out-pred", str(pred),
        )
        assert status == 0
        return "--truth", str(truth), "--pred", str(pred)

    def test_smoke(self, capsys, tmp_path):
        files = self.gen_pair(capsys, tmp_path, 2000, 26)
        status, out, _ = run_cli(capsys, "bench", *files, "--repeats", "2", "--engine", "single_pass")
        assert status == 0
        assert "all_in_one" in out and "cluster_f" not in out
        files = self.gen_pair(capsys, tmp_path, 300, 4)
        status, out, _ = run_cli(capsys, "bench", *files, "--repeats", "1", "--engine", "oracle")
        assert status == 0
        assert "all_in_one" in out and "cluster_f" in out

    def test_oracle_budget_guard(self, capsys, tmp_path, monkeypatch):
        files = self.gen_pair(capsys, tmp_path, 5000, 64)
        status, _, err = run_cli(
            capsys, "bench", *files, "--repeats", "1", "--engine", "oracle", "--pair-budget", "10"
        )
        assert status == 6
        assert err.startswith("error: pair enumeration needs ")

        # with both engines, the budget is checked before the single-pass engine is timed
        def timed(pair):
            raise AssertionError("single_pass timed before the budget check")

        monkeypatch.setattr(single_pass, "evaluate_all", timed)
        status, out, err = run_cli(
            capsys, "bench", *files, "--repeats", "1", "--engine", "both", "--pair-budget", "10"
        )
        assert status == 6 and out == ""
        assert err.startswith("error: pair enumeration needs ")

    def test_a_repeated_id_exits_3_naming_both_lines(self, capsys, tmp_path):
        truth, pred = tmp_path / "t.txt", tmp_path / "p.txt"
        truth.write_text("1 2\n# note\n3 2\n")
        pred.write_text("3 1\n2\n")
        status, out, err = run_cli(
            capsys, "bench", "--truth", str(truth), "--pred", str(pred), "--repeats", "1"
        )
        assert status == 3 and out == ""
        assert err == f"error: {truth}: instance '2' appears in more than one cluster (lines 1 and 3)\n"

    def test_tab_separated_cluster_lines_are_flagged(self, capsys, tmp_path):
        truth, pred = tmp_path / "t.txt", tmp_path / "p.txt"
        truth.write_text("a\tb\n")
        pred.write_text("a\tb\n")
        status, out, _ = run_cli(capsys, "bench", "--truth", str(truth), "--pred", str(pred), "--repeats", "1")
        assert status == 0
        rows = out.splitlines()
        assert rows[1].split()[:3] == ["1", "single_pass", "all_in_one"]
        assert rows[2:] == [f"flag: {FLAG_AUTO_PAIRS_SINGLETONS}"]  # as evaluate and check print it


# ids and every byte the readers treat specially: field and line separators, comments,
# a BOM, invalid UTF-8, and the characters str.splitlines() breaks on (NEL, \x1c)
FUZZ_TOKENS = [b"a", b"b", b"1", b"\t", b"\n", b"\r", b" ", b"#", b"\xef\xbb\xbf", b"\xff", b"\xc2\x85", b"\x1c", b"\x00"]
fuzz_files = st.lists(st.sampled_from(FUZZ_TOKENS), max_size=24).map(b"".join)


@settings(max_examples=300, deadline=None)
@given(truth_bytes=fuzz_files, pred_bytes=fuzz_files)
def test_arbitrary_bytes_give_documented_exit_codes(tmp_path_factory, truth_bytes, pred_bytes):
    """Any input pair ends in success, a parse error or a validation error, never an exception."""
    folder = tmp_path_factory.mktemp("fuzz")
    truth, pred = folder / "t.txt", folder / "p.txt"
    truth.write_bytes(truth_bytes)
    pred.write_bytes(pred_bytes)
    for command in ("evaluate", "check"):
        for file_format in ("auto", "clusters", "pairs"):
            for coverage in ("strict", "lenient"):
                argv = [command, "--truth", str(truth), "--pred", str(pred), "--format", file_format,
                        "--coverage", coverage]
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    status = main(argv)
                assert status in (0, 2, 3), (argv, truth_bytes, pred_bytes)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
class TestFailedWrite:
    """A failed write exits 4 with one error line, and nothing is printed at interpreter exit; a failed read
    still exits 2. Buffered stdout fails at the flush, unbuffered stdout at the write."""

    @staticmethod
    def run(unbuffered, argv, stdout):
        repo = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(repo / "src"), os.environ.get("PYTHONPATH")])))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        cmd = [sys.executable, "-m", "clustereval", *argv]
        return subprocess.run(cmd, stdout=stdout, stderr=subprocess.PIPE, text=True, env=env)

    @staticmethod
    def assert_one_error_line(result, status):
        assert result.returncode == status, result.stderr
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, result.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
    def test_stdout_on_a_full_device_exits_4(self, golden_files, unbuffered):
        truth, pred = golden_files
        with open("/dev/full", "w") as full:
            result = self.run(unbuffered, ["evaluate", "--truth", truth, "--pred", pred], full)
        self.assert_one_error_line(result, 4)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["evaluate", "--help"]], ids=" ".join)
    def test_help_and_version_on_a_full_device_exit_4(self, argv, unbuffered):
        with open("/dev/full", "w") as full:
            result = self.run(unbuffered, argv, full)
        self.assert_one_error_line(result, 4)

    def test_stdout_into_a_pipe_without_reader_exits_4(self, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = self.run(unbuffered, ["check", "--trials", "3"], write_end)
        finally:
            os.close(write_end)
        self.assert_one_error_line(result, 4)

    def test_a_missing_truth_file_exits_2(self, tmp_path, golden_files, unbuffered):
        _, pred = golden_files
        absent = str(tmp_path / "absent.txt")
        result = self.run(unbuffered, ["evaluate", "--truth", absent, "--pred", pred], subprocess.PIPE)
        self.assert_one_error_line(result, 2)
        assert absent in result.stderr and result.stdout == ""


def test_module_entry_point(golden_files):
    truth, pred = golden_files
    result = subprocess.run(
        [sys.executable, "-m", "clustereval", "evaluate", "--truth", truth, "--pred", pred,
         "--output", "table"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "Cluster-F" in result.stdout


def test_benchmark_traces_every_layer(golden_files):
    """The layer names the benchmark wraps still exist and are reached in order."""
    truth, pred = golden_files
    repo = Path(__file__).resolve().parents[1]
    path = [str(repo / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run(
        [sys.executable, str(repo / "perfbench" / "traced.py"), "evaluate", "--truth", truth, "--pred", pred],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    trace = json.loads(result.stdout)
    assert trace["exit"] == 0
    assert trace["unwrapped"] == []
    assert [span["name"] for span in trace["spans"]] == [
        "cli.main",
        "model.validate",
        "single_pass.evaluate",
        "io_formats.render",
    ]
