"""CLI subcommands, exit codes, and output schema stability."""

import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustereval import oracle
from clustereval.cli import FLAG_AUTO_PAIRS_SINGLETONS, main
from clustereval.io_formats import MEASURE_ORDER

from helpers import GOLDEN_PRED_TEXT, GOLDEN_TRUTH_TEXT


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
      "recall": 0.333333333333,
      "precision": 0.500000000000,
      "combined": 0.400000000000
    },
    "k_metric": {
      "recall": 1.000000000000,
      "precision": 0.700000000000,
      "combined": 0.836660026534
    },
    "se_le": {
      "se": 0.000000000000,
      "le": 0.384615384615,
      "recall": 1.000000000000,
      "precision": 0.615384615385,
      "combined": 0.761904761905
    },
    "pairwise": {
      "recall": 1.000000000000,
      "precision": 0.538461538462,
      "combined": 0.700000000000
    },
    "b_cubed": {
      "recall": 1.000000000000,
      "precision": 0.700000000000,
      "combined": 0.823529411765
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
      "se": 0.000000000000,
      "le": 0.384615384615,
      "recall": 1.000000000000,
      "precision": 0.615384615385,
      "combined": 0.761904761905
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
    assert re.fullmatch(r'\{\n    "seconds": \d+\.\d{12}\n  \}\n\}\n', timing), timing
    return body + "\n}\n"


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestEvaluate:
    def test_golden_machine_output(self, capsys, golden_files):
        truth, pred = golden_files
        status, out, _ = run_cli(capsys, "evaluate", "--truth", truth, "--pred", pred)
        assert status == 0
        doc = json.loads(out)
        measures = doc["measures"]
        assert measures["cluster_f"]["combined"] == pytest.approx(0.4, abs=1e-12)
        assert measures["k_metric"]["combined"] == pytest.approx(0.8367, abs=1e-4)
        assert measures["se_le"]["le"] == pytest.approx(5 / 13, abs=1e-12)
        assert measures["pairwise"]["precision"] == pytest.approx(7 / 13, abs=1e-12)
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
        assert doc["measures"]["pairwise"]["recall"] == pytest.approx(1.0, abs=1e-12)

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
        assert doc["measures"]["pairwise"]["precision"] == pytest.approx(7 / 13, abs=1e-12)

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
        truth = tmp_path / "t.txt"
        pred = tmp_path / "p.txt"
        truth.write_text(truth_text)
        pred.write_text(pred_text)
        for coverage in ("strict", "lenient"):
            status, out, err = run_cli(
                capsys, "evaluate", "--truth", str(truth), "--pred", str(pred), "--coverage", coverage
            )
            assert (status, out) == (2, "")
            assert "cluster_lines" in err and "membership_pairs" in err

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

    def test_duplicate_exits_3_naming_both_lines(self, capsys, tmp_path):
        truth = tmp_path / "t.txt"
        truth.write_text("1\tA\n2\tA\n3\tB\n")  # in the predicted file's format
        pred = tmp_path / "p.txt"
        pred.write_text("1\tA\n# note\n2\tB\n1\tB\n")
        status, _, err = run_cli(capsys, "evaluate", "--truth", str(truth), "--pred", str(pred))
        assert status == 3
        assert err == "error: instance '1' appears in more than one cluster (lines 1 and 4)\n"

    def test_malformed_row_after_a_duplicate_exits_2(self, capsys, tmp_path):
        # the whole file is read before the duplicate check, so the malformed row wins
        truth = tmp_path / "t.txt"
        truth.write_text("1\tA\n2\tA\n3\tB\n")  # in the predicted file's format
        pred = tmp_path / "p.txt"
        pred.write_text("1\tA\n# note\n2\tB\n1\tB\n3\tC\tD\n")
        status, _, err = run_cli(capsys, "evaluate", "--truth", str(truth), "--pred", str(pred))
        assert status == 2
        assert err == "error: expected 'instance<TAB>label', found 3 tab-separated fields (line 5)\n"

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

    def test_budget_exceeded_exits_6(self, capsys, golden_files):
        truth, pred = golden_files
        status, _, err = run_cli(capsys, "check", "--truth", truth, "--pred", pred, "--pair-budget", "3")
        assert status == 6
        assert "budget" in err

    def test_flag_disagreement_exits_5_and_names_flags(self, capsys, monkeypatch, golden_files):
        truth, pred = golden_files
        real = oracle.evaluate_all

        def with_extra_flag(pair, pair_budget=oracle.DEFAULT_PAIR_BUDGET):
            report = real(pair, pair_budget=pair_budget)
            return dataclasses.replace(report, flags=report.flags + ("spurious",))

        monkeypatch.setattr(oracle, "evaluate_all", with_extra_flag)
        status, _, err = run_cli(capsys, "check", "--truth", truth, "--pred", pred)
        assert status == 5
        assert "flags" in err and "measures." not in err

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
            (("bench", "--sizes", "100", "--repeats", "0"), "--repeats"),
            (("bench", "--sizes", "100", "--cluster-ratio", "0"), "--cluster-ratio"),
            (("bench", "--sizes", "100,abc"), "--sizes"),
            (("bench", "--sizes", ","), "--sizes"),
            (("evaluate", "--truth", "t", "--pred", "p", "--pair-budget", "-5"), "--pair-budget"),
            (("check", "--trials", "1", "--pair-budget", "-1"), "--pair-budget"),
            (("bench", "--sizes", "100", "--pair-budget", "-1"), "--pair-budget"),
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
    def test_smoke(self, capsys):
        status, out, _ = run_cli(
            capsys, "bench", "--sizes", "2000", "--repeats", "2", "--engine", "single_pass"
        )
        assert status == 0
        assert "all_in_one" in out and "cluster_f" not in out
        status, out, _ = run_cli(capsys, "bench", "--sizes", "300", "--repeats", "1", "--engine", "oracle")
        assert status == 0
        assert "all_in_one" in out and "cluster_f" in out

    def test_oracle_budget_guard(self, capsys):
        status, _, err = run_cli(
            capsys, "bench", "--sizes", "5000", "--repeats", "1", "--engine", "oracle",
            "--pair-budget", "10",
        )
        assert status == 6
        assert err.startswith("error: pair enumeration needs ")


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
        "io_formats.parse",
        "io_formats.parse",
        "model.validate",
        "single_pass.evaluate",
        "io_formats.render",
    ]
