"""File formats and report serialization."""

import json
import os
import tempfile
from dataclasses import fields

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from clustereval import single_pass
from clustereval.errors import ClusterEvalError, DuplicateInstance, ParseError
from clustereval.io_formats import (
    FORMAT_AUTO,
    FORMAT_CLUSTER_LINES,
    FORMAT_MEMBERSHIP_PAIRS,
    MEASURE_ORDER,
    build_report_document,
    parse_clustering,
    render_report_document,
    sniff_format,
    write_clustering,
    write_report,
)
from clustereval.model import Clustering, FullReport, validate

from helpers import GOLDEN_PRED_TEXT, GOLDEN_TRUTH_TEXT, clusters_from_labels, golden_pair, pair_from_labels


class TestParseClusterLines:
    def test_golden_truth(self):
        clustering = parse_clustering(GOLDEN_TRUTH_TEXT)
        assert clustering.partition() == Clustering.from_clusters(
            [("1", "2", "3"), ("4", "5"), ("6", "7", "8")]
        ).partition()

    def test_duplicate_reports_both_lines(self):
        with pytest.raises(DuplicateInstance) as err:
            parse_clustering("1 2\n2 3\n")
        assert err.value.instance == "2"
        assert (err.value.first_line, err.value.second_line) == (1, 2)

    def test_comments_blanks_and_crlf(self):
        text = "# heading\r\n\r\n1 2 3\r\n  # indented comment\n4 5\n\n6 7 8\r\n"
        clustering = parse_clustering(text)
        assert clustering.n_instances == 8
        assert len(clustering.clusters) == 3

    def test_multiple_spaces_do_not_drop_tokens(self):
        clustering = parse_clustering("a   b\tc\n", format=FORMAT_CLUSTER_LINES)
        assert clustering.clusters == (("a", "b", "c"),)

    def test_punctuation_ids(self):
        clustering = parse_clustering("kim:j/2003 lee.s-1\n")
        assert clustering.clusters == (("kim:j/2003", "lee.s-1"),)


class TestParseMembershipPairs:
    def test_two_row_grouping(self):
        clustering = parse_clustering("a\tX\nb\tX\n")
        assert clustering.clusters == (("a", "b"),)

    def test_groups_follow_first_appearance(self):
        clustering = parse_clustering("a\tX\nb\tY\nc\tX\n")
        assert clustering.clusters == (("a", "c"), ("b",))

    def test_duplicate_instance_across_labels(self):
        with pytest.raises(DuplicateInstance):
            parse_clustering("a\tX\na\tY\n")

    def test_duplicate_instance_same_label(self):
        with pytest.raises(DuplicateInstance):
            parse_clustering("a\tX\na\tX\n")

    def test_wrong_field_count(self):
        with pytest.raises(ParseError) as err:
            parse_clustering("a\tX\tY\n", format=FORMAT_MEMBERSHIP_PAIRS)
        assert err.value.line == 1
        with pytest.raises(ParseError, match="found 3 tab-separated fields") as err:
            parse_clustering("a\tX\tY\r\n", format=FORMAT_MEMBERSHIP_PAIRS)
        assert err.value.line == 1

    def test_empty_fields(self):
        with pytest.raises(ParseError):
            parse_clustering("\tX\n", format=FORMAT_MEMBERSHIP_PAIRS)
        with pytest.raises(ParseError):
            parse_clustering("a\t \n", format=FORMAT_MEMBERSHIP_PAIRS)
        # A CRLF line's CR is neither a field nor part of one.
        for text, column in (("\tX\r\n", 1), ("a\t \r\n", 3)):
            with pytest.raises(ParseError) as err:
                parse_clustering(text, format=FORMAT_MEMBERSHIP_PAIRS)
            assert (err.value.line, err.value.column) == (1, column)


class TestFormatDetection:
    def test_tab_on_first_data_line_means_pairs(self):
        clustering = parse_clustering("# comment\na\tX\n")
        assert clustering.clusters == (("a",),)

    def test_no_tab_means_cluster_lines(self):
        clustering = parse_clustering("a b\n")
        assert clustering.clusters == (("a", "b"),)

    def test_explicit_format_overrides_detection(self):
        clustering = parse_clustering("a\tX\n", format=FORMAT_CLUSTER_LINES)
        assert clustering.clusters == (("a", "X"),)

    def test_pairs_format_on_tabless_line_fails(self):
        with pytest.raises(ParseError):
            parse_clustering("a b\n", format=FORMAT_MEMBERSHIP_PAIRS)

    def test_invalid_utf8(self):
        with pytest.raises(ParseError):
            parse_clustering(b"\xff\xfe broken")

    def test_utf8_bom_is_stripped(self):
        clustering = parse_clustering(b"\xef\xbb\xbf1 2\n")
        assert clustering.clusters == (("1", "2"),)

    LINES = ["", " ", "\t", "\u3000", "# c", " # c\ta", "# c\ra\tX", "a", "b c", "a\tX", "\tx", "a\r"]

    @given(st.booleans(), st.lists(st.sampled_from(LINES), max_size=5), st.sampled_from(["\n", "\r\n"]), st.booleans())
    @example(True, ["", "a\tX"], "\n", False)  # a BOM before a blank line
    @example(False, ["# c\ra\tX", "b c"], "\r\n", False)  # a lone CR ends no line
    def test_sniffed_format_is_the_parsers_choice(self, bom, lines, newline, invalid):
        # The sniff reads only up to the first data line; the parser decodes the whole text.
        data = b"\xef\xbb\xbf" * bom + newline.join(lines).encode() + b"\xff" * invalid
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "clustering.txt")
            with open(path, "wb") as handle:
                handle.write(data)
            sniffed = sniff_format(path)

        def outcome(format):
            try:
                return parse_clustering(data, format=format)
            except ClusterEvalError as exc:
                return type(exc), str(exc)

        assert outcome(sniffed or FORMAT_AUTO) == outcome(FORMAT_AUTO)


def reference_parse(data: bytes, format: str) -> tuple[tuple, tuple]:
    """The line-by-line reading the one-pass parser replaced, as ``(ids, sizes)``.

    It keeps a list of numbered data lines, reads each with its format's
    rule, checks every membership-pairs row before looking for repeats, and
    then names the first repeat in file order.
    """
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not valid UTF-8: {exc}") from None
    lines = [(n, line) for n, line in enumerate(text.split("\n"), 1) if (head := line.lstrip()) and head[0] != "#"]
    if format == FORMAT_AUTO:
        format = FORMAT_MEMBERSHIP_PAIRS if lines and "\t" in lines[0][1] else FORMAT_CLUSTER_LINES
    rows = []  # (line number, instance ids on it)
    if format == FORMAT_CLUSTER_LINES:
        rows = [(n, line.split()) for n, line in lines]
        clusters = [ids for _, ids in rows]
    else:
        groups: dict[str, list[str]] = {}
        for n, line in lines:
            fields = line.split("\t")
            if len(fields) != 2:
                raise ParseError(f"expected 'instance<TAB>label', found {len(fields)} tab-separated fields", line=n)
            instance, label = fields[0].strip(), fields[1].strip()
            if not instance:
                raise ParseError("empty instance id", line=n, column=1)
            if not label:
                raise ParseError("empty cluster label", line=n, column=len(fields[0]) + 2)
            groups.setdefault(label, []).append(instance)
            rows.append((n, [instance]))
        clusters = list(groups.values())
    first_seen: dict[str, int] = {}
    for n, ids in rows:
        for instance in ids:
            if instance in first_seen:
                raise DuplicateInstance(instance, first_seen[instance], n)
            first_seen[instance] = n
    return tuple(x for c in clusters for x in c), tuple(map(len, clusters))


class TestOnePassParser:
    # Ids, both field separators, both line ends, comments, Unicode whitespace that
    # splits words but not lines (NEL, U+001C), a BOM anywhere and blank lines.
    PIECES = ["a", "b", "c1", "\t", " ", "\r", "\n", "#", "\x85", "\x1c", "\ufeff", "\n\n"]

    @given(
        st.lists(st.sampled_from(PIECES), max_size=40).map("".join),
        st.sampled_from([FORMAT_AUTO, FORMAT_CLUSTER_LINES, FORMAT_MEMBERSHIP_PAIRS]),
    )
    @example("\ufeff# ids\r\n\r\na\tX\r\nb \t X\r\n\n", FORMAT_AUTO)
    @example("a\x85b\tc1\n\x1c#\n  # b\nc1\r\n", FORMAT_AUTO)
    @example("a\tX\nb\tX\na\tY\nc1\t\t\n", FORMAT_MEMBERSHIP_PAIRS)
    @example("a b\n\nb\n", FORMAT_CLUSTER_LINES)
    @example(" a \t \r\n", FORMAT_MEMBERSHIP_PAIRS)  # the column counts the padding around the id
    def test_matches_the_line_by_line_reference(self, text, format):
        data = text.encode()

        def outcome(parse):
            try:
                return parse()
            except ClusterEvalError as exc:
                return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)

        parsed = outcome(lambda: parse_clustering(data, format=format))
        if isinstance(parsed, Clustering):
            parsed = parsed.ids, parsed.sizes
        assert parsed == outcome(lambda: reference_parse(data, format))

    @pytest.mark.parametrize("format", [FORMAT_CLUSTER_LINES, FORMAT_MEMBERSHIP_PAIRS])
    def test_evaluating_a_parsed_pair_builds_no_cluster_tuples(self, format):
        original = golden_pair()
        truth, predicted = (
            parse_clustering(write_clustering(c, format=format), format=format, role=c.role)
            for c in (original.truth, original.predicted)
        )
        single_pass.evaluate_all(validate(truth, predicted))
        assert "clusters" not in truth.__dict__
        assert "clusters" not in predicted.__dict__


class TestClusteringRoundTrip:
    @pytest.mark.parametrize("format", [FORMAT_CLUSTER_LINES, FORMAT_MEMBERSHIP_PAIRS])
    def test_round_trip_preserves_partition(self, format):
        original = parse_clustering(GOLDEN_PRED_TEXT)
        text = write_clustering(original, format=format)
        reparsed = parse_clustering(text, format=format)
        assert reparsed.partition() == original.partition()

    @pytest.mark.parametrize("format", [FORMAT_CLUSTER_LINES, FORMAT_MEMBERSHIP_PAIRS])
    @given(data=st.data())
    def test_parser_builds_what_the_checked_constructor_builds(self, format, data):
        ids = data.draw(st.lists(st.text("abc019:/.-_", min_size=1, max_size=5), min_size=1, max_size=30, unique=True))
        labels = data.draw(st.lists(st.integers(0, 6), min_size=len(ids), max_size=len(ids)))
        original = Clustering.from_clusters(
            [tuple(ids[i] for i in c) for c in clusters_from_labels(labels)], role="predicted"
        )
        parsed = parse_clustering(write_clustering(original, format=format), format=format, role="predicted")
        assert parsed == original

    def test_unwritable_ids_rejected(self):
        for format, clusters in [
            (FORMAT_CLUSTER_LINES, [("a b",)]),
            (FORMAT_CLUSTER_LINES, [("#a", "b"), ("c",)]),  # would read back as a comment line
            (FORMAT_MEMBERSHIP_PAIRS, [("a\tb",)]),
            (FORMAT_MEMBERSHIP_PAIRS, [("#a",), ("b",)]),
            (FORMAT_MEMBERSHIP_PAIRS, [(" a",)]),  # would read back as "a"
            (FORMAT_MEMBERSHIP_PAIRS, [("a ",)]),
        ]:
            with pytest.raises(ValueError):
                write_clustering(Clustering.from_clusters(clusters), format=format)

    @pytest.mark.parametrize(
        "format, clusters",
        [
            (FORMAT_CLUSTER_LINES, [("a", "#b"), ("c",)]),  # only a line's first token can open a comment
            (FORMAT_MEMBERSHIP_PAIRS, [("a#",), ("b c",)]),
        ],
    )
    def test_ids_that_read_back_are_written(self, format, clusters):
        original = Clustering.from_clusters(clusters)
        assert parse_clustering(write_clustering(original, format=format), format=format) == original


class TestDuplicateError:
    @pytest.mark.parametrize("format", [FORMAT_CLUSTER_LINES, FORMAT_MEMBERSHIP_PAIRS])
    @given(data=st.data())
    def test_names_the_first_repeat_in_file_order(self, format, data):
        pool = data.draw(st.lists(st.text("abc019", min_size=1, max_size=3), min_size=1, max_size=12, unique=True))
        if format == FORMAT_CLUSTER_LINES:
            row = st.lists(st.sampled_from(pool), min_size=1, max_size=4)
            rows = data.draw(st.lists(row, min_size=1, max_size=10))
        else:
            rows = [[token] for token in data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=15))]
        if data.draw(st.booleans()):  # inject a repeat; in cluster lines possibly on the same line
            token = data.draw(st.sampled_from([t for row in rows for t in row]))
            if format == FORMAT_CLUSTER_LINES:
                row = data.draw(st.sampled_from(rows))
                row.insert(data.draw(st.integers(0, len(row))), token)
            else:
                rows.insert(data.draw(st.integers(0, len(rows))), [token])

        lines, expected, first_seen = [], None, {}
        for row in rows:
            for filler in data.draw(st.lists(st.sampled_from(["", "  ", "# note", " # a b"]), max_size=2)):
                lines.append(filler)
            if format == FORMAT_CLUSTER_LINES:
                lines.append(data.draw(st.sampled_from([" ", "  ", "\t"])).join(row))
            else:
                lines.append(f"{row[0]}\t{data.draw(st.sampled_from(['X', 'Y', ' Z ']))}")
            for token in row:
                if expected is None and token in first_seen:
                    expected = (token, first_seen[token], len(lines))
                first_seen.setdefault(token, len(lines))
        text = "".join(line + data.draw(st.sampled_from(["\n", "\r\n"])) for line in lines)

        if expected is None:
            assert parse_clustering(text, format=format).n_instances == len(first_seen)
        else:
            with pytest.raises(DuplicateInstance) as err:
                parse_clustering(text, format=format)
            assert (err.value.instance, err.value.first_line, err.value.second_line) == expected

    def test_repeat_on_the_same_line(self):
        with pytest.raises(DuplicateInstance) as err:
            parse_clustering("# ids\r\n1 2\r\n\r\n3 4 3 2\r\n", format=FORMAT_CLUSTER_LINES)
        assert (err.value.instance, err.value.first_line, err.value.second_line) == ("3", 4, 4)


class TestReportDocument:
    def test_round_trip_is_byte_identical(self):
        report = single_pass.evaluate_all(golden_pair())
        rendered = write_report(report, style="machine", timing_seconds=0.00123)
        reparsed = json.loads(rendered)
        assert render_report_document(reparsed) == rendered
        assert rendered.encode("utf-8") == render_report_document(reparsed).encode("utf-8")

    def test_fixed_point_rendering(self):
        report = single_pass.evaluate_all(golden_pair())
        rendered = write_report(report, style="machine")
        assert "0.333333333333" in rendered
        assert "0.538461538462" in rendered
        assert "e-" not in rendered and "E-" not in rendered

    def test_required_fields(self):
        report = single_pass.evaluate_all(golden_pair())
        doc = build_report_document(report, engine="single_pass")
        assert doc["schema_version"] == 1
        assert doc["engine"] == "single_pass"
        assert set(doc["measures"]) == {"cluster_f", "k_metric", "se_le", "pairwise", "b_cubed"}
        for name, fields in doc["measures"].items():
            assert {"recall", "precision", "combined"} <= set(fields)
        assert {"se", "le"} <= set(doc["measures"]["se_le"])
        assert set(doc["stats"]) == {
            "n_truth_clusters",
            "n_predicted_clusters",
            "n_instances",
            "pair_tr_sum",
            "pair_pr_sum",
            "pair_int_sum",
        }

    def test_measure_order_is_the_report_field_order(self):
        report = single_pass.evaluate_all(golden_pair())
        doc = build_report_document(report)
        assert tuple(doc["measures"]) == MEASURE_ORDER == tuple(f.name for f in fields(FullReport))[:5]

    def test_stats_are_integers_after_round_trip(self):
        report = single_pass.evaluate_all(golden_pair())
        doc = json.loads(write_report(report, style="machine"))
        assert all(isinstance(v, int) for v in doc["stats"].values())


class TestTableStyle:
    def test_golden_rows(self):
        report = single_pass.evaluate_all(golden_pair())
        table = write_report(report, style="table")
        for fragment in ("0.3333", "0.5000", "0.4000", "0.8367", "0.6154", "0.7619", "0.5385", "0.7000", "0.8235"):
            assert fragment in table
        assert table.index("Cluster-F") < table.index("K-metric") < table.index("SE&LE")
        assert table.index("SE&LE") < table.index("Pairwise-F") < table.index("B-cubed")

    def test_perfect_prediction_rows(self):
        report = single_pass.evaluate_all(pair_from_labels([0, 0, 1], [0, 0, 1]))
        table = write_report(report, style="table")
        assert table.count("1.0000") >= 15

    def test_flags_are_listed(self):
        labels = list(range(5))
        report = single_pass.evaluate_all(pair_from_labels(labels, labels))
        table = write_report(report, style="table")
        assert "degenerate_pairwise_recall" in table
