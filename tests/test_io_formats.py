"""File formats and report serialization."""

import json
import math
import random
import tempfile
import tracemalloc
from dataclasses import asdict, fields
from fractions import Fraction

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from clustereval import io_formats, oracle, single_pass
from clustereval.errors import ClusterEvalError, DuplicateInstance, ExtraInPredicted, ParseError, ValidationError
from clustereval.io_formats import (
    FORMAT_AUTO,
    FORMAT_CLUSTER_LINES,
    FORMAT_MEMBERSHIP_PAIRS,
    MEASURE_ORDER,
    build_report_document,
    parse_chunks,
    parse_clustering,
    parse_clustering_file,
    raise_repeat,
    tab_after_first_data_line,
    write_clustering,
    write_report,
)
from clustereval.model import COVERAGE_MODES, Clustering, FullReport, validate
from clustereval.synth import SynthConfig, generate

from helpers import (
    GOLDEN_PRED_TEXT,
    GOLDEN_TRUTH_TEXT,
    clusters_from_labels,
    file_pairs,
    golden_pair,
    golden_sides,
    pair_from_labels,
    random_synth_sides_in_mode,
)

# Test ids name the two concrete formats after their constants.
FORMAT_IDS = {FORMAT_CLUSTER_LINES: "cluster_lines", FORMAT_MEMBERSHIP_PAIRS: "membership_pairs"}
BOTH_FORMATS = [pytest.param(value, id=name) for value, name in FORMAT_IDS.items()]


class TestParseClusterLines:
    def test_golden_truth(self):
        clustering = parse_clustering(GOLDEN_TRUTH_TEXT)
        assert clustering.partition() == Clustering.from_clusters(
            [("1", "2", "3"), ("4", "5"), ("6", "7", "8")]
        ).partition()

    def test_duplicate_reports_both_lines(self):
        assert parse_clustering("1 2\n2 3\n").ids == ("1", "2", "2", "3")  # validate rejects the repeat
        with pytest.raises(DuplicateInstance) as err:
            raise_repeat(b"1 2\n2 3\n", FORMAT_CLUSTER_LINES, "2")
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
        with pytest.raises(DuplicateInstance) as err:
            validate(parse_clustering("a\tX\na\tY\n"), parse_clustering("a\tX\n"))
        assert err.value.instance == "a"

    def test_duplicate_instance_same_label(self):
        with pytest.raises(DuplicateInstance) as err:
            validate(parse_clustering("a\tX\na\tX\n"), parse_clustering("a\tX\n"))
        assert err.value.instance == "a"

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
        with pytest.raises(ParseError, match="not valid UTF-8"):  # text is read as its UTF-8 bytes
            parse_clustering("a \ud800\n")

    def test_utf8_bom_is_stripped(self):
        clustering = parse_clustering(b"\xef\xbb\xbf1 2\n")
        assert clustering.clusters == (("1", "2"),)
        assert parse_clustering("\ufeff1 2\n") == clustering  # text is read as its UTF-8 bytes, as a file is

    @pytest.mark.parametrize(
        "data, clusters",
        [
            (b"\xef\xbb\xbf\na\tX", (("a",),)),  # a BOM before a blank line
            (b"# c\ra\tX\r\nb\tY", (("a",), ("b",))),  # a lone CR ends the comment, so the TAB is on a data line
        ],
    )
    def test_auto_detection_reads_the_first_data_line(self, data, clusters):
        assert parse_clustering(data).clusters == clusters

    @pytest.mark.parametrize(
        "text, format",
        [("a b\n", FORMAT_CLUSTER_LINES), ("# c\na\tX\n", FORMAT_MEMBERSHIP_PAIRS), ("# c\n\n", None)],
    )
    def test_a_file_is_parsed_with_the_format_it_was_read_in(self, tmp_path, text, format):
        path = tmp_path / "clustering.txt"
        path.write_text(text)
        assert parse_clustering_file(path) == (parse_clustering(text), format)
        assert parse_clustering_file(path, format=FORMAT_CLUSTER_LINES)[1] == FORMAT_CLUSTER_LINES


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
    lines = [(n, line) for n, line in enumerate(text.splitlines(), 1) if (head := line.lstrip()) and head[0] != "#"]
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
    # Ids, both field separators, line ends (LF, CRLF, a lone CR, and NEL and U+001C, which
    # str.splitlines() also breaks on), comments, a BOM anywhere and blank lines.
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
            except DuplicateInstance as exc:
                return DuplicateInstance, exc.instance, exc.first_line, exc.second_line
            except ClusterEvalError as exc:
                return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)

        expected = outcome(lambda: reference_parse(data, format))

        def parse_then_rescan():
            # The parse reads repeats as they are; for the id the reference names, the rescan adds the lines.
            clustering = parse_clustering(data, format=format)
            if expected[0] is DuplicateInstance:
                raise_repeat(data, io_formats._parse(data, format)[1], expected[1])
            return clustering.ids, clustering.sizes

        assert outcome(parse_then_rescan) == expected

    @pytest.mark.parametrize("batch", [1, 7])  # batches cut between almost every pair of lines
    @given(
        st.lists(st.sampled_from(PIECES), max_size=40).map("".join),
        st.sampled_from([FORMAT_AUTO, FORMAT_CLUSTER_LINES, FORMAT_MEMBERSHIP_PAIRS]),
    )
    def test_matches_the_reference_in_small_batches(self, batch, text, format):
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(io_formats, "_BATCH", batch)
            type(self).test_matches_the_line_by_line_reference.hypothesis.inner_test(self, text, format)

    @pytest.mark.parametrize("format", BOTH_FORMATS)
    def test_evaluating_a_parsed_pair_builds_no_cluster_tuples(self, format):
        truth, predicted = (
            parse_clustering(write_clustering(c, format=format), format=format) for c in golden_sides()
        )
        single_pass.evaluate_all(validate(truth, predicted))
        assert "clusters" not in truth.__dict__
        assert "clusters" not in predicted.__dict__


class TestBatchedReading:
    @pytest.mark.parametrize("format", BOTH_FORMATS)
    def test_an_invalid_byte_in_a_later_batch_gives_the_whole_file_message(self, monkeypatch, format):
        monkeypatch.setattr(io_formats, "_BATCH", 4)
        # after a BOM, which shifts the position, and a row with three fields, which must not be reported first
        data = b"\xef\xbb\xbfa\tX\nb\tY\tZ\n" + b"c\tX\n" * 5 + b"d\xff\tX\ne\tX\n"
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode("utf-8-sig")
        with pytest.raises(ParseError) as err:
            parse_clustering(data, format=format)
        assert str(err.value) == f"input is not valid UTF-8: {whole.value}"
        assert "position 31" in str(err.value)

    def test_a_bom_is_dropped_only_at_the_start_of_the_file(self, monkeypatch):
        monkeypatch.setattr(io_formats, "_BATCH", 1)
        # the second batch starts with U+FEFF, which is part of its first id
        assert parse_clustering(b"\xef\xbb\xbfa b\n\xef\xbb\xbfc d\n").clusters == (("a", "b"), ("\ufeffc", "d"))

    def test_detection_reads_past_a_batch_of_comments(self, monkeypatch, tmp_path):
        monkeypatch.setattr(io_formats, "_BATCH", 64)
        path = tmp_path / "clustering.tsv"
        path.write_bytes(b"# note\n" * 30 + b"\n" + b"a\tX\nb\tX\nc\tY\n")
        clustering, format = parse_clustering_file(path)
        assert (clustering.clusters, format) == ((("a", "b"), ("c",)), FORMAT_MEMBERSHIP_PAIRS)

    def test_no_list_of_all_the_lines_is_built(self, monkeypatch):
        # What the parse allocates and frees again is about one batch and the groups, not a str per line.
        monkeypatch.setattr(io_formats, "_BATCH", 1 << 16)
        config = SynthConfig(100_000, 3_000, size_skew=1.0, split_rate=0.2, merge_rate=0.2, seed=20240501)
        data = write_clustering(generate(config)[0], format=FORMAT_MEMBERSHIP_PAIRS).encode()
        tracemalloc.start()
        try:
            clustering = parse_clustering(data)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert clustering.n_instances == 100_000
        assert peak - held < 2 * len(data)

    def test_the_rescan_for_a_repeat_holds_about_one_batch(self, monkeypatch):
        # It compares each id with the one it looks for, and keeps no table of the ids it has read.
        monkeypatch.setattr(io_formats, "_BATCH", 1 << 16)
        data = b"".join(b"%d\tc%d\n" % (i, i % 3_000) for i in range(100_000)) + b"17\tc0\n"
        tracemalloc.start()
        try:
            with pytest.raises(DuplicateInstance) as err:
                raise_repeat(data, FORMAT_MEMBERSHIP_PAIRS, "17")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (err.value.first_line, err.value.second_line) == (18, 100_001)
        assert peak < len(data)


class TestFileSource:
    """An open binary file parses as its bytes do, read a batch at a time from where it stood when first read."""

    # Ids (one long enough for a line to span batches), both field separators, CRLF, which can straddle the
    # end of a batch's first read, a lone CR, VT, FF and U+2028 line breaks, comments, a BOM anywhere, and
    # invalid UTF-8: a stray byte and a cut sequence.
    PIECES = [b"a", b"c1", b"instance-0123456789", b"\t", b" ", b"\r\n", b"\n", b"\r", b"#", b"\x0b", b"\x0c",
              "\u2028".encode(), "\ufeff".encode(), b"\xff", b"\xc3"]

    @staticmethod
    def outcome(source, format):
        """The chunks ``source`` parses to, collected, its format and whether it is flagged; or its ParseError."""
        try:
            chunks, found = parse_chunks(source, format)
            chunks = [(list(ids), list(sizes)) for ids, sizes in chunks]
        except ParseError as exc:
            return ParseError, str(exc), exc.line, exc.column
        return chunks, found, found == FORMAT_CLUSTER_LINES and tab_after_first_data_line(source)

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.lists(st.sampled_from(PIECES), max_size=60).map(b"".join),
        format=st.sampled_from([FORMAT_AUTO, FORMAT_CLUSTER_LINES, FORMAT_MEMBERSHIP_PAIRS]),
    )
    @example(data=b"\xef\xbb\xbf" + b"a " * 30 + b"\r\n#\xe2\x80\xa8b c\x0bc\x0cb\n", format=FORMAT_AUTO)  # CR at byte 63
    @example(data=b"a b\n" * 20 + b"c\td\n", format=FORMAT_AUTO)  # a TAB in a later batch is flagged
    @example(data=b"a\tX\n" * 20 + b"b\t\xffX\n", format=FORMAT_AUTO)  # an invalid byte in a later batch
    @example(data=b"a\tX\n" * 20 + b"b\tX\tY\n" + b"c\tX\n" * 20 + b"\xc3", format=FORMAT_MEMBERSHIP_PAIRS)
    def test_a_file_parses_as_its_bytes(self, data, format):
        with pytest.MonkeyPatch.context() as monkeypatch, tempfile.TemporaryFile() as file:
            monkeypatch.setattr(io_formats, "_BATCH", 1 << 6)
            file.write(data)
            file.seek(0)
            expected = self.outcome(data, format)
            assert self.outcome(file, format) == expected
            if expected[0] is not ParseError and expected[1] == FORMAT_CLUSTER_LINES:
                io_formats._TAB_FREE.discard(file)  # what a parse noted is gone: the check reads the file again
                assert tab_after_first_data_line(file) == expected[2]

    @pytest.mark.parametrize(
        "data",
        [b"", b"a", b"abcdefghij", b"abcdefg\nh\n", b"abcdefgh\ni\n", b"a\rb\rc\rd\re\rf\rg\r", b"\n" * 20,
         b"ab\r\ncd\r\nef\r\n"],
        ids=["empty", "one_byte", "no_final_lf", "lf_at_batch_minus_1", "lf_at_batch", "cr_only", "lf_only", "crlf"],
    )
    def test_a_file_is_read_in_the_pieces_its_bytes_are_cut_in(self, monkeypatch, data):
        monkeypatch.setattr(io_formats, "_BATCH", 8)
        cut, start = [], 0  # each piece runs through the first LF at or past its _BATCH-th byte, or to the end
        while start < len(data):
            end = data.find(b"\n", start + 8) + 1 or len(data)
            cut.append(data[start:end])
            start = end
        with tempfile.TemporaryFile() as file:
            file.write(data)
            file.seek(0)
            assert list(io_formats._pieces(file)) == list(io_formats._pieces(data)) == cut

    def test_each_pass_reads_the_file_from_its_start(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"1 2\n# note\n3 1\n")
        with open(path, "rb") as file:
            assert parse_clustering_file(path)[0] == io_formats._parse(file, FORMAT_AUTO)[0]
            with pytest.raises(DuplicateInstance) as err:
                raise_repeat(file, FORMAT_CLUSTER_LINES, "1")
            assert (err.value.first_line, err.value.second_line) == (1, 3)

    def test_a_file_handed_on_part_read_is_read_from_where_it_stood(self, monkeypatch, tmp_path):
        # A descriptor whose offset a caller moved, as a shell's `read` moves a shared stdin's, is read as its
        # remaining bytes are, on every pass: the parse, the replay that places an invalid byte and a rescan.
        monkeypatch.setattr(io_formats, "_BATCH", 4)
        path = tmp_path / "t.txt"
        for rest in (b"1 2\n3 1\n4\n", b"1\t", b"1 2\n3\n\xff\n", b"1\n2\t\n"):
            path.write_bytes(b"header 1 1\t\xc3\n" + rest)
            with open(path, "rb") as file:
                file.readline()
                assert (expected := self.outcome(file, FORMAT_AUTO)) == self.outcome(rest, FORMAT_AUTO)
                if expected[0] is not ParseError:
                    io_formats._TAB_FREE.discard(file)  # what a parse noted is gone: the check reads the file again
                    assert tab_after_first_data_line(file) == tab_after_first_data_line(rest)
        path.write_bytes(b"header 1 1\n1 2\n3 1\n4\n")
        with open(path, "rb") as file:
            file.readline()
            assert io_formats._parse(file, FORMAT_AUTO)[0] == parse_clustering(b"1 2\n3 1\n4\n")
            with pytest.raises(DuplicateInstance) as err:
                raise_repeat(file, FORMAT_CLUSTER_LINES, "1")
            assert (err.value.first_line, err.value.second_line) == (1, 2)


class TestStreamedJoin:
    """``validate`` joins two files' chunks into the pair it builds from their parsed columns."""

    @settings(max_examples=300, deadline=None)
    @given(
        files=file_pairs(),
        auto=st.booleans(),
        mode=st.sampled_from(COVERAGE_MODES),
        batch=st.sampled_from([1, 2, 8, 32, 1 << 20]),
        keyed=st.booleans(),
    )
    def test_the_streamed_pair_is_the_pair_of_the_parsed_columns(self, files, auto, mode, batch, keyed):
        truth, predicted, format = files
        format = FORMAT_AUTO if auto else format
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(io_formats, "_BATCH", batch)  # 1 to 32 bytes: a file spans many batches

            def columns():
                return validate(parse_clustering(truth, format), parse_clustering(predicted, format), mode)

            def streamed():
                (truth_chunks, truth_format), (predicted_chunks, predicted_format) = (
                    parse_chunks(data, format) for data in (truth, predicted)
                )
                assert (truth_format, predicted_format) == (
                    io_formats._parse(truth, format)[1], io_formats._parse(predicted, format)[1]
                )
                if keyed:  # truth's parse pops each id as it reads it
                    return validate(lambda key: parse_chunks(truth, format, key)[0], predicted_chunks, mode)
                return validate(truth_chunks, predicted_chunks, mode)

            try:
                expected = columns()
            except (ParseError, ValidationError):
                # the streamed join fails too, maybe on another error: a caller that holds the bytes parses
                # them again, in the order that gives each error its precedence
                with pytest.raises((ParseError, ValidationError)):
                    streamed()
            else:
                assert streamed() == expected

    @pytest.mark.parametrize("format", BOTH_FORMATS)
    def test_cluster_lines_are_chunked_per_batch_and_pairs_whole(self, monkeypatch, format):
        monkeypatch.setattr(io_formats, "_BATCH", 4)
        data = write_clustering(Clustering.from_clusters([("a", "b"), ("c",), ("d", "e")]), format=format).encode()
        chunks, read_as = parse_chunks(data, FORMAT_AUTO)
        chunks = [(list(ids), sizes) for ids, sizes in chunks]
        assert read_as == format
        if format == FORMAT_CLUSTER_LINES:  # a batch runs through the first LF at or past its 4th byte
            assert chunks == [(["a", "b", "c"], [2, 1]), (["d", "e"], [2])]
        else:
            assert chunks == [(["a", "b", "c", "d", "e"], [2, 1, 2])]

    @pytest.mark.parametrize("chunked", ["truth", "predicted"])
    @pytest.mark.parametrize("mode", COVERAGE_MODES)
    def test_one_side_may_be_a_clustering_and_the_other_chunks(self, monkeypatch, chunked, mode):
        monkeypatch.setattr(io_formats, "_BATCH", 4)  # a chunked side spans two batches
        truth = Clustering.from_clusters([("a", "b"), ("c",), ("d", "e")])
        predicted = Clustering.from_clusters([("a", "c"), ("b", "d", "e", "x")])

        def mixed(truth, predicted):
            sides = {"truth": truth, "predicted": predicted}
            sides[chunked] = parse_chunks(write_clustering(sides[chunked]).encode())[0]
            return validate(sides["truth"], sides["predicted"], mode)

        if mode == "strict":  # "x" is a predicted-only extra
            with pytest.raises(ExtraInPredicted):
                mixed(truth, predicted)
        else:
            assert mixed(truth, predicted) == validate(truth, predicted, mode)
        repeat = Clustering.from_clusters([("a", "b"), ("c", "a"), ("d", "e")])
        with pytest.raises(ValidationError, match="do not line up"):
            mixed(repeat, predicted)


class TestClusteringRoundTrip:
    @pytest.mark.parametrize("format", BOTH_FORMATS)
    def test_round_trip_preserves_partition(self, format):
        original = parse_clustering(GOLDEN_PRED_TEXT)
        text = write_clustering(original, format=format)
        reparsed = parse_clustering(text, format=format)
        assert reparsed.partition() == original.partition()

    @pytest.mark.parametrize("format", BOTH_FORMATS)
    @given(data=st.data())
    def test_parser_builds_what_the_checked_constructor_builds(self, format, data):
        ids = data.draw(st.lists(st.text("abc019:/.-_", min_size=1, max_size=5), min_size=1, max_size=30, unique=True))
        labels = data.draw(st.lists(st.integers(0, 6), min_size=len(ids), max_size=len(ids)))
        original = Clustering.from_clusters([tuple(ids[i] for i in c) for c in clusters_from_labels(labels)])
        parsed = parse_clustering(write_clustering(original, format=format), format=format)
        assert parsed == original

    def test_unwritable_ids_rejected(self):
        for format, clusters in [
            (FORMAT_CLUSTER_LINES, [("a b",)]),
            (FORMAT_CLUSTER_LINES, [("#a", "b"), ("c",)]),  # would read back as a comment line
            (FORMAT_MEMBERSHIP_PAIRS, [("a\tb",)]),
            (FORMAT_MEMBERSHIP_PAIRS, [("a\x85b",)]),  # NEL ends a line, like every str.splitlines() break
            (FORMAT_MEMBERSHIP_PAIRS, [("#a",), ("b",)]),
            (FORMAT_MEMBERSHIP_PAIRS, [(" a",)]),  # would read back as "a"
            (FORMAT_MEMBERSHIP_PAIRS, [("a ",)]),
        ]:
            with pytest.raises(ValueError, match=f"in {format} format"):  # the name --format takes
                write_clustering(Clustering.from_clusters(clusters), format=format)
        # the file would start with U+FEFF, which reads back as a BOM and is dropped
        for format in (FORMAT_CLUSTER_LINES, FORMAT_MEMBERSHIP_PAIRS):
            with pytest.raises(ValueError, match="as a BOM"):
                write_clustering(Clustering.from_clusters([("\ufeffa", "b"), ("c",)]), format=format)

    @pytest.mark.parametrize(
        "format, clusters",
        [
            (FORMAT_CLUSTER_LINES, [("a", "#b"), ("c",)]),  # only a line's first token can open a comment
            (FORMAT_MEMBERSHIP_PAIRS, [("a#",), ("b c",)]),
            (FORMAT_MEMBERSHIP_PAIRS, [("a",), ("\ufeffb",)]),  # only the file's first character can be a BOM
        ],
        ids=lambda value: FORMAT_IDS.get(value) if isinstance(value, str) else None,
    )
    def test_ids_that_read_back_are_written(self, format, clusters):
        original = Clustering.from_clusters(clusters)
        assert parse_clustering(write_clustering(original, format=format), format=format) == original

    @pytest.mark.parametrize("format", BOTH_FORMATS)
    @given(data=st.data())
    def test_any_line_break_reads_as_the_lf_it_replaces(self, format, data):
        # The reader cuts lines where str.splitlines() does, so every one of its line breaks ends a line.
        ids = data.draw(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=12, unique=True))
        labels = data.draw(st.lists(st.integers(0, 4), min_size=len(ids), max_size=len(ids)))
        original = Clustering.from_clusters([tuple(ids[i] for i in c) for c in clusters_from_labels(labels)])
        try:
            text = write_clustering(original, format=format)
        except ValueError:
            reject()
        at = data.draw(st.sampled_from([i for i, ch in enumerate(text) if ch == "\n"]))
        line_break = data.draw(st.sampled_from("\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))
        text = text[:at] + line_break + text[at + 1 :]
        for read_as in (format, FORMAT_AUTO):
            assert parse_clustering(text, format=read_as).partition() == original.partition()


class TestDuplicateError:
    @pytest.mark.parametrize("format", BOTH_FORMATS)
    @given(data=st.data())
    def test_names_the_lines_of_an_ids_first_two_occurrences(self, format, data):
        pool = data.draw(st.lists(st.text("abc019", min_size=1, max_size=3), min_size=1, max_size=12, unique=True))
        if format == FORMAT_CLUSTER_LINES:
            row = st.lists(st.sampled_from(pool), min_size=1, max_size=4)
            rows = data.draw(st.lists(row, min_size=1, max_size=10))
        else:
            rows = [[token] for token in data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=15))]

        lines, occurrences = [], {token: [] for token in pool}  # the line of each occurrence, in file order
        for row in rows:
            for filler in data.draw(st.lists(st.sampled_from(["", "  ", "# note", " # a b"]), max_size=2)):
                lines.append(filler)
            if format == FORMAT_CLUSTER_LINES:
                lines.append(data.draw(st.sampled_from([" ", "  ", "\t"])).join(row))
            else:
                lines.append(f"{row[0]}\t{data.draw(st.sampled_from(['X', 'Y', ' Z ']))}")
            for token in row:
                occurrences[token].append(len(lines))
        text = "".join(line + data.draw(st.sampled_from(["\n", "\r\n"])) for line in lines).encode()

        assert parse_clustering(text, format=format).n_instances == sum(map(len, rows))
        for token, found in occurrences.items():
            if len(found) < 2:  # once, or not at all
                assert raise_repeat(text, format, token) is None
            else:
                with pytest.raises(DuplicateInstance) as err:
                    raise_repeat(text, format, token)
                assert (err.value.instance, err.value.first_line, err.value.second_line) == (token, *found[:2])

    def test_repeat_on_the_same_line(self):
        with pytest.raises(DuplicateInstance) as err:
            raise_repeat(b"# ids\r\n1 2\r\n\r\n3 4 3 2\r\n", FORMAT_CLUSTER_LINES, "3")
        assert (err.value.instance, err.value.first_line, err.value.second_line) == ("3", 4, 4)


class TestReportDocument:
    def test_round_trip_is_byte_identical(self):
        report = single_pass.evaluate_all(golden_pair())
        doc = build_report_document(report, timing={"seconds": 0.00123, "peak_rss_bytes": 2**25})
        rendered = write_report(doc, style="machine")
        reparsed = json.loads(rendered)
        assert write_report(reparsed) == rendered
        assert rendered.encode("utf-8") == write_report(reparsed).encode("utf-8")

    @pytest.mark.parametrize("mode", COVERAGE_MODES)
    @pytest.mark.parametrize("engine", ["single_pass", "oracle"])
    def test_machine_report_reads_back_exactly(self, engine, mode):
        rng = random.Random(20261019)
        for _ in range(100):
            sides = random_synth_sides_in_mode(rng, mode)
            if engine == "single_pass":
                report = single_pass.evaluate_all(validate(*sides, mode))
            else:
                report = oracle.evaluate_all(*sides)
            doc = json.loads(write_report(build_report_document(report, engine=engine), style="machine"))
            assert doc["measures"] == {name: asdict(getattr(report, name)) for name in MEASURE_ORDER}
            assert doc["stats"] == asdict(report.stats)

    def test_score_below_1e_4_reads_back_exactly(self):
        # one truth singleton kept, the other 20 000 merged: one of 20 001 truth clusters is matched
        truth = Clustering.from_clusters([(i,) for i in range(20_001)])
        predicted = Clustering.from_clusters([(0,), tuple(range(1, 20_001))])
        report = single_pass.evaluate_all(validate(truth, predicted))
        rendered = write_report(build_report_document(report), style="machine")
        assert '"recall": 4.999750012499375e-05' in rendered
        assert json.loads(rendered)["measures"]["cluster_f"]["recall"] == float(Fraction(1, 20_001))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_is_rejected(self, value):
        doc = build_report_document(single_pass.evaluate_all(golden_pair()))
        doc["measures"]["pairwise"]["recall"] = value
        with pytest.raises(ValueError):
            write_report(doc)

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
        doc = json.loads(write_report(build_report_document(report), style="machine"))
        assert all(isinstance(v, int) for v in doc["stats"].values())


class TestTableStyle:
    def test_golden_rows(self):
        report = single_pass.evaluate_all(golden_pair())
        table = write_report(build_report_document(report), style="table")
        for fragment in ("0.3333", "0.5000", "0.4000", "0.8367", "0.6154", "0.7619", "0.5385", "0.7000", "0.8235"):
            assert fragment in table
        assert table.index("Cluster-F") < table.index("K-metric") < table.index("SE&LE")
        assert table.index("SE&LE") < table.index("Pairwise-F") < table.index("B-cubed")

    def test_perfect_prediction_rows(self):
        report = single_pass.evaluate_all(pair_from_labels([0, 0, 1], [0, 0, 1]))
        table = write_report(build_report_document(report), style="table")
        assert table.count("1.0000") >= 15

    def test_flags_are_listed(self):
        labels = list(range(5))
        report = single_pass.evaluate_all(pair_from_labels(labels, labels))
        table = write_report(build_report_document(report), style="table")
        assert "degenerate_pairwise_recall" in table
