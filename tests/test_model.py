"""Core model: construction, validation, the oracle's id numbering, mean helpers."""

import dataclasses
import math
import operator
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from clustereval import io_formats, single_pass
from clustereval.errors import (
    DuplicateInstance,
    EmptyClustering,
    ExtraInPredicted,
    MissingFromPredicted,
    ParseError,
    ValidationError,
)
from clustereval.model import (
    COVERAGE_MODES,
    FLAG_EXTRA_IN_PREDICTED,
    Clustering,
    EvalPair,
    MetricTriple,
    geometric_mean,
    harmonic_mean,
    validate,
)
from clustereval.oracle import _dense_clusters

from helpers import GOLDEN_PRED, GOLDEN_TRUTH, clusters_from_labels, golden_pair, golden_sides, reference_id_error


def extra_flags(pair: EvalPair) -> tuple[str, ...]:
    """The single-pass engine's predicted-only flag on ``pair``, checked to come before its other flags."""
    flags = single_pass.evaluate_all(pair).flags
    extra = flags[:1] if flags and flags[0].startswith("extra_in_predicted") else ()
    assert not any(flag.startswith("extra_in_predicted") for flag in flags[len(extra) :])
    return extra


def distinct_predicted(*ids) -> Clustering:
    """A predicted side of singletons over ``ids``."""
    return Clustering.from_clusters([(x,) for x in ids])


class TestClustering:
    def test_construction_counts(self):
        truth = Clustering.from_clusters(GOLDEN_TRUTH)
        assert truth.n_instances == 8
        assert len(truth.clusters) == 3
        assert [f.name for f in dataclasses.fields(truth)] == ["ids", "sizes"]

    # A repeated id is a partition error that validate finds, in the table it builds for the pair.
    def test_duplicate_across_clusters(self):
        with pytest.raises(DuplicateInstance) as err:
            validate(Clustering.from_clusters([("1", "2"), ("2", "3")]), distinct_predicted("1", "2", "3"))
        assert err.value.instance == "2"

    def test_duplicate_within_cluster(self):
        with pytest.raises(DuplicateInstance) as err:
            validate(Clustering.from_clusters([("1", "1", "2")]), distinct_predicted("1", "2"))
        assert err.value.instance == "1"

    def test_empty_member_cluster_rejected(self):
        with pytest.raises(ValidationError, match="^cluster at position 1 is empty$"):
            Clustering.from_clusters([("1",), ()])

    def test_bare_constructor_rejects_duplicates(self):
        # a predicted side with a repeat would otherwise pass validate on counts alone
        for mode in COVERAGE_MODES:
            with pytest.raises(DuplicateInstance) as err:
                validate(Clustering(("1",), (1,)), Clustering(("1", "1"), (2,)), mode)
            assert err.value.instance == "1"

    def test_bare_constructor_rejects_empty_member_cluster(self):
        with pytest.raises(ValidationError, match="^cluster at position 1 is empty$"):
            Clustering(("1",), (1, 0))

    def test_zero_size_names_its_position(self):
        with pytest.raises(ValidationError, match="^cluster at position 2 is empty$"):
            Clustering(("1", "2", "3"), (2, 1, 0, 0))

    @pytest.mark.parametrize(
        "ids, sizes",
        [(("1", "2", "3"), (2,)), (("1",), (1, 1)), (("1", "2"), (3, -1)), (("1", "2", "3"), (1.5, 1.5))],
    )
    def test_sizes_must_partition_the_ids(self, ids, sizes):
        with pytest.raises(ValidationError, match=f"^cluster sizes do not partition the {len(ids)} ids$"):
            Clustering(ids, sizes)

    def test_instance_count_is_derived(self):
        assert Clustering(("1", "2", "3"), (2, 1)).n_instances == 3

    def test_columns_are_stored_as_tuples(self):
        listed = Clustering(["1", "2", "3"], [2, 1])
        assert listed == Clustering(("1", "2", "3"), (2, 1)) == Clustering.from_clusters([["1", "2"], ["3"]])
        assert listed.clusters == (("1", "2"), ("3",))
        assert hash(listed) == hash(Clustering(("1", "2", "3"), (2, 1)))

    @given(st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True), max_size=6))
    def test_clusters_are_cut_from_the_columns(self, clusters):
        clusters = [[f"{i}.{x}" for x in c] for i, c in enumerate(clusters)]  # distinct ids
        clustering = Clustering.from_clusters(clusters)
        assert clustering.sizes == tuple(map(len, clusters))
        assert clustering.clusters == tuple(map(tuple, clusters))

    def test_sets_are_canonicalized(self):
        a = Clustering.from_clusters([{"b", "a"}, {"c"}])
        b = Clustering.from_clusters([{"a", "b"}, {"c"}])
        assert a.clusters == b.clusters

    def test_partition_view_is_order_insensitive(self):
        a = Clustering.from_clusters([("1", "2"), ("3",)])
        b = Clustering.from_clusters([("3",), ("2", "1")])
        assert a.partition() == b.partition()


class TestValidate:
    def test_golden_pair_strict(self):
        pair = golden_pair()
        assert pair.n_instances == 8
        assert pair.coverage_mode == "strict"
        assert single_pass.evaluate_all(pair).flags == ()

    def test_single_instance_identity(self):
        pair = validate(
            Clustering.from_clusters([("1",)]),
            Clustering.from_clusters([("1",)]),
        )
        assert pair.n_instances == 1

    def test_extra_in_predicted_strict_fatal(self):
        truth = Clustering.from_clusters([("1", "2")])
        predicted = Clustering.from_clusters([("1", "2"), ("3",)])
        with pytest.raises(ExtraInPredicted):
            validate(truth, predicted, "strict")

    def test_extra_in_predicted_lenient_flagged(self):
        truth = Clustering.from_clusters([("1", "2")])
        predicted = Clustering.from_clusters([("1", "2"), ("3",)])
        pair = validate(truth, predicted, "lenient")
        assert pair.n_instances == 2
        assert extra_flags(pair) == (FLAG_EXTRA_IN_PREDICTED.format(1),)
        # the oracle numbers the extra after the truth ids
        assert _dense_clusters(truth, predicted) == ([frozenset({0, 1})], [frozenset({0, 1}), frozenset({2})])

    def test_missing_fatal_in_both_modes(self):
        truth = Clustering.from_clusters([("1", "2")])
        predicted = Clustering.from_clusters([("1",)])
        for mode in ("strict", "lenient"):
            with pytest.raises(MissingFromPredicted) as err:
                validate(truth, predicted, mode)
            assert "'2'" in str(err.value)

    @pytest.mark.parametrize(
        "truth, predicted, side",
        [
            ([], [("1",)], "truth"),
            ([], [("1", "2"), ("2",)], "truth"),  # the empty side comes before the repeat
            ([("1",)], [], "predicted"),
            ([], [], "truth"),
            ([], None, "truth"),  # predicted as chunks
        ],
        ids=["empty_truth", "empty_truth_and_a_predicted_repeat", "empty_predicted", "both_empty", "predicted_chunks"],
    )
    def test_empty_clustering_rejected(self, truth, predicted, side):
        predicted = [(("1",), (1,))] if predicted is None else Clustering.from_clusters(predicted)
        with pytest.raises(EmptyClustering, match=f"^{side} clustering has no clusters$") as err:
            validate(Clustering.from_clusters(truth), predicted)
        assert err.value.__cause__ is None and (err.value.__suppress_context__ or err.value.__context__ is None)

    @pytest.mark.parametrize("keyed", [True, False], ids=["popped_as_read", "chunks"])
    @pytest.mark.parametrize(
        "truth, message",
        [
            (b"z\tX\nb\tY\tZ\n", r"found 3 tab-separated fields \(line 2\)"),  # a missing id, then 3 fields
            (b"a\tX\na\tY\nb\t\xff\n", "input is not valid UTF-8"),  # a repeat, then a byte in the next batch
            (b"z\tX\nb\t \n", r"empty cluster label \(line 2, column 3\)"),  # a missing id, then no label
        ],
    )
    def test_a_truth_parse_error_comes_before_an_id_error(self, monkeypatch, truth, message, keyed):
        monkeypatch.setattr(io_formats, "_BATCH", 4)  # a batch runs through the first LF at or past its 4th byte
        parse = io_formats.parse_chunks
        # keyed: truth's parse pops each row's id as it reads it, so the pop fails before the fault is read
        side = (lambda key: parse(truth, key=key)[0]) if keyed else parse(truth)[0]
        with pytest.raises(ParseError, match=message):
            validate(side, parse(b"a\tX\nb\tX\n")[0])

    def test_unknown_mode_rejected(self):
        one = Clustering.from_clusters([("1",)])
        with pytest.raises(ValueError):
            validate(one, one, "sloppy")

    def test_duplicate_detection_is_side_symmetric(self):
        # the same table guards both clusterings
        repeated = Clustering.from_clusters([("1", "2"), ("2",)])
        other = Clustering.from_clusters([("1", "2")])
        for pair, side in (((repeated, other), "truth"), ((other, repeated), "predicted")):
            with pytest.raises(DuplicateInstance) as err:
                validate(*pair)
            assert (err.value.side, err.value.instance) == (side, "2")


class TestIdErrors:
    """``validate`` checks every id in one table and agrees with a plain-set reference."""

    PAYLOAD = {
        EmptyClustering: lambda exc: str(exc).split()[0],  # the side it names
        DuplicateInstance: operator.attrgetter("side", "instance"),
        MissingFromPredicted: operator.attrgetter("missing"),
        ExtraInPredicted: operator.attrgetter("extra"),
    }

    @given(data=st.data(), mode=st.sampled_from(COVERAGE_MODES))
    def test_validate_matches_the_plain_set_reference(self, data, mode):
        def clusters(ids):
            labels = data.draw(st.lists(st.integers(0, 3), min_size=len(ids), max_size=len(ids)))
            return [[ids[i] for i in c] for c in clusters_from_labels(labels)]

        def with_repeats(clusters):
            # each repeat lands in its own id's cluster or in another
            for _ in range(data.draw(st.integers(0, 2 if clusters else 0))):
                instance = data.draw(st.sampled_from([x for c in clusters for x in c]))
                cluster = data.draw(st.sampled_from(clusters))
                cluster.insert(data.draw(st.integers(0, len(cluster))), instance)
            return clusters

        ids = [str(i) for i in range(data.draw(st.integers(0, 10)))]
        missing = data.draw(st.sets(st.sampled_from(ids), max_size=2)) if ids else set()
        extras = [f"x{i}" for i in range(data.draw(st.integers(0, 2)))]
        predicted_ids = data.draw(st.permutations([x for x in ids if x not in missing] + extras))
        truth = Clustering.from_clusters(with_repeats(clusters(ids)))
        predicted = Clustering.from_clusters(with_repeats(clusters(predicted_ids)))

        expected = reference_id_error(truth, predicted, mode)
        if expected is None:
            n_extra = len(set(predicted.ids) - set(truth.ids))
            flags = (FLAG_EXTRA_IN_PREDICTED.format(n_extra),) if n_extra else ()
            assert extra_flags(validate(truth, predicted, mode)) == flags
        else:
            with pytest.raises(ValidationError) as err:
                validate(truth, predicted, mode)
            assert (type(err.value), self.PAYLOAD[type(err.value)](err.value)) == expected

    @pytest.mark.parametrize("mode", COVERAGE_MODES)
    def test_a_truth_repeat_balanced_by_an_extra(self, mode):
        # both sides hold three ids, so counts alone cannot see the repeat
        truth = Clustering.from_clusters([("1", "2"), ("2",)])
        predicted = Clustering.from_clusters([("1", "2", "x")])
        assert reference_id_error(truth, predicted, mode) == (DuplicateInstance, ("truth", "2"))
        with pytest.raises(DuplicateInstance) as err:
            validate(truth, predicted, mode)
        assert (err.value.side, err.value.instance) == ("truth", "2")


class TestEvalPairLabelsItself:
    """An ``EvalPair`` is the labels themselves: the fields ``validate`` computes, checked against the coverage mode."""

    @pytest.mark.parametrize("mode", ["strict", "lenient"])
    def test_constructor_equals_validate(self, mode):
        truth = Clustering.from_clusters(GOLDEN_TRUTH)
        predicted = Clustering.from_clusters(GOLDEN_PRED)
        pair = EvalPair((3, 2, 3), (3, 5), [0, 0, 0, 1, 1, 1, 1, 1], 8, mode)
        assert pair == validate(truth, predicted, mode)
        assert [f.name for f in dataclasses.fields(pair)] == [
            "truth_sizes", "predicted_sizes", "assignments", "n_predicted", "coverage_mode"
        ]

    def test_replace_checks_coverage_again(self):
        truth = Clustering.from_clusters([("1", "2")])
        predicted = Clustering.from_clusters([("1", "2"), ("3",)])
        lenient = validate(truth, predicted, "lenient")
        assert extra_flags(lenient) == (FLAG_EXTRA_IN_PREDICTED.format(1),)
        # the pair holds no ids, so the error counts the extras it cannot name
        with pytest.raises(ValidationError, match="^a strict pair has as many predicted instances as truth instances"):
            dataclasses.replace(lenient, coverage_mode="strict")
        with pytest.raises(ValidationError, match="not 3 and 2"):
            EvalPair(lenient.truth_sizes, lenient.predicted_sizes, lenient.assignments, 3, "strict")
        with pytest.raises(ValueError, match="^unknown coverage mode 'loose'$"):
            dataclasses.replace(lenient, coverage_mode="loose")


def assert_numbered_by_the_rule(truth: Clustering, predicted: Clustering) -> tuple[list[frozenset], list[frozenset]]:
    """The oracle's clusters, checked against its documented numbering, which is built here from raw ids.

    Truth ids are numbered in cluster order from 0, then the predicted-only ids in predicted order.
    """
    truth_ids = list(chain.from_iterable(truth.clusters))
    seen = set(truth_ids)
    extras = [x for x in chain.from_iterable(predicted.clusters) if x not in seen]
    number = {x: d for d, x in enumerate(truth_ids + extras)}
    truth_sets, predicted_sets = _dense_clusters(truth, predicted)
    assert truth_sets == [frozenset(number[x] for x in c) for c in truth.clusters]
    assert predicted_sets == [frozenset(number[x] for x in c) for c in predicted.clusters]
    return truth_sets, predicted_sets


class TestInterning:
    """The oracle numbers the ids itself; the pair holds only raw ids and labels."""

    def test_dense_ids_contiguous_from_zero(self):
        truth_sets, _ = assert_numbered_by_the_rule(*golden_sides())
        assert sorted(chain.from_iterable(truth_sets)) == list(range(8))

    def test_bijection(self):
        truth_sets, predicted_sets = assert_numbered_by_the_rule(*golden_sides())
        assert len(set().union(*truth_sets)) == len(set().union(*predicted_sets)) == 8
        assert set().union(*truth_sets) == set().union(*predicted_sets)

    @given(
        st.lists(st.integers(0, 5), min_size=1, max_size=40),
        st.lists(st.integers(0, 5), min_size=1, max_size=40),
    )
    def test_interning_preserves_structure(self, t_labels, p_labels):
        n = min(len(t_labels), len(p_labels))
        t_labels, p_labels = t_labels[:n], p_labels[:n]
        truth = Clustering.from_clusters(clusters_from_labels(t_labels))
        predicted = Clustering.from_clusters(clusters_from_labels(p_labels))
        validate(truth, predicted)
        truth_sets, predicted_sets = assert_numbered_by_the_rule(truth, predicted)
        assert [len(c) for c in truth_sets] == [len(c) for c in truth.clusters]
        assert [len(c) for c in predicted_sets] == [len(c) for c in predicted.clusters]
        assert len(set().union(*truth_sets)) == n

    @given(st.data())
    def test_dense_clusters_map_back_to_raw(self, data):
        n = data.draw(st.integers(1, 30))
        truth_labels = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
        truth = Clustering.from_clusters(clusters_from_labels(truth_labels))
        missing = set(data.draw(st.lists(st.integers(0, n - 1), max_size=3)))
        extras = [f"x{i}" for i in range(data.draw(st.integers(0, 4)))]
        predicted_ids = data.draw(st.permutations([i for i in range(n) if i not in missing] + extras))
        assume(predicted_ids)
        predicted_labels = data.draw(
            st.lists(st.integers(0, 5), min_size=len(predicted_ids), max_size=len(predicted_ids))
        )
        predicted = Clustering.from_clusters(
            [tuple(predicted_ids[i] for i in c) for c in clusters_from_labels(predicted_labels)]
        )

        for mode in ("strict", "lenient"):
            if missing:
                with pytest.raises(MissingFromPredicted) as err:
                    validate(truth, predicted, mode)
                assert err.value.missing == sorted(missing, key=str)
                continue
            if extras and mode == "strict":
                with pytest.raises(ExtraInPredicted) as err:
                    validate(truth, predicted, mode)
                assert err.value.extra == sorted(extras, key=str)
                continue
            pair = validate(truth, predicted, mode)
            truth_sets, predicted_sets = assert_numbered_by_the_rule(truth, predicted)
            assert all(c == frozenset(range(min(c), min(c) + len(c))) for c in truth_sets)
            assert set().union(*predicted_sets) - set().union(*truth_sets) == set(range(n, n + len(extras)))
            assert pair.assignments == [next(k for k, c in enumerate(predicted.clusters) if x in c) for x in truth.ids]
            assert extra_flags(pair) == ((FLAG_EXTRA_IN_PREDICTED.format(len(extras)),) if extras else ())


def decimal_root(value: Fraction) -> float:
    """sqrt(value) to 60 significant digits, then rounded to a double."""
    with localcontext() as ctx:
        ctx.prec = 60
        return float((Decimal(value.numerator) / Decimal(value.denominator)).sqrt())


class TestMeans:
    def test_harmonic_worked_values(self):
        assert harmonic_mean(1.0, 0.7) == pytest.approx(0.8235, abs=1e-4)
        assert harmonic_mean(Fraction(1), Fraction(7, 10)) == Fraction(14, 17)

    def test_geometric_worked_values(self):
        assert geometric_mean(1.0, 0.7) == pytest.approx(0.8367, abs=1e-4)
        assert geometric_mean(1.0, 0.7) == math.sqrt(0.7)

    @given(
        st.fractions(0, 1, max_denominator=10**15),
        st.one_of(st.fractions(0, 1, max_denominator=10**15), st.fractions(0, 10**30, max_denominator=10**3)),
    )
    @example(Fraction(5, 6), Fraction(8, 25))
    def test_geometric_rounds_the_exact_root_once(self, recall, precision):
        assert MetricTriple.geometric(recall, precision).combined == decimal_root(recall * precision)

    def test_rounding_the_product_first_can_be_one_ulp_off(self):
        product = Fraction(5, 6) * Fraction(8, 25)
        combined = MetricTriple.geometric(Fraction(5, 6), Fraction(8, 25)).combined
        assert combined == decimal_root(product) == math.nextafter(math.sqrt(float(product)), 1.0)

    def test_harmonic_zero_zero(self):
        assert harmonic_mean(0.0, 0.0) == 0.0

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_means_stay_in_unit_interval(self, r, p):
        for triple in (MetricTriple.harmonic(r, p), MetricTriple.geometric(r, p)):
            assert 0.0 <= triple.combined <= 1.0
            assert min(r, p) - 1e-12 <= triple.combined <= max(r, p) + 1e-12
