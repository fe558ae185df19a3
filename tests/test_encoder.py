"""Binary query encoding: exact bit patterns, round trips, malformed input."""

import json

import numpy as np
import pytest

import aqplearn
from aqplearn import (
    AggregationFunction,
    AggregationTarget,
    BetweenFilter,
    FlatQuery,
    InFilter,
    LabeledQuery,
    QueryTemplate,
    TokenVocabulary,
    build_vocabulary,
    decode,
    encode,
    encode_workload,
    generate_workload,
    label_workload,
)
from aqplearn.encoder import check_scale, member_token
from aqplearn.errors import MalformedMatrix, NumericOverflow, UnknownToken
from aqplearn.queries import number_parts
from conftest import BAD_SCALE_VOCAB_FIELDS, MISTYPED_VOCAB_FIELDS, build_transactions

AVG = AggregationFunction.AVG
COUNT = AggregationFunction.COUNT


def small_vocab(bit_width=5) -> TokenVocabulary:
    """1 target + 1 continuous attr + 1 nominal attr with two members."""
    return TokenVocabulary(
        targets=("avg(sales)",),
        cont_attrs=("sales",),
        nom_attrs=("region",),
        members={"region": ("north", "south")},
        numeric_scales={},
        bit_width=bit_width,
    )


class TestVocabulary:
    def test_ids_are_sequential_from_one(self):
        v = small_vocab()
        assert v.entries == {
            "avg(sales)": 1,
            "sales": 2,
            "region": 3,
            "region=north": 4,
            "region=south": 5,
        }
        assert v.token_id("avg(sales)") == 1

    def test_layout_dimensions(self):
        v = small_vocab()
        assert v.sequence_length == 1 + 3 * 1 + 2 * 1
        assert v.row_width == 6

    def test_slots_give_each_filter_block_its_first_row(self):
        v = TokenVocabulary(
            targets=("avg(sales)",),
            cont_attrs=("sales", "units"),
            nom_attrs=("region", "category"),
            members={"region": ("north",), "category": ("food",)},
            numeric_scales={},
            bit_width=5,
        )
        assert v.slots == (("sales", 1), ("units", 4), ("region", 7), ("category", 9))
        assert v.sequence_length == 11

    def test_ids_must_fit_the_bit_width(self):
        with pytest.raises(ValueError, match="do not fit in 2 bits"):
            small_vocab(bit_width=2)  # five tokens

    def test_unknown_token(self):
        with pytest.raises(UnknownToken):
            small_vocab().token_id("median(sales)")

    def test_bit_width_covers_ids_and_literals(self, transactions):
        template = QueryTemplate.build(
            transactions,
            targets=[AggregationTarget(AVG, "sales")],
            cont_filter_attrs=["sales"],
            nom_filter_attrs=["region"],
        )
        # 31 tokens would need 5 bits, but a literal of 1000 needs 10
        workload = [
            FlatQuery(
                AggregationTarget(AVG, "sales"),
                (BetweenFilter("sales", 2.0, 1000.0),),
                (InFilter("region", "north"),),
            )
        ]
        vocab = build_vocabulary(workload, template)
        assert vocab.bit_width == 10

    def test_member_ids_sorted_not_in_query_order(self, transactions):
        template = QueryTemplate.build(
            transactions,
            targets=[AggregationTarget(AVG, "sales")],
            cont_filter_attrs=[],
            nom_filter_attrs=["region"],
        )
        workload = [
            FlatQuery(AggregationTarget(AVG, "sales"), (), (InFilter("region", m),))
            for m in ("west", "east")
        ]
        vocab = build_vocabulary(workload, template)
        assert vocab.members["region"] == ("east", "west")

    def test_foreign_in_filter_rejected(self, transactions):
        template = QueryTemplate.build(
            transactions,
            targets=[AggregationTarget(AVG, "sales")],
            cont_filter_attrs=[],
            nom_filter_attrs=["region"],
        )
        workload = [
            FlatQuery(AggregationTarget(AVG, "sales"), (), (InFilter("category", "food"),))
        ]
        with pytest.raises(UnknownToken):
            build_vocabulary(workload, template)


class TestEncodeBits:
    def test_target_row_is_flag_zero_id_one(self):
        """First vocabulary entry encodes as payload 00001 under 5 bits."""
        q = FlatQuery(AggregationTarget(AVG, "sales"))
        mat = encode(q, small_vocab())
        np.testing.assert_array_equal(mat[0], [0, 0, 0, 0, 0, 1])

    def test_literal_23_in_5_bits(self):
        q = FlatQuery(
            AggregationTarget(AVG, "sales"), (BetweenFilter("sales", 23.0, 23.0),)
        )
        mat = encode(q, small_vocab())
        np.testing.assert_array_equal(mat[2], [1, 1, 0, 1, 1, 1])  # 23 = 10111
        np.testing.assert_array_equal(mat[3], [1, 1, 0, 1, 1, 1])

    def test_full_matrix_by_hand(self):
        v = small_vocab()
        q = FlatQuery(
            AggregationTarget(AVG, "sales"),
            (BetweenFilter("sales", 3.0, 17.0),),
            (InFilter("region", "south"),),
        )
        expected = [
            [0, 0, 0, 0, 0, 1],  # avg(sales) -> 1
            [0, 0, 0, 0, 1, 0],  # sales -> 2
            [1, 0, 0, 0, 1, 1],  # literal 3
            [1, 1, 0, 0, 0, 1],  # literal 17
            [0, 0, 0, 0, 1, 1],  # region -> 3
            [0, 0, 0, 1, 0, 1],  # region=south -> 5
        ]
        np.testing.assert_array_equal(encode(q, v), expected)

    def test_absent_filters_become_padding_rows(self):
        v = small_vocab()
        q = FlatQuery(AggregationTarget(AVG, "sales"), (), (InFilter("region", "north"),))
        mat = encode(q, v)
        np.testing.assert_array_equal(mat[1:4], np.zeros((3, 6)))  # no BETWEEN block
        assert mat[4:].any()

    def test_scale_quantizes_literals(self):
        v = TokenVocabulary(
            targets=("avg(sales)",),
            cont_attrs=("sales",),
            nom_attrs=(),
            members={},
            numeric_scales={"sales": 10.0},
            bit_width=8,
        )
        q = FlatQuery(AggregationTarget(AVG, "sales"), (BetweenFilter("sales", 1.5, 20.0),))
        mat = encode(q, v)
        assert int("".join(map(str, mat[2][1:])), 2) == 15  # 1.5 * 10
        assert int("".join(map(str, mat[3][1:])), 2) == 200

    def test_sequence_layout_with_two_of_each(self, transactions):
        template = QueryTemplate.build(
            transactions,
            targets=[AggregationTarget(AVG, "sales")],
            cont_filter_attrs=["sales", "units"],
            nom_filter_attrs=["region", "category"],
        )
        q = FlatQuery(
            AggregationTarget(AVG, "sales"),
            (BetweenFilter("sales", 80.0, 120.0),),
            (InFilter("category", "food"),),
        )
        vocab = build_vocabulary([q], template)
        mat = encode(q, vocab)
        assert mat.shape == (1 + 3 * 2 + 2 * 2, 1 + vocab.bit_width)
        assert mat[1:4].any() and not mat[4:7].any()  # sales filled, units padded
        assert not mat[7:9].any() and mat[9:11].any()  # region padded, category filled

    def test_negative_literal_overflows(self):
        q = FlatQuery(AggregationTarget(AVG, "sales"), (BetweenFilter("sales", -5.0, 3.0),))
        with pytest.raises(NumericOverflow):
            encode(q, small_vocab())

    def test_oversized_literal_overflows(self):
        q = FlatQuery(AggregationTarget(AVG, "sales"), (BetweenFilter("sales", 1.0, 32.0),))
        with pytest.raises(NumericOverflow):
            encode(q, small_vocab(bit_width=5))

    def test_unknown_target_and_member(self):
        v = small_vocab()
        with pytest.raises(UnknownToken):
            encode(FlatQuery(AggregationTarget(COUNT, "sales")), v)
        with pytest.raises(UnknownToken):
            encode(
                FlatQuery(AggregationTarget(AVG, "sales"), (), (InFilter("region", "west"),)), v
            )
        with pytest.raises(UnknownToken):
            encode(
                FlatQuery(AggregationTarget(AVG, "sales"), (BetweenFilter("units", 1.0, 2.0),)), v
            )


class TestEncodeWorkload:
    def test_mixed_batch_by_hand(self):
        v = small_vocab()
        batch = [
            FlatQuery(AggregationTarget(AVG, "sales")),
            FlatQuery(AggregationTarget(AVG, "sales"), (BetweenFilter("sales", 3.0, 17.0),)),
            FlatQuery(AggregationTarget(AVG, "sales"), (), (InFilter("region", "north"),)),
            FlatQuery(
                AggregationTarget(AVG, "sales"),
                (BetweenFilter("sales", 0.0, 31.0),),
                (InFilter("region", "south"),),
            ),
        ]
        pad = [0, 0, 0, 0, 0, 0]
        target = [0, 0, 0, 0, 0, 1]  # avg(sales) -> 1
        sales = [0, 0, 0, 0, 1, 0]  # sales -> 2
        region = [0, 0, 0, 0, 1, 1]  # region -> 3
        expected = [
            [target, pad, pad, pad, pad, pad],
            [target, sales, [1, 0, 0, 0, 1, 1], [1, 1, 0, 0, 0, 1], pad, pad],  # 3, 17
            [target, pad, pad, pad, region, [0, 0, 0, 1, 0, 0]],  # region=north -> 4
            [target, sales, [1, 0, 0, 0, 0, 0], [1, 1, 1, 1, 1, 1], region, [0, 0, 0, 1, 0, 1]],
        ]
        X = encode_workload(batch, v)
        assert X.dtype == np.uint8
        np.testing.assert_array_equal(X, expected)
        for i, q in enumerate(batch):
            np.testing.assert_array_equal(encode(q, v), X[i])

    @pytest.mark.parametrize("bit_width", [7, 12, 20, 40])
    def test_wide_payloads_and_many_queries(self, bit_width):
        v = small_vocab(bit_width)
        top = (1 << bit_width) - 1
        batch = [
            FlatQuery(AggregationTarget(AVG, "sales"),
                      (BetweenFilter("sales", float(k % 31), float(top - k % 31)),))
            for k in range(9000)  # 9,000 queries over 31 windows
        ]
        X = encode_workload(batch, v)
        assert X.shape == (9000, 6, 1 + bit_width)
        for k in (0, 1, 4321, 8191, 8192, 8999):
            for row, literal in ((2, k % 31), (3, top - k % 31)):
                assert X[k, row, 0] == 1
                assert "".join(map(str, X[k, row, 1:])) == format(literal, f"0{bit_width}b")
            np.testing.assert_array_equal(X[k], encode(batch[k], v))

    def test_empty_list(self):
        v = small_vocab()
        X = encode_workload([], v)
        assert X.shape == (0, v.sequence_length, v.row_width) and X.dtype == np.uint8

    def test_batch_errors(self):
        v = small_vocab()
        ok = FlatQuery(AggregationTarget(AVG, "sales"), (BetweenFilter("sales", 1.0, 2.0),))
        with pytest.raises(NumericOverflow, match="upper bound"):
            encode_workload([ok, FlatQuery(ok.target, (BetweenFilter("sales", 1.0, 32.0),))], v)
        with pytest.raises(NumericOverflow, match="lower bound"):
            encode_workload([ok, FlatQuery(ok.target, (BetweenFilter("sales", -1.0, 2.0),))], v)
        with pytest.raises(NumericOverflow):
            encode_workload([FlatQuery(ok.target, (BetweenFilter("sales", 1.0, float("inf")),))], v)
        with pytest.raises(UnknownToken):
            encode_workload([ok, FlatQuery(ok.target, (), (InFilter("region", "west"),))], v)
        with pytest.raises(UnknownToken):
            encode_workload([ok, FlatQuery(AggregationTarget(COUNT, "sales"))], v)


class TestSharedParts:
    """encode_workload encodes each distinct target, BETWEEN tuple and IN
    tuple once; however the parts are shared, every query's matrix is the
    one it encodes to on its own."""

    @pytest.fixture
    def workload(self, transactions):
        template = QueryTemplate.build(
            transactions,
            targets=[AggregationTarget(AVG, "sales"), AggregationTarget(COUNT, "region")],
            cont_filter_attrs=["sales", "units"],
            nom_filter_attrs=["region", "category"],
            n_cont_samples=6,
            seed=5,
            numeric_scales={"units": 10.0},
        )
        queries, _ = generate_workload(transactions, template)
        # Shuffled, so that consecutive queries mostly differ in every part.
        order = np.random.default_rng(1).permutation(len(queries))
        queries = [queries[i] for i in order]
        vocab = build_vocabulary(queries, template)
        alone = np.stack([encode(q, vocab) for q in queries])
        return queries, vocab, alone

    def test_generated_parts_are_shared_objects(self, workload):
        queries, vocab, alone = workload
        assert len({id(q.between_filters) for q in queries}) < len(queries)
        np.testing.assert_array_equal(encode_workload(queries, vocab), alone)

    def test_equal_parts_that_are_separate_objects(self, workload):
        queries, vocab, alone = workload
        rebuilt = [FlatQuery.from_record(q.to_record()) for q in queries]
        assert len({id(q.between_filters) for q in rebuilt}) == len(rebuilt)
        assert len(number_parts(rebuilt)[0]) == len(number_parts(queries)[0]) < len(rebuilt)
        np.testing.assert_array_equal(encode_workload(rebuilt, vocab), alone)

    def test_generator_of_fresh_queries(self, workload):
        queries, vocab, alone = workload

        def fresh():
            for q in queries:
                yield FlatQuery.from_record(q.to_record())  # referenced by no one else

        np.testing.assert_array_equal(encode_workload(fresh(), vocab), alone)

    def test_labeled_and_flat_queries_mixed(self, workload):
        queries, vocab, alone = workload
        mixed = [LabeledQuery(q, 1.0, 1) if i % 3 else q for i, q in enumerate(queries)]
        np.testing.assert_array_equal(encode_workload(mixed, vocab), alone)

    def test_first_unknown_token_in_query_order(self):
        v = small_vocab()
        ok = FlatQuery(AggregationTarget(AVG, "sales"), (BetweenFilter("sales", 1.0, 2.0),),
                       (InFilter("region", "north"),))
        bad_member = FlatQuery(ok.target, ok.between_filters, (InFilter("region", "west"),))
        bad_target = FlatQuery(AggregationTarget(COUNT, "sales"), (), ok.in_filters)
        bad_between = FlatQuery(ok.target, (BetweenFilter("units", 1.0, 2.0),),
                                (InFilter("region", "west"),))
        messages = {
            bad_member: "token 'region=west' is not in the vocabulary",
            bad_target: "token 'count(sales)' is not in the vocabulary",
            bad_between: "BETWEEN filter on 'units' not covered by the vocabulary",
        }
        for order in ([bad_member, bad_target, bad_between], [bad_between, bad_target, bad_member],
                      [bad_target, bad_member, bad_between]):
            batch = [ok, *order, ok, *order]
            with pytest.raises(UnknownToken) as exc:
                encode_workload(batch, v)
            assert str(exc.value) == messages[order[0]]

    def test_overflow_before_an_unknown_token_comes_first(self):
        v = small_vocab()
        target = AggregationTarget(AVG, "sales")
        too_wide = FlatQuery(target, (BetweenFilter("sales", 1.0, 40.0),),
                             (InFilter("region", "north"),))
        nowhere = FlatQuery(target, (BetweenFilter("sales", 1.0, 2.0),),
                            (InFilter("region", "nowhere"),))
        overflow = "literal 40 for sales upper bound does not fit in 5 unsigned bits"
        unknown = "token 'region=nowhere' is not in the vocabulary"
        for batch, message in (([too_wide], overflow), ([nowhere], unknown),
                               ([too_wide, nowhere], overflow), ([nowhere, too_wide], unknown)):
            with pytest.raises((NumericOverflow, UnknownToken)) as exc:
                encode_workload(batch, v)
            assert str(exc.value) == message
        # The BETWEEN tuple that names an unknown attribute has filled its sales rows.
        both = FlatQuery(target, (BetweenFilter("sales", 1.0, 40.0),
                                  BetweenFilter("units", 1.0, 2.0)))
        with pytest.raises(NumericOverflow, match="literal 40 for sales upper bound"):
            encode_workload([both], v)

    def test_bad_window_shared_by_many_queries(self):
        v = small_vocab()
        target = AggregationTarget(AVG, "sales")
        good, too_wide = (BetweenFilter("sales", 1.0, 2.0),), (BetweenFilter("sales", 1.0, 40.0),)
        negative = (BetweenFilter("sales", -3.0, 2.0),)
        members = [(), (InFilter("region", "north"),), (InFilter("region", "south"),)]
        batch = [FlatQuery(target, w, m) for w in (good, too_wide, negative, too_wide) for m in members]
        with pytest.raises(NumericOverflow) as exc:
            encode_workload(batch, v)
        assert str(exc.value) == "literal 40 for sales upper bound does not fit in 5 unsigned bits"
        with pytest.raises(NumericOverflow) as exc:
            encode_workload(batch[6:], v)
        assert str(exc.value) == "literal -3 for sales lower bound does not fit in 5 unsigned bits"


class TestDecode:
    def test_round_trip(self):
        v = small_vocab()
        queries = [
            FlatQuery(AggregationTarget(AVG, "sales")),
            FlatQuery(AggregationTarget(AVG, "sales"), (BetweenFilter("sales", 0.0, 31.0),)),
            FlatQuery(
                AggregationTarget(AVG, "sales"),
                (BetweenFilter("sales", 4.0, 9.0),),
                (InFilter("region", "north"),),
            ),
        ]
        for q in queries:
            assert decode(encode(q, v), v) == q

    def test_generated_workload_round_trip_and_injectivity(self, transactions):
        template = QueryTemplate.build(
            transactions,
            targets=[AggregationTarget(AVG, "sales"), AggregationTarget(COUNT, "sales")],
            cont_filter_attrs=["sales"],
            nom_filter_attrs=["region", "category"],
            n_cont_samples=12,
            seed=8,
        )
        queries, _ = generate_workload(transactions, template)
        vocab = build_vocabulary(queries, template)
        X = encode_workload(queries, vocab)
        for q, mat in zip(queries, X):
            assert decode(mat, vocab) == q
        distinct = {mat.tobytes() for mat in X}
        assert len(distinct) == len(set(queries))

    def test_wrong_shape(self):
        v = small_vocab()
        with pytest.raises(MalformedMatrix):
            decode(np.zeros((3, 6), dtype=np.uint8), v)

    def test_non_binary_cells(self):
        v = small_vocab()
        for cell in (0.5, 2.0, -1.0, np.nan):
            mat = encode(FlatQuery(AggregationTarget(AVG, "sales")), v).astype(float)
            mat[0, 1] = cell
            with pytest.raises(MalformedMatrix):
                decode(mat, v)

    def test_all_padding_matrix(self):
        v = small_vocab()
        with pytest.raises(MalformedMatrix):
            decode(np.zeros((v.sequence_length, v.row_width), dtype=np.uint8), v)

    def test_literal_in_target_slot(self):
        v = small_vocab()
        mat = encode(FlatQuery(AggregationTarget(AVG, "sales")), v)
        mat = mat.copy()
        mat[0, 0] = 1
        with pytest.raises(MalformedMatrix):
            decode(mat, v)

    def test_out_of_range_token_id(self):
        v = small_vocab()
        mat = encode(FlatQuery(AggregationTarget(AVG, "sales")), v).copy()
        mat[0, 1:] = [1, 1, 1, 1, 1]  # ID 31 does not exist
        with pytest.raises(MalformedMatrix):
            decode(mat, v)

    def test_partially_padded_between_block(self):
        v = small_vocab()
        q = FlatQuery(AggregationTarget(AVG, "sales"), (BetweenFilter("sales", 4.0, 9.0),))
        mat = encode(q, v).copy()
        mat[3] = 0  # erase the upper bound row only
        with pytest.raises(MalformedMatrix):
            decode(mat, v)

    def test_member_token_in_attribute_slot(self):
        v = small_vocab()
        q = FlatQuery(
            AggregationTarget(AVG, "sales"), (), (InFilter("region", "north"),)
        )
        mat = encode(q, v).copy()
        mat[4] = mat[5]  # attribute row replaced by a member row
        with pytest.raises(MalformedMatrix):
            decode(mat, v)

    def test_inverted_bounds(self):
        v = small_vocab()
        q = FlatQuery(AggregationTarget(AVG, "sales"), (BetweenFilter("sales", 4.0, 9.0),))
        mat = encode(q, v).copy()
        low, high = mat[2].copy(), mat[3].copy()
        mat[2], mat[3] = high, low
        with pytest.raises(MalformedMatrix):
            decode(mat, v)

    def test_non_target_token_in_target_slot(self):
        v = small_vocab()
        mat = encode(FlatQuery(AggregationTarget(AVG, "sales")), v).copy()
        mat[0, 1:] = [0, 0, 0, 1, 0]  # ID 2 = 'sales', not a target
        with pytest.raises(MalformedMatrix):
            decode(mat, v)


def decodes_exactly(mat, vocab) -> bool:
    """False if decode rejects `mat`; else True, after checking that the
    query it returns encodes to `mat` bit for bit."""
    try:
        q = decode(mat, vocab)
    except MalformedMatrix:
        return False
    np.testing.assert_array_equal(encode(q, vocab), mat)
    return True


class TestDecodeAcceptsExactlyEncodings:
    """decode either raises MalformedMatrix or returns the query whose
    encoding is the matrix it was given, for corrupted encodings too."""

    # (attribute, first row, rows) of each filter block in the sample's layout
    BLOCKS = (("sales", 1, 3), ("units", 4, 3), ("region", 7, 2), ("category", 9, 2))

    @pytest.fixture
    def sample(self, transactions):
        template = QueryTemplate.build(
            transactions,
            targets=[AggregationTarget(COUNT, "region"), AggregationTarget(AVG, "units")],
            cont_filter_attrs=["sales", "units"],
            nom_filter_attrs=["region", "category"],
            n_cont_samples=4,
            seed=3,
            numeric_scales={"units": 10.0},
        )
        queries, _ = generate_workload(transactions, template)
        vocab = build_vocabulary(queries, template)
        assert vocab.sequence_length == 11
        picked = np.random.default_rng(0).choice(len(queries), 50, replace=False)
        return vocab, [queries[i] for i in picked], encode_workload(queries, vocab)[picked]

    def test_every_single_bit_flip(self, sample):
        vocab, _, X = sample
        accepted = 0
        for mat in X:
            for r, c in np.ndindex(mat.shape):
                flipped = mat.copy()
                flipped[r, c] ^= 1
                accepted += decodes_exactly(flipped, vocab)
        assert 0 < accepted < X.size  # some flips give another query, most none

    def test_swapped_blocks(self, sample):
        vocab, _, X = sample
        (_, b0, _), (_, b1, _), (_, n0, _), (_, n1, _) = self.BLOCKS
        for mat in X[:10]:
            for a, b, height in ((b0, b1, 3), (n0, n1, 2)):
                swapped = mat.copy()
                swapped[a : a + height] = mat[b : b + height]
                swapped[b : b + height] = mat[a : a + height]
                assert not decodes_exactly(swapped, vocab)

    def test_literal_flags_in_a_padding_block(self, sample):
        vocab, queries, _ = sample
        for q in queries[:10]:
            for attr, j, height in self.BLOCKS:
                padded = encode(FlatQuery(
                    q.target,
                    tuple(f for f in q.between_filters if f.attr != attr),
                    tuple(f for f in q.in_filters if f.attr != attr),
                ), vocab)
                assert decodes_exactly(padded, vocab)
                padded[j + 1 : j + height, 0] = 1  # every row after the attribute row
                assert not decodes_exactly(padded, vocab)

    def test_member_token_in_the_target_row(self, sample):
        vocab, _, X = sample
        for mat in X[:10]:
            for _, j, _ in self.BLOCKS[2:]:
                corrupted = mat.copy()
                corrupted[0] = mat[j + 1]
                assert not decodes_exactly(corrupted, vocab)

    def test_literal_that_float64_rounds_out_of_range(self):
        v = small_vocab(bit_width=60)
        q = FlatQuery(AggregationTarget(AVG, "sales"), (BetweenFilter("sales", 1.0, 2.0),))
        mat = encode(q, v).copy()
        mat[3, 1:] = 1  # upper bound 2**60 - 1, which float64 rounds to 2**60
        with pytest.raises(MalformedMatrix):
            decode(mat, v)


class TestTensorHelpers:
    def test_encode_workload_accepts_labeled_queries(self):
        v = small_vocab()
        q = FlatQuery(AggregationTarget(AVG, "sales"))
        X = encode_workload([LabeledQuery(q, 5.0, 3)], v)
        np.testing.assert_array_equal(X[0], encode(q, v))


class TestVocabularyRecords:
    def test_json_round_trip(self, transactions):
        template = QueryTemplate.build(
            transactions,
            targets=[AggregationTarget(AVG, "sales")],
            cont_filter_attrs=["sales"],
            nom_filter_attrs=["region"],
            numeric_scales={"sales": 4.0},
        )
        queries, _ = generate_workload(transactions, template)
        labeled, _ = label_workload(transactions, queries)
        vocab = build_vocabulary(labeled, template)
        back = TokenVocabulary.from_record(json.loads(json.dumps(vocab.to_record())),
                                           vocab.content_hash())
        assert back == vocab
        assert back.content_hash() == vocab.content_hash()

    @pytest.mark.parametrize("field, value", MISTYPED_VOCAB_FIELDS)
    def test_mistyped_field_is_a_type_error_naming_it(self, field, value):
        rec = {**small_vocab().to_record(), field: value}
        with pytest.raises(TypeError, match=f"^{field}"):
            TokenVocabulary.from_record(rec, small_vocab().content_hash())

    @pytest.mark.parametrize("field, value", BAD_SCALE_VOCAB_FIELDS)
    def test_scale_that_is_not_finite_and_positive_is_a_value_error(self, field, value):
        with pytest.raises(ValueError, match=r"^numeric_scales\['sales'\] is .*, not a finite positive"):
            TokenVocabulary.from_record({**small_vocab().to_record(), field: value},
                                        small_vocab().content_hash())
        with pytest.raises(ValueError, match=r"^numeric_scales\['sales'\]"):
            TokenVocabulary(("avg(sales)",), ("sales",), (), {}, value, 8)

    @pytest.mark.parametrize("value, error", [
        (0, ValueError), (-1.0, ValueError), (float("nan"), ValueError),
        (float("inf"), ValueError), (float("-inf"), ValueError), (True, TypeError),
        ("4", TypeError), (None, TypeError),
    ])
    def test_one_scale_rule_for_the_vocabulary_and_the_template(self, transactions, value, error):
        check_scale("s", 0.25)
        check_scale("s", 3)
        with pytest.raises(error, match=r"^s is "):
            check_scale("s", value)
        with pytest.raises(error, match=r"^numeric_scales\['sales'\] is "):
            TokenVocabulary(("avg(sales)",), ("sales",), (), {}, {"sales": value}, 8)
        with pytest.raises(error, match=r"^numeric_scales\['sales'\] is "):
            QueryTemplate.build(transactions, [AggregationTarget(AVG, "sales")],
                                numeric_scales={"sales": value})

    def test_there_is_no_vocabulary_file(self):
        assert {"save_vocabulary", "load_vocabulary"} & set(aqplearn.__all__) == set()

    def test_missing_field_is_a_key_error(self):
        rec = small_vocab().to_record()
        del rec["members"]
        with pytest.raises(KeyError, match="members"):
            TokenVocabulary.from_record(rec, small_vocab().content_hash())

    @pytest.mark.parametrize("content_hash", [None, "", "0" * 64, small_vocab(6).content_hash()])
    def test_record_of_another_hash_is_a_value_error(self, content_hash):
        with pytest.raises(ValueError, match="^its content hash is not "):
            TokenVocabulary.from_record(small_vocab().to_record(), content_hash)

    def test_member_token_namespacing(self):
        assert member_token("region", "north") == "region=north"
