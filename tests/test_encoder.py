"""Binary query encoding: exact bit patterns, round trips, malformed input."""

import numpy as np
import pytest

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
    load_vocabulary,
    save_vocabulary,
)
from aqplearn.encoder import load_encoded, member_token, row_token_ids, save_encoded
from aqplearn.errors import (
    CorruptArtifact,
    MalformedMatrix,
    NumericOverflow,
    UnknownToken,
)
from conftest import build_transactions

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
            for k in range(9000)  # more than one unpacking chunk
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


class TestTensorHelpers:
    def test_row_token_ids_reads_targets(self):
        v = small_vocab()
        X = encode_workload(
            [
                FlatQuery(AggregationTarget(AVG, "sales")),
                FlatQuery(AggregationTarget(AVG, "sales"), (BetweenFilter("sales", 1.0, 2.0),)),
            ],
            v,
        )
        np.testing.assert_array_equal(row_token_ids(X), [1, 1])

    def test_encode_workload_accepts_labeled_queries(self):
        v = small_vocab()
        q = FlatQuery(AggregationTarget(AVG, "sales"))
        X = encode_workload([LabeledQuery(q, 5.0, 3)], v)
        np.testing.assert_array_equal(X[0], encode(q, v))

    def test_encoded_file_round_trip(self, tmp_path):
        X = np.random.default_rng(0).integers(0, 2, size=(4, 6, 6)).astype(np.uint8)
        y = np.array([1.0, 2.0, 3.0, 4.0])
        s = np.array([1, 2, 3, 4])
        path = tmp_path / "enc.npz"
        save_encoded(path, X, y, s, meta={"note": "hello"})
        X2, y2, s2, meta = load_encoded(path)
        np.testing.assert_array_equal(X, X2)
        np.testing.assert_array_equal(y, y2)
        np.testing.assert_array_equal(s, s2)
        assert meta["note"] == "hello"

    @pytest.mark.parametrize("cell", [0.5, 2, -1])
    def test_encoded_file_rejects_non_binary_cells(self, tmp_path, cell):
        X = np.zeros((2, 6, 6))
        X[1, 3, 4] = cell
        with pytest.raises(MalformedMatrix):
            save_encoded(tmp_path / "enc.npz", X, np.zeros(2), np.ones(2))
        assert not (tmp_path / "enc.npz").exists()


class TestVocabularyFiles:
    def test_save_load_round_trip(self, tmp_path, transactions):
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
        path = tmp_path / "vocab.json"
        save_vocabulary(vocab, path, meta={"origin": "test"})
        back, doc = load_vocabulary(path)
        assert back == vocab
        assert back.content_hash() == vocab.content_hash()
        assert doc["origin"] == "test"

    def test_tampered_file_rejected(self, tmp_path):
        path = tmp_path / "vocab.json"
        save_vocabulary(small_vocab(), path)
        text = path.read_text().replace('"bit_width": 5', '"bit_width": 6')
        path.write_text(text)
        with pytest.raises(CorruptArtifact):
            load_vocabulary(path)

    def test_member_token_namespacing(self):
        assert member_token("region", "north") == "region=north"
