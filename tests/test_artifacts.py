"""Atomic artifact writes and named errors for unreadable artifacts."""

import contextlib
import json

import numpy as np
import pytest

from aqplearn import (
    AggregationFunction,
    AggregationTarget,
    BetweenFilter,
    FlatQuery,
    Kind,
    LstmModel,
    ModelConfig,
    build_vocabulary,
    encode_workload,
    load_schema,
    read_workload,
    write_workload,
)
from aqplearn.artifacts import atomic_open, save_npz
from aqplearn.encoder import ENCODED_VERSION, load_encoded, save_encoded
from aqplearn.errors import CorruptArtifact, VersionMismatch
from aqplearn.querygen import QueryTemplate
from aqplearn.store import AttributeSchema, dump_csv, dump_schema, make_schema
from conftest import build_transactions


def queries(n=4):
    target = AggregationTarget(AggregationFunction.AVG, "sales")
    return [FlatQuery(target, (BetweenFilter("sales", 60.0, 60.0 + 10 * k),)) for k in range(n)]


class TestAtomicWrites:
    def test_failed_write_keeps_the_old_file_and_leaves_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "w.jsonl"
        write_workload(path, queries())
        before = path.read_bytes()
        with pytest.raises(AttributeError):
            write_workload(path, queries() + ["not a query"])  # raises mid-write
        assert path.read_bytes() == before

        schema_path = tmp_path / "schema.json"
        dump_schema(make_schema([("x", Kind.CONTINUOUS)]), schema_path)
        schema_before = schema_path.read_bytes()
        with pytest.raises(TypeError):  # a name json cannot encode, mid-write
            dump_schema([AttributeSchema(object(), Kind.CONTINUOUS, 0)], schema_path)
        assert schema_path.read_bytes() == schema_before

        csv_path = tmp_path / "data.csv"
        ds = build_transactions()
        dump_csv(ds, csv_path)
        csv_before = csv_path.read_bytes()

        class HeaderThenFail:
            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def write(self, text):
                self.writes += 1
                if self.writes > 1:
                    raise OSError("disk full")
                return self.fh.write(text)

        @contextlib.contextmanager
        def header_then_fail(path, **kwargs):
            with atomic_open(path, **kwargs) as fh:
                yield HeaderThenFail(fh)

        monkeypatch.setattr("aqplearn.store.atomic_open", header_then_fail)
        with pytest.raises(OSError, match="disk full"):
            dump_csv(ds, csv_path)
        assert csv_path.read_bytes() == csv_before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "schema.json", "w.jsonl"]

    def test_failed_checkpoint_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        model = LstmModel(ModelConfig(lstm_units=4, dense_units=4), 3, 5)
        path = tmp_path / "model.npz"
        model.save(path)
        before = path.read_bytes()

        def half_write(fh, **arrays):
            fh.write(b"PK\x03\x04 partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", half_write)
        with pytest.raises(OSError):
            model.save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]

    def test_concurrent_writers_do_not_share_a_temp_file(self, tmp_path):
        path = tmp_path / "out.txt"
        with atomic_open(path) as first, atomic_open(path) as second:
            first.write("first")
            second.write("second")
        assert path.read_text() == "first"  # the outer writer finishes last
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def truncated(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    return path


class TestTruncatedArtifacts:
    def test_schema(self, tmp_path):
        path = tmp_path / "schema.json"
        dump_schema(make_schema([("a", Kind.CONTINUOUS), ("b", Kind.NOMINAL)]), path)
        with pytest.raises(CorruptArtifact):
            load_schema(truncated(path))

    def test_workload(self, tmp_path):
        path = tmp_path / "w.jsonl"
        write_workload(path, queries())
        with pytest.raises(CorruptArtifact):
            read_workload(truncated(path))

    def test_encoded_workload(self, tmp_path):
        ds = build_transactions()
        template = QueryTemplate.build(
            ds, targets=[AggregationTarget(AggregationFunction.AVG, "sales")],
            cont_filter_attrs=["sales"], nom_filter_attrs=[], n_cont_samples=4, seed=1,
        )
        vocab = build_vocabulary(queries(), template)
        X = encode_workload(queries(), vocab)
        save_encoded(tmp_path / "e.npz", X, np.zeros(len(X)), np.ones(len(X), dtype=np.int64),
                     meta={"vocab": vocab.to_record(), "vocab_hash": vocab.content_hash()})
        with pytest.raises(CorruptArtifact):
            load_encoded(truncated(tmp_path / "e.npz"))

    def test_encoded_header_without_count(self, tmp_path):
        path = tmp_path / "e.npz"
        save_encoded(path, np.zeros((3, 2, 2), dtype=np.uint8), np.zeros(3), np.ones(3))
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(bytes(arrays["meta"]))
        del meta["count"]
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        arrays["y"] = arrays["y"][:2]
        np.savez(path, **arrays)
        with pytest.raises(CorruptArtifact, match="count"):
            load_encoded(path)

    @pytest.mark.parametrize("label", [np.nan, np.inf, -np.inf])
    def test_encoded_non_finite_label(self, tmp_path, label):
        path = tmp_path / "e.npz"
        save_encoded(path, np.zeros((3, 2, 2), dtype=np.uint8), np.zeros(3), np.ones(3))
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files if k != "meta"}
            meta = json.loads(bytes(data["meta"]))
        arrays["y"][1] = label
        save_npz(path, "encoded", ENCODED_VERSION, arrays, meta)
        with pytest.raises(CorruptArtifact, match="label 1 is"):
            load_encoded(path)


READERS = {
    "workload": read_workload,
    "encoded": load_encoded,
    "checkpoint": LstmModel.load,
}


@pytest.fixture(scope="module")
def one_of_each(tmp_path_factory):
    """One artifact of every kind, keyed by kind."""
    root = tmp_path_factory.mktemp("kinds")
    template = QueryTemplate.build(
        build_transactions(), targets=[AggregationTarget(AggregationFunction.AVG, "sales")],
        cont_filter_attrs=["sales"], nom_filter_attrs=[], n_cont_samples=4, seed=1,
    )
    vocab = build_vocabulary(queries(), template)
    X = encode_workload(queries(), vocab)
    paths = {kind: root / f"{kind}.art" for kind in READERS}
    write_workload(paths["workload"], queries())
    save_encoded(paths["encoded"], X, np.zeros(len(X)), np.ones(len(X), dtype=np.int64),
                 meta={"vocab": vocab.to_record(), "vocab_hash": vocab.content_hash()})
    LstmModel(ModelConfig(lstm_units=4, dense_units=4), vocab.sequence_length, vocab.row_width,
              vocabulary=vocab).save(paths["checkpoint"])
    return paths


@pytest.mark.parametrize("reader, other", [(r, o) for r in READERS for o in READERS if r != o])
def test_other_kind_rejected(one_of_each, reader, other):
    READERS[other](one_of_each[other])  # readable by its own reader
    with pytest.raises(VersionMismatch, match=f"holds {other} version"):
        READERS[reader](one_of_each[other])
