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
    load_schema,
    read_workload,
    write_workload,
)
from aqplearn.artifacts import atomic_open
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

    def test_workload_header_without_count(self, tmp_path):
        path = tmp_path / "w.jsonl"
        write_workload(path, queries())
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        del header["count"]
        path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        with pytest.raises(CorruptArtifact, match="count"):
            read_workload(path)


READERS = {
    "workload": read_workload,
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
    paths = {kind: root / f"{kind}.art" for kind in READERS}
    write_workload(paths["workload"], queries())
    LstmModel(ModelConfig(lstm_units=4, dense_units=4), vocab.sequence_length, vocab.row_width,
              vocabulary=vocab).save(paths["checkpoint"])
    return paths


@pytest.mark.parametrize("reader, other", [(r, o) for r in READERS for o in READERS if r != o])
def test_other_kind_rejected(one_of_each, reader, other):
    READERS[other](one_of_each[other])  # readable by its own reader
    with pytest.raises(VersionMismatch, match=f"holds {other} version"):
        READERS[reader](one_of_each[other])
