"""Synthetic tables: built from member codes, they equal the Dataset that
from_columns builds from the same rows as strings."""

import hashlib

import numpy as np
import pytest

from aqplearn import Dataset, Kind, make_schema, synth
from aqplearn.store import dump_csv

# SHA-256 of dump_csv(make_benchmark_table(20_000, 7)), as written when the
# table was built from member strings and csv.writer wrote each row. It
# pins both the synthetic values and the writer's bytes.
BENCHMARK_20K_CSV_SHA256 = "0ee3dc001a0e5c2f428e5b359cb30e9d572df46e67acac98c2678032697ae696"


def strings_benchmark_table(n_rows, seed) -> Dataset:
    """make_benchmark_table's rows, built as one member string per cell."""
    rng = np.random.default_rng(seed)
    i = rng.integers(0, 4, n_rows)
    j = rng.integers(0, 5, n_rows)
    k = rng.integers(0, 10, n_rows)
    x = rng.uniform(0.0, 1000.0, n_rows) + 20.0 * (i + j) + 50.0
    value = (
        200.0 + 40.0 * i + 25.0 * j + 10.0 * k
        + 15.0 * np.sin(2.0 * np.pi * x / 1000.0)
        + rng.normal(0.0, 8.0, n_rows)
    )
    return Dataset.from_columns(make_schema(synth.BENCHMARK_SCHEMA), {
        "region": [f"r{v}" for v in i],
        "channel": [f"c{v}" for v in j],
        "product": [f"p{v:02d}" for v in k],
        "x": x.tolist(),
        "value": value.tolist(),
    })


def strings_transactions_table(n_rows, seed) -> Dataset:
    """make_transactions_table's rows, built as one member string per cell."""
    rng = np.random.default_rng(seed)
    regions = ("north", "south", "east", "west")
    categories = ("food", "tools", "toys")
    ri = rng.integers(0, len(regions), n_rows)
    ci = rng.integers(0, len(categories), n_rows)
    sales = np.round(100.0 + 80.0 * ri + 50.0 * ci + rng.gamma(2.0, 60.0, n_rows), 2)
    discount = np.round(rng.uniform(0.0, 0.5, n_rows), 3)
    return Dataset.from_columns(make_schema(synth.TRANSACTIONS_SCHEMA), {
        "region": [regions[v] for v in ri],
        "category": [categories[v] for v in ci],
        "sales": sales.tolist(),
        "discount": discount.tolist(),
    })


@pytest.mark.parametrize("seed", [0, 7, 123])
@pytest.mark.parametrize("n_rows", [0, 1, 3, 17, 1000, 20_000])
@pytest.mark.parametrize("build, reference", [
    (synth.make_benchmark_table, strings_benchmark_table),
    (synth.make_transactions_table, strings_transactions_table),
])
def test_synth_equals_the_table_from_member_strings(build, reference, n_rows, seed):
    ds, ref = build(n_rows, seed), reference(n_rows, seed)
    assert ds.schema == ref.schema and ds.row_count == ref.row_count == n_rows
    for attr in ref.schema:
        if attr.kind is Kind.NOMINAL:
            assert ds.members(attr.name) == ref.members(attr.name)
            got, want = ds.nominal_id_values(attr.name), ref.nominal_id_values(attr.name)
        else:
            got, want = ds.continuous_values(attr.name), ref.continuous_values(attr.name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert not got.flags.writeable


@pytest.mark.parametrize("n_rows", [0, 1, 3])
def test_a_member_that_never_occurs_is_absent(n_rows):
    ds = synth.make_benchmark_table(n_rows, seed=7)
    for attr in ("region", "channel", "product"):
        ids = ds.nominal_id_values(attr).tolist()
        assert sorted(set(ids)) == list(range(len(ds.members(attr))))
    assert len(ds.members("product")) <= n_rows < 10


def test_benchmark_table_csv_is_pinned(tmp_path):
    path = tmp_path / "bench.csv"
    dump_csv(synth.make_benchmark_table(20_000, seed=7), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == BENCHMARK_20K_CSV_SHA256
