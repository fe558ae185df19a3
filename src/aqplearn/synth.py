"""Synthetic tables for benchmarks, demos and end-to-end tests.

The benchmark table is built so that the learning task is solvable but
not trivial: aggregate labels vary smoothly with the nominal group and
with the position of the BETWEEN window, while per-row noise keeps labels
from being exactly recoverable. The small transactions table is a quick
stand-in for a real fact table in demos and CLI walkthroughs. Both are
built from integer member codes, with no string per cell, and equal the
Dataset that Dataset.from_columns builds from the same rows.
"""

from __future__ import annotations

import numpy as np

from .querygen import QueryTemplate
from .store import Dataset, Kind, _sorted_members, make_schema

BENCHMARK_SCHEMA = [
    ("region", Kind.NOMINAL),
    ("channel", Kind.NOMINAL),
    ("product", Kind.NOMINAL),
    ("x", Kind.CONTINUOUS),
    ("value", Kind.CONTINUOUS),
]


def _table(spec, n_rows: int, columns: dict) -> Dataset:
    """A Dataset from finite float64 columns and, for each nominal
    attribute, (codes, members) with row r holding members[codes[r]]. Only
    the members that occur are kept, numbered in sorted order as every
    Dataset numbers them."""
    schema = make_schema(spec)
    arrays, members = {}, {}
    for attr in schema:
        if attr.kind is Kind.CONTINUOUS:
            arrays[attr.name] = columns[attr.name]
        else:
            codes, names = columns[attr.name]
            lookup = {name: code for code, name in enumerate(names)}
            arrays[attr.name], members[attr.name] = _sorted_members(codes, lookup)
    return Dataset(schema, arrays, members, n_rows)


def make_benchmark_table(n_rows: int = 1_000_000, seed: int = 7) -> Dataset:
    """Synthetic fact table: 3 nominal attributes (4 x 5 x 10 members) and
    2 continuous attributes whose means shift smoothly with the group.

    value = base(group) + a smooth wave in x + Gaussian noise, so the
    average of `value` over any (group, x-window) slice is a smooth
    function of the group and the window, which is exactly what the
    regressor has to pick up.
    """
    rng = np.random.default_rng(seed)
    i = rng.integers(0, 4, n_rows)
    j = rng.integers(0, 5, n_rows)
    k = rng.integers(0, 10, n_rows)
    x = rng.uniform(0.0, 1000.0, n_rows) + 20.0 * (i + j) + 50.0
    value = (
        200.0
        + 40.0 * i
        + 25.0 * j
        + 10.0 * k
        + 15.0 * np.sin(2.0 * np.pi * x / 1000.0)
        + rng.normal(0.0, 8.0, n_rows)
    )
    return _table(BENCHMARK_SCHEMA, n_rows, {
        "region": (i, [f"r{v}" for v in range(4)]),
        "channel": (j, [f"c{v}" for v in range(5)]),
        "product": (k, [f"p{v:02d}" for v in range(10)]),
        "x": x,
        "value": value,
    })


def benchmark_template(ds: Dataset, n_cont_samples: int = 260, seed: int = 11) -> QueryTemplate:
    """avg(value) filtered by an x window and one member per nominal attribute.

    260 window samples x 200 observed member combinations = 52,000 queries.
    """
    from .queries import AggregationFunction, AggregationTarget

    return QueryTemplate.build(
        ds,
        targets=[AggregationTarget(AggregationFunction.AVG, "value")],
        cont_filter_attrs=["x"],
        nom_filter_attrs=["region", "channel", "product"],
        n_cont_samples=n_cont_samples,
        seed=seed,
        numeric_scales={"x": 1.0},
    )


TRANSACTIONS_SCHEMA = [
    ("region", Kind.NOMINAL),
    ("category", Kind.NOMINAL),
    ("sales", Kind.CONTINUOUS),
    ("discount", Kind.CONTINUOUS),
]


def make_transactions_table(n_rows: int = 800, seed: int = 3) -> Dataset:
    """Small retail-flavored table for demos and fast end-to-end tests."""
    rng = np.random.default_rng(seed)
    regions = ("north", "south", "east", "west")
    categories = ("food", "tools", "toys")
    ri = rng.integers(0, len(regions), n_rows)
    ci = rng.integers(0, len(categories), n_rows)
    sales = np.round(100.0 + 80.0 * ri + 50.0 * ci + rng.gamma(2.0, 60.0, n_rows), 2)
    discount = np.round(rng.uniform(0.0, 0.5, n_rows), 3)
    return _table(TRANSACTIONS_SCHEMA, n_rows, {
        "region": (ri, regions),
        "category": (ci, categories),
        "sales": sales,
        "discount": discount,
    })
