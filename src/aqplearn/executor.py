"""Exact aggregation engine over the columnar store.

Flat queries are evaluated by a full scan with boolean masks. Group-by
queries go through a group index, built once per (Dataset, tuple of
nominal attributes) and shared by every query that groups by that tuple:
the stable argsort of the composite group code over all rows, the start
of each group in that order, each group's member tuple, and permuted
copies of the columns queries ask for, made on first use. A query then
costs one BETWEEN mask over the permuted columns, one binary search of
the matched positions for the group supports, one gather per target
column and the aggregation kernel on contiguous slices. The executor
supplies the training labels and doubles as the correctness oracle for
the learned model, so exactness and determinism matter more than speed
here. label_workload evaluates every query this way; a query without IN
filters groups by the empty tuple, whose index is one group of every
row in table order and reads the columns in place.

Filter semantics: BETWEEN is inclusive on both bounds; IN binds a nominal
attribute to exactly one member. Median of an even-sized multiset is the
mean of the two middle order statistics.

Every aggregate, whether reached through execute_flat or through a
group-by cell, goes through the same kernel on the same row-ordered value
sequence: a stable sort keeps dataset row order inside each group, and a
masked subset of it keeps that order, so flattened group-by cells
reproduce execute_flat results bit-for-bit.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import EmptyAggregate, WrongKind
from .queries import (
    COUNTING_FUNCS,
    AggregationFunction,
    AggregationTarget,
    BetweenFilter,
    FlatQuery,
    GroupByQuery,
    InFilter,
    LabeledQuery,
    target_allowed,
)
from .store import Dataset, Kind


@dataclass(frozen=True)
class GroupByRow:
    members: tuple[str, ...]
    values: tuple[float, ...]
    support: int


@dataclass(frozen=True)
class GroupByResult:
    """Observed groups only, sorted lexicographically by member tuple."""

    groupby_attrs: tuple[str, ...]
    targets: tuple[AggregationTarget, ...]
    rows: tuple[GroupByRow, ...]


@dataclass(frozen=True)
class LabelReport:
    """Outcome counts of a batch labeling run."""

    total: int
    labeled: int
    zero_filled: int
    excluded_empty: int


def _aggregate(func: AggregationFunction, values: np.ndarray) -> float:
    """Aggregation kernel; `values` must be in dataset row order."""
    if func is AggregationFunction.COUNT:
        return float(len(values))
    if func is AggregationFunction.COUNT_DISTINCT:
        return float(len(np.unique(values)))
    if func is AggregationFunction.SUM:
        return float(np.sum(values)) if len(values) else 0.0
    if len(values) == 0:
        raise EmptyAggregate(f"{func.value} over zero matched rows")
    if func is AggregationFunction.AVG:
        return float(np.mean(values))
    if func is AggregationFunction.MEDIAN:
        return float(np.median(values))
    if func is AggregationFunction.MIN:
        return float(np.min(values))
    if func is AggregationFunction.MAX:
        return float(np.max(values))
    raise ValueError(f"unhandled aggregation {func}")  # pragma: no cover


def _target_column(ds: Dataset, target: AggregationTarget) -> np.ndarray:
    kind = ds.kind_of(target.attr)
    if not target_allowed(target.func, kind):
        raise WrongKind(
            f"{target.func.value} is not applicable to nominal attribute {target.attr!r}"
        )
    if kind is Kind.CONTINUOUS:
        return ds.continuous_values(target.attr)
    return ds.nominal_id_values(target.attr)


def _filter_mask(
    ds: Dataset,
    between: tuple[BetweenFilter, ...],
    in_filters: tuple[InFilter, ...],
) -> np.ndarray:
    mask = np.ones(ds.row_count, dtype=bool)
    for f in between:
        v = ds.continuous_values(f.attr)
        mask &= (v >= f.lower) & (v <= f.upper)
    for f in in_filters:
        ids = ds.nominal_id_values(f.attr)
        mid = ds.member_id(f.attr, f.member)
        if mid is None:
            mask[:] = False
        else:
            mask &= ids == mid
    return mask


def execute_flat(ds: Dataset, q: FlatQuery) -> tuple[float, int]:
    """Evaluate a flat query exactly; returns (value, matched row count).

    Avg/Median/Min/Max over zero matched rows raise EmptyAggregate;
    Count/CountDistinct/Sum return 0.
    """
    column = _target_column(ds, q.target)
    mask = _filter_mask(ds, q.between_filters, q.in_filters)
    values = column[mask]
    value = _aggregate(q.target.func, values)
    return value, int(len(values))


class _GroupIndex:
    """The rows of one Dataset grouped by one tuple of nominal attributes.

    `order` is the stable argsort of the composite group code over all
    rows, so each group's rows are contiguous in it and keep dataset row
    order; group g starts at order[starts[g]]. Member ids follow sorted
    member order, so code order is the lexicographic order of the member
    tuples. Columns are permuted into `order` on first use and kept. For
    the empty tuple `order` is a basic slice, so columns are views and
    nothing is copied.
    """

    def __init__(self, ds: Dataset, attrs: tuple[str, ...]):
        if not attrs:  # no GROUP BY: one group of every row, columns read in place
            self.order = slice(None)
            self.starts = np.zeros(min(ds.row_count, 1), dtype=np.intp)
            self.members = [()] * len(self.starts)
        else:
            dims = tuple(max(len(ds.members(a)), 1) for a in attrs)
            codes = np.ravel_multi_index([ds.nominal_id_values(a) for a in attrs], dims)
            self.order = np.argsort(codes, kind="stable")
            sorted_codes = codes[self.order]
            first = np.ones(len(sorted_codes), dtype=bool)
            first[1:] = sorted_codes[1:] != sorted_codes[:-1]
            self.starts = np.flatnonzero(first)
            member_lists = [ds.members(a) for a in attrs]
            ids = np.unravel_index(sorted_codes[self.starts], dims)
            self.members = [
                tuple(member_lists[k][i] for k, i in enumerate(combo))
                for combo in zip(*(axis.tolist() for axis in ids))
            ]
        self._columns: dict[str, np.ndarray] = {}
        self._lock = threading.Lock()

    def column(self, name: str, values: np.ndarray) -> np.ndarray:
        """`values` (the dataset column `name`) in group order."""
        with self._lock:
            if name not in self._columns:
                self._columns[name] = values[self.order]
            return self._columns[name]


def _group_index(ds: Dataset, attrs: tuple[str, ...]) -> _GroupIndex:
    """The Dataset's group index for `attrs`, built on first use; the
    Dataset never changes, so the index stays valid for its lifetime."""
    for a in attrs:
        if ds.kind_of(a) is not Kind.NOMINAL:
            raise WrongKind(f"GROUP BY attribute {a!r} must be nominal")
    return ds.derived(("group_index", attrs), lambda: _GroupIndex(ds, attrs))


def execute_groupby(ds: Dataset, gq: GroupByQuery) -> GroupByResult:
    """Evaluate a group-by query exactly over the rows passing its filters.

    Only member tuples observed among the matched rows appear (support is
    always >= 1), one row per tuple, sorted lexicographically. With no
    GROUP BY attributes the one group is every matched row: one row with
    members (), or none when no row matches.
    """
    index = _group_index(ds, gq.groupby_attrs)
    columns = {t.attr: _target_column(ds, t) for t in gq.targets}
    mask = np.ones(ds.row_count, dtype=bool)
    for f in gq.between_filters:
        v = index.column(f.attr, ds.continuous_values(f.attr))
        mask &= (v >= f.lower) & (v <= f.upper)
    positions = np.flatnonzero(mask)
    # Group g's matched rows are positions[bounds[g]:bounds[g + 1]].
    bounds = np.searchsorted(positions, np.append(index.starts, ds.row_count)).tolist()
    matched = {attr: index.column(attr, col)[positions] for attr, col in columns.items()}

    rows: list[GroupByRow] = []
    for g, members in enumerate(index.members):
        s, e = bounds[g], bounds[g + 1]
        if e > s:
            values = tuple(_aggregate(t.func, matched[t.attr][s:e]) for t in gq.targets)
            rows.append(GroupByRow(members, values, e - s))
    return GroupByResult(tuple(gq.groupby_attrs), tuple(gq.targets), tuple(rows))


def extract_member_combinations(ds: Dataset, nominal_attrs: list[str]) -> list[tuple[str, ...]]:
    """Distinct member tuples observed in the data, lexicographically sorted."""
    if not nominal_attrs:
        raise WrongKind("at least one nominal attribute required")
    return list(_group_index(ds, tuple(nominal_attrs)).members)


def label_workload(
    ds: Dataset,
    queries: list[FlatQuery],
    threads: int = 1,
) -> tuple[list[LabeledQuery], LabelReport]:
    """Label a batch of flat queries against the dataset.

    Queries sharing the same BETWEEN filters and nominal attributes are
    evaluated through one execute_groupby call each, over the group index
    of their nominal attributes, which is what makes labeling hundreds of
    thousands of generated queries tractable; the per-group aggregation
    kernel is the one execute_flat uses, so the shortcut is exact. Queries
    without IN filters go through the same call with the empty GROUP BY
    tuple, one group of every matched row, so the queries of one window
    share one scan. Zero-support queries get label 0 for counting
    aggregates (Count/CountDistinct/Sum) and are excluded otherwise.
    Output order matches input order minus exclusions.
    """
    groups: dict[tuple, list[int]] = {}
    for i, q in enumerate(queries):
        key = (q.between_filters, tuple(f.attr for f in q.in_filters))
        groups.setdefault(key, []).append(i)

    def run_group(key: tuple, idxs: list[int]) -> list[tuple[int, LabeledQuery | None]]:
        between, in_attrs = key
        targets = tuple(dict.fromkeys(queries[i].target for i in idxs))
        res = execute_groupby(ds, GroupByQuery(targets, between, in_attrs))
        by_members = {row.members: row for row in res.rows}
        t_index = {t: k for k, t in enumerate(targets)}
        out: list[tuple[int, LabeledQuery | None]] = []
        for i in idxs:
            q = queries[i]
            row = by_members.get(tuple(f.member for f in q.in_filters))
            if row is not None:
                out.append((i, LabeledQuery(q, row.values[t_index[q.target]], row.support)))
            elif q.target.func in COUNTING_FUNCS:
                out.append((i, LabeledQuery(q, 0.0, 0)))
            else:
                out.append((i, None))
        return out

    if threads > 1 and len(groups) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = pool.map(lambda kv: run_group(*kv), groups.items())
            resolved = [item for chunk in chunks for item in chunk]
    else:
        resolved = [item for key, idxs in groups.items() for item in run_group(key, idxs)]

    results: list[LabeledQuery | None] = [None] * len(queries)
    for i, lq in resolved:
        results[i] = lq
    labeled = [lq for lq in results if lq is not None]
    report = LabelReport(
        total=len(queries),
        labeled=len(labeled),
        zero_filled=sum(lq.support == 0 for lq in labeled),
        excluded_empty=len(queries) - len(labeled),
    )
    return labeled, report
