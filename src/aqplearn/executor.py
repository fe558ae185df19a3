"""Exact aggregation engine over the columnar store.

Flat queries are evaluated by a full scan with boolean masks. Labeling
goes through a group index, built once per (Dataset, tuple of nominal
attributes) and shared by every query that groups by that tuple: the
stable argsort of the composite group code over all rows, the start of
each group in that order, each group's member tuple and the group of
each member tuple, and permuted copies of the columns queries ask for,
made on first use. The Dataset's memo keeps the index and the copies.
The scan kernel, _group_scan, has one caller, label_workload: one
BETWEEN mask over the permuted columns, one binary search of the matched
positions for every group's support, one gather per target column and
the aggregation kernel on each non-empty group's contiguous slice,
returned as arrays. A group-by query is labeled as its flattened cells:
execute_groupby builds one flat query per (group, target) and hands them
to label_workload. The executor supplies the training labels and doubles
as the correctness oracle for the learned model, so exactness and
determinism matter more than speed here.

label_workload is an array program over one walk of the workload: the
walk numbers its distinct targets, BETWEEN tuples and IN tuples, each IN
tuple maps to its group, np.unique groups the queries into one scan per
(BETWEEN tuple, IN attribute tuple), and one gather reads every label and
support from the scans' arrays. A query without IN filters groups by the
empty tuple, whose index is one group of every row in table order and
reads the columns in place.

Filter semantics: BETWEEN is inclusive on both bounds; IN binds a nominal
attribute to exactly one member. Median of an even-sized multiset is the
mean of the two middle order statistics. The kernel finds them with one
np.partition at the upper middle, the lower one being the largest value
before it: numpy 2 runs its fast selection only for a single kth, and
np.median asks for two or three, so the median is several times faster
here than np.median and gives the same bits.

Every aggregate, whether reached through execute_flat or through a
group-by cell, goes through the same kernel on the same row-ordered value
sequence: a stable sort keeps dataset row order inside each group, and a
masked subset of it keeps that order, so flattened group-by cells
reproduce execute_flat results bit-for-bit.
"""

from __future__ import annotations

import math
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
    number_parts,
)
from .store import Dataset, Kind


@dataclass(frozen=True)
class LabelReport:
    """Outcome counts of a batch labeling run."""

    total: int
    labeled: int
    zero_filled: int
    excluded_empty: int
    scans: int  # group scans run, one per (BETWEEN tuple, IN attribute tuple)


def _aggregate(func: AggregationFunction, values: np.ndarray) -> float:
    """Aggregation kernel; `values` must be in dataset row order."""
    if func is AggregationFunction.COUNT:
        return float(len(values))
    if func is AggregationFunction.COUNT_DISTINCT:
        return float(len(np.unique(values)))
    # np.add.reduce is the sum np.sum and np.mean run, without their wrappers.
    if func is AggregationFunction.SUM:
        return float(np.add.reduce(values)) if len(values) else 0.0
    if len(values) == 0:
        raise EmptyAggregate(f"{func.value} over zero matched rows")
    if func is AggregationFunction.AVG:
        return float(np.add.reduce(values)) / len(values)
    if func is AggregationFunction.MEDIAN:
        # One kth: np.median's two or three (both middles, and -1 for its NaN
        # check, which finite columns never need) take numpy 2's generic
        # selection path. The mean is np.median's own last step, so bits match.
        k = len(values) // 2
        part = np.partition(values, k)
        middle = (part[k],) if len(values) % 2 else (part[:k].max(), part[k])
        return float(np.mean(middle))
    if func is AggregationFunction.MIN:
        return float(np.min(values))
    if func is AggregationFunction.MAX:
        return float(np.max(values))
    raise ValueError(f"unhandled aggregation {func}")  # pragma: no cover


def _target_column(ds: Dataset, target: AggregationTarget) -> np.ndarray:
    target.validate(ds)
    if ds.kind_of(target.attr) is Kind.CONTINUOUS:
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
    values = np.take(column, np.flatnonzero(mask))  # faster than column[mask], same values
    value = _aggregate(q.target.func, values)
    return value, int(len(values))


class _GroupIndex:
    """The rows of one Dataset grouped by one tuple of nominal attributes.

    `order` is the stable argsort of the composite group code over all
    rows (int32 below 2**31 rows), so each group's rows are contiguous in
    it and keep dataset row order; group g starts at order[starts[g]].
    Member ids follow sorted member order, so code order is the
    lexicographic order of the member tuples, and `group_of` maps each observed member tuple to its group.
    _group_column permutes columns into `order`. For the empty tuple
    `order` is a basic slice, so columns are views and nothing is copied.
    The index holds no reference to its Dataset: the Dataset's memo holds
    the index, and the cycle would keep the table alive until a full
    collection.
    """

    def __init__(self, ds: Dataset, attrs: tuple[str, ...]):
        self.attrs = attrs
        if not attrs:  # no GROUP BY: one group of every row, columns read in place
            self.order = slice(None)
            self.starts = np.zeros(min(ds.row_count, 1), dtype=np.intp)
            self.members = [()] * len(self.starts)
        else:
            dims = tuple(max(len(ds.members(a)), 1) for a in attrs)
            codes = np.ravel_multi_index([ds.nominal_id_values(a) for a in attrs], dims)
            # The narrowest codes sort the same, and numpy radix-sorts 8- and 16-bit ones.
            codes = codes.astype(np.min_scalar_type(math.prod(dims) - 1))
            self.order = np.argsort(codes, kind="stable")
            if ds.row_count < 2**31:
                self.order = self.order.astype(np.int32)
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
        self.group_of = {members: g for g, members in enumerate(self.members)}


def _group_index(ds: Dataset, attrs: tuple[str, ...]) -> _GroupIndex:
    """The Dataset's group index for `attrs`, built on first use; the
    Dataset never changes, so the index stays valid for its lifetime."""
    for a in attrs:
        ds.nominal_id_values(a)  # kind check
    return ds.derived(("group_index", attrs), lambda: _GroupIndex(ds, attrs))


def _group_column(ds: Dataset, index: _GroupIndex, name: str, values: np.ndarray) -> np.ndarray:
    """`values`, the Dataset column `name`, in the group order of `index`,
    permuted on first use and kept by the Dataset."""
    return ds.derived(("group_column", index.attrs, name), lambda: values[index.order])


def _group_scan(
    ds: Dataset,
    index: _GroupIndex,
    between: tuple[BetweenFilter, ...],
    targets: tuple[AggregationTarget, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """The scan kernel: every group's support and every target's value there.

    One BETWEEN mask over the index's columns, one binary search of the
    matched positions for the supports, one gather per target column and
    the aggregation kernel per non-empty group. Returns (supports, values):
    supports[g] is group g's matched row count and values[g, k] target k's
    value over those rows, NaN where the group matched no row.
    """
    columns = {t.attr: _target_column(ds, t) for t in targets}
    mask = np.ones(ds.row_count, dtype=bool)
    for f in between:
        v = _group_column(ds, index, f.attr, ds.continuous_values(f.attr))
        mask &= (v >= f.lower) & (v <= f.upper)
    positions = np.flatnonzero(mask)
    # Group g's matched rows are positions[bounds[g]:bounds[g + 1]].
    bounds = np.searchsorted(positions, np.append(index.starts, ds.row_count))
    supports = np.diff(bounds)
    values = np.full((len(supports), len(targets)), np.nan)
    nonempty = np.flatnonzero(supports)
    spans = list(zip(bounds[nonempty].tolist(), bounds[nonempty + 1].tolist()))
    matched = {attr: _group_column(ds, index, attr, col)[positions] for attr, col in columns.items()}
    for k, t in enumerate(targets):
        v = matched[t.attr]
        values[nonempty, k] = [_aggregate(t.func, v[s:e]) for s, e in spans]
    return supports, values


def execute_groupby(ds: Dataset, gq: GroupByQuery) -> list[LabeledQuery]:
    """Evaluate a group-by query exactly as its flattened cells.

    One flat query per (member tuple, target), with the query's BETWEEN
    filters and the member tuple as IN filters, labeled by label_workload.
    Only groups with matched rows appear (support is always >= 1), member
    tuples in lexicographic order, then targets in query order. With no
    GROUP BY attributes the one group is every matched row: members (), or
    no query when no row matches.
    """
    members = _group_index(ds, gq.groupby_attrs).members
    # Checked here too: a table with no group gives label_workload nothing to check.
    for t in gq.targets:
        _target_column(ds, t)
    for f in gq.between_filters:
        ds.continuous_values(f.attr)
    in_sets = [tuple(map(InFilter, gq.groupby_attrs, m)) for m in members]
    queries = [FlatQuery(t, gq.between_filters, ins) for ins in in_sets for t in gq.targets]
    return [lq for lq in label_workload(ds, queries)[0] if lq.support > 0]


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

    One walk numbers the distinct targets, BETWEEN tuples and IN tuples
    (number_parts). Each distinct IN tuple maps to its attribute tuple and
    to its group in that tuple's group index; a query without IN filters
    groups by the empty tuple, one group of every matched row. Queries
    sharing a BETWEEN tuple and IN attributes share one scan of
    _group_scan, so labels equal execute_flat's bit for bit; with
    threads > 1 the scans run on a pool. One gather over the
    scans' arrays reads every query's label and support. Zero-support
    queries get label 0 for counting aggregates (Count/CountDistinct/Sum)
    and are excluded otherwise. Output order matches input order minus
    exclusions.
    """
    parts, index = number_parts(queries)
    n = len(parts)
    counting = np.zeros(n, dtype=bool)  # per target part
    attr_set = np.zeros(n, dtype=np.intp)  # per IN part, into group_indexes
    group = np.zeros(n, dtype=np.intp)  # per IN part, its group; -1 if never observed
    attr_sets: dict[tuple[str, ...], int] = {}
    group_indexes: list[_GroupIndex] = []
    for k, (c, part) in enumerate(parts):
        if c == 0:
            counting[k] = part.func in COUNTING_FUNCS
        elif c == 2:
            attrs = tuple(f.attr for f in part)
            if attrs not in attr_sets:
                attr_sets[attrs] = len(group_indexes)
                group_indexes.append(_group_index(ds, attrs))
            attr_set[k] = attr_sets[attrs]
            group[k] = group_indexes[attr_set[k]].group_of.get(tuple(f.member for f in part), -1)

    # A scan is a (BETWEEN part, IN attribute set) pair, and its cells are
    # its distinct targets; both are numbered in sorted key order.
    scan_keys, scan_of = np.unique(index[:, 1] * n + attr_set[index[:, 2]], return_inverse=True)
    cell_keys, cell_of = np.unique(scan_of * n + index[:, 0], return_inverse=True)
    first_cell = np.searchsorted(cell_keys // n, np.arange(len(scan_keys) + 1))

    def scan(s: int) -> tuple[np.ndarray, np.ndarray]:
        between = parts[scan_keys[s] // n][1]
        cells = cell_keys[first_cell[s] : first_cell[s + 1]] % n
        targets = tuple(parts[t][1] for t in cells.tolist())
        return _group_scan(ds, group_indexes[scan_keys[s] % n], between, targets)

    if threads > 1 and len(scan_keys) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            scans = list(pool.map(scan, range(len(scan_keys))))
    else:
        scans = [scan(s) for s in range(len(scan_keys))]

    # Every scan's arrays end to end, then a 0 support and a NaN value read
    # by queries whose members were never observed.
    supports = np.concatenate([sup for sup, _ in scans] + [[0]])
    values = np.concatenate([val.ravel() for _, val in scans] + [[np.nan]])
    sup_start = np.cumsum([0] + [len(sup) for sup, _ in scans])[scan_of]
    val_start = np.cumsum([0] + [val.size for _, val in scans])[scan_of]
    g = group[index[:, 2]]
    width = np.diff(first_cell)[scan_of]
    observed = g >= 0
    support = supports[np.where(observed, sup_start + g, -1)]
    label = values[np.where(observed, val_start + g * width + cell_of - first_cell[scan_of], -1)]
    keep = np.flatnonzero((support > 0) | counting[index[:, 0]])
    label = np.where(support > 0, label, 0.0)[keep]
    support = support[keep]
    kept = map(queries.__getitem__, keep.tolist())
    labeled = list(map(LabeledQuery, kept, label.tolist(), support.tolist()))
    report = LabelReport(
        total=len(queries),
        labeled=len(labeled),
        zero_filled=int(np.count_nonzero(support == 0)),
        excluded_empty=len(queries) - len(labeled),
        scans=len(scan_keys),
    )
    return labeled, report
