"""Exact execution engine, checked against a naive pure-Python reference."""

import gc
import hashlib
import math
import re
import statistics
import sys
import weakref

import numpy as np
import pytest

from aqplearn import (
    AggregationFunction,
    AggregationTarget,
    BetweenFilter,
    Dataset,
    FlatQuery,
    GroupByQuery,
    InFilter,
    Kind,
    LabelReport,
    QueryTemplate,
    execute_flat,
    execute_groupby,
    extract_member_combinations,
    generate_workload,
    label_workload,
    make_schema,
    synth,
)
from aqplearn import executor
from aqplearn.errors import EmptyAggregate, InvalidTarget, WrongKind
from conftest import TRANSACTION_ROWS, build_transactions

AVG = AggregationFunction.AVG
SUM = AggregationFunction.SUM
COUNT = AggregationFunction.COUNT
COUNT_DISTINCT = AggregationFunction.COUNT_DISTINCT
MEDIAN = AggregationFunction.MEDIAN
MIN = AggregationFunction.MIN
MAX = AggregationFunction.MAX


def naive_flat(rows, columns, q):
    """Aggregate with pure-Python row-at-a-time evaluation."""
    col = {name: i for i, name in enumerate(columns)}
    matched = []
    for row in rows:
        ok = True
        for f in q.between_filters:
            ok = ok and f.lower <= row[col[f.attr]] <= f.upper
        for f in q.in_filters:
            ok = ok and row[col[f.attr]] == f.member
        if ok:
            matched.append(row[col[q.target.attr]])
    func = q.target.func
    if func is COUNT:
        return float(len(matched)), len(matched)
    if func is COUNT_DISTINCT:
        return float(len(set(matched))), len(matched)
    if func is SUM:
        return float(sum(matched)), len(matched)
    if not matched:
        raise EmptyAggregate(func.value)
    value = {
        AVG: statistics.fmean,
        MEDIAN: statistics.median,
        MIN: min,
        MAX: max,
    }[func](matched)
    return float(value), len(matched)


class TestExecuteFlat:
    def test_avg_by_hand(self, transactions):
        q = FlatQuery(AggregationTarget(AVG, "sales"), (), (InFilter("region", "north"),))
        value, support = execute_flat(transactions, q)
        assert (value, support) == (102.0, 3)

    def test_even_median_is_midpoint(self):
        ds = build_transactions(
            [("a", "x", 1.0, 0.0), ("a", "x", 2.0, 0.0), ("a", "x", 3.0, 0.0), ("a", "x", 4.0, 0.0)]
        )
        value, _ = execute_flat(ds, FlatQuery(AggregationTarget(MEDIAN, "sales")))
        assert value == 2.5

    def test_between_is_inclusive(self, transactions):
        q = FlatQuery(
            AggregationTarget(COUNT, "sales"), (BetweenFilter("sales", 80.0, 104.0),)
        )
        value, _ = execute_flat(transactions, q)
        # 80, 82, 84, 90, 100, 102, 104 all qualify; both endpoints included
        assert value == 7.0

    def test_zero_matches_count_is_zero(self, transactions):
        q = FlatQuery(
            AggregationTarget(COUNT, "sales"), (BetweenFilter("sales", 4000.0, 5000.0),)
        )
        assert execute_flat(transactions, q) == (0.0, 0)

    def test_zero_matches_avg_raises(self, transactions):
        q = FlatQuery(AggregationTarget(AVG, "sales"), (), (InFilter("region", "atlantis"),))
        with pytest.raises(EmptyAggregate):
            execute_flat(transactions, q)

    def test_count_on_nominal_allowed(self, transactions):
        value, support = execute_flat(
            transactions, FlatQuery(AggregationTarget(COUNT_DISTINCT, "region"))
        )
        assert (value, support) == (4.0, 10)

    def test_sum_on_nominal_rejected(self, transactions):
        with pytest.raises(InvalidTarget, match="sum is not applicable to nominal attribute"):
            execute_flat(transactions, FlatQuery(AggregationTarget(SUM, "region")))

    def test_nominal_avg_is_one_error_on_every_path(self, transactions):
        """The template, the flat executor, labeling and group-by state the
        kind rule of a target once: one class, one message."""
        target = AggregationTarget(AVG, "region")
        message = "^avg is not applicable to nominal attribute 'region'$"
        for call in (
            lambda: QueryTemplate.build(transactions, [target], ["sales"], ["region"]),
            lambda: execute_flat(transactions, FlatQuery(target)),
            lambda: label_workload(transactions, [FlatQuery(target)]),
            lambda: execute_groupby(transactions, GroupByQuery((target,), (), ("category",))),
        ):
            with pytest.raises(InvalidTarget, match=message):
                call()

    def test_widening_the_window_never_reduces_count(self, transactions):
        counts = []
        for hi in (80.0, 90.0, 100.0, 110.0, 120.0):
            q = FlatQuery(AggregationTarget(COUNT, "sales"), (BetweenFilter("sales", 60.0, hi),))
            counts.append(execute_flat(transactions, q)[0])
        assert counts == sorted(counts)

    def test_matches_naive_reference_on_random_queries(self):
        rng = np.random.default_rng(17)
        regions = ["r0", "r1", "r2"]
        cats = ["c0", "c1"]
        rows = [
            (
                regions[rng.integers(0, 3)],
                cats[rng.integers(0, 2)],
                float(rng.integers(0, 40)),  # small pool so duplicates occur
                float(rng.integers(0, 10)),
            )
            for _ in range(120)
        ]
        ds = build_transactions(rows)
        funcs = [AVG, SUM, COUNT, COUNT_DISTINCT, MEDIAN, MIN, MAX]
        checked = 0
        for trial in range(60):
            func = funcs[trial % len(funcs)]
            lo, hi = sorted(rng.uniform(0, 40, size=2))
            filters = (BetweenFilter("sales", float(lo), float(hi)),)
            ins = ()
            if trial % 2:
                ins = (InFilter("region", regions[rng.integers(0, 3)]),)
            q = FlatQuery(AggregationTarget(func, "sales"), filters, ins)
            try:
                expected, _ = naive_flat(rows, ["region", "category", "sales", "units"], q)
            except EmptyAggregate:
                with pytest.raises(EmptyAggregate):
                    execute_flat(ds, q)
                continue
            value, _ = execute_flat(ds, q)
            if func in (COUNT, COUNT_DISTINCT, MIN, MAX):
                assert value == expected
            else:
                assert math.isclose(value, expected, rel_tol=1e-12)
            checked += 1
        assert checked > 20


def bits(value) -> bytes:
    return np.float64(value).tobytes()


class TestMedianKernel:
    """The median kernel partitions once, at the upper middle, and must give
    np.median's value bit for bit, the sign of a zero included."""

    @staticmethod
    def samples(rng, n):
        yield rng.random(n)  # uniform
        yield rng.integers(0, 4, n).astype(float)  # heavy ties
        yield np.full(n, 2.5)  # all equal
        yield rng.choice([0.0, -0.0], n)
        yield rng.choice([-1.0, -0.0, 0.0, 1.0], n)

    @pytest.mark.parametrize("sizes", [range(1, 301), range(8191, 8194), range(100_000, 100_002)],
                             ids=["1-300", "8191-8193", "100000-100001"])
    def test_equals_np_median_bit_for_bit(self, sizes):
        rng = np.random.default_rng(sizes.start)
        for n in sizes:
            for k, values in enumerate(self.samples(rng, n)):
                kept = values.copy()
                assert bits(executor._aggregate(MEDIAN, values)) == bits(np.median(values)), (n, k)
                assert values.tobytes() == kept.tobytes()  # the input is not reordered

    def test_flat_scan_equals_label_workload_for_even_and_odd_support(self):
        rng = np.random.default_rng(3)
        n_rows = 2_000
        ds = Dataset.from_columns(
            make_schema([("x", Kind.CONTINUOUS), ("v", Kind.CONTINUOUS)]),
            {"x": rng.permutation(n_rows).astype(float), "v": rng.normal(0.0, 1.0, n_rows).round(1)},
        )
        # x holds 0..n_rows-1 once each, so [lo, hi] matches hi - lo + 1 rows.
        windows = [(float(lo), float(lo + width)) for lo in (0, 17, 400) for width in range(12)]
        windows += [(0.0, n_rows - 1.0), (1.0, n_rows - 1.0)]
        queries = [FlatQuery(AggregationTarget(MEDIAN, "v"), (BetweenFilter("x", lo, hi),))
                   for lo, hi in windows]
        labeled, _ = label_workload(ds, queries)
        assert [lq.query for lq in labeled] == queries
        assert {lq.support % 2 for lq in labeled} == {0, 1}
        x, v = ds.continuous_values("x"), ds.continuous_values("v")
        for lq, (lo, hi) in zip(labeled, windows):
            value, support = execute_flat(ds, lq.query)
            assert (bits(lq.label), lq.support) == (bits(value), support)
            assert bits(value) == bits(np.median(v[(x >= lo) & (x <= hi)]))


class TestExecuteGroupBy:
    def test_group_means_by_hand(self, transactions):
        gq = GroupByQuery((AggregationTarget(AVG, "sales"),), (), ("region",))
        res = execute_groupby(transactions, gq)
        by_region = {lq.query.in_filters[0].member: lq.label for lq in res}
        assert by_region["north"] == 102.0
        assert by_region["south"] == 82.0

    def test_rows_sorted_and_supports_sum_to_matches(self, transactions):
        gq = GroupByQuery(
            (AggregationTarget(COUNT, "sales"),),
            (BetweenFilter("sales", 80.0, 120.0),),
            ("region", "category"),
        )
        res = execute_groupby(transactions, gq)
        members = [tuple(f.member for f in lq.query.in_filters) for lq in res]
        assert members == sorted(members)
        total = execute_flat(
            transactions,
            FlatQuery(AggregationTarget(COUNT, "sales"), (BetweenFilter("sales", 80.0, 120.0),)),
        )[0]
        assert sum(lq.support for lq in res) == total
        assert all(lq.support >= 1 for lq in res)

    def test_cells_match_flat_execution_bitwise(self, transactions):
        targets = (
            AggregationTarget(AVG, "sales"),
            AggregationTarget(MEDIAN, "units"),
            AggregationTarget(SUM, "sales"),
        )
        between = (BetweenFilter("units", 1.0, 7.0),)
        gq = GroupByQuery(targets, between, ("region", "category"))
        res = execute_groupby(transactions, gq)
        assert len(res) > 0
        assert [lq.query.target for lq in res] == list(targets) * (len(res) // len(targets))
        for lq in res:
            assert lq.query.between_filters == between
            assert [f.attr for f in lq.query.in_filters] == ["region", "category"]
            flat_value, flat_support = execute_flat(transactions, lq.query)
            assert flat_value == lq.label  # identical bits, not just close
            assert flat_support == lq.support

    def test_groupby_on_continuous_rejected(self, transactions):
        gq = GroupByQuery((AggregationTarget(AVG, "sales"),), (), ("units",))
        with pytest.raises(WrongKind, match="^'units' is continuous, not nominal$"):
            execute_groupby(transactions, gq)

    def test_empty_result_set(self, transactions):
        gq = GroupByQuery(
            (AggregationTarget(AVG, "sales"),),
            (BetweenFilter("sales", 9000.0, 9001.0),),
            ("region",),
        )
        assert execute_groupby(transactions, gq) == []


    def test_empty_groupby_tuple_is_one_group_of_the_matched_rows(self, transactions):
        targets = (
            AggregationTarget(AVG, "sales"),
            AggregationTarget(MEDIAN, "units"),
            AggregationTarget(COUNT_DISTINCT, "region"),
        )
        window = (BetweenFilter("sales", 60.0, 104.0),)
        res = execute_groupby(transactions, GroupByQuery(targets, window, ()))
        assert [lq.query for lq in res] == [FlatQuery(t, window) for t in targets]
        for lq in res:
            value, support = execute_flat(transactions, lq.query)
            assert lq.label == value and lq.support == support
        empty = (BetweenFilter("sales", 9000.0, 9001.0),)
        assert execute_groupby(transactions, GroupByQuery(targets, empty, ())) == []
        with pytest.raises(ValueError):
            GroupByQuery(targets, window, ("region", "region"))

    def test_empty_groupby_tuple_copies_no_column(self, transactions):
        index = executor._group_index(transactions, ())
        sales = transactions.continuous_values("sales")
        assert index.members == [()]
        assert np.shares_memory(executor._group_column(transactions, index, "sales", sales), sales)
        empty = build_transactions([])
        assert executor._group_index(empty, ()).members == []
        gq = GroupByQuery((AggregationTarget(COUNT, "sales"),), (), ())
        assert execute_groupby(empty, gq) == []

    @pytest.mark.parametrize("groupby_attrs", [(), ("region",)])
    def test_bad_target_or_window_rejected_on_an_empty_table(self, groupby_attrs):
        empty = build_transactions([])
        nominal_avg = GroupByQuery((AggregationTarget(AVG, "region"),), (), groupby_attrs)
        with pytest.raises(InvalidTarget, match="avg is not applicable to nominal attribute 'region'"):
            execute_groupby(empty, nominal_avg)
        nominal_window = GroupByQuery(
            (AggregationTarget(COUNT, "sales"),), (BetweenFilter("category", 0.0, 1.0),), groupby_attrs
        )
        with pytest.raises(WrongKind, match="'category' is nominal, not continuous"):
            execute_groupby(empty, nominal_window)

    def test_seeded_groupbys_are_pinned(self):
        """The SQL, label bits and supports of 300 seeded group-bys on a
        3,000-row table, pinned from the earlier implementation, which built
        a result table per group-by and flattened its cells; one changed bit
        fails."""
        rng = np.random.default_rng(20)
        n = 3_000
        rows = list(zip(
            [f"r{k}" for k in rng.integers(0, 6, n)],
            [f"c{k}" for k in rng.integers(0, 4, n)],
            rng.normal(100.0, 30.0, n).round(1).tolist(),  # ties for median and min/max
            rng.integers(0, 10, n).astype(float).tolist(),
        ))
        ds = build_transactions(rows)
        pool = [AggregationTarget(f, a) for f in AggregationFunction for a in ("sales", "units")]
        pool += [AggregationTarget(f, a) for f in (COUNT, COUNT_DISTINCT) for a in ("region", "category")]
        group_sets = ((), ("region",), ("category",), ("region", "category"), ("category", "region"))
        cells = []
        for _ in range(300):
            picked = rng.permutation(len(pool))[: 1 + rng.integers(4)]
            between = []
            for attr, lo, hi in (("sales", 0.0, 200.0), ("units", 0.0, 9.0)):
                if rng.random() < 0.6:
                    a, b = np.sort(rng.uniform(lo, hi, 2)).tolist()
                    between.append(BetweenFilter(attr, a, b))
            gq = GroupByQuery(tuple(pool[i] for i in picked), tuple(between),
                              group_sets[rng.integers(len(group_sets))])
            cells += execute_groupby(ds, gq)
        digest = hashlib.sha256(
            "\n".join(lq.query.to_sql() for lq in cells).encode()
            + np.array([lq.label for lq in cells], dtype="<f8").tobytes()
            + np.array([lq.support for lq in cells], dtype="<i8").tobytes()
        ).hexdigest()
        assert len(cells) == 7942
        assert digest == "9192e4e70b379c525e1fc498b4f4750e5adaa308e4f8d35648544ea1bb119945"


class TestGroupIndexOrder:
    """The index sorts the narrowest unsigned codes that hold every member
    combination; a stable sort is unique, so its order is the int64 one."""

    @pytest.mark.parametrize("members, dtype", [
        ((4, 5, 10), np.uint8), ((40, 50), np.uint16), ((300, 300), np.uint32),
    ])
    def test_order_is_the_stable_argsort_of_int64_codes(self, monkeypatch, members, dtype):
        rng = np.random.default_rng(5)
        names = tuple(f"a{k}" for k in range(len(members)))
        schema = make_schema([(name, Kind.NOMINAL) for name in names])
        ds = Dataset.from_columns(schema, {
            name: [f"m{v:03d}" for v in rng.integers(0, n, 20_000)]
            for name, n in zip(names, members)
        })
        sorted_dtypes = []
        argsort = np.argsort

        def spy(codes, **kwargs):
            sorted_dtypes.append(codes.dtype)
            return argsort(codes, **kwargs)

        monkeypatch.setattr(np, "argsort", spy)
        index = executor._group_index(ds, names)
        monkeypatch.undo()
        assert sorted_dtypes == [dtype]
        dims = tuple(len(ds.members(name)) for name in names)
        codes = np.ravel_multi_index([ds.nominal_id_values(name) for name in names], dims)
        want = np.argsort(codes.astype(np.int64), kind="stable")
        assert index.order.dtype == np.int32
        np.testing.assert_array_equal(index.order, want)
        starts = np.flatnonzero(np.diff(codes[want], prepend=-1))
        np.testing.assert_array_equal(index.starts, starts)
        rows = zip(*(np.array(ds.members(n))[ds.nominal_id_values(n)].tolist() for n in names))
        assert index.members == sorted(set(rows))


class TestMemberCombinations:
    def test_observed_combinations_only(self, transactions):
        combos = extract_member_combinations(transactions, ["region", "category"])
        observed = sorted({(r[0], r[1]) for r in TRANSACTION_ROWS})
        assert combos == observed

    def test_requires_nominal(self, transactions):
        with pytest.raises(WrongKind):
            extract_member_combinations(transactions, ["sales"])
        with pytest.raises(WrongKind):
            extract_member_combinations(transactions, [])


class TestLabelWorkload:
    def queries(self):
        return [
            FlatQuery(
                AggregationTarget(AVG, "sales"),
                (BetweenFilter("sales", 60.0, 120.0),),
                (InFilter("region", r), InFilter("category", c)),
            )
            for r in ("north", "south", "east", "west")
            for c in ("food", "tools")
        ]

    def test_labels_match_flat_execution(self, transactions):
        labeled, report = label_workload(transactions, self.queries())
        assert report.total == 8 and report.labeled == 8
        for lq in labeled:
            value, support = execute_flat(transactions, lq.query)
            assert lq.label == value and lq.support == support

    def test_zero_support_policy(self, transactions):
        window = (BetweenFilter("sales", 5000.0, 6000.0),)  # matches nothing
        ins = (InFilter("region", "north"),)
        queries = [
            FlatQuery(AggregationTarget(COUNT, "sales"), window, ins),
            FlatQuery(AggregationTarget(SUM, "sales"), window, ins),
            FlatQuery(AggregationTarget(AVG, "sales"), window, ins),
            FlatQuery(AggregationTarget(MEDIAN, "sales"), window, ins),
        ]
        labeled, report = label_workload(transactions, queries)
        assert report.total == 4
        assert report.zero_filled == 2 and report.excluded_empty == 2
        assert [(lq.query.target.func, lq.label, lq.support) for lq in labeled] == [
            (COUNT, 0.0, 0),
            (SUM, 0.0, 0),
        ]

    def test_empty_window_without_in_filter_is_excluded(self):
        # Window-only queries group by the empty tuple; an empty window
        # yields no group, so avg/median/min/max are excluded, not raised.
        ds = Dataset.from_columns(
            make_schema([("x", Kind.CONTINUOUS), ("v", Kind.CONTINUOUS)]),
            {"x": [1.0, 2.0, 3.0], "v": [10.0, 20.0, 30.0]},
        )
        empty = (BetweenFilter("x", 1.5, 1.5),)
        queries = [FlatQuery(AggregationTarget(f, "v"), empty)
                   for f in (COUNT, SUM, AVG, MEDIAN, MIN, MAX)]
        queries.append(FlatQuery(AggregationTarget(AVG, "v"), (BetweenFilter("x", 1.5, 3.0),)))
        labeled, report = label_workload(ds, queries)
        assert report.total == 7
        assert report.zero_filled == 2 and report.excluded_empty == 4
        assert [(lq.query.target.func, lq.label, lq.support) for lq in labeled] == [
            (COUNT, 0.0, 0),
            (SUM, 0.0, 0),
            (AVG, 25.0, 2),
        ]

    def test_output_preserves_input_order(self, transactions):
        queries = self.queries()
        labeled, _ = label_workload(transactions, queries)
        assert [lq.query for lq in labeled] == queries

    def test_thread_count_does_not_change_results(self, transactions):
        queries = self.queries() + [
            FlatQuery(AggregationTarget(MEDIAN, "units"), (BetweenFilter("units", 1.0, 6.0),))
        ]
        one, rep1 = label_workload(transactions, queries, threads=1)
        four, rep4 = label_workload(transactions, queries, threads=4)
        assert one == four and rep1 == rep4


class TestGroupIndexExactness:
    """label_workload reads every query off a group index shared per
    (Dataset, nominal attribute tuple), the empty tuple for queries without
    IN filters; it must agree bit for bit with execute_flat, the per-query
    full scan."""

    @staticmethod
    def random_table(rng, n_rows=300):
        schema = make_schema([
            ("shop", Kind.NOMINAL),
            ("kind", Kind.NOMINAL),
            ("tier", Kind.NOMINAL),
            ("x", Kind.CONTINUOUS),
            ("v", Kind.CONTINUOUS),
        ])
        columns = {
            "shop": [f"s{k}" for k in rng.integers(0, 5, n_rows)],
            "kind": [f"k{k}" for k in rng.integers(0, 3, n_rows)],
            "tier": [f"t{k}" for k in rng.integers(0, 4, n_rows)],
            "x": rng.uniform(0.0, 100.0, n_rows),
            "v": rng.normal(50.0, 20.0, n_rows).round(1),  # ties for median and min/max
        }
        return Dataset.from_columns(schema, columns)

    @staticmethod
    def expected(ds, queries):
        """The labeling contract, evaluated one execute_flat scan at a time."""
        out = []
        for q in queries:
            try:
                value, support = execute_flat(ds, q)
            except EmptyAggregate:
                continue
            if support or q.target.func in (COUNT, COUNT_DISTINCT, SUM):
                out.append((q, value, support))
        return out

    @staticmethod
    def reference_report(queries, want):
        """The LabelReport of the reference labels: one scan per distinct
        (BETWEEN tuple, IN attribute tuple)."""
        keys = {(q.between_filters, tuple(f.attr for f in q.in_filters)) for q in queries}
        zero = sum(support == 0 for _, _, support in want)
        return LabelReport(len(queries), len(want), zero, len(queries) - len(want), len(keys))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.parametrize("n_rows", [300, 7, 0])
    def test_labels_equal_execute_flat_bit_for_bit(self, seed, threads, n_rows):
        rng = np.random.default_rng(seed)
        ds = self.random_table(rng, n_rows)
        targets = [
            AggregationTarget(f, "v") for f in (COUNT, SUM, AVG, MEDIAN, MIN, MAX, COUNT_DISTINCT)
        ] + [AggregationTarget(COUNT_DISTINCT, "tier"), AggregationTarget(COUNT, "shop")]
        windows = [(BetweenFilter("x", *sorted(rng.uniform(0.0, 100.0, 2))),) for _ in range(6)]
        windows.append((BetweenFilter("x", 40.0, 41.0),))  # most groups empty
        windows.append((BetweenFilter("x", 200.0, 300.0),))  # every group empty
        windows.append(())
        shops = [f"s{k}" for k in range(5)] + ["s-absent"]
        # Three attribute sets on one Dataset: (shop, kind), (tier,) and ().
        in_sets = [(InFilter("shop", s), InFilter("kind", k))
                   for s in shops for k in ("k0", "k1", "k2", "k-absent")]
        in_sets += [(InFilter("tier", f"t{k}"),) for k in range(4)]
        in_sets.append(())
        queries = [FlatQuery(t, w, i) for t in targets for w in windows for i in in_sets]
        # Duplicates: the same objects again, and equal queries rebuilt as
        # separate objects.
        picked = rng.choice(len(queries), 200, replace=False).tolist()
        queries += [queries[k] for k in picked[:100]]
        queries += [FlatQuery.from_record(queries[k].to_record()) for k in picked[100:]]
        rng.shuffle(queries)

        # A short switch interval interleaves the scan threads often, also
        # while they fill the fresh Dataset's shared column cache.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            labeled, report = label_workload(ds, queries, threads=threads)
        finally:
            sys.setswitchinterval(interval)
        got = [(lq.query, lq.label, lq.support) for lq in labeled]
        want = self.expected(ds, queries)
        assert [g[0] for g in got] == [w[0] for w in want]
        assert np.array([g[1] for g in got]).tobytes() == np.array([w[1] for w in want]).tobytes()
        assert [g[2] for g in got] == [w[2] for w in want]
        assert report == self.reference_report(queries, want)
        assert report.excluded_empty > 0 and report.zero_filled > 0
        window_only = {w: {lq.query.target: lq for lq in labeled
                           if lq.query.between_filters == w and not lq.query.in_filters}
                       for w in windows}
        # Every group empty: counting aggregates zero-filled, the rest excluded.
        assert {t.func: (lq.label, lq.support) for t, lq in window_only[windows[7]].items()} == {
            COUNT: (0.0, 0), SUM: (0.0, 0), COUNT_DISTINCT: (0.0, 0)}
        assert window_only[()][targets[0]].support == ds.row_count
        if n_rows:
            assert len(window_only[()]) == len(targets)
        if n_rows == 300:
            assert report.labeled - report.zero_filled > len(queries) // 4

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("bad, error, message", [
        (FlatQuery(AggregationTarget(AVG, "shop")), InvalidTarget,
         "avg is not applicable to nominal attribute 'shop'"),
        (FlatQuery(AggregationTarget(AVG, "v"), (BetweenFilter("shop", 0.0, 1.0),)), WrongKind,
         "'shop' is nominal, not continuous"),
        (FlatQuery(AggregationTarget(AVG, "v"), (), (InFilter("x", "1.0"),)), WrongKind,
         "'x' is continuous, not nominal"),
    ], ids=["nominal-avg", "nominal-between", "continuous-in"])
    def test_errors_name_the_bad_part(self, threads, bad, error, message):
        """Labeling fails on a bad query with the error execute_flat gives it."""
        ds = self.random_table(np.random.default_rng(0))
        good = [FlatQuery(AggregationTarget(f, "v"), (BetweenFilter("x", 10.0, 60.0),), i)
                for f in (AVG, COUNT) for i in ((), (InFilter("tier", "t1"),))]
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            label_workload(ds, good + [bad] + good, threads=threads)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            execute_flat(ds, bad)

    def test_index_is_freed_with_its_dataset(self):
        ds = self.random_table(np.random.default_rng(0))
        assert extract_member_combinations(ds, ["shop", "kind"])
        window = (BetweenFilter("x", 10.0, 60.0),)
        tier = (InFilter("tier", "t1"),)
        label_workload(ds, [FlatQuery(AggregationTarget(AVG, "v"), window, tier)])
        ref = weakref.ref(ds)
        # Reference counting alone frees the table, its group indexes and its
        # permuted columns: a cycle would keep them until a full collection.
        gc.disable()
        try:
            del ds
            assert ref() is None
        finally:
            gc.enable()


# SHA-256 of the labels (<f8) followed by the supports (<i8) that
# label_workload gives on make_benchmark_table(20_000, seed), for the A5
# template (260 windows, template seed seed + 4) and for the window-only
# template (avg and median of value over 150 x windows, template seed
# seed + 5), the two workloads the benchmark labels. Pinned from the
# labeling that predates the array path; one changed bit fails.
LABEL_DIGESTS_20K = {
    ("a5", 0): "d470643ab17e90d0ea3373db1525673d301169e7ab1e0e15dfb8ee7e733e8a80",
    ("window-only", 0): "350bccf774a48537b1b9a3b7e18bbf89bcc2bc7f3633c8c7fe46154363b2ac65",
    ("a5", 7): "10ed5946aa08e2a15634c4abf9237b50042222ab4d90c3b3f2589a75c9d96c0e",
    ("window-only", 7): "c1bc530f164e3a9bdce2b636b97b3892a9f2ef08409ce6c80e6327a7cbd4a80b",
}


@pytest.mark.parametrize("seed", [0, 7])
def test_benchmark_labels_are_pinned(seed):
    ds = synth.make_benchmark_table(20_000, seed)
    templates = {
        "a5": synth.benchmark_template(ds, 260, seed + 4),
        "window-only": QueryTemplate.build(
            ds,
            targets=[AggregationTarget(AVG, "value"), AggregationTarget(MEDIAN, "value")],
            cont_filter_attrs=["x"],
            nom_filter_attrs=[],
            n_cont_samples=150,
            seed=seed + 5,
            numeric_scales={"x": 1.0},
        ),
    }
    for name, template in templates.items():
        labeled, _ = label_workload(ds, generate_workload(ds, template)[0])
        digest = hashlib.sha256(
            np.array([lq.label for lq in labeled], dtype="<f8").tobytes()
            + np.array([lq.support for lq in labeled], dtype="<i8").tobytes()
        ).hexdigest()
        assert digest == LABEL_DIGESTS_20K[name, seed], name
