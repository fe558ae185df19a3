"""Workload generation: templates, filter sampling, flattening, splits, IO."""

import numpy as np
import pytest

import aqplearn
from aqplearn import (
    AggregationFunction,
    AggregationTarget,
    BetweenFilter,
    Dataset,
    FlatQuery,
    GroupByQuery,
    InFilter,
    Kind,
    LabeledQuery,
    QueryTemplate,
    execute_groupby,
    generate_workload,
    load_template,
    make_schema,
    read_workload,
    split_indices,
    write_workload,
)
from aqplearn.errors import (
    CorruptArtifact,
    EmptyCombos,
    InvalidTarget,
    NumericOverflow,
    TooFewQueries,
    VersionMismatch,
    WrongKind,
)
from aqplearn.executor import extract_member_combinations
from aqplearn.querygen import gen_between_filters, snap_to_grid
from aqplearn.store import ContinuousStats
from conftest import build_transactions

AVG = AggregationFunction.AVG
COUNT = AggregationFunction.COUNT


class TestSelectClause:
    def test_nominal_attr_strict_raises(self, transactions):
        with pytest.raises(InvalidTarget):
            load_template({"targets": [{"func": "avg", "attr": "region"}]}, transactions)

    def test_nominal_attr_takes_counting_funcs(self, transactions):
        template = load_template({"targets": [{"func": "count", "attr": "region"},
                                              {"func": "count", "attr": "sales"}]}, transactions)
        assert [t.token() for t in template.targets] == ["count(region)", "count(sales)"]


class TestTemplate:
    def test_attr_lists_normalized_to_schema_order(self, transactions):
        t = QueryTemplate.build(
            transactions,
            targets=[AggregationTarget(AVG, "sales")],
            cont_filter_attrs=["units", "sales"],
            nom_filter_attrs=["category", "region"],
        )
        assert t.cont_filter_attrs == ("sales", "units")
        assert t.nom_filter_attrs == ("region", "category")

    def test_kind_checks(self, transactions):
        with pytest.raises(WrongKind):
            QueryTemplate.build(
                transactions,
                targets=[AggregationTarget(AVG, "sales")],
                cont_filter_attrs=["region"],
                nom_filter_attrs=[],
            )
        with pytest.raises(InvalidTarget):
            QueryTemplate.build(
                transactions,
                targets=[AggregationTarget(AVG, "region")],
                cont_filter_attrs=[],
                nom_filter_attrs=[],
            )

    def test_targets_are_the_one_form(self, transactions):
        assert "build_select_clause" not in aqplearn.__all__
        with pytest.raises(CorruptArtifact, match=r"unknown keys \['agg_attrs', 'agg_funcs'\]"):
            load_template({"agg_funcs": ["avg"], "agg_attrs": ["sales"]}, transactions)
        with pytest.raises(CorruptArtifact, match=r"unknown keys \['target'\]"):
            load_template({"target": [{"func": "avg", "attr": "sales"}]}, transactions)

    def test_keys_default_as_in_build(self, transactions):
        t = load_template({"targets": [{"func": "avg", "attr": "sales"}]}, transactions)
        assert t == QueryTemplate.build(transactions, [AggregationTarget(AVG, "sales")])
        with pytest.raises(InvalidTarget, match="at least one aggregation target"):
            load_template({"cont_filter_attrs": ["sales"]}, transactions)

    @pytest.mark.parametrize("key, value, kind", [
        ("n_cont_samples", 12.9, "an int"),
        ("n_cont_samples", "12", "an int"),
        ("seed", 2.5, "an int"),
        ("seed", True, "an int"),
        ("numeric_scales", [["x", 2.0]], "an object"),
        ("cont_filter_attrs", "x", "a list of strings"),
        ("nom_filter_attrs", ["g", 1], "a list of strings"),
    ])
    def test_mistyped_key_is_corrupt_naming_it(self, key, value, kind):
        # On a table whose attribute is named "x", a loose read would take the
        # string "x" as its one character, 12.9 as 12 and true as 1.
        ds = Dataset.from_columns(make_schema([("g", Kind.NOMINAL), ("x", Kind.CONTINUOUS)]),
                                  {"g": ["a", "b"], "x": [1.0, 2.0]})
        config = {"targets": [{"func": "avg", "attr": "x"}], key: value}
        with pytest.raises(CorruptArtifact, match=f": {key} is .*, not {kind}$"):
            load_template(config, ds)

    def test_record_round_trip(self, transactions):
        t = QueryTemplate.build(
            transactions,
            targets=[AggregationTarget(AVG, "sales")],
            cont_filter_attrs=["sales"],
            nom_filter_attrs=["region"],
            numeric_scales={"sales": 10.0},
        )
        assert load_template(t.to_record(), transactions) == t


class TestSnapToGrid:
    def test_rounds_to_nearest_grid_point(self):
        assert snap_to_grid(2.5004, 10.0, 0.0, 5.0) == 2.5
        assert snap_to_grid(121.3, 1.0, 100.0, 900.0) == 121.0

    def test_clips_inside_the_attribute_range(self):
        assert snap_to_grid(0.01, 1.0, 0.5, 5.0) == 1.0
        assert snap_to_grid(5.4, 1.0, 0.5, 4.5) == 4.0

    def test_no_grid_point_in_range(self):
        with pytest.raises(NumericOverflow, match=r"scale 1.0 inside \[6.2, 6.8\]"):
            snap_to_grid(6.5, 1.0, 6.2, 6.8)


class TestBetweenGeneration:
    STATS = {"x": ContinuousStats(100.0, 300.0, 500.0, 700.0, 900.0)}

    def test_bounds_ordered_on_grid_and_in_range(self):
        rng = np.random.default_rng(42)
        combos = gen_between_filters(self.STATS, ["x"], 200, rng)
        assert len(combos) == 200
        for (f,) in combos:
            assert f.attr == "x"
            assert 100.0 <= f.lower <= f.upper <= 900.0
            assert f.lower == int(f.lower) and f.upper == int(f.upper)  # scale 1 grid

    def test_same_seed_same_filters(self):
        a = gen_between_filters(self.STATS, ["x"], 50, np.random.default_rng(42))
        b = gen_between_filters(self.STATS, ["x"], 50, np.random.default_rng(42))
        assert a == b

    def test_bounds_cross_quartile_intervals(self):
        """With two independent interval picks, some windows must span
        non-adjacent quartiles (e.g. a q1 draw paired with a q4 draw)."""
        rng = np.random.default_rng(0)
        combos = gen_between_filters(self.STATS, ["x"], 300, rng)
        assert any(f.lower < 300.0 and f.upper > 700.0 for (f,) in combos)
        assert any(f.upper <= 300.0 for (f,) in combos)  # both draws in the first interval

    def test_constant_attribute_degenerates_to_point_filter(self):
        stats = {"x": ContinuousStats(7.0, 7.0, 7.0, 7.0, 7.0)}
        (f,), = gen_between_filters(stats, ["x"], 1, np.random.default_rng(1))
        assert (f.lower, f.upper) == (7.0, 7.0)

    def test_multiple_attributes_one_filter_each(self):
        stats = dict(self.STATS, y=ContinuousStats(0.0, 1.0, 2.0, 3.0, 4.0))
        combos = gen_between_filters(stats, ["x", "y"], 10, np.random.default_rng(3))
        for combo in combos:
            assert [f.attr for f in combo] == ["x", "y"]


class TestGenerateWorkload:
    def test_counts_and_determinism(self, transactions):
        template = QueryTemplate.build(
            transactions,
            targets=[AggregationTarget(AVG, "sales"), AggregationTarget(COUNT, "sales")],
            cont_filter_attrs=["sales"],
            nom_filter_attrs=["region", "category"],
            n_cont_samples=4,
            seed=9,
        )
        queries, report = generate_workload(transactions, template)
        # all 8 (region, category) pairs occur in the table
        n_combos = report.n_member_combos
        assert report.n_queries == 2 * 4 * n_combos == len(queries)
        again, _ = generate_workload(transactions, template)
        assert queries == again

    def test_cross_product_of_targets_windows_and_member_combinations(self, transactions):
        targets = [AggregationTarget(AVG, "sales"), AggregationTarget(COUNT, "region")]
        template = QueryTemplate.build(
            transactions,
            targets=targets,
            cont_filter_attrs=["sales", "units"],
            nom_filter_attrs=["region", "category"],
            n_cont_samples=3,
            seed=4,
        )
        queries, report = generate_workload(transactions, template)
        combos = extract_member_combinations(transactions, ["region", "category"])
        assert (report.n_between_sets, report.n_member_combos) == (3, len(combos)) == (3, 8)
        windows = [q.between_filters for q in queries[: 3 * 8 : 8]]
        assert [[f.attr for f in w] for w in windows] == [["sales", "units"]] * 3
        # Targets outermost, then windows, then member combinations.
        assert queries == [
            FlatQuery(t, w, (InFilter("region", r), InFilter("category", c)))
            for t in targets for w in windows for r, c in combos
        ]

    def test_nominal_filters_on_an_empty_table_raise(self):
        empty = build_transactions([])
        template = QueryTemplate.build(
            empty,
            targets=[AggregationTarget(COUNT, "sales")],
            cont_filter_attrs=[],
            nom_filter_attrs=["region"],
        )
        with pytest.raises(EmptyCombos):
            generate_workload(empty, template)

    def test_every_query_is_executable_as_encoded(self, transactions):
        """Generated bounds already sit on the quantization grid, so the
        executed query and the encoded query are the same query."""
        template = QueryTemplate.build(
            transactions,
            targets=[AggregationTarget(AVG, "sales")],
            cont_filter_attrs=["sales"],
            nom_filter_attrs=[],
            n_cont_samples=25,
            seed=2,
            numeric_scales={"sales": 2.0},
        )
        queries, _ = generate_workload(transactions, template)
        for q in queries:
            (f,) = q.between_filters
            assert f.lower * 2 == round(f.lower * 2)
            assert f.upper * 2 == round(f.upper * 2)

    def test_no_filter_attrs_yields_bare_queries(self, transactions):
        template = QueryTemplate.build(
            transactions,
            targets=[AggregationTarget(AVG, "sales")],
            cont_filter_attrs=[],
            nom_filter_attrs=[],
        )
        queries, report = generate_workload(transactions, template)
        assert queries == [FlatQuery(AggregationTarget(AVG, "sales"))]
        assert report.n_queries == 1


class TestFlattenGroupBy:
    def test_one_query_per_cell(self, transactions):
        gq = GroupByQuery(
            (AggregationTarget(AVG, "sales"), AggregationTarget(COUNT, "sales")),
            (),
            ("region",),
        )
        flat = execute_groupby(transactions, gq)
        assert len(flat) == len(extract_member_combinations(transactions, ["region"])) * 2
        by_key = {
            (lq.query.in_filters[0].member, lq.query.target.func): lq.label for lq in flat
        }
        assert by_key[("north", AVG)] == 102.0
        assert by_key[("south", AVG)] == 82.0
        assert by_key[("north", COUNT)] == 3.0

    def test_filters_carried_into_flat_queries(self, transactions):
        between = (BetweenFilter("sales", 80.0, 110.0),)
        gq = GroupByQuery((AggregationTarget(AVG, "sales"),), between, ("region", "category"))
        flat = execute_groupby(transactions, gq)
        for lq in flat:
            assert lq.query.between_filters == between
            assert [f.attr for f in lq.query.in_filters] == ["region", "category"]
            assert lq.support >= 1


class TestSplit:
    def test_100_splits_70_15_15(self):
        tr, va, te = split_indices(100, seed=1)
        assert (len(tr), len(va), len(te)) == (70, 15, 15)

    def test_10_splits_7_1_2(self):
        tr, va, te = split_indices(10, seed=1)
        assert (len(tr), len(va), len(te)) == (7, 1, 2)

    def test_partition_is_disjoint_and_complete(self):
        parts = split_indices(53, seed=4)
        assert sorted(np.concatenate(parts).tolist()) == list(range(53))

    def test_same_seed_same_split(self):
        same = zip(split_indices(20, seed=3), split_indices(20, seed=3))
        assert all(np.array_equal(a, b) for a, b in same)
        other = zip(split_indices(20, seed=3), split_indices(20, seed=4))
        assert not all(np.array_equal(a, b) for a, b in other)

    def test_too_few_queries(self):
        with pytest.raises(TooFewQueries):
            split_indices(2)

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            split_indices(10, fractions=(0.5, 0.4, 0.2))


def labeled_workload(n):
    return [
        LabeledQuery(
            FlatQuery(AggregationTarget(COUNT, "sales"), (BetweenFilter("sales", 0.0, float(i)),)),
            float(i),
            i,
        )
        for i in range(n)
    ]


class TestWorkloadFiles:
    def test_unlabeled_round_trip(self, transactions, tmp_path):
        template = QueryTemplate.build(
            transactions,
            targets=[AggregationTarget(AVG, "sales")],
            cont_filter_attrs=["sales"],
            nom_filter_attrs=["region"],
            n_cont_samples=3,
        )
        queries, _ = generate_workload(transactions, template)
        path = tmp_path / "w.jsonl"
        write_workload(path, queries, meta={"note": "test"})
        header, back = read_workload(path)
        assert back == queries
        assert header["labeled"] is False and header["note"] == "test"

    def test_labeled_round_trip(self, tmp_path):
        records = labeled_workload(5)
        path = tmp_path / "l.jsonl"
        write_workload(path, records)
        header, back = read_workload(path)
        assert back == records and header["labeled"] is True

    def test_truncated_file_rejected(self, tmp_path):
        records = labeled_workload(5)
        path = tmp_path / "l.jsonl"
        write_workload(path, records)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(CorruptArtifact):
            read_workload(path)

    @pytest.mark.parametrize("edit, error", [
        ('"label": 2.0, ', "KeyError 'label'"),
        ('"support": 2, ', "KeyError 'support'"),
    ])
    def test_unreadable_record_is_named_by_its_line(self, tmp_path, edit, error):
        path = tmp_path / "l.jsonl"
        write_workload(path, labeled_workload(4))
        lines = path.read_text().splitlines()
        assert edit in lines[3]
        lines[3] = lines[3].replace(edit, "")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorruptArtifact, match=f"^{path} line 4 is not a workload record: {error}$"):
            read_workload(path)

    def test_alien_file_rejected(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"kind": "something-else"}\n')
        with pytest.raises(VersionMismatch):
            read_workload(path)

    @pytest.mark.parametrize("edit", [
        ('"lower": ', '"lower": null, "was": '),
        ('"in": [', '"in": 5, "was": ['),
    ])
    def test_wrong_typed_field_rejected(self, tmp_path, edit):
        path = tmp_path / "l.jsonl"
        write_workload(path, labeled_workload(3))
        lines = path.read_text().splitlines()
        assert edit[0] in lines[2]
        lines[2] = lines[2].replace(*edit)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorruptArtifact):
            read_workload(path)
