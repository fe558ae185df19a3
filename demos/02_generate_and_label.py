"""
Sampling a query workload and labeling it exactly
=================================================

A query template declares which aggregates to learn and which attributes
may be filtered. From it we sample thousands of flat queries, then run
every one through the exact executor to obtain regression labels.
"""

import numpy as np

from aqplearn import (
    AggregationFunction,
    AggregationTarget,
    QueryTemplate,
    execute_groupby,
    generate_workload,
    label_workload,
    synth,
)

ds = synth.make_transactions_table()

# One continuous filter attribute, two nominal ones, two aggregation
# targets. 60 BETWEEN windows x 12 observed member combinations x 2
# targets = 1440 queries.
template = QueryTemplate.build(
    ds,
    targets=[
        AggregationTarget(AggregationFunction.AVG, "sales"),
        AggregationTarget(AggregationFunction.COUNT, "sales"),
    ],
    cont_filter_attrs=["sales"],
    nom_filter_attrs=["region", "category"],
    n_cont_samples=60,
    seed=42,
    numeric_scales={"sales": 100.0},
)
queries, gen_report = generate_workload(ds, template)
print(f"generation: {gen_report}")
for q in queries[:3]:
    print(f"  {q.to_sql()}")

# Labeling executes each query exactly. Queries sharing filters are
# answered from one shared group-by scan, so this is fast even though
# every label is exact.
labeled, label_report = label_workload(ds, queries)
print(f"labeling: {label_report}")

y = np.array([lq.label for lq in labeled])
sup = np.array([lq.support for lq in labeled])
print(f"labels: min {y.min():.2f}  mean {y.mean():.2f}  max {y.max():.2f}")
print(f"support per query: min {sup.min()}  median {np.median(sup):.0f}  max {sup.max()}")

# Group-by queries are handled by flattening: execute_groupby labels one
# flat query per group and target, with the group members as IN filters.
from aqplearn import GroupByQuery

gq = GroupByQuery(
    targets=(AggregationTarget(AggregationFunction.AVG, "sales"),),
    groupby_attrs=("region",),
)
flat = execute_groupby(ds, gq)
print(f"group-by over region -> {len(flat)} flat labeled queries:")
for lq in flat:
    print(f"  {lq.query.to_sql()}  => {lq.label:.2f} (support {lq.support})")
