"""
Loading a table and profiling its attributes
============================================

Build a small synthetic retail table, write it out as CSV, load it back
through the columnar store, and look at the statistics the rest of the
pipeline is driven by: quartiles for continuous attributes, member
dictionaries for nominal ones, and per-attribute Shannon entropy.
"""

import tempfile
from pathlib import Path

from aqplearn import (
    Kind,
    column_entropy,
    continuous_stats,
    dump_csv,
    load_csv,
    mean_entropy,
    synth,
)

# Make an 800-row table with two nominal and two continuous attributes.
ds = synth.make_transactions_table()
print(f"rows: {ds.row_count}")
print(f"attributes: {[a.name for a in ds.schema]}")

# Round-trip it through CSV to show the on-disk form.
with tempfile.TemporaryDirectory(prefix="aqp_demo_") as workdir:
    csv_path = Path(workdir) / "transactions.csv"
    dump_csv(ds, csv_path)
    ds = load_csv(csv_path, ds.schema)
    print(f"reloaded from {csv_path}")

# Quartiles drive the BETWEEN-filter sampler: query bounds are drawn from
# the (min, q1), (q1, median), (median, q3), (q3, max) intervals.
for attr in ("sales", "discount"):
    s = continuous_stats(ds, attr)
    print(
        f"{attr}: min {s.min:.2f}  q1 {s.q1:.2f}  median {s.median:.2f}  "
        f"q3 {s.q3:.2f}  max {s.max:.2f}"
    )

# Nominal members become IN-filter candidates and encoder tokens.
for attr in ("region", "category"):
    print(f"{attr}: members {list(ds.members(attr))}")

# Entropy summarises how much filtering signal each attribute carries.
names = [a.name for a in ds.schema]
per_attr = {a: column_entropy(ds, a) for a in names}
for a, h in per_attr.items():
    kind = "nominal" if ds.kind_of(a) is Kind.NOMINAL else "continuous"
    print(f"entropy[{a}] = {h:.3f} bits ({kind})")
print(f"mean entropy: {mean_entropy(list(per_attr.values())):.3f} bits")
