#!/usr/bin/env bash
# The same pipeline as the Python demos, driven entirely through the
# `aqplearn` command. Each stage writes an artifact that embeds the
# SHA-256 of its input, so stale or edited files fail fast downstream.
# `label` reads the template that `generate` recorded and records it with
# the table's schema. `train` reads the labeled workload, builds its
# vocabulary under that template and schema, encodes the queries and fits;
# it stores the vocabulary in the checkpoint, so `predict` encodes under
# the checkpoint's own vocabulary. `eval` reads the target and split from
# the checkpoint and the table's entropy from the labeled workload, checks
# that the workload's vocabulary is the checkpoint's, encodes the queries
# of its split, then times the rows it scored.
set -euo pipefail

work="$(mktemp -d "${TMPDIR:-/tmp}/aqp_demo_cli.XXXXXX")"
trap 'rm -rf "$work"' EXIT
echo "working in $work"

# Materialize a small synthetic table plus its schema and a template.
python3 - "$work" <<'PY'
import json
import sys
from pathlib import Path

from aqplearn import dump_csv, synth

work = Path(sys.argv[1])
ds = synth.make_transactions_table(n_rows=2000, seed=3)
dump_csv(ds, work / "data.csv")
(work / "schema.json").write_text(
    json.dumps([{"name": a.name, "kind": a.kind.value} for a in ds.schema], indent=2)
)
(work / "template.json").write_text(json.dumps({
    "targets": [{"func": "avg", "attr": "sales"}],
    "cont_filter_attrs": ["sales"],
    "nom_filter_attrs": ["region", "category"],
    "n_cont_samples": 150,
    "seed": 21,
    "numeric_scales": {"sales": 1.0},
}, indent=2))
PY

cd "$work"

aqplearn profile    --data data.csv --schema schema.json
aqplearn generate   --data data.csv --schema schema.json --template template.json \
                    --out workload.jsonl --sql
head -2 workload.jsonl.sql
aqplearn label      --data data.csv --schema schema.json --workload workload.jsonl \
                    --out labeled.jsonl --threads 2
aqplearn train      --workload labeled.jsonl --out model.npz \
                    --lstm-units 32 --dense-units 48 --max-epochs 15 --batch-size 32 \
                    --lr 3e-3
aqplearn predict    --checkpoint model.npz \
                    --workload workload.jsonl --out predictions.jsonl --workers 2
head -3 predictions.jsonl
aqplearn eval       --checkpoint model.npz --workload labeled.jsonl \
                    --split test --workers 2 --out eval.json

echo "artifacts:"
ls -l "$work"
