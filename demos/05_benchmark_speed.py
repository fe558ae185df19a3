"""
Measuring answer latency and throughput
=======================================

Once trained, the model answers a query with one forward pass instead
of a table scan. This script times single-query latency (QL, ms per
query) and batched throughput (QT, queries per second), then shows the
checkpoint round trip used to ship a trained model.
"""

import tempfile
from pathlib import Path

import numpy as np

from aqplearn import (
    AggregationFunction,
    AggregationTarget,
    LstmModel,
    ModelConfig,
    QueryTemplate,
    build_vocabulary,
    encode_workload,
    execute_flat,
    generate_workload,
    label_workload,
    measure_ql,
    measure_qt,
    synth,
)
import time

ds = synth.make_transactions_table(n_rows=5000, seed=3)
template = QueryTemplate.build(
    ds,
    targets=[AggregationTarget(AggregationFunction.AVG, "sales")],
    cont_filter_attrs=["sales"],
    nom_filter_attrs=["region", "category"],
    n_cont_samples=200,
    seed=21,
    numeric_scales={"sales": 1.0},
)
queries, _ = generate_workload(ds, template)
labeled, _ = label_workload(ds, queries)
vocab = build_vocabulary([lq.query for lq in labeled], template)
X = encode_workload(labeled, vocab)
y = np.array([lq.label for lq in labeled])

# A short training run is enough here; we are timing, not scoring.
config = ModelConfig(lstm_units=128, dense_units=200, max_epochs=3, seed=0)
model = LstmModel(config, vocab.sequence_length, vocab.row_width, vocab.content_hash())
model.fit(X, y)

# QL: one query per call, warmup calls excluded from the statistics.
latency = measure_ql(model.predict, X[:200], warmup=5)
print(f"QL: mean {latency.mean_ms:.3f} ms/query, max {latency.max_ms:.3f} ms "
      f"over {latency.n} calls")

# The exact executor answers the same query by scanning the table. On
# 5,000 rows the scan still wins; its cost grows with the table while
# the model's forward pass stays flat, which is the whole trade.
t0 = time.perf_counter()
exact, support = execute_flat(ds, labeled[0].query)
scan_ms = 1000.0 * (time.perf_counter() - t0)
approx = model.predict(X[:1])[0]
print(f"scan {scan_ms:.3f} ms -> {exact:.2f} (support {support}); "
      f"model {latency.mean_ms:.3f} ms -> {approx:.2f}")

# QT: one batched call over the whole workload.
for workers in (1, 4):
    qt = measure_qt(model.predict_batch, X, n_workers=workers)
    print(f"QT ({workers} worker{'s' if workers > 1 else ''}): "
          f"{qt.qps:,.0f} queries/s over {qt.queries} queries")

# Real query streams do not arrive in generation order. predict_batch
# sorts each batch by query prefix itself, so a shuffled batch shares
# as many prefixes, and runs as fast, as the generated one.
perm = np.random.default_rng(5).permutation(len(X))
qt = measure_qt(model.predict_batch, X[perm])
print(f"QT (1 worker, shuffled): {qt.qps:,.0f} queries/s over {qt.queries} queries")

# Batched predictions are bit-identical no matter how many workers run,
# and a permuted batch gets the same answers, permuted.
answers = model.predict_batch(X, n_workers=1)
assert np.array_equal(answers, model.predict_batch(X, n_workers=4))
assert np.array_equal(answers[perm], model.predict_batch(X[perm], n_workers=4))
print("predict_batch outputs identical across worker counts and input orders")

# Checkpoints capture parameters, optimizer state, and label scaling.
with tempfile.TemporaryDirectory(prefix="aqp_demo_") as workdir:
    ckpt = Path(workdir) / "model.npz"
    model.save(ckpt)
    restored = LstmModel.load(ckpt, expected_vocab_hash=vocab.content_hash())
assert np.array_equal(model.predict_batch(X), restored.predict_batch(X))
print(f"checkpoint round trip through {ckpt} is bit-exact")
