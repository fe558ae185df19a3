"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS/FAIL line with the measured value and the
enforced bound (run with ``pytest -s`` to see them on passing runs). The
expensive benchmark pipeline -- a million-row table, 50k+ exactly labeled
queries, and a full-size model -- is built once in a session fixture and
shared by the accuracy, latency, and throughput checks.
"""

import hashlib
import json
import math
import statistics
import time

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
    LstmModel,
    ModelConfig,
    QueryTemplate,
    build_vocabulary,
    column_entropy,
    decode,
    encode,
    encode_workload,
    execute_flat,
    execute_groupby,
    generate_workload,
    input_tensor_variance,
    label_workload,
    make_schema,
    measure_ql,
    measure_qt,
    nrmse,
    split_indices,
    synth,
    write_workload,
)
from aqplearn.errors import EmptyAggregate
from conftest import gradient_check

# Enforced bounds. Runtime limits are generous on purpose: they catch
# complexity regressions, not scheduler jitter.
ORACLE_MIN_QUERIES = 500
GROUPBY_MIN_QUERIES = 50
ROUNDTRIP_MIN_QUERIES = 10_000
FAST_BUDGET_S = 10.0
GRAD_TOLERANCE = 1e-4
GRAD_BUDGET_S = 60.0
BENCH_MIN_LABELED = 50_000
BENCH_NRMSE_LIMIT_PCT = 5.0
BENCH_BUDGET_S = 1800.0
QL_LIMIT_MS = 10.0
QT_FLOOR_QPS = 2000.0
N_AFFINE_TRANSFORMS = 1000

AVG = AggregationFunction.AVG
SUM = AggregationFunction.SUM
COUNT = AggregationFunction.COUNT
COUNT_DISTINCT = AggregationFunction.COUNT_DISTINCT
MEDIAN = AggregationFunction.MEDIAN
MIN = AggregationFunction.MIN
MAX = AggregationFunction.MAX

EXACT_FUNCS = {COUNT, COUNT_DISTINCT, MIN, MAX}


def _verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{tag}: {detail}"


# -- 1. flat execution vs a naive per-row reference -------------------------

def _naive_flat(rows: list[dict], q: FlatQuery):
    """Pure-Python per-row reference. Returns (value, support); value is
    None where the aggregate is undefined on zero rows."""

    def keep(r):
        return all(f.lower <= r[f.attr] <= f.upper for f in q.between_filters) and all(
            r[f.attr] == f.member for f in q.in_filters
        )

    vals = [r[q.target.attr] for r in rows if keep(r)]
    n = len(vals)
    func = q.target.func
    if func is COUNT:
        return float(n), n
    if func is COUNT_DISTINCT:
        return float(len(set(vals))), n
    if func is SUM:
        return math.fsum(vals), n
    if n == 0:
        return None, 0
    if func is AVG:
        return statistics.fmean(vals), n
    if func is MEDIAN:
        return float(statistics.median(vals)), n
    if func is MIN:
        return float(min(vals)), n
    return float(max(vals)), n


def _oracle_table(n_rows: int = 1000, seed: int = 101):
    rng = np.random.default_rng(seed)
    regions = ("east", "north", "south", "west")
    categories = ("food", "tech", "toys")
    cols = {
        "region": [regions[i] for i in rng.integers(0, 4, n_rows)],
        "category": [categories[i] for i in rng.integers(0, 3, n_rows)],
        # Small integer pool so duplicates exercise count_distinct and median.
        "sales": [float(v) for v in rng.integers(0, 500, n_rows)],
        "units": [round(float(v), 1) for v in rng.uniform(0.0, 20.0, n_rows)],
    }
    schema = make_schema(
        [
            ("region", Kind.NOMINAL),
            ("category", Kind.NOMINAL),
            ("sales", Kind.CONTINUOUS),
            ("units", Kind.CONTINUOUS),
        ]
    )
    ds = Dataset.from_columns(schema, cols)
    rows = [{a: cols[a][i] for a in cols} for i in range(n_rows)]
    return ds, rows, regions, categories


def _random_flat_query(rng, regions, categories) -> FlatQuery:
    spans = {"sales": (0.0, 499.0), "units": (0.0, 20.0)}
    if rng.random() < 0.25:
        attr = ("region", "category")[rng.integers(2)]
        func = (COUNT, COUNT_DISTINCT)[rng.integers(2)]
    else:
        attr = ("sales", "units")[rng.integers(2)]
        func = list(AggregationFunction)[rng.integers(7)]
    between = []
    for cattr, (lo, hi) in spans.items():
        if rng.random() < 0.7:
            pad = 0.2 * (hi - lo)
            a, b = sorted(rng.uniform(lo - pad, hi + pad, 2))
            between.append(BetweenFilter(cattr, float(a), float(b)))
    in_filters = []
    if rng.random() < 0.5:
        # "nowhere" is never a member: exercises the empty-match path.
        pool = regions + ("nowhere",)
        in_filters.append(InFilter("region", pool[rng.integers(len(pool))]))
    if rng.random() < 0.3:
        in_filters.append(InFilter("category", categories[rng.integers(len(categories))]))
    return FlatQuery(AggregationTarget(func, attr), tuple(between), tuple(in_filters))


def test_a1_flat_execution_matches_naive_reference():
    t0 = time.perf_counter()
    ds, rows, regions, categories = _oracle_table()
    rng = np.random.default_rng(202)
    n_queries = 620
    n_empty = 0
    for _ in range(n_queries):
        q = _random_flat_query(rng, regions, categories)
        expected, exp_support = _naive_flat(rows, q)
        if expected is None:
            n_empty += 1
            with pytest.raises(EmptyAggregate):
                execute_flat(ds, q)
            continue
        got, support = execute_flat(ds, q)
        assert support == exp_support, q.to_sql()
        if q.target.func in EXACT_FUNCS:
            assert got == expected, q.to_sql()
        else:
            assert math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-12), q.to_sql()
    elapsed = time.perf_counter() - t0
    _verdict(
        "A1 flat execution vs naive reference",
        n_queries >= ORACLE_MIN_QUERIES and elapsed < FAST_BUDGET_S,
        f"{n_queries} queries ({n_empty} empty-aggregate) on {ds.row_count} rows, "
        f"exact for counting/min/max, rel<=1e-9 otherwise, {elapsed:.1f}s < {FAST_BUDGET_S:.0f}s",
    )


# -- 2. group-by flattening fidelity -----------------------------------------

def test_a2_groupby_flattening_round_trip():
    t0 = time.perf_counter()
    ds = synth.make_transactions_table(n_rows=1000, seed=5)
    rng = np.random.default_rng(303)
    target_pool = [
        AggregationTarget(AVG, "sales"),
        AggregationTarget(SUM, "sales"),
        AggregationTarget(MEDIAN, "sales"),
        AggregationTarget(MIN, "sales"),
        AggregationTarget(MAX, "discount"),
        AggregationTarget(COUNT, "sales"),
        AggregationTarget(COUNT_DISTINCT, "sales"),
        AggregationTarget(COUNT, "region"),
    ]
    sales = ds.continuous_values("sales")
    group_sets = (("region",), ("category",), ("region", "category"))
    n_groupby = 60
    n_flat = 0
    for _ in range(n_groupby):
        picked = rng.permutation(len(target_pool))[: 1 + rng.integers(3)]
        between = ()
        if rng.random() < 0.6:
            a, b = np.sort(rng.uniform(sales.min(), sales.max(), 2))
            between = (BetweenFilter("sales", float(a), float(b)),)
        gq = GroupByQuery(
            targets=tuple(target_pool[i] for i in picked),
            between_filters=between,
            groupby_attrs=group_sets[rng.integers(len(group_sets))],
        )
        for lq in execute_groupby(ds, gq):
            value, support = execute_flat(ds, lq.query)
            assert value == lq.label, lq.query.to_sql()
            assert support == lq.support, lq.query.to_sql()
            n_flat += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        "A2 group-by flattening",
        n_groupby >= GROUPBY_MIN_QUERIES and n_flat > 0 and elapsed < FAST_BUDGET_S,
        f"{n_groupby} group-bys -> {n_flat} flattened queries, every cell reproduced "
        f"exactly by flat execution, {elapsed:.1f}s < {FAST_BUDGET_S:.0f}s",
    )


# -- 3. encoder round trip and injectivity -----------------------------------

def test_a3_encoding_round_trip_and_injectivity():
    t0 = time.perf_counter()
    ds = synth.make_transactions_table(n_rows=2000, seed=9)
    template = QueryTemplate.build(
        ds,
        targets=[AggregationTarget(AVG, "sales"), AggregationTarget(SUM, "sales")],
        cont_filter_attrs=["sales", "discount"],
        nom_filter_attrs=["region", "category"],
        n_cont_samples=420,
        seed=17,
        numeric_scales={"sales": 100.0, "discount": 1000.0},
    )
    queries, report = generate_workload(ds, template)
    vocab = build_vocabulary(queries, template)
    seen = set()
    for q in queries:
        mat = encode(q, vocab)
        assert decode(mat, vocab) == q
        seen.add(mat.tobytes())
    distinct_queries = len(set(queries))
    elapsed = time.perf_counter() - t0
    _verdict(
        "A3 encode/decode round trip + injectivity",
        report.n_queries >= ROUNDTRIP_MIN_QUERIES
        and len(seen) == distinct_queries
        and elapsed < FAST_BUDGET_S,
        f"{report.n_queries} queries, decode(encode(q)) == q for all, "
        f"{distinct_queries} distinct queries -> {len(seen)} distinct matrices, "
        f"{elapsed:.1f}s < {FAST_BUDGET_S:.0f}s",
    )


# SHA-256 of the benchmark workload's tensor (20k rows, 12 windows x 200
# member tuples), as the per-query encoder produced it.
A3_BENCHMARK_SHA256 = "30355e8b06cd011e7d8a10e664c06305a1c8f6de9199306c0b2c4a510fb208f6"


def test_a3_benchmark_encoding_is_pinned():
    ds = synth.make_benchmark_table(20_000, seed=7)
    template = synth.benchmark_template(ds, 12, 11)
    queries, _ = generate_workload(ds, template)
    X = encode_workload(queries, build_vocabulary(queries, template))
    digest = hashlib.sha256(X.tobytes()).hexdigest()
    _verdict(
        "A3 benchmark encoding pinned",
        X.shape == (2400, 10, 12) and digest == A3_BENCHMARK_SHA256,
        f"shape {X.shape}, SHA-256 {digest[:16]}...",
    )


# -- 4. gradient correctness --------------------------------------------------

def test_a4_gradient_check_all_parameter_groups():
    t0 = time.perf_counter()
    worst = {}
    # Full coordinate sweep on a small network, then a sampled sweep at
    # production width; both must agree with central differences.
    configs = (
        (ModelConfig(lstm_units=6, dense_units=8, seed=3), 5, 7, 12, None),
        (ModelConfig(lstm_units=128, dense_units=200, seed=4), 10, 12, 16, 8),
    )
    for cfg, L, D, batch, samples in configs:
        rng = np.random.default_rng(55 + cfg.lstm_units)
        model = LstmModel(cfg, L, D)
        X = rng.integers(0, 2, (batch, L, D)).astype(np.uint8)
        y = rng.normal(0.0, 1.0, batch)
        errs = gradient_check(model, X, y, samples_per_param=samples)
        # One group per gate block of the fused LSTM tensors, plus the head.
        assert set(errs) == {f"{k}:{g}" for k in ("W_x", "W_h", "b") for g in "ifgo"} | {
            "W_d", "b_d", "W_y", "b_y"}
        for k, e in errs.items():
            worst[k] = max(worst.get(k, 0.0), e)
    max_err = max(worst.values())
    elapsed = time.perf_counter() - t0
    _verdict(
        "A4 gradient check",
        max_err < GRAD_TOLERANCE and elapsed < GRAD_BUDGET_S,
        f"max relative error {max_err:.2e} < {GRAD_TOLERANCE:.0e} over "
        f"{len(worst)} parameter groups at two widths, {elapsed:.1f}s < {GRAD_BUDGET_S:.0f}s",
    )


# -- 5/6/7. shared benchmark pipeline ----------------------------------------

BENCH_CONFIG = ModelConfig(
    lstm_units=128,
    dense_units=200,
    learning_rate=1e-3,
    batch_size=256,
    max_epochs=12,
    patience=12,
    seed=0,
)


@pytest.fixture(scope="session")
def benchmark_run():
    t0 = time.perf_counter()
    ds = synth.make_benchmark_table()
    template = synth.benchmark_template(ds)
    queries, _ = generate_workload(ds, template)
    labeled, label_report = label_workload(ds, queries)
    vocab = build_vocabulary([lq.query for lq in labeled], template)
    X = encode_workload(labeled, vocab)
    y = np.array([lq.label for lq in labeled])
    tr, va, te = split_indices(len(y), (0.70, 0.15, 0.15), seed=0)
    model = LstmModel(BENCH_CONFIG, vocab.sequence_length, vocab.row_width, vocab.content_hash())
    train_report = model.fit(X[tr], y[tr], X[va], y[va])
    return {
        "dataset": ds,
        "label_report": label_report,
        "model": model,
        "train_report": train_report,
        "X_test": X[te],
        "y_test": y[te],
        "wall_s": time.perf_counter() - t0,
    }


def test_a5_benchmark_nrmse_within_five_percent(benchmark_run):
    ds = benchmark_run["dataset"]
    cards = sorted(len(ds.members(a)) for a in ("region", "channel", "product"))
    assert ds.row_count == 1_000_000 and cards == [4, 5, 10]
    assert ds.kind_of("x") is Kind.CONTINUOUS and ds.kind_of("value") is Kind.CONTINUOUS
    labeled = benchmark_run["label_report"].labeled
    model = benchmark_run["model"]
    pred = model.predict_batch(benchmark_run["X_test"])
    score = nrmse(pred, benchmark_run["y_test"])
    wall = benchmark_run["wall_s"]
    _verdict(
        "A5 benchmark accuracy",
        labeled >= BENCH_MIN_LABELED
        and score <= BENCH_NRMSE_LIMIT_PCT
        and wall < BENCH_BUDGET_S,
        f"test NRMSE {score:.3f}% <= {BENCH_NRMSE_LIMIT_PCT:.0f}% on {labeled} labeled "
        f"queries (1M rows, 128 LSTM + 200 dense, lr 1e-3, batch 256), "
        f"pipeline {wall:.0f}s < {BENCH_BUDGET_S:.0f}s",
    )


def test_a6_single_query_latency_under_10ms(benchmark_run):
    model = benchmark_run["model"]
    latency = measure_ql(model.predict, benchmark_run["X_test"][:200], warmup=5)
    _verdict(
        "A6 single-query latency",
        latency.mean_ms <= QL_LIMIT_MS,
        f"mean {latency.mean_ms:.3f} ms/query (max {latency.max_ms:.3f}) over "
        f"{latency.n} single-query calls, limit {QL_LIMIT_MS:.0f} ms",
    )


def test_a7_batch_throughput_and_worker_invariance(benchmark_run):
    model = benchmark_run["model"]
    X = benchmark_run["X_test"]
    rates = {w: measure_qt(model.predict_batch, X, n_workers=w).qps for w in (1, 4)}
    best = max(rates.values())
    outputs = [model.predict_batch(X, n_workers=w) for w in (1, 2, 4)]
    identical = all(np.array_equal(outputs[0], o) for o in outputs[1:])
    _verdict(
        "A7 batch throughput",
        best >= QT_FLOOR_QPS and identical,
        f"{best:,.0f} q/s >= {QT_FLOOR_QPS:,.0f} (1 worker {rates[1]:,.0f}, "
        f"4 workers {rates[4]:,.0f}) over {len(X)} queries; outputs bit-identical "
        f"across 1/2/4 workers: {identical}",
    )


# -- 8. metric invariants ------------------------------------------------------

def test_a8_metric_invariants():
    rng = np.random.default_rng(404)
    y = rng.uniform(0.0, 100.0, 64)
    p = y + rng.normal(0.0, 3.0, 64)
    base = nrmse(p, y)
    worst = 0.0
    for _ in range(N_AFFINE_TRANSFORMS):
        a = float(rng.uniform(1e-3, 50.0) * rng.choice((-1.0, 1.0)))
        b = float(rng.uniform(-1e3, 1e3))
        worst = max(worst, abs(nrmse(a * p + b, a * y + b) - base))
    affine_ok = worst < 1e-9 * base

    entropy_ok = True
    for n in (2, 5, 16):
        schema = make_schema([("tag", Kind.NOMINAL)])
        ds = Dataset.from_columns(schema, {"tag": [f"m{i:02d}" for i in range(n)] * 30})
        entropy_ok &= abs(column_entropy(ds, "tag") - math.log2(n)) <= 1e-9

    X = np.zeros((4, 5, 2))
    X[:2] = 1.0
    variance_ok = input_tensor_variance(X) == 0.25

    _verdict(
        "A8 metric invariants",
        affine_ok and entropy_ok and variance_ok,
        f"NRMSE drift {worst:.2e} over {N_AFFINE_TRANSFORMS} affine transforms, "
        f"uniform-column entropy == log2(n) +/- 1e-9 for n in (2,5,16), "
        f"half-ones tensor variance == 0.25 exactly",
    )


# -- 9. determinism and persistence --------------------------------------------

def test_a9_determinism_and_checkpoint_round_trip(tmp_path):
    ds = synth.make_transactions_table(n_rows=400, seed=2)
    template = QueryTemplate.build(
        ds,
        targets=[AggregationTarget(AVG, "sales"), AggregationTarget(COUNT, "sales")],
        cont_filter_attrs=["sales"],
        nom_filter_attrs=["region"],
        n_cont_samples=25,
        seed=5,
    )

    paths = []
    reports = []
    for rerun in ("first", "second"):
        queries, _ = generate_workload(ds, template)
        labeled, _ = label_workload(ds, queries)
        path = tmp_path / f"workload_{rerun}.jsonl"
        write_workload(path, labeled)
        paths.append(path)

        vocab = build_vocabulary([lq.query for lq in labeled], template)
        X = encode_workload(labeled, vocab)
        y = np.array([lq.label for lq in labeled])
        tr, va, _ = split_indices(len(y), (0.70, 0.15, 0.15), seed=1)
        cfg = ModelConfig(lstm_units=8, dense_units=12, batch_size=16, max_epochs=4, seed=6)
        model = LstmModel(cfg, vocab.sequence_length, vocab.row_width)
        report = model.fit(X[tr], y[tr], X[va], y[va]).to_record()
        # Wall-clock timing is measurement, not a seeded result.
        report.pop("wall_seconds")
        report.pop("epoch_seconds")
        reports.append(json.dumps(report, sort_keys=True))

    workloads_identical = paths[0].read_bytes() == paths[1].read_bytes()
    reports_identical = reports[0] == reports[1]

    ckpt = tmp_path / "model.npz"
    model.save(ckpt)
    restored = LstmModel.load(ckpt)
    rng = np.random.default_rng(606)
    probe = rng.integers(0, 2, (100, vocab.sequence_length, vocab.row_width)).astype(np.uint8)
    round_trip_exact = np.array_equal(model.predict_batch(probe), restored.predict_batch(probe))

    _verdict(
        "A9 determinism + persistence",
        workloads_identical and reports_identical and round_trip_exact,
        f"re-generated labeled workload byte-identical: {workloads_identical}; "
        f"re-trained report identical: {reports_identical}; "
        f"checkpoint round trip bit-exact on 100 random inputs: {round_trip_exact}",
    )
