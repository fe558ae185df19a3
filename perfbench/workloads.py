"""The three benchmark workloads: build-1m, train-100k and serve-1m.

Every workload has a set-up, repeated and timed (``setup_s`` is the
median), and a job of fixed work, timed as ``job_s``: data preparation on
build-1m, model fitting on train-100k, batched answering on serve-1m.
Correctness gates follow the job and count towards the run's operations.

Every workload drives the library from outside through its public
functions and runs single-threaded: ``label_workload(threads=1)`` and
``predict_batch(n_workers=1)``. Each call goes through ``Run.call``, which
counts it as an operation and, in traced mode, records a span named
``<layer>.<call>``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from aqplearn import (
    AggregationFunction,
    AggregationTarget,
    FlatQuery,
    LstmModel,
    ModelConfig,
    QueryTemplate,
    build_vocabulary,
    column_entropy,
    continuous_stats,
    decode,
    dump_csv,
    encode,
    encode_workload,
    execute_flat,
    generate_workload,
    label_workload,
    load_csv,
    nrmse,
    split_indices,
    synth,
)
from aqplearn import executor
from aqplearn.errors import EmptyAggregate
from tracing import clock

# The A5 acceptance model: 128 LSTM units, 200 dense units, lr 1e-3,
# batch 256, model seed 0. Workloads set max_epochs and patience.
A5_CONFIG = ModelConfig(
    lstm_units=128, dense_units=200, learning_rate=1e-3, batch_size=256, seed=0
)
A5_SPLIT = (0.70, 0.15, 0.15)
NRMSE_BOUND_PCT = 5.0

# --seed s builds the table with seed s and the A5 template with seed s + 4,
# so seed 7 gives synth's default table (7) and template (11).
TEMPLATE_SEED_OFFSET = 4
FLAT_TEMPLATE_SEED_OFFSET = 5


@dataclass(frozen=True)
class Sizes:
    big_rows: int  # build-1m and serve-1m table
    train_rows: int  # train-100k table
    curve_rows: tuple  # serve-1m's smaller scan tables
    a5_windows: int  # BETWEEN samples of the A5 template
    flat_windows: int  # BETWEEN samples of the window-only template
    epochs: int  # train-100k fit
    probe_queries: int  # queries scanned exactly, and answered in serve-1m's closed loop
    min_answers: int  # closed-loop answers taken even when --seconds is short
    batch_queries: int  # serve-1m's batched answers
    check_sample: int  # decode round trips, A5-shape input check, checkpoint check
    serve_windows: int  # windows labeled in serve-1m's set-up
    setup_repeats: int


FULL = Sizes(
    big_rows=1_000_000,
    train_rows=100_000,
    curve_rows=(100_000, 10_000),
    a5_windows=260,
    flat_windows=150,
    epochs=1,
    probe_queries=1000,
    min_answers=1000,
    batch_queries=32768,
    check_sample=1000,
    serve_windows=10,
    setup_repeats=2,
)

# Small tables for the benchmark's own self-test; never headline numbers.
QUICK = Sizes(
    big_rows=20_000,
    train_rows=10_000,
    curve_rows=(5_000, 2_000),
    a5_windows=12,
    flat_windows=6,
    epochs=20,  # enough for the NRMSE bound on so little data
    probe_queries=100,
    min_answers=100,
    batch_queries=256,
    check_sample=100,
    serve_windows=3,
    setup_repeats=2,
)


def table_tag(rows: int) -> str:
    return f"{rows // 1_000_000}m" if rows % 1_000_000 == 0 else f"{rows // 1000}k"


class Run:
    """State of one benchmark run: tracer, operation counts, gate outcomes,
    counters and measured values."""

    def __init__(self, tracer, out_dir: Path, sizes: Sizes, seed: int):
        self.tracer = tracer
        self.out = out_dir
        self.sizes = sizes
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.gates: dict[str, list[int]] = {}
        self.counts: dict[str, float] = {}
        self.values: dict[str, float] = {}
        self.info: dict = {}

    def call(self, name: str, fn, *args, correct_raise=(), **kwargs):
        """One library call: counted as an operation, traced as a span. An
        exception of a `correct_raise` type is the caller's to check, so it
        is not counted as a failure here."""
        self.attempted += 1
        with self.tracer.span(name):
            try:
                return fn(*args, **kwargs)
            except correct_raise:
                raise
            except Exception:
                self.failed += 1
                raise

    def phase(self, name: str):
        return self.tracer.span("bench." + name)

    def gate(self, name: str, passed: int, checked: int) -> None:
        """Record a correctness gate over `checked` items; each failing item
        counts as a failed operation."""
        self.attempted += checked
        self.failed += checked - passed
        tally = self.gates.setdefault(name, [0, 0])
        tally[0] += passed
        tally[1] += checked

    def set_model(self, model) -> None:
        """Record the matmul operation counts of the model the run measures."""
        self.info["forward_flops_per_query"] = forward_flops_per_query(model)
        self.info["train_flops_per_example"] = train_flops_per_example(model)

    def count(self, name: str, n: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def setups(self, fn):
        """Run the set-up several times; setup_s is the median. Counters keep
        the last repetition only, so they do not scale with the repeats."""
        repeats = 1 if self.tracer.enabled else self.sizes.setup_repeats
        before = dict(self.counts)
        times, result = [], None
        for _ in range(repeats):
            result = None
            gc.collect()
            self.counts = dict(before)
            with self.phase("setup"):
                t0 = clock()
                result = fn()
                times.append(clock() - t0)
        self.values["setup_s"] = statistics.median(times)
        self.info["setup_samples_s"] = times
        return result

    # -- library calls with their counters ------------------------------

    def generate(self, ds, template):
        queries, report = self.call("querygen.generate_workload", generate_workload, ds, template)
        self.count("querygen.queries", report.n_queries)
        return queries

    def label(self, name: str, ds, queries, correct_raise=()):
        with counting_scans() as scans:
            labeled, report = self.call(name, label_workload, ds, queries, threads=1,
                                        correct_raise=correct_raise)
        self.count(name + ".labeled", report.labeled)
        self.count("executor.group_scans", scans["execute_groupby"])
        self.count("executor.flat_scans", scans["execute_flat"])
        self.count("executor.rows_scanned", sum(scans.values()) * ds.row_count)
        self.count("executor.labeled", report.labeled)
        self.count("executor.excluded_empty", report.excluded_empty)
        return labeled

    def label_windows(self, ds, queries):
        """Label window-only queries with one label_workload call per window,
        returning the labels in input order.

        label_workload's execute_flat branch raises EmptyAggregate for avg or
        median over a window that matches no rows, where its docstring says
        such a query is excluded; the generator draws such a window (both
        bounds snapped to one grid point) at about one seed in eight. One
        call per window keeps that window from aborting the others. Each
        raise must come from a window that a count shows to be empty
        (gate `empty_aggregate_only_on_empty_windows`), and the window's
        queries are counted in `executor.flat_empty_raised`."""
        windows: dict = {}
        for q in queries:
            windows.setdefault(q.between_filters, []).append(q)
        by_query = {}
        for window, members in windows.items():
            try:
                labeled = self.label("executor.label_flat", ds, members, correct_raise=EmptyAggregate)
            except EmptyAggregate:
                probe = FlatQuery(AggregationTarget(AggregationFunction.COUNT, members[0].target.attr), window)
                _, support = self.call("executor.execute_flat", execute_flat, ds, probe)
                self.gate("empty_aggregate_only_on_empty_windows", int(support == 0), 1)
                self.count("executor.flat_empty_raised", len(members))
                continue
            by_query.update((lq.query, lq) for lq in labeled)
        self.count("executor.flat_empty_raised", 0)
        return [by_query[q] for q in queries if q in by_query]

    def encode_batch(self, queries, vocab):
        X = self.call("encoder.encode_workload", encode_workload, queries, vocab)
        self.count("encoder.encoded", len(X))
        self.counts["encoder.tensor_bytes"] = max(self.counts.get("encoder.tensor_bytes", 0), X.nbytes)
        return X

    def fit(self, model, X, y, X_val=None, y_val=None):
        report = self.call("nnet.fit", model.fit, X, y, X_val, y_val)
        self.count("nnet.epochs", report.epochs_run)
        self.count("nnet.train_examples", report.epochs_run * len(X))
        self.count("nnet.val_examples", len(report.val_history) * (0 if X_val is None else len(X_val)))
        finite = sum(np.isfinite(v) for v in (*report.train_history, *report.val_history))
        self.gate("losses_finite", int(finite), len(report.train_history) + len(report.val_history))
        return report


@contextmanager
def counting_scans():
    """Count the scans that label_workload runs. It looks up execute_groupby
    and execute_flat as globals of aqplearn.executor, so wrapping them there
    for the length of one call sees every scan it makes."""
    scans = {"execute_groupby": 0, "execute_flat": 0}
    originals = {name: getattr(executor, name) for name in scans}

    def counted(name):
        fn = originals[name]

        def wrapper(*args, **kwargs):
            scans[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in scans:
        setattr(executor, name, counted(name))
    try:
        yield scans
    finally:
        for name, fn in originals.items():
            setattr(executor, name, fn)


def forward_flops_per_query(model: LstmModel) -> int:
    """Matmul operations of one forward pass: input projection and recurrent
    matmul at each of the L steps, then the dense layer and the output unit."""
    L, D = model.sequence_length, model.row_width
    H, Dd = model.config.lstm_units, model.config.dense_units
    return L * (2 * D * 4 * H + 2 * H * 4 * H) + 2 * H * Dd + 2 * Dd


def train_flops_per_example(model: LstmModel) -> int:
    """Matmul operations of one training example: the forward pass plus
    backpropagation through time (recurrent weight and hidden-state
    gradients at each step, the input-weight gradient, the dense head)."""
    L, D = model.sequence_length, model.row_width
    H, Dd = model.config.lstm_units, model.config.dense_units
    backward = L * (2 * H * 4 * H + 2 * 4 * H * H + 2 * D * 4 * H) + 4 * H * Dd + 4 * Dd
    return forward_flops_per_query(model) + backward


def _sample(rng, items: list, n: int) -> list:
    idx = np.sort(rng.choice(len(items), size=min(n, len(items)), replace=False))
    return [items[i] for i in idx]


def _same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _percentile(samples, q: float) -> float:
    return float(np.percentile(np.asarray(samples), q))


BATCH_CALL = 1024  # queries per batched answer call


def scan(run: Run, rows: int, ds, labeled: list) -> None:
    """Exact answers of labeled queries by execute_flat, one query at a
    time; each must equal its label from label_workload bit for bit."""
    tag = table_tag(rows)
    with run.phase("scan_" + tag):
        for lq in labeled[:5]:  # warm-up, not timed
            run.call("executor.execute_flat", execute_flat, ds, lq.query)
        times, equal = [], 0
        for lq in labeled:
            t0 = clock()
            value, support = run.call("executor.execute_flat", execute_flat, ds, lq.query)
            times.append((clock() - t0) * 1e3)
            equal += _same_bits(value, lq.label) and support == lq.support
    run.gate("scans_match_labels", equal, len(labeled))
    run.values[f"executor.scan_p50_ms.rows_{tag}"] = _percentile(times, 50)
    run.values[f"executor.scan_p99_ms.rows_{tag}"] = _percentile(times, 99)
    run.info[f"scan_samples_rows_{tag}"] = len(times)


def answer_batches(run: Run, model, vocab, queries: list) -> np.ndarray:
    """encode_workload then predict_batch over the queries, BATCH_CALL at a
    time; every prediction must be finite."""
    outputs = []
    for start in range(0, len(queries), BATCH_CALL):
        X = run.encode_batch(queries[start : start + BATCH_CALL], vocab)
        outputs.append(run.call("nnet.predict_batch", model.predict_batch, X, n_workers=1))
    predictions = np.concatenate(outputs)
    run.count("nnet.predicted", len(predictions))
    run.gate("answers_finite", int(np.isfinite(predictions).sum()), len(predictions))
    return predictions


# -- build-1m -----------------------------------------------------------------

def build_1m(run: Run, seconds: float) -> None:
    """Data preparation at A5 scale: CSV on disk to labeled, encoded tensors."""
    s, seed = run.sizes, run.seed
    csv_path = run.out / f"build-1m-s{seed}-{table_tag(s.big_rows)}.csv"

    def setup():
        ds = run.call("store.synth", synth.make_benchmark_table, s.big_rows, seed)
        run.call("store.dump_csv", dump_csv, ds, csv_path)
        return list(ds.schema)

    try:
        schema = run.setups(setup)
        with run.phase("job"):
            t0 = clock()
            ds = run.call("store.load_csv", load_csv, csv_path, schema)
            for attr in ("x", "value"):
                run.call("store.continuous_stats", continuous_stats, ds, attr)
            for attr in schema:
                run.call("metrics.column_entropy", column_entropy, ds, attr.name)
            template = run.call(
                "querygen.template", synth.benchmark_template, ds, s.a5_windows, seed + TEMPLATE_SEED_OFFSET
            )
            labeled = run.label("executor.label_grouped", ds, run.generate(ds, template))
            # Window-only queries have no IN filter, so each takes its own
            # full scan through label_workload's execute_flat branch.
            flat_template = run.call(
                "querygen.template",
                QueryTemplate.build,
                ds,
                targets=[
                    AggregationTarget(AggregationFunction.AVG, "value"),
                    AggregationTarget(AggregationFunction.MEDIAN, "value"),
                ],
                cont_filter_attrs=["x"],
                nom_filter_attrs=[],
                n_cont_samples=s.flat_windows,
                seed=seed + FLAT_TEMPLATE_SEED_OFFSET,
                numeric_scales={"x": 1.0},
            )
            flat_labeled = run.label_windows(ds, run.generate(ds, flat_template))
            vocab = run.call("encoder.build_vocabulary", build_vocabulary, labeled, template)
            X = run.encode_batch(labeled, vocab)
            flat_vocab = run.call("encoder.build_vocabulary", build_vocabulary, flat_labeled, flat_template)
            run.encode_batch(flat_labeled, flat_vocab)
            run.values["job_s"] = run.values["prep_s"] = clock() - t0
    finally:
        csv_path.unlink(missing_ok=True)
    run.info["rows"] = ds.row_count
    run.info["flat_empty_raised"] = run.counts["executor.flat_empty_raised"]

    all_labels = labeled + flat_labeled
    digest = hashlib.sha256(
        np.array([lq.label for lq in all_labels], dtype="<f8").tobytes()
        + np.array([lq.support for lq in all_labels], dtype="<i8").tobytes()
    ).hexdigest()
    run.info["label_sha256"] = digest
    _check_digest(run, "build-1m", digest)

    rng = np.random.default_rng(seed)
    scan(run, ds.row_count, ds, _sample(rng, labeled, s.probe_queries))
    run.values["scan_p50_ms"] = run.values[f"executor.scan_p50_ms.rows_{table_tag(ds.row_count)}"]
    run.values["scan_p99_ms"] = run.values[f"executor.scan_p99_ms.rows_{table_tag(ds.row_count)}"]

    checks = np.sort(rng.choice(len(labeled), size=min(s.check_sample, len(labeled)), replace=False))
    same = sum(run.call("encoder.decode", decode, X[i], vocab) == labeled[i].query for i in checks)
    run.gate("decode_round_trip", int(same), len(checks))

    # The encoded tensors must be valid input for a model of A5 shape.
    model = run.call(
        "nnet.init", LstmModel, A5_CONFIG, vocab.sequence_length, vocab.row_width, vocab.content_hash()
    )
    run.set_model(model)
    answer_batches(run, model, vocab, [labeled[i] for i in checks])


# The baseline of the unchanged tree; it holds the label digest of each of
# its seeds at full size.
BASELINE = Path(__file__).resolve().parent / "BENCH_0.json"


def code_sha256() -> str:
    """SHA-256 of the library's sources and the benchmark's own code."""
    root = Path(__file__).resolve().parent
    h = hashlib.sha256()
    for base in (root.parent / "src", root):
        for path in sorted(base.rglob("*.py")):
            h.update(path.relative_to(base).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _check_digest(run: Run, workload: str, digest: str) -> None:
    """Labels are a pure function of the seed. At full size, a seed the
    baseline covers must reproduce the baseline's digest. Any other seed or
    size must reproduce the digest that the first run of the same code in
    this checkout at that seed and size recorded under the output
    directory; the file name carries the code's digest, so a file left by
    other code is never read as the reference."""
    expected = None
    if run.sizes == FULL:
        with open(BASELINE, encoding="utf-8") as fh:
            by_seed = json.load(fh)["workloads"][workload]["label_sha256_by_seed"]
        expected = by_seed.get(str(run.seed))
    if expected is not None:
        run.info["label_digest_reference"] = BASELINE.name
    else:
        tag = f"{workload}-s{run.seed}-{table_tag(run.sizes.big_rows)}-{code_sha256()[:16]}"
        path = run.out / f"digest-{tag}.txt"
        if not path.exists():
            tmp = path.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(digest + "\n")
            tmp.replace(path)
            run.info["label_digest_reference"] = "recorded by this run"
        else:
            run.info["label_digest_reference"] = "recorded by an earlier run"
        expected = path.read_text().strip()
    run.info["label_digest_expected"] = expected
    run.gate("label_digest_stable", int(expected == digest), 1)


# -- train-100k ---------------------------------------------------------------

def train_100k(run: Run, seconds: float) -> None:
    """Model fitting: the A5 model for a fixed number of epochs."""
    s, seed = run.sizes, run.seed

    def setup():
        ds = run.call("store.synth", synth.make_benchmark_table, s.train_rows, seed)
        template = run.call(
            "querygen.template", synth.benchmark_template, ds, s.a5_windows, seed + TEMPLATE_SEED_OFFSET
        )
        labeled = run.label("executor.label_grouped", ds, run.generate(ds, template))
        vocab = run.call("encoder.build_vocabulary", build_vocabulary, labeled, template)
        return labeled, vocab, run.encode_batch(labeled, vocab)

    labeled, vocab, X = run.setups(setup)
    y = np.array([lq.label for lq in labeled])
    tr, va, te = split_indices(len(y), A5_SPLIT, seed=0)
    X_tr, y_tr, X_va, y_va = X[tr], y[tr], X[va], y[va]
    config = replace(A5_CONFIG, max_epochs=s.epochs, patience=s.epochs)
    model = run.call("nnet.init", LstmModel, config, vocab.sequence_length, vocab.row_width, vocab.content_hash())
    run.set_model(model)
    with run.phase("job"):
        t0 = clock()
        run.fit(model, X_tr, y_tr, X_va, y_va)
        run.values["job_s"] = run.values["fit_s"] = clock() - t0

    test = [labeled[i] for i in te]
    predictions = answer_batches(run, model, vocab, test)
    score = run.call("metrics.nrmse", nrmse, predictions, [lq.label for lq in test])
    run.values["nrmse_pct"] = score
    run.gate("nrmse_within_bound", int(score <= NRMSE_BOUND_PCT), 1)


# -- serve-1m -----------------------------------------------------------------

def serve_1m(run: Run, seconds: float) -> None:
    """Answering queries: a loaded A5-shape model against exact scans."""
    s, seed = run.sizes, run.seed
    ckpt = run.out / f"serve-1m-s{seed}.npz"

    def setup():
        ds = run.call("store.synth", synth.make_benchmark_table, s.big_rows, seed)
        template = run.call(
            "querygen.template", synth.benchmark_template, ds, s.a5_windows, seed + TEMPLATE_SEED_OFFSET
        )
        queries = run.generate(ds, template)
        vocab = run.call("encoder.build_vocabulary", build_vocabulary, queries, template)
        rng = np.random.default_rng(seed)
        windows: dict = {}
        for q in queries:
            windows.setdefault(q.between_filters, []).append(q)
        keys = list(windows)
        picked = np.sort(rng.choice(len(keys), size=min(s.serve_windows, len(keys)), replace=False))
        subset = [q for w in picked for q in windows[keys[w]]]
        labeled = run.label("executor.label_grouped", ds, subset)
        X = run.encode_batch(labeled, vocab)
        # A brief fit: the weights do not change the cost of a forward pass.
        config = replace(A5_CONFIG, max_epochs=1, patience=1)
        trained = run.call(
            "nnet.init", LstmModel, config, vocab.sequence_length, vocab.row_width, vocab.content_hash()
        )
        run.fit(trained, X, np.array([lq.label for lq in labeled]))
        run.call("nnet.save", trained.save, ckpt)
        model = run.call("nnet.load", LstmModel.load, ckpt, expected_vocab_hash=vocab.content_hash())
        sample = X[: s.check_sample]
        saved = run.call("nnet.predict_check", trained.predict, sample)
        loaded = run.call("nnet.predict_check", model.predict, sample)
        run.gate("checkpoint_round_trip", int(np.array_equal(saved, loaded)), 1)
        # The probe keeps queries that have support at every table size, so
        # every exact scan returns a value rather than EmptyAggregate.
        tables = [(ds.row_count, ds, labeled)]
        for rows in s.curve_rows:
            small = run.call("store.synth", synth.make_benchmark_table, rows, seed)
            tables.append((rows, small, run.label("executor.label_grouped", small, subset)))
        common = set.intersection(*({lq.query for lq in t[2]} for t in tables))
        probe_queries = {lq.query for lq in _sample(rng, [lq for lq in labeled if lq.query in common], s.probe_queries)}
        tables = [(rows, t, [lq for lq in lab if lq.query in probe_queries]) for rows, t, lab in tables]
        return model, vocab, tables, _sample(rng, queries, s.batch_queries)

    try:
        model, vocab, tables, batch = run.setups(setup)
        run.info["checkpoint_bytes"] = ckpt.stat().st_size
    finally:
        ckpt.unlink(missing_ok=True)
    run.set_model(model)

    # Phases run one after another, never interleaved, so that a 1M-row
    # scan does not evict the model from cache between answers.
    probe = tables[0][2]
    with run.phase("answer_loop"):
        for lq in probe[:20]:  # warm-up, not timed
            run.call("nnet.predict", model.predict, run.call("encoder.encode", encode, lq.query, vocab)[None])
        times, finite, k = [], 0, 0
        stop = clock() + seconds
        while k < s.min_answers or clock() < stop:
            q = probe[k % len(probe)].query
            t0 = clock()
            x = run.call("encoder.encode", encode, q, vocab)
            y = run.call("nnet.predict", model.predict, x[None])
            times.append((clock() - t0) * 1e3)
            finite += bool(np.isfinite(y[0]))
            k += 1
    run.gate("answers_finite", finite, k)
    run.values["answer_p50_ms"] = _percentile(times, 50)
    run.values["answer_p99_ms"] = _percentile(times, 99)
    run.info["answer_samples"] = k

    for rows, table, labeled in tables:
        scan(run, rows, table, labeled)
    own = table_tag(tables[0][0])
    run.values["scan_p50_ms"] = run.values[f"executor.scan_p50_ms.rows_{own}"]
    run.values["scan_p99_ms"] = run.values[f"executor.scan_p99_ms.rows_{own}"]

    with run.phase("job"):
        t0 = clock()
        answer_batches(run, model, vocab, batch)
        run.values["job_s"] = clock() - t0
    run.values["answer_qps"] = len(batch) / run.values["job_s"]

    X = run.encode_batch(batch[: 2 * BATCH_CALL], vocab)
    one = run.call("nnet.predict_batch_check", model.predict_batch, X, n_workers=1)
    two = run.call("nnet.predict_batch_check", model.predict_batch, X, n_workers=2)
    run.gate("predict_batch_worker_invariant", int(np.array_equal(one, two)), 1)


WORKLOADS = {
    "build-1m": build_1m,
    "train-100k": train_100k,
    "serve-1m": serve_1m,
}

# Gates each workload must run; the self-test checks that all of them did.
GATES = {
    "build-1m": ("label_digest_stable", "scans_match_labels", "decode_round_trip", "answers_finite"),
    "train-100k": ("losses_finite", "answers_finite", "nrmse_within_bound"),
    "serve-1m": (
        "losses_finite",
        "checkpoint_round_trip",
        "answers_finite",
        "scans_match_labels",
        "predict_batch_worker_invariant",
    ),
}


def layer_metrics(run: Run, wall_s: float, cpu_s: float, span_cost: float) -> dict:
    """Per-layer values of a traced run, from its spans and counters. Only
    the values a workload's calls produce appear."""
    tr, c, v = run.tracer, run.counts, run.values
    total = lambda name: sum(tr.durations(name))
    out: dict[str, float] = {}

    for layer, t in tr.self_times().items():
        out[f"{layer}.self_s"] = t
    out["store.synth_s"] = total("store.synth")
    if tr.durations("store.load_csv"):
        out["store.load_csv_s"] = total("store.load_csv")
        out["store.load_csv_rows_per_s"] = run.info["rows"] / out["store.load_csv_s"]
        out["store.profile_s"] = total("store.continuous_stats") + total("metrics.column_entropy")
    out["querygen.generate_s"] = total("querygen.generate_workload")
    out["querygen.queries"] = c["querygen.queries"]
    for kind in ("grouped", "flat"):
        name = f"executor.label_{kind}"
        if tr.durations(name):
            out[name + "_s"] = total(name)
            out[name + "_qps"] = c[name + ".labeled"] / out[name + "_s"]
    for key in ("group_scans", "labeled", "excluded_empty"):
        out["executor." + key] = c["executor." + key]
    if "executor.flat_empty_raised" in c:
        out["executor.flat_empty_raised"] = c["executor.flat_empty_raised"]
    out["executor.rows_scanned_per_label"] = c["executor.rows_scanned"] / c["executor.labeled"]
    for key, value in v.items():
        if key.startswith("executor.scan_"):
            out[key] = value
    out["encoder.vocab_s"] = total("encoder.build_vocabulary")
    out["encoder.encode_batch_s"] = total("encoder.encode_workload")
    out["encoder.encode_us_per_query"] = 1e6 * out["encoder.encode_batch_s"] / c["encoder.encoded"]
    if tr.durations("encoder.encode"):
        out["encoder.encode_one_p50_us"] = 1e6 * _percentile(tr.durations("encoder.encode"), 50)
        out["nnet.predict_one_p50_us"] = 1e6 * _percentile(tr.durations("nnet.predict"), 50)
    out["encoder.tensor_bytes"] = c["encoder.tensor_bytes"]

    fwd = run.info["forward_flops_per_query"]
    out["nnet.forward_flops_per_query"] = fwd
    if tr.durations("nnet.fit"):
        fit_s = total("nnet.fit")
        out["nnet.epoch_s"] = fit_s / c["nnet.epochs"]
        out["nnet.train_examples_per_s"] = c["nnet.train_examples"] / fit_s
        flops = c["nnet.train_examples"] * run.info["train_flops_per_example"] + c["nnet.val_examples"] * fwd
        out["nnet.train_gflops"] = flops / fit_s / 1e9
    out["nnet.predict_batch_s"] = total("nnet.predict_batch")
    out["nnet.predict_gflops"] = c["nnet.predicted"] * fwd / out["nnet.predict_batch_s"] / 1e9
    if tr.durations("nnet.load"):
        out["nnet.load_s"] = total("nnet.load")
        out["nnet.checkpoint_bytes"] = run.info["checkpoint_bytes"]

    out["proc.cpu_s"] = cpu_s
    out["proc.cpu_util"] = cpu_s / wall_s
    spans = len(tr.spans)
    out["trace.spans"] = spans
    out["trace.overhead_pct"] = 100.0 * spans * span_cost / (wall_s - spans * span_cost)
    return out


# -- metric catalogue ---------------------------------------------------------
# README.md defines each of these; the self-test checks that every run
# produces the ones its workload owns, each with a unit from here.

UNITS = {
    "setup_s": "s",
    "job_s": "s",
    "prep_s": "s",
    "fit_s": "s",
    "nrmse_pct": "%",
    "answer_p50_ms": "ms",
    "answer_p99_ms": "ms",
    "answer_qps": "1/s",
    "scan_p50_ms": "ms",
    "scan_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "ops_failed_frac": "fraction",
    "store.synth_s": "s",
    "store.load_csv_s": "s",
    "store.load_csv_rows_per_s": "1/s",
    "store.profile_s": "s",
    "querygen.generate_s": "s",
    "querygen.queries": "count",
    "executor.label_grouped_s": "s",
    "executor.label_grouped_qps": "1/s",
    "executor.label_flat_s": "s",
    "executor.label_flat_qps": "1/s",
    "executor.group_scans": "count",
    "executor.rows_scanned_per_label": "rows",
    "executor.labeled": "count",
    "executor.excluded_empty": "count",
    "executor.flat_empty_raised": "count",
    "encoder.vocab_s": "s",
    "encoder.encode_batch_s": "s",
    "encoder.encode_us_per_query": "us",
    "encoder.encode_one_p50_us": "us",
    "encoder.tensor_bytes": "bytes",
    "nnet.epoch_s": "s",
    "nnet.train_examples_per_s": "1/s",
    "nnet.train_gflops": "GFLOP/s",
    "nnet.forward_flops_per_query": "FLOP",
    "nnet.predict_one_p50_us": "us",
    "nnet.predict_batch_s": "s",
    "nnet.predict_gflops": "GFLOP/s",
    "nnet.load_s": "s",
    "nnet.checkpoint_bytes": "bytes",
    "proc.cpu_s": "s",
    "proc.cpu_util": "fraction",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


def unit_of(name: str) -> str | None:
    if name.endswith(".self_s"):
        return "s"
    if name.startswith(("executor.scan_p50_ms.", "executor.scan_p99_ms.")):
        return "ms"
    return UNITS.get(name)


# Produced by every workload. BENCHMARK.json lists end-to-end and per-layer
# metrics from these only, since every run must report each listed metric.
VALUES_ALL = ("setup_s", "job_s", "peak_rss_mb", "ops_failed_frac")
LAYERS_ALL = (
    "store.self_s", "querygen.self_s", "executor.self_s", "encoder.self_s", "nnet.self_s",
    "bench.self_s", "store.synth_s", "querygen.generate_s", "querygen.queries",
    "executor.label_grouped_s", "executor.label_grouped_qps", "executor.group_scans",
    "executor.rows_scanned_per_label", "executor.labeled", "executor.excluded_empty",
    "encoder.vocab_s", "encoder.encode_batch_s", "encoder.encode_us_per_query",
    "encoder.tensor_bytes", "nnet.forward_flops_per_query", "nnet.predict_batch_s",
    "nnet.predict_gflops", "proc.cpu_s", "proc.cpu_util", "trace.overhead_pct", "trace.spans",
)
_FIT_LAYERS = ("nnet.epoch_s", "nnet.train_examples_per_s", "nnet.train_gflops")


def _scan_curve(*rows) -> tuple:
    return tuple(f"executor.scan_{p}_ms.rows_{table_tag(r)}" for r in rows for p in ("p50", "p99"))


def expected_metrics(workload: str, sizes: Sizes, traced: bool) -> tuple:
    """Names a run of `workload` must report: values untraced, layers traced."""
    if not traced:
        extra = {
            "build-1m": ("prep_s", "scan_p50_ms", "scan_p99_ms"),
            "train-100k": ("fit_s", "nrmse_pct"),
            "serve-1m": ("answer_p50_ms", "answer_p99_ms", "answer_qps", "scan_p50_ms", "scan_p99_ms"),
        }
        return VALUES_ALL + extra[workload]
    if workload == "build-1m":
        extra = (
            "store.load_csv_s", "store.load_csv_rows_per_s", "store.profile_s",
            "executor.label_flat_s", "executor.label_flat_qps", "executor.flat_empty_raised",
            "metrics.self_s",
        ) + _scan_curve(sizes.big_rows)
    elif workload == "train-100k":
        extra = _FIT_LAYERS + ("metrics.self_s",)
    else:
        extra = _FIT_LAYERS + (
            "nnet.load_s", "nnet.checkpoint_bytes", "encoder.encode_one_p50_us",
            "nnet.predict_one_p50_us",
        ) + _scan_curve(sizes.big_rows, *sizes.curve_rows)
    return LAYERS_ALL + extra
