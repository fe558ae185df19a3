"""Accuracy, latency, throughput and data-shape measurements.

Accuracy is reported as RMSE and as NRMSE: RMSE normalized by the label
range and expressed in percent, which makes models comparable across
targets with different units. Latency (QL) is the wall time to answer one
already-encoded query, summarized as mean, median (p50), p99 and max;
throughput (QT) is queries per second over a batched run. Both use the
monotonic performance clock and exclude warmup calls.

Entropy (base 2) summarizes how spread out the attribute values are:
nominal attributes use member frequencies, continuous attributes are
histogrammed into 10 equal-width bins between min and max (the maximum
falls into the last bin). The variance of the encoded input tensor is the
population variance over every 0/1 cell.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DegenerateRange, EmptyList, LengthMismatch
from .store import Dataset, Kind


def rmse(predictions, labels) -> float:
    p = np.asarray(predictions, dtype=np.float64).ravel()
    y = np.asarray(labels, dtype=np.float64).ravel()
    if p.size != y.size:
        raise LengthMismatch(f"{p.size} predictions vs {y.size} labels")
    if p.size == 0:
        raise EmptyList("cannot compute RMSE of zero pairs")
    return float(np.sqrt(np.mean((p - y) ** 2)))


def nrmse(predictions, labels) -> float:
    """RMSE as a percentage of the label range (max - min)."""
    y = np.asarray(labels, dtype=np.float64).ravel()
    err = rmse(predictions, labels)
    spread = float(y.max() - y.min())
    if spread <= 0:
        raise DegenerateRange("labels have zero range; NRMSE is undefined")
    return 100.0 * err / spread


@dataclass(frozen=True)
class LatencyReport:
    latencies_ms: tuple

    @property
    def n(self) -> int:
        return len(self.latencies_ms)

    @property
    def mean_ms(self) -> float:
        return float(np.mean(self.latencies_ms))

    @property
    def max_ms(self) -> float:
        return float(np.max(self.latencies_ms))

    @property
    def p50_ms(self) -> float:
        return float(np.percentile(self.latencies_ms, 50))

    @property
    def p99_ms(self) -> float:
        return float(np.percentile(self.latencies_ms, 99))


def measure_ql(predict_fn, inputs, warmup: int = 3, clock=time.perf_counter) -> LatencyReport:
    """Time predict_fn on one encoded query at a time.

    The first `warmup` queries are run but not timed. predict_fn receives a
    batch of one, matching how a single ad-hoc query is answered.
    """
    X = np.asarray(inputs)
    if len(X) == 0:
        raise EmptyList("no queries to time")
    for k in range(min(warmup, len(X))):
        predict_fn(X[k : k + 1])
    times = []
    for k in range(len(X)):
        t0 = clock()
        predict_fn(X[k : k + 1])
        times.append((clock() - t0) * 1e3)
    return LatencyReport(latencies_ms=tuple(times))


@dataclass(frozen=True)
class ThroughputReport:
    queries: int
    seconds: float
    n_workers: int

    @property
    def qps(self) -> float:
        return self.queries / self.seconds


def measure_qt(predict_batch_fn, inputs, n_workers: int = 1,
               clock=time.perf_counter) -> ThroughputReport:
    """Queries per second of one batched prediction run.

    predict_batch_fn(inputs, n_workers) must answer every query; a warmup
    call on a small prefix is made first and excluded from the timing.
    """
    X = np.asarray(inputs)
    if len(X) == 0:
        raise EmptyList("no queries to time")
    predict_batch_fn(X[: min(len(X), 64)], n_workers)
    t0 = clock()
    predict_batch_fn(X, n_workers)
    seconds = clock() - t0
    return ThroughputReport(queries=len(X), seconds=seconds, n_workers=n_workers)


N_ENTROPY_BINS = 10


def _entropy_from_counts(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        raise EmptyList("cannot compute entropy of zero observations")
    p = counts[counts > 0] / total
    return float(-np.sum(p * np.log2(p)))


def column_entropy(ds: Dataset, attr: str) -> float:
    """Shannon entropy of one attribute, in bits."""
    if ds.kind_of(attr) is Kind.NOMINAL:
        counts = np.bincount(ds.nominal_id_values(attr), minlength=len(ds.members(attr)))
        return _entropy_from_counts(counts.astype(np.int64))
    values = ds.continuous_values(attr)
    if values.size == 0:
        raise EmptyList(f"attribute {attr!r} has no values")
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        return 0.0
    counts, _ = np.histogram(values, bins=N_ENTROPY_BINS, range=(lo, hi))
    return _entropy_from_counts(counts)


def mean_entropy(entropies) -> float:
    values = list(entropies)
    if not values:
        raise EmptyList("cannot average zero entropies")
    return float(np.mean(values))


def dataset_entropy(ds: Dataset) -> dict:
    """Per-attribute entropy plus the mean across attributes."""
    per_attr = {a.name: column_entropy(ds, a.name) for a in ds.schema}
    return {"per_attribute": per_attr, "mean": mean_entropy(per_attr.values())}


def input_tensor_variance(X) -> float:
    """Population variance over every cell of the encoded input tensor."""
    X = np.asarray(X, dtype=np.float64)
    if X.size == 0:
        raise EmptyList("cannot compute the variance of an empty tensor")
    return float(np.var(X))


@dataclass(frozen=True)
class EvalReport:
    n_test: int
    rmse: float
    nrmse_pct: float
    label_min: float
    label_max: float
    mean_entropy_bits: float | None = None
    input_variance: float | None = None

    def to_record(self) -> dict:
        return asdict(self)

    def to_text(self) -> str:
        rows = [
            ("queries", f"{self.n_test}"),
            ("RMSE", f"{self.rmse:.6g}"),
            ("NRMSE", f"{self.nrmse_pct:.4f} %"),
            ("label range", f"[{self.label_min:.6g}, {self.label_max:.6g}]"),
        ]
        if self.mean_entropy_bits is not None:
            rows.append(("mean entropy", f"{self.mean_entropy_bits:.4f} bits"))
        if self.input_variance is not None:
            rows.append(("input variance", f"{self.input_variance:.6f}"))
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


def evaluate_predictions(predictions, labels) -> EvalReport:
    y = np.asarray(labels, dtype=np.float64).ravel()
    return EvalReport(
        n_test=int(y.size),
        rmse=rmse(predictions, labels),
        nrmse_pct=nrmse(predictions, labels),
        label_min=float(y.min()),
        label_max=float(y.max()),
    )
