"""Accuracy, latency, throughput, entropy and tensor-shape measurements."""

import math

import numpy as np
import pytest

from aqplearn import (
    Dataset,
    Kind,
    column_entropy,
    evaluate_predictions,
    input_tensor_variance,
    make_schema,
    mean_entropy,
    measure_ql,
    measure_qt,
    nrmse,
    rmse,
)
from aqplearn.errors import DegenerateRange, EmptyList, LengthMismatch
from aqplearn.metrics import dataset_entropy


class TestRmse:
    def test_hand_value(self):
        assert rmse([0.0, 0.0], [2.0, 4.0]) == math.sqrt(10.0)

    def test_single_pair(self):
        assert rmse([5.0], [2.0]) == 3.0

    def test_equals_sqrt_of_mse(self):
        rng = np.random.default_rng(0)
        p, y = rng.normal(size=50), rng.normal(size=50)
        assert rmse(p, y) == math.sqrt(np.mean((p - y) ** 2))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            rmse([1.0], [1.0, 2.0])


class TestNrmse:
    def test_five_percent(self):
        assert nrmse([5.0, 105.0], [0.0, 100.0]) == 5.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(1)
        y = rng.uniform(0, 50, 40)
        p = y + rng.normal(0, 2, 40)
        base = nrmse(p, y)
        assert nrmse(p * 1000.0, y * 1000.0) == pytest.approx(base, rel=1e-12)
        assert nrmse(p + 77.0, y + 77.0) == pytest.approx(base, rel=1e-12)

    def test_degenerate_range(self):
        with pytest.raises(DegenerateRange):
            nrmse([1.0, 2.0], [3.0, 3.0])


class FakeClock:
    def __init__(self, ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


class TestLatency:
    def test_latencies_from_a_stub_clock(self):
        X = np.zeros((3, 1, 1))
        clock = FakeClock([0.0, 0.001, 0.010, 0.0115, 0.020, 0.024])
        report = measure_ql(lambda batch: batch, X, warmup=1, clock=clock)
        assert report.latencies_ms == pytest.approx((1.0, 1.5, 4.0))
        assert report.mean_ms == pytest.approx(6.5 / 3)
        assert report.p50_ms == pytest.approx(1.5)
        assert report.p99_ms == pytest.approx(1.5 + 0.98 * 2.5)  # linear between the top two
        assert report.max_ms == pytest.approx(4.0)
        assert report.n == 3

    def test_warmup_calls_are_not_timed(self):
        calls = []
        X = np.arange(6).reshape(3, 2, 1)

        def fn(batch):
            calls.append(batch.shape)
            return batch

        report = measure_ql(fn, X, warmup=2)
        assert len(calls) == 2 + 3  # warmup plus one timed call per query
        assert all(shape == (1, 2, 1) for shape in calls)
        assert report.n == 3

    def test_empty_input(self):
        with pytest.raises(EmptyList):
            measure_ql(lambda b: b, np.zeros((0, 1, 1)))


class TestThroughput:
    def test_qps_from_a_stub_clock(self):
        X = np.zeros((500, 1, 1))
        clock = FakeClock([10.0, 10.25])
        report = measure_qt(lambda batch, workers: batch, X, n_workers=1, clock=clock)
        assert report.qps == 2000.0
        assert report.queries == 500

    def test_workers_divide_wall_time_with_a_sleeping_stub(self):
        # The stub advances a fake clock by 1/1024 s per query, divided
        # among its workers; the times are exact in binary floating point,
        # so 8 workers must give exactly 8 * 1024 queries/s.
        now = [0.0]
        seen_workers = []

        def sleepy_batch(batch, n_workers):
            seen_workers.append(n_workers)
            now[0] += len(batch) / n_workers / 1024

        X = np.zeros((80, 1, 1))
        report = measure_qt(sleepy_batch, X, n_workers=8, clock=lambda: now[0])
        assert seen_workers == [8, 8]  # warmup call, then the timed call
        assert report.queries == 80 and report.n_workers == 8
        assert report.qps == 8 * 1024


class TestEntropy:
    def nominal(self, members):
        schema = make_schema([("g", Kind.NOMINAL)])
        return Dataset.from_columns(schema, {"g": members})

    def continuous(self, values):
        schema = make_schema([("x", Kind.CONTINUOUS)])
        return Dataset.from_columns(schema, {"x": list(values)})

    def test_two_equal_members_is_one_bit(self):
        assert column_entropy(self.nominal(["a", "b", "a", "b"]), "g") == 1.0

    def test_skewed_distribution(self):
        # p = (1/2, 1/4, 1/8, 1/8) -> H = 1.75 bits
        ds = self.nominal(["a"] * 4 + ["b"] * 2 + ["c"] + ["d"])
        assert column_entropy(ds, "g") == pytest.approx(1.75)

    def test_single_member_is_zero(self):
        assert column_entropy(self.nominal(["a", "a", "a"]), "g") == 0.0

    def test_continuous_uniform_over_bins(self):
        # one value per tenth of the range: every bin holds exactly one
        ds = self.continuous([0.05 + 0.1 * k for k in range(10)])
        assert column_entropy(ds, "x") == pytest.approx(math.log2(10))

    def test_maximum_lands_in_last_bin(self):
        ds = self.continuous([0.0, 1.0])
        assert column_entropy(ds, "x") == 1.0  # bins 1 and 10 hold one each

    def test_constant_continuous_is_zero(self):
        assert column_entropy(self.continuous([3.0, 3.0, 3.0]), "x") == 0.0

    def test_mean_entropy(self):
        assert mean_entropy([1.0, 2.0, 3.0]) == 2.0
        with pytest.raises(EmptyList):
            mean_entropy([])

    def test_dataset_entropy_covers_all_attributes(self, transactions):
        report = dataset_entropy(transactions)
        assert set(report["per_attribute"]) == {"region", "category", "sales", "units"}
        assert report["mean"] == pytest.approx(
            np.mean(list(report["per_attribute"].values()))
        )


class TestInputVariance:
    def test_half_ones_is_a_quarter(self):
        X = np.zeros((4, 5, 10))
        X[:, :, :5] = 1.0
        assert input_tensor_variance(X) == 0.25

    def test_matches_naive_two_pass(self):
        rng = np.random.default_rng(2)
        X = rng.integers(0, 2, size=(7, 3, 5)).astype(float)
        cells = [float(v) for v in X.ravel()]
        mean = sum(cells) / len(cells)
        naive = sum((c - mean) ** 2 for c in cells) / len(cells)
        assert input_tensor_variance(X) == pytest.approx(naive, rel=1e-12)

    def test_empty(self):
        with pytest.raises(EmptyList):
            input_tensor_variance(np.zeros((0, 2, 2)))


class TestEvalReport:
    def test_fields_and_text(self):
        report = evaluate_predictions([5.0, 105.0], [0.0, 100.0])
        assert report.n_test == 2
        assert report.nrmse_pct == 5.0
        assert report.label_min == 0.0 and report.label_max == 100.0
        text = report.to_text()
        assert "NRMSE" in text and "5.0000 %" in text
        assert text.splitlines()[0].split() == ["queries", "2"]  # any split, not only test
        record = report.to_record()
        assert record["rmse"] == report.rmse
        assert set(record) == {
            "n_test", "rmse", "nrmse_pct", "label_min", "label_max",
            "mean_entropy_bits", "input_variance",
        }
