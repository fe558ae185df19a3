"""LSTM regressor: initialization, gradients, training behavior, persistence."""

import copy
import dataclasses
import json

import numpy as np
import pytest

from aqplearn import LstmModel, ModelConfig, TokenVocabulary
from aqplearn.errors import (
    CorruptArtifact,
    DivergedLoss,
    EmptyList,
    LengthMismatch,
    MalformedMatrix,
    VersionMismatch,
    VocabularyMismatch,
)
from aqplearn.nnet import PREDICT_CHUNK, _prefix_order
from conftest import MISTYPED_VOCAB_FIELDS, gradient_check

L, D = 5, 7


def small_model(**overrides) -> LstmModel:
    defaults = dict(lstm_units=6, dense_units=8, batch_size=8, max_epochs=3, seed=1)
    defaults.update(overrides)
    return LstmModel(ModelConfig(**defaults), L, D)


def random_batch(n, seed=0, l=L, d=D):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, size=(n, l, d)).astype(np.float64)
    y = rng.normal(0.0, 1.0, size=n)
    return X, y


def two_branch_sigmoid(x):
    """The overflow-safe logistic function written out branch by branch."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    """The i, f and o gates are the logistic function, g is tanh."""

    @staticmethod
    def gates(x):
        a = np.repeat(x[:, None], 4, axis=1)
        small_model(lstm_units=1)._step(a, np.zeros((len(a), 1)))
        np.testing.assert_array_equal(a[:, 2], np.tanh(x))
        return a[:, [0, 1, 3]]

    def test_matches_the_two_branch_form(self):
        x = np.linspace(-50.0, 50.0, 200_001)
        assert np.max(np.abs(self.gates(x) - two_branch_sigmoid(x)[:, None])) <= 1e-15

    def test_saturates_without_overflow(self):
        with np.errstate(all="raise"):
            sig = self.gates(np.array([-1e4, 0.0, 1e4]))
        np.testing.assert_array_equal(sig, np.repeat([[0.0], [0.5], [1.0]], 3, axis=1))


class TestInitialization:
    def test_xavier_variance(self):
        # Each gate block is Xavier over (D, H), not over the fused (D, 4H).
        m = LstmModel(ModelConfig(lstm_units=60, dense_units=8, seed=0), L, 40)
        W = m.params["W_x"]
        assert W.shape == (40, 4 * 60)
        expected = 2.0 / (40 + 60)  # variance of U(-limit, limit)
        assert abs(np.var(W) - expected) / expected < 0.20
        assert np.max(np.abs(W)) <= np.sqrt(6.0 / (40 + 60))

    def test_forget_bias_is_one_others_zero(self):
        m = small_model()
        b = m.params["b"].reshape(4, 6)  # gate blocks i, f, g, o
        np.testing.assert_array_equal(b[1], np.ones(6))
        assert not b[[0, 2, 3]].any()
        for key in ("b_d", "b_y"):
            assert not m.params[key].any()

    def test_same_seed_same_weights(self):
        a, b = small_model(seed=9), small_model(seed=9)
        for k in LstmModel.PARAM_KEYS:
            np.testing.assert_array_equal(a.params[k], b.params[k])
        c = small_model(seed=10)
        assert any(not np.array_equal(a.params[k], c.params[k]) for k in LstmModel.PARAM_KEYS)


class TestForward:
    def test_zero_network_predicts_label_mean(self):
        m = small_model()
        for k in LstmModel.PARAM_KEYS:
            m.params[k][:] = 0.0
        m.label_mean, m.label_std = 42.0, 3.0
        X, _ = random_batch(4)
        np.testing.assert_array_equal(m.predict(X), np.full(4, 42.0))

    def test_output_bias_passes_through_denormalization(self):
        m = small_model()
        for k in LstmModel.PARAM_KEYS:
            m.params[k][:] = 0.0
        m.params["b_y"][0] = 2.0
        m.label_mean, m.label_std = 10.0, 5.0
        X, _ = random_batch(3)
        np.testing.assert_allclose(m.predict(X), np.full(3, 20.0))

    def test_input_shape_is_checked(self):
        m = small_model()
        with pytest.raises(LengthMismatch):
            m.predict(np.zeros((2, L + 1, D)))
        with pytest.raises(LengthMismatch):
            m.fit(np.zeros((2, L, D)), [1.0, 2.0, 3.0])

    def test_non_binary_input_is_rejected(self):
        m = small_model()
        for cell in (0.5, 2.0, -1.0, np.nan):
            X = np.zeros((3, L, D))
            X[1, 2, 3] = cell
            with pytest.raises(MalformedMatrix):
                m.predict(X)

    def test_uint8_input_is_used_without_a_copy(self):
        X = np.random.default_rng(7).integers(0, 2, size=(6, L, D), dtype=np.uint8)
        bits = small_model()._check_input(X)
        assert bits.dtype == np.uint8 and np.shares_memory(bits, X)

    def test_bool_int_and_float_inputs_become_uint8(self):
        m = small_model()
        X = np.random.default_rng(8).integers(0, 2, size=(6, L, D))
        for dtype in (bool, np.int64, np.float32, np.float64):
            bits = m._check_input(X.astype(dtype))
            assert bits.dtype == np.uint8
            np.testing.assert_array_equal(bits, X)
        np.testing.assert_array_equal(m.predict(X.astype(bool)), m.predict(X.astype(np.uint8)))

    def test_predict_batch_worker_invariance(self):
        m = small_model()
        X, _ = random_batch(2500, seed=3)
        base = m.predict(X)
        for workers in (1, 2, 5):
            np.testing.assert_array_equal(m.predict_batch(X, n_workers=workers), base)

    def test_prediction_independent_of_batch_companions(self):
        m = small_model()
        X, _ = random_batch(40, seed=4)
        together = m.predict(X)
        alone = np.concatenate([m.predict(X[i : i + 1]) for i in range(len(X))])
        # One-row and many-row float32 GEMMs may round differently.
        np.testing.assert_allclose(together, alone, rtol=1e-5, atol=1e-6)


def bits(k, d=D):
    """The d-bit binary row of the integer k."""
    return [(k >> j) & 1 for j in range(d)]


def shared_prefixes(n, seed):
    """Shuffled rows in the encoding's shape: a few first rows (target,
    window) shared by many queries, then later rows that vary more."""
    rng = np.random.default_rng(seed)
    heads = rng.integers(0, 2, size=(12, 3, D))
    X = np.concatenate([heads[rng.integers(0, len(heads), n)], rng.integers(0, 2, size=(n, L - 3, D))], axis=1)
    X[:, 3][rng.random(n) < 0.5] = 0  # padding rows
    return X[rng.permutation(n)].astype(np.float64)


def grouped_queries():
    """2 targets x 3 windows (two rows each) x 2 x 2 members: 24 shuffled
    queries whose distinct prefixes number 2, 6, 6, 12 and 24 by step."""
    queries = [
        [bits(1 + t), bits(10 + w), bits(20 + w), bits(30 + a), bits(40 + b)]
        for t in range(2) for w in range(3) for a in range(2) for b in range(2)
    ]
    return np.array(queries, dtype=np.float64)[np.random.default_rng(45).permutation(24)]


def count_step_rows(monkeypatch, m):
    """Record the rows of every _step call of m in the returned list."""
    rows = []
    step = m._step
    monkeypatch.setattr(m, "_step", lambda a, c: rows.append(len(a)) or step(a, c))
    return rows


class TestDistinctPrefixes:
    """The forward pass runs each step once per distinct prefix of its
    batch; each query answered alone, which shares nothing, is the
    reference."""

    def assert_matches_per_row(self, m, X):
        # Equal up to float32 rounding: a batch's matrix products have more
        # rows than a single query's.
        alone = np.concatenate([m.predict(X[k : k + 1]) for k in range(len(X))])
        np.testing.assert_allclose(m.predict(X), alone, rtol=1e-5, atol=1e-6)

    def test_matches_per_row_forward_on_shuffled_shared_prefixes(self):
        m = small_model()
        X = shared_prefixes(3 * PREDICT_CHUNK + 37, seed=40)
        self.assert_matches_per_row(m, X)
        # Chunks are cut at fixed positions of the prefix order, so the batch
        # equals its sorted chunks answered apart.
        order = _prefix_order(m._check_input(X))
        apart = [m.predict(X[order[s : s + PREDICT_CHUNK]]) for s in range(0, len(X), PREDICT_CHUNK)]
        np.testing.assert_array_equal(m.predict(X)[order], np.concatenate(apart))

    @staticmethod
    def with_duplicates(n, seed):
        rng = np.random.default_rng(seed)
        X = shared_prefixes(n, seed=seed)
        X[rng.integers(0, n, n // 4)] = X[rng.integers(0, n, n // 4)]
        return X

    @pytest.mark.parametrize("workers", [1, 2])
    def test_permuted_batch_gets_permuted_answers(self, workers):
        m = small_model()
        X = self.with_duplicates(3 * PREDICT_CHUNK + 37, seed=52)
        perm = np.random.default_rng(53).permutation(len(X))
        out = m.predict(X, n_workers=workers)
        np.testing.assert_array_equal(m.predict(X[perm], n_workers=workers), out[perm])

    def test_shuffled_chunks_share_the_prefixes_of_the_whole_batch(self, monkeypatch):
        m = small_model()
        X = self.with_duplicates(3 * PREDICT_CHUNK + 37, seed=54)
        rows = count_step_rows(monkeypatch, m)
        m.predict(X[_prefix_order(m._check_input(X))])
        presorted, rows[:] = rows[:], []
        m.predict(X)
        assert len(presorted) == 4 * L and rows == presorted

    def test_duplicate_queries_get_bit_equal_answers(self):
        m = small_model()
        rng = np.random.default_rng(41)
        distinct, _ = random_batch(20, seed=42)
        picks = rng.integers(0, len(distinct), PREDICT_CHUNK)
        out = m.predict(distinct[picks])
        for k in range(len(distinct)):
            same = out[picks == k]
            assert len(same) > 1 and np.all(same == same[0])

    def test_edge_cases(self):
        m = small_model()
        all_distinct = np.array([[bits(k)] + [bits(3 * k + j) for j in range(L - 1)] for k in range(100)])
        for X in (
            shared_prefixes(1, seed=43),
            all_distinct.astype(np.float64),
            np.zeros((30, L, D)),
        ):
            self.assert_matches_per_row(m, X)
        padding = m.predict(np.zeros((30, L, D)))
        assert np.all(padding == padding[0])
        assert m.predict(np.zeros((0, L, D))).shape == (0,)

    def test_worker_invariance_on_shared_prefixes(self):
        m = small_model()
        X = shared_prefixes(2500, seed=44)
        base = m.predict(X)
        for workers in (2, 3, 5, 16):
            np.testing.assert_array_equal(m.predict_batch(X, n_workers=workers), base)

    def test_steps_run_once_per_distinct_prefix(self, monkeypatch):
        X = grouped_queries()
        m = small_model()
        rows = count_step_rows(monkeypatch, m)
        out = m.predict(X)
        assert rows == [2, 6, 6, 12, 24]
        monkeypatch.undo()
        self.assert_matches_per_row(m, X)
        np.testing.assert_array_equal(out, m.predict(X))

    def test_wide_rows_split_on_every_bit(self, monkeypatch):
        # 61 bits per step is not a whole number of bytes and spans more
        # than one 53-bit float mantissa; queries that differ in one bit of
        # one step still get their own states.
        width = 61
        m = LstmModel(ModelConfig(lstm_units=6, dense_units=8, seed=3), L, width)
        rng = np.random.default_rng(46)
        base = rng.integers(0, 2, size=(L, width))
        X = [base, base, base]
        for t in (1, 3):
            for b in (0, 52, 53, 60):
                x = base.copy()
                x[t, b] ^= 1
                X.append(x)
        X = np.array(X, dtype=np.uint8)[rng.permutation(len(X))]
        rows = count_step_rows(monkeypatch, m)
        together = m.predict(X)
        assert rows == [1, 5, 5, 9, 9]
        monkeypatch.undo()
        alone = np.concatenate([m.predict(X[k : k + 1]) for k in range(len(X))])
        np.testing.assert_allclose(together, alone, rtol=1e-5, atol=1e-6)
        assert len(set(together.tolist())) == 9


class TestGradients:
    def test_batch_gradients_equal_the_mean_of_one_row_gradients(self):
        # Duplicates share every state, so their gradients all flow through
        # one final state.
        m = small_model()
        rng = np.random.default_rng(48)
        X = shared_prefixes(300, seed=49)
        X = np.concatenate([X, X[rng.integers(0, len(X), 50)]])[rng.permutation(350)]
        z = rng.normal(0.0, 1.0, len(X))
        loss, grads = m._loss_and_grads(m._check_input(X), z)
        alone = [m._loss_and_grads(m._check_input(X[k : k + 1]), z[k : k + 1]) for k in range(len(X))]
        assert loss == pytest.approx(np.mean([one[0] for one in alone]), rel=1e-5)
        for k in LstmModel.PARAM_KEYS:
            mean = np.mean([one[1][k].astype(np.float64) for one in alone], axis=0)
            assert np.max(np.abs(grads[k] - mean)) / np.max(np.abs(mean)) < 1e-5, k

    def test_backpropagation_runs_once_per_distinct_prefix(self, monkeypatch):
        m = small_model()
        rows = count_step_rows(monkeypatch, m)
        m._loss_and_grads(m._check_input(grouped_queries()), np.linspace(-1.0, 1.0, 24))
        assert rows == [2, 6, 6, 12, 24]

    def test_every_coordinate_on_shared_prefixes(self):
        m = small_model()
        X = shared_prefixes(40, seed=50)
        y = np.random.default_rng(51).normal(0.0, 1.0, len(X))
        errors = gradient_check(m, X, y, samples_per_param=None)
        assert max(errors.values()) < 1e-4

    def test_every_coordinate_on_a_small_model(self):
        m = small_model()
        X, y = random_batch(6, seed=2)
        errors = gradient_check(m, X, y, samples_per_param=None)
        assert max(errors.values()) < 1e-4

    def test_zero_input_batch(self):
        # With x=0 and b_g=0 the cell state is exactly 0 at every step and
        # each ReLU sits exactly on its kink, where a central difference is
        # undefined; nudging b_g keeps the state generic while the input
        # still contributes nothing.
        m = small_model()
        m.params["b"][12:18] = 0.1  # the cell-input gate block of H=6
        X = np.zeros((4, L, D))
        y = np.array([1.0, -1.0, 0.5, 2.0])
        errors = gradient_check(m, X, y, samples_per_param=None)
        assert max(errors.values()) < 1e-4

    def test_duplicated_examples(self):
        m = small_model()
        X, y = random_batch(3, seed=5)
        X2 = np.concatenate([X, X])
        y2 = np.concatenate([y, y])
        errors = gradient_check(m, X2, y2, samples_per_param=None)
        assert max(errors.values()) < 1e-4

    def test_check_leaves_parameters_untouched(self):
        m = small_model()
        before = {k: v.copy() for k, v in m.params.items()}
        X, y = random_batch(4, seed=6)
        gradient_check(m, X, y, samples_per_param=2)
        for k in LstmModel.PARAM_KEYS:
            np.testing.assert_array_equal(m.params[k], before[k])


def counting_task(n, seed):
    """Label = number of set bits; linear in the input and easy to learn."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, size=(n, L, D)).astype(np.float64)
    return X, X.sum(axis=(1, 2))


class TestTraining:
    def test_learns_the_counting_task(self):
        X, y = counting_task(400, seed=0)
        Xv, yv = counting_task(120, seed=1)
        m = small_model(
            lstm_units=24, dense_units=32, learning_rate=3e-3,
            batch_size=32, max_epochs=120, patience=120, seed=2,
        )
        report = m.fit(X, y, Xv, yv)
        assert min(report.val_history) < 0.1 * report.val_history[0]

    def test_early_stopping_and_best_restoration(self):
        X, y = counting_task(120, seed=3)
        Xv, yv = counting_task(40, seed=4)
        m = small_model(max_epochs=200, patience=3, learning_rate=5e-3, seed=5)
        report = m.fit(X, y, Xv, yv)
        assert report.epochs_run < 200
        assert report.best_val_mse == min(report.val_history)
        assert report.val_history.index(report.best_val_mse) + 1 == report.best_epoch
        # restored parameters reproduce the best validation score
        z = (m.predict(Xv) - m.label_mean) / m.label_std
        zv = (yv - m.label_mean) / m.label_std
        np.testing.assert_allclose(np.mean((z - zv) ** 2), report.best_val_mse, rtol=1e-9)

    def test_patience_zero_stops_on_first_regression(self):
        X, y = counting_task(60, seed=6)
        Xv, yv = counting_task(30, seed=7)
        m = small_model(max_epochs=300, patience=0, seed=8)
        report = m.fit(X, y, Xv, yv)
        assert report.epochs_run < 300
        assert report.epochs_run == report.best_epoch + 1

    def test_no_validation_runs_all_epochs(self):
        X, y = counting_task(50, seed=9)
        m = small_model(max_epochs=4)
        report = m.fit(X, y)
        assert report.epochs_run == 4
        assert report.val_history == ()

    def test_report_times_every_epoch(self):
        X, y = counting_task(60, seed=38)
        Xv, yv = counting_task(20, seed=39)
        # Without validation every epoch runs; with it, patience stops early.
        runs = ((small_model(max_epochs=3), ()), (small_model(max_epochs=50, patience=1), (Xv, yv)))
        for m, val in runs:
            report = m.fit(X, y, *val)
            assert len(report.epoch_seconds) == report.epochs_run
            assert all(s > 0 for s in report.epoch_seconds)

    def test_report_records_mean_gradient_norm(self):
        X, y = counting_task(48, seed=46)
        m, fresh = small_model(max_epochs=3, batch_size=16, seed=47), small_model(seed=47)
        report = m.fit(X, y)
        assert len(report.grad_norms) == report.epochs_run
        assert all(np.isfinite(g) and g > 0 for g in report.grad_norms)
        # The first epoch replayed batch by batch: three gradients, three norms.
        perm, norms = fresh._rng.permutation(len(X)), []
        for s in range(0, len(X), 16):
            idx = perm[s : s + 16]
            _, grads = fresh._loss_and_grads(fresh._check_input(X[idx]), m._normalize(y[idx]))
            norms.append(np.sqrt(sum(np.sum(g.astype(np.float64) ** 2) for g in grads.values())))
            fresh._adam_step(grads)
        assert report.grad_norms[0] == pytest.approx(np.mean(norms), rel=1e-5)

    def test_label_normalization_stats_from_training_split(self):
        X, y = counting_task(80, seed=10)
        y = y * 100.0 + 7.0
        m = small_model(max_epochs=1)
        m.fit(X, y)
        assert m.label_mean == pytest.approx(np.mean(y))
        assert m.label_std == pytest.approx(np.std(y))

    def test_same_seed_bitwise_identical_training(self):
        X, y = counting_task(90, seed=11)
        Xv, yv = counting_task(30, seed=12)
        runs = []
        for _ in range(2):
            m = small_model(max_epochs=5, seed=13)
            m.fit(X, y, Xv, yv)
            runs.append({k: v.copy() for k, v in m.params.items()})
        for k in LstmModel.PARAM_KEYS:
            np.testing.assert_array_equal(runs[0][k], runs[1][k])

    def test_fit_again_resumes_from_current_state(self):
        X, y = counting_task(100, seed=14)
        m = small_model(max_epochs=3, seed=15)
        first = m.fit(X, y)
        steps_after_first = m.adam_t
        second = m.fit(X, y)
        assert m.adam_t == 2 * steps_after_first
        assert second.train_history[0] < first.train_history[0]  # not starting over

    def test_diverged_loss_raises(self):
        X, y = counting_task(40, seed=16)
        m = small_model(max_epochs=2)
        m.params["W_y"][:] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(DivergedLoss):
                m.fit(X, y)

    def test_length_mismatch(self):
        X, y = counting_task(10, seed=17)
        m = small_model()
        with pytest.raises(LengthMismatch):
            m.fit(X, y[:-1])

    def test_empty_training_set(self):
        m = small_model()
        with pytest.raises(EmptyList):
            m.fit(np.zeros((0, L, D)), [])

    def test_empty_validation_set_fails_before_training(self):
        X, y = counting_task(10, seed=18)
        m = small_model()
        with pytest.raises(EmptyList, match="validation"):
            m.fit(X, y, X[:0], y[:0])
        assert m.adam_t == 0

    @pytest.mark.parametrize("given", ["X_val", "y_val"])
    def test_half_a_validation_set_fails_before_training(self, given):
        X, y = counting_task(10, seed=18)
        m = small_model()
        with pytest.raises(LengthMismatch, match="validation"):
            m.fit(X, y, **{given: X if given == "X_val" else y})
        assert m.adam_t == 0

    def test_validation_mse_does_not_depend_on_the_order(self):
        # fit and predict both answer in prefix order; more than two chunks
        # of shuffled queries make the order decide what each chunk shares.
        X, y = counting_task(64, seed=19)
        Xv = shared_prefixes(2 * PREDICT_CHUNK + 100, seed=20)
        yv = Xv.sum(axis=(1, 2))
        perm = np.random.default_rng(21).permutation(len(Xv))
        m, again = small_model(max_epochs=1), small_model(max_epochs=1)
        report = m.fit(X, y, Xv, yv)
        z = (m.predict(Xv) - m.label_mean) / m.label_std
        zv = (yv - m.label_mean) / m.label_std
        np.testing.assert_allclose(report.val_history[0], np.mean((z - zv) ** 2), rtol=1e-6)
        permuted = again.fit(X, y, Xv[perm], yv[perm])
        np.testing.assert_allclose(permuted.val_history, report.val_history, rtol=1e-6)
        assert permuted.train_history == report.train_history


class TestConfigValidation:
    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            ModelConfig(lstm_units=0)
        with pytest.raises(ValueError):
            ModelConfig(patience=-1)
        with pytest.raises(ValueError):
            ModelConfig(learning_rate=0.0)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_learning_rate(self, lr):
        with pytest.raises(ValueError, match="learning_rate"):
            ModelConfig(learning_rate=lr)

    @pytest.mark.parametrize("field, value, error", [
        ("seed", -1, ValueError),
        ("learning_rate", float("nan"), ValueError),
        ("learning_rate", float("inf"), ValueError),
        ("lstm_units", 1.5, TypeError),
        ("batch_size", 2.5, TypeError),
        ("seed", 1.5, TypeError),
        ("dense_units", True, TypeError),
        ("learning_rate", True, TypeError),
    ])
    def test_wrong_type_or_range_rejected(self, field, value, error):
        # A checkpoint's config goes through the same checks when LstmModel.load reads it.
        with pytest.raises(error, match=field):
            ModelConfig(**{field: value})


class TestFloat32:
    """Float32 is the compute dtype; a stray float64 array would promote
    every later step back to float64."""

    def fitted(self):
        X, y = counting_task(64, seed=30)
        m = small_model(seed=31)
        m.fit(X, y)
        return m

    def test_fit_keeps_every_array_float32(self):
        m = self.fitted()
        for store in (m.params, m.adam_m, m.adam_v):
            assert {v.dtype for v in store.values()} == {np.dtype(np.float32)}
        X, y = random_batch(16, seed=32)
        _, grads = m._loss_and_grads(m._check_input(X), m._normalize(y))
        assert {g.dtype for g in grads.values()} == {np.dtype(np.float32)}
        assert m._check_input(X).dtype == np.uint8
        yhat, (X_rows, *_, gates, steps, h, pre_d, dense) = m._forward(m._check_input(X))
        arrays = [yhat, X_rows, gates, h, pre_d, dense, *(a for step in steps for a in step)]
        assert {a.dtype for a in arrays} == {np.dtype(np.float32)}
        assert m.predict(X).dtype == np.float64

    def test_gradients_match_a_float64_copy(self):
        # The bound is about 80 float32 ulps; this case measures 3.0e-07.
        m = self.fitted()
        wide = copy.copy(m)
        wide.params = {k: v.astype(np.float64) for k, v in m.params.items()}
        X, y = random_batch(32, seed=33)
        z = m._normalize(y)
        _, g32 = m._loss_and_grads(m._check_input(X), z)
        _, g64 = wide._loss_and_grads(wide._check_input(X), z)
        for k in LstmModel.PARAM_KEYS:
            assert (g32[k].dtype, g64[k].dtype) == (np.float32, np.float64)
            err = np.max(np.abs(g32[k] - g64[k])) / np.max(np.abs(g64[k]))
            assert err < 1e-5, k

    def test_gradient_check_leaves_parameters_float32_and_unchanged(self):
        m = self.fitted()
        before = {k: v.tobytes() for k, v in m.params.items()}
        X, y = random_batch(4, seed=34)
        errors = gradient_check(m, X, y, samples_per_param=2)
        assert max(errors.values()) < 1e-4
        for k, v in m.params.items():
            assert v.dtype == np.float32 and v.tobytes() == before[k]


def model_vocabulary() -> TokenVocabulary:
    """A vocabulary whose layout is the small models' L rows of D bits."""
    return TokenVocabulary(targets=("avg(v)",), cont_attrs=(), nom_attrs=("a", "b"),
                           members={"a": ("x", "y"), "b": ("z",)}, numeric_scales={"v": 2.0},
                           bit_width=D - 1)


def rewrite_meta(path, drop=(), arrays=None, **fields):
    """Change fields of a saved checkpoint's JSON metadata in place, remove
    the `drop` fields and replace the given arrays."""
    with np.load(path) as data:
        stored = {k: data[k] for k in data.files}
    meta = json.loads(bytes(stored["meta"]).decode())
    meta.update(fields)
    for key in drop:
        del meta[key]
    stored.update(arrays or {})
    stored["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **stored)


def assert_same_state(a: LstmModel, b: LstmModel):
    for k in LstmModel.PARAM_KEYS:
        np.testing.assert_array_equal(a.params[k], b.params[k])
        np.testing.assert_array_equal(a.adam_m[k], b.adam_m[k])
        np.testing.assert_array_equal(a.adam_v[k], b.adam_v[k])
    assert a.adam_t == b.adam_t


class TestPersistence:
    def test_checkpoint_round_trip_is_bit_exact(self, tmp_path):
        X, y = counting_task(80, seed=18)
        m = small_model(max_epochs=2, seed=19)
        m.vocab_hash = "abc123"
        m.fit(X, y)
        path = tmp_path / "model.npz"
        m.save(path)
        back = LstmModel.load(path, expected_vocab_hash="abc123")
        probe, _ = random_batch(50, seed=20)
        np.testing.assert_array_equal(m.predict(probe), back.predict(probe))
        assert_same_state(m, back)
        assert back.config == m.config
        assert back._rng.bit_generator.state == m._rng.bit_generator.state

    def test_target_and_split_seed_round_trip_and_default_to_none(self, tmp_path):
        path = tmp_path / "model.npz"
        small_model().save(path)
        back = LstmModel.load(path)
        assert (back.target, back.split_seed) == (None, None)
        m = small_model()
        m.target, m.split_seed = "avg(sales)", 4
        m.save(path)
        back = LstmModel.load(path)
        assert (back.target, back.split_seed) == ("avg(sales)", 4)

    def test_checkpoint_without_vocabulary_loads_with_none(self, tmp_path):
        m = small_model()
        m.vocab_hash = "abc123"  # as LstmModel(config, L, D, vocab_hash) saves it
        path = tmp_path / "model.npz"
        m.save(path)
        back = LstmModel.load(path, expected_vocab_hash="abc123")
        assert (back.vocabulary, back.vocab_hash) == (None, "abc123")

    def test_vocabulary_round_trips_and_sets_the_hash(self, tmp_path):
        vocab = model_vocabulary()
        m = LstmModel(ModelConfig(lstm_units=6, dense_units=8), L, D, vocabulary=vocab)
        assert m.vocab_hash == vocab.content_hash()
        path = tmp_path / "model.npz"
        m.save(path)
        back = LstmModel.load(path, expected_vocab_hash=vocab.content_hash())
        assert (back.vocabulary, back.vocab_hash) == (vocab, vocab.content_hash())

    def test_vocab_hash_must_be_the_vocabulary_s(self):
        vocab = model_vocabulary()
        config = ModelConfig(lstm_units=6, dense_units=8)
        assert LstmModel(config, L, D, vocab.content_hash(), vocabulary=vocab).vocab_hash == (
            vocab.content_hash())
        with pytest.raises(VocabularyMismatch):
            LstmModel(config, L, D, "abc123", vocabulary=vocab)

    @pytest.mark.parametrize("field, value", [
        *MISTYPED_VOCAB_FIELDS,
        ("members", {"a": ["x", "w"], "b": ["z"]}),  # one member changed
        ("members", {"a": ["x", "y"]}),  # b's members removed
    ])
    def test_edited_vocabulary_is_corrupt(self, tmp_path, field, value):
        vocab = model_vocabulary()
        path = tmp_path / "model.npz"
        LstmModel(ModelConfig(lstm_units=6, dense_units=8), L, D, vocabulary=vocab).save(path)
        rewrite_meta(path, vocab={**vocab.to_record(), field: value})
        with pytest.raises(CorruptArtifact, match=str(path)):
            LstmModel.load(path)

    def test_checkpoint_without_a_vocab_record_is_corrupt(self, tmp_path):
        path = tmp_path / "model.npz"
        LstmModel(ModelConfig(lstm_units=6, dense_units=8), L, D,
                  vocabulary=model_vocabulary()).save(path)
        rewrite_meta(path, drop=("vocab",))
        with pytest.raises(CorruptArtifact, match=str(path)):
            LstmModel.load(path)

    def test_vocabulary_mismatch(self, tmp_path):
        m = small_model()
        m.vocab_hash = "abc123"
        path = tmp_path / "model.npz"
        m.save(path)
        with pytest.raises(VocabularyMismatch):
            LstmModel.load(path, expected_vocab_hash="something-else")

    def test_version_mismatch(self, tmp_path):
        m = small_model()
        path = tmp_path / "model.npz"
        m.save(path)
        rewrite_meta(path, version=99)
        with pytest.raises(VersionMismatch):
            LstmModel.load(path)

    def test_v1_checkpoint_rejected(self, tmp_path):
        # Version 1 stored twelve per-gate tensors; the version check comes
        # before any tensor is read.
        m = small_model()
        path = tmp_path / "model.npz"
        m.save(path)
        rewrite_meta(path, version=1)
        with pytest.raises(VersionMismatch, match="version 1 "):
            LstmModel.load(path)

    def test_v2_checkpoint_rejected(self, tmp_path):
        # Version 2 headers carried no kind.
        path = tmp_path / "model.npz"
        small_model().save(path)
        rewrite_meta(path, drop=("kind",), version=2)
        with pytest.raises(VersionMismatch, match="version 2 "):
            LstmModel.load(path)

    def test_v3_checkpoint_rejected(self, tmp_path):
        # Version 3 stored float64 tensors.
        path = tmp_path / "model.npz"
        small_model().save(path)
        rewrite_meta(path, version=3)
        with pytest.raises(VersionMismatch, match="version 3 "):
            LstmModel.load(path)

    def test_v5_checkpoint_rejected(self, tmp_path):
        # Version 5 stored the vocabulary's hash without the vocabulary.
        path = tmp_path / "model.npz"
        LstmModel(ModelConfig(lstm_units=6, dense_units=8), L, D,
                  vocabulary=model_vocabulary()).save(path)
        rewrite_meta(path, drop=("vocab",), version=5)
        with pytest.raises(VersionMismatch, match="version 5 "):
            LstmModel.load(path)

    def test_float64_tensor_rejected(self, tmp_path):
        m = small_model()
        path = tmp_path / "model.npz"
        m.save(path)
        rewrite_meta(path, arrays={"m_W_h": m.adam_m["W_h"].astype(np.float64)})
        with pytest.raises(CorruptArtifact, match="m_W_h"):
            LstmModel.load(path)

    def test_loaded_checkpoint_answers_bit_equal_in_float32(self, tmp_path):
        X, y = counting_task(60, seed=35)
        m = small_model(max_epochs=2, seed=36)
        m.fit(X, y)
        path = tmp_path / "model.npz"
        m.save(path)
        back = LstmModel.load(path)
        assert {v.dtype for v in back.params.values()} == {np.dtype(np.float32)}
        probe, _ = random_batch(30, seed=37)
        np.testing.assert_array_equal(back.predict(probe), m.predict(probe))

    def test_wrong_tensor_shape_rejected(self, tmp_path):
        path = tmp_path / "model.npz"
        small_model().save(path)
        rewrite_meta(path, arrays={"param_W_h": np.zeros((4, 8))})
        with pytest.raises(CorruptArtifact, match="param_W_h"):
            LstmModel.load(path)

    def test_unknown_config_key_rejected(self, tmp_path):
        m = small_model()
        path = tmp_path / "model.npz"
        m.save(path)
        rewrite_meta(path, config={**dataclasses.asdict(m.config), "label_norm": "none"})
        with pytest.raises(CorruptArtifact):
            LstmModel.load(path)

    def test_truncated_checkpoint_rejected(self, tmp_path):
        m = small_model()
        path = tmp_path / "model.npz"
        m.save(path)
        data = path.read_bytes()
        for cut in (0, 10, len(data) // 2, len(data) - 1):
            path.write_bytes(data[:cut])
            with pytest.raises(CorruptArtifact):
                LstmModel.load(path)

    def test_resume_after_reload_continues_training(self, tmp_path):
        X, y = counting_task(100, seed=21)
        m = small_model(max_epochs=3, seed=22)
        m.fit(X, y)
        path = tmp_path / "model.npz"
        m.save(path)
        back = LstmModel.load(path)
        report = back.fit(X, y)
        assert back.adam_t > m.adam_t
        assert report.train_history[-1] <= m.fit(X, y).train_history[0]

    def test_fit_save_load_fit_equals_one_longer_fit(self, tmp_path):
        # The checkpoint carries the shuffle RNG state, so a resumed run
        # draws the same batches as an uninterrupted one.
        X, y = counting_task(100, seed=23)
        straight = small_model(max_epochs=2, seed=24)
        straight.fit(X, y)
        first = small_model(max_epochs=1, seed=24)
        first.fit(X, y)
        path = tmp_path / "model.npz"
        first.save(path)
        resumed = LstmModel.load(path)
        resumed.fit(X, y)
        assert_same_state(straight, resumed)
