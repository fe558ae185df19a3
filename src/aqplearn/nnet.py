"""LSTM sequence regressor over encoded query matrices.

Architecture: an LSTM scans the L rows of the query matrix, its final
hidden state feeds a ReLU dense layer, and a linear unit emits the scalar
estimate. Training is plain backpropagation through time with Adam on a
mean-squared-error loss, implemented directly on numpy arrays.

Labels are z-score normalized with statistics of the training split; the
statistics travel with the checkpoint so predictions always come back in
label units. Early stopping watches validation MSE with a patience
counter and the best parameters seen are restored at the end.

The gates are stored fused, in the layout torch.nn.LSTM uses: W_x (D, 4H),
W_h (H, 4H) and b (4H,) hold one column block per gate in the order input,
forget, cell, output, so each timestep is a single matrix product. Each
block is drawn as its own Xavier uniform matrix. Forget-gate biases start
at 1 so early training does not flush the cell state; all other biases
start at 0.

Float32 is the compute dtype. The parameters are drawn in float64 and
stored as float32; hidden and cell states, gradients and Adam moments
all take the parameters' dtype, so one forward and one backward path
serve any dtype. Answers are scaled back to label units in float64.
The gradient check runs the same code on a float64 copy of the model,
because central differences need float64 to resolve a 1e-5 step.

One forward pass serves training and answering, and it runs each step
once per distinct query prefix. The encoding puts the target row first,
then the window rows, then the member rows, so the queries of one GROUP
BY share their first rows and, with them, the LSTM state after those
rows. The model reads the encoder's uint8 bits without a float copy: it
sorts a batch by each query's bits packed into bytes (np.packbits), runs
step t only on the distinct prefixes of length t + 1 and casts only
their rows to float32. Training backpropagates through those shared
states: a state's gradient is the sum of its children's. predict,
validation and the gradient check call the same pass; predict cuts its
input into fixed-size chunks, so an answer never depends on the worker
count.
"""

from __future__ import annotations

import copy
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .artifacts import parsing, read_artifact, save_npz
from .encoder import as_bits
from .errors import (
    CorruptArtifact,
    DivergedLoss,
    EmptyList,
    LengthMismatch,
    VocabularyMismatch,
)

CHECKPOINT_VERSION = 4
GATES = ("i", "f", "g", "o")
PREDICT_CHUNK = 512

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class ModelConfig:
    lstm_units: int = 128
    dense_units: int = 200
    learning_rate: float = 1e-3
    batch_size: int = 256
    max_epochs: int = 500
    patience: int = 20
    seed: int = 0

    def __post_init__(self):
        for name in ("lstm_units", "dense_units", "batch_size", "max_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass(frozen=True)
class TrainReport:
    epochs_run: int
    best_epoch: int
    best_val_mse: float
    train_history: tuple
    val_history: tuple
    epoch_seconds: tuple
    grad_norms: tuple  # per epoch, the mean over batches of the global L2 gradient norm
    label_mean: float
    label_std: float
    wall_seconds: float

    def to_record(self) -> dict:
        return asdict(self)


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _gate_blocks(a: np.ndarray) -> np.ndarray:
    """The i, f, g, o blocks of C-contiguous fused gates (rows, 4H), as
    one (4, rows, H) view."""
    return a.reshape(len(a), 4, -1).swapaxes(0, 1)


def _sum_runs(a: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sum each run of rows of a; starts marks the first row of every run.
    a itself when every run is one row long."""
    return a if starts.all() else np.add.reduceat(a, np.flatnonzero(starts), axis=0)


class LstmModel:
    """From-scratch LSTM regressor mapping (L, D) binary matrices to scalars."""

    PARAM_KEYS = ("W_x", "W_h", "b", "W_d", "b_d", "W_y", "b_y")

    def __init__(self, config: ModelConfig, sequence_length: int, row_width: int,
                 vocab_hash: str | None = None):
        self.config = config
        self.sequence_length = int(sequence_length)
        self.row_width = int(row_width)
        self.vocab_hash = vocab_hash
        self.label_mean = 0.0
        self.label_std = 1.0
        self._rng = np.random.default_rng(config.seed)
        H, Dd, D = config.lstm_units, config.dense_units, self.row_width
        W_x, W_h, b = np.empty((D, 4 * H)), np.empty((H, 4 * H)), np.zeros(4 * H)
        for j in range(len(GATES)):
            W_x[:, j * H : (j + 1) * H] = _xavier(self._rng, D, H, (D, H))
            W_h[:, j * H : (j + 1) * H] = _xavier(self._rng, H, H, (H, H))
        b[H : 2 * H] = 1.0  # forget gate
        self.params: dict[str, np.ndarray] = {"W_x": W_x, "W_h": W_h, "b": b}
        self.params["W_d"] = _xavier(self._rng, H, Dd, (H, Dd))
        self.params["b_d"] = np.zeros(Dd)
        self.params["W_y"] = _xavier(self._rng, Dd, 1, (Dd, 1))
        self.params["b_y"] = np.zeros(1)
        self.params = {k: v.astype(np.float32) for k, v in self.params.items()}
        self.adam_m = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.adam_v = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.adam_t = 0
        # Gate activations as one pass per operation over all four blocks:
        # the logistic function as 0.5 * tanh(0.5 * x) + 0.5, which cannot
        # overflow, on i, f and o, and tanh(x) on g.
        self._gate_scale = np.repeat(np.array([0.5, 0.5, 1.0, 0.5], dtype=np.float32), H)
        self._gate_shift = np.repeat(np.array([0.5, 0.5, 0.0, 0.5], dtype=np.float32), H)

    # -- forward -----------------------------------------------------------

    def _step(self, a: np.ndarray, c_prev: np.ndarray):
        """One LSTM step from gate pre-activations a (rows, 4H) and the cell
        state before it. a is overwritten with the gates i, f, g, o;
        returns (c, tanh(c), h)."""
        a *= self._gate_scale
        np.tanh(a, out=a)
        a *= self._gate_scale
        a += self._gate_shift
        i, f, g, o = _gate_blocks(a)
        c = f * c_prev + i * g
        tc = np.tanh(c)
        return c, tc, o * tc

    def _head(self, h: np.ndarray):
        """Dense ReLU layer and output unit on final hidden states."""
        pre_d = h @ self.params["W_d"] + self.params["b_d"]
        dense = np.maximum(pre_d, 0.0)
        return (dense @ self.params["W_y"])[:, 0] + self.params["b_y"][0], pre_d, dense

    def _forward(self, X: np.ndarray):
        """Run the network on a (n, L, D) uint8 batch, each step once per
        distinct prefix instead of once per row; returns (normalized outputs
        in input order, cache for backpropagation).

        Rows that agree on their first t+1 rows have the same state after
        step t. One sort of the packed rows numbers those prefixes: the sort
        compares keys byte by byte, so equal prefixes end up adjacent, and in
        sorted order a prefix starts a new state wherever it differs from
        the one before. Step t runs on the distinct (parent state, row)
        pairs only and gathers each parent's recurrent product and cell
        state; the outputs of the distinct final states are scattered back
        to the input order. Within a step parent ids never decrease and
        every state has a child, so the children of one state are one run.
        """
        n, L, _ = X.shape
        keys = np.packbits(X, axis=2)
        width = L * keys.shape[2]
        order = np.argsort(keys.reshape(n, width).view(np.dtype((np.void, width)))[:, 0])
        keys = keys[order]
        # Column 0 is the zero state every row starts from; column t + 1
        # marks the sorted rows whose prefix is new after step t.
        new = np.zeros((n, L + 1), dtype=bool)
        new[0] = True
        new[1:, 1:] = np.logical_or.accumulate((keys[1:] != keys[:-1]).any(axis=2), axis=1)
        ids = np.cumsum(new, axis=0) - 1
        step, row = np.nonzero(new[:, 1:].T)  # distinct step-rows, ordered by step
        parent = ids[row, step]
        first = new[row, step]  # the step-row is its parent's first child
        X_rows = X[order[row], step].astype(self.params["W_x"].dtype)
        # Pre-activations, which each step turns into its gates in place.
        gates = X_rows @ self.params["W_x"] + self.params["b"]
        counts = new.sum(axis=0).tolist()
        h = c = np.zeros((1, self.config.lstm_units), dtype=gates.dtype)
        steps = []
        lo = 0
        for t in range(L):
            hi = lo + counts[t + 1]
            # Every state has a child, so equal counts mean one child each.
            p = slice(None) if counts[t + 1] == counts[t] else parent[lo:hi]
            a = gates[lo:hi]
            a += (h @ self.params["W_h"])[p]
            c_prev = c[p]
            c, tc, h_next = self._step(a, c_prev)
            steps.append((c_prev, tc, h))
            h = h_next
            lo = hi
        yhat, pre_d, dense = self._head(h)
        out = np.empty(n, dtype=gates.dtype)
        out[order] = yhat[ids[:, -1]]
        return out, (X_rows, order, first, new[:, -1], gates, steps, h, pre_d, dense)

    def _forward_chunks(self, X: np.ndarray, n_workers: int = 1) -> np.ndarray:
        """Normalized outputs, computed in fixed-size chunks so results do
        not depend on n_workers. More than one worker splits the chunks into
        one contiguous run per worker on a thread pool."""
        n_chunks = -(-len(X) // PREDICT_CHUNK)
        cuts = [min(len(X), PREDICT_CHUNK * (n_chunks * w // n_workers)) for w in range(n_workers + 1)]

        def run(lo, hi):
            return [self._forward(X[s : s + PREDICT_CHUNK])[0] for s in range(lo, hi, PREDICT_CHUNK)]

        if n_workers > 1:
            with ThreadPoolExecutor(max_workers=n_workers) as pool:
                runs = list(pool.map(run, cuts[:-1], cuts[1:]))
        else:
            runs = [run(0, len(X))]
        outs = [out for chunks in runs for out in chunks]
        return np.concatenate(outs) if outs else np.zeros(0)

    def predict(self, X, n_workers: int = 1) -> np.ndarray:
        """Estimate labels for encoded queries, in original label units, as
        float64. Results are bit-identical for every worker count."""
        X = self._check_input(X)
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        out = self._forward_chunks(X, n_workers).astype(np.float64)
        return out * self.label_std + self.label_mean

    predict_batch = predict

    def _check_input(self, X) -> np.ndarray:
        X = as_bits(X)
        if X.ndim != 3 or X.shape[1:] != (self.sequence_length, self.row_width):
            raise LengthMismatch(
                f"expected input of shape (n, {self.sequence_length}, {self.row_width}), "
                f"got {X.shape}"
            )
        return X

    # -- backward ----------------------------------------------------------

    def _loss_and_grads(self, X: np.ndarray, z: np.ndarray):
        """MSE on normalized labels plus gradients for every parameter,
        backpropagated through the prefix states of _forward. A state's
        gradient is the sum over its children, one run each."""
        H = self.config.lstm_units
        yhat, (X_rows, order, first, last, gates, steps, hL, pre_d, dense) = self._forward(X)
        z = z.astype(yhat.dtype)
        loss = float(np.mean((yhat - z) ** 2))

        dy = _sum_runs(((2.0 / len(X)) * (yhat - z))[order], last)[:, None]
        grads = {
            "W_y": dense.T @ dy,
            "b_y": dy.sum(axis=0),
        }
        dpre_d = (dy @ self.params["W_y"].T) * (pre_d > 0)
        grads["W_d"] = hL.T @ dpre_d
        grads["b_d"] = dpre_d.sum(axis=0)

        Wh = self.params["W_h"]
        dWh = np.zeros_like(Wh)
        da_all = np.empty((len(X_rows), 4 * H), dtype=Wh.dtype)
        dh = dpre_d @ self.params["W_d"].T
        dc = np.zeros_like(dh)
        hi = len(X_rows)
        for c_prev, tc, h_prev in reversed(steps):
            lo = hi - len(tc)
            i, f, g, o = _gate_blocks(gates[lo:hi])
            do = dh * tc
            dc = dc + dh * o * (1.0 - tc * tc)
            da = np.concatenate(
                [dc * g * i * (1 - i), dc * c_prev * f * (1 - f), dc * i * (1 - g * g), do * o * (1 - o)],
                axis=1,
                out=da_all[lo:hi],
            )
            da_parent = _sum_runs(da, first[lo:hi])
            dWh += h_prev.T @ da_parent
            dh = da_parent @ Wh.T
            dc = _sum_runs(dc * f, first[lo:hi])
            hi = lo
        grads["W_x"] = X_rows.T @ da_all
        grads["W_h"] = dWh
        grads["b"] = da_all.sum(axis=0)
        return loss, grads

    def _adam_step(self, grads: dict) -> None:
        self.adam_t += 1
        lr = self.config.learning_rate
        bias1 = 1.0 - ADAM_BETA1**self.adam_t
        bias2 = 1.0 - ADAM_BETA2**self.adam_t
        for k in self.PARAM_KEYS:
            g = grads[k]
            m = self.adam_m[k]
            v = self.adam_v[k]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            self.params[k] -= lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)

    # -- training ----------------------------------------------------------

    def _normalize(self, y: np.ndarray) -> np.ndarray:
        return (y - self.label_mean) / self.label_std

    def fit(self, X, y, X_val=None, y_val=None) -> TrainReport:
        """Train with Adam and early stopping on validation MSE.

        A fresh model fits from scratch; calling fit again continues from
        the current parameters and optimizer moments (best-model tracking
        restarts). Without a validation set the patience rule is off and
        the final parameters are kept.
        """
        start = time.perf_counter()
        X = self._check_input(X)
        y = np.asarray(y, dtype=np.float64).ravel()
        if len(X) != len(y):
            raise LengthMismatch(f"{len(X)} inputs vs {len(y)} labels")
        if len(X) == 0:
            raise EmptyList("cannot train on an empty workload")
        has_val = X_val is not None and y_val is not None
        if has_val:
            X_val = self._check_input(X_val)
            y_val = np.asarray(y_val, dtype=np.float64).ravel()
            if len(X_val) != len(y_val):
                raise LengthMismatch(f"{len(X_val)} validation inputs vs {len(y_val)} labels")
            if len(X_val) == 0:
                raise EmptyList("cannot validate on an empty validation set")

        if self.adam_t == 0:
            self.label_mean = float(np.mean(y))
            std = float(np.std(y))
            self.label_std = std if std > 1e-12 else 1.0
        z = self._normalize(y)
        z_val = self._normalize(y_val) if has_val else None

        n = len(X)
        bs = self.config.batch_size
        best_val = math.inf
        best_epoch = 0
        best_params = None
        since_best = 0
        train_history: list[float] = []
        val_history: list[float] = []
        epoch_seconds: list[float] = []
        grad_norms: list[float] = []
        epochs_run = 0
        for epoch in range(1, self.config.max_epochs + 1):
            epoch_start = time.perf_counter()
            perm = self._rng.permutation(n)
            sq_err = norm_sum = 0.0
            for s in range(0, n, bs):
                idx = perm[s : s + bs]
                loss, grads = self._loss_and_grads(X[idx], z[idx])
                if not np.isfinite(loss):
                    raise DivergedLoss(f"training loss became {loss} in epoch {epoch}")
                norm_sum += math.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))
                self._adam_step(grads)
                sq_err += loss * len(idx)
            grad_norms.append(norm_sum / -(-n // bs))
            train_mse = sq_err / n
            train_history.append(train_mse)
            epochs_run = epoch
            if has_val:
                val_pred = self._forward_chunks(X_val)
                val_mse = float(np.mean((val_pred - z_val) ** 2))
                if not np.isfinite(val_mse):
                    raise DivergedLoss(f"validation loss became {val_mse} in epoch {epoch}")
                val_history.append(val_mse)
            epoch_seconds.append(time.perf_counter() - epoch_start)
            if not has_val:
                continue
            if val_mse < best_val:
                best_val = val_mse
                best_epoch = epoch
                best_params = {k: v.copy() for k, v in self.params.items()}
                since_best = 0
            else:
                since_best += 1
                if since_best > self.config.patience:
                    break
        if has_val and best_params is not None:
            self.params = best_params
        else:
            best_epoch = epochs_run
            best_val = train_history[-1] if train_history else math.inf
        return TrainReport(
            epochs_run=epochs_run,
            best_epoch=best_epoch,
            best_val_mse=float(best_val),
            train_history=tuple(train_history),
            val_history=tuple(val_history),
            epoch_seconds=tuple(epoch_seconds),
            grad_norms=tuple(grad_norms),
            label_mean=self.label_mean,
            label_std=self.label_std,
            wall_seconds=time.perf_counter() - start,
        )

    # -- verification ------------------------------------------------------

    def gradient_check(self, X, y, samples_per_param: int | None = 4,
                       step: float = 1e-5, seed: int = 0) -> dict:
        """Compare analytic gradients against central differences.

        The check runs on a float64 copy of the model and leaves this
        model's float32 parameters as they are. Returns the worst relative
        error per parameter group, where the error of one coordinate is
        |ga - gn| / max(|ga| + |gn|, 1e-12).
        Each gate's column block of W_x, W_h and b is its own group
        ("W_x:i" ... "b:o"), followed by the four head tensors; each group
        samples samples_per_param coordinates, and None checks every one.
        """
        model = copy.copy(self)
        model.params = {k: v.astype(np.float64) for k, v in self.params.items()}
        X = model._check_input(X)
        y = np.asarray(y, dtype=np.float64).ravel()
        z = model._normalize(y)
        _, grads = model._loss_and_grads(X, z)
        H = self.config.lstm_units
        groups = []
        for gi, g in enumerate(GATES):
            for k in ("W_x", "W_h", "b"):
                coords = np.arange(model.params[k].size).reshape(model.params[k].shape)
                groups.append((f"{k}:{g}", k, coords[..., gi * H : (gi + 1) * H].ravel()))
        groups += [(k, k, np.arange(model.params[k].size)) for k in ("W_d", "b_d", "W_y", "b_y")]
        rng = np.random.default_rng(seed)
        errors = {}
        for name, k, coords in groups:
            flat = model.params[k].reshape(-1)
            if samples_per_param is not None and samples_per_param < coords.size:
                coords = coords[rng.choice(coords.size, size=samples_per_param, replace=False)]
            worst = 0.0
            for j in coords:
                orig = flat[j]
                flat[j] = orig + step
                up = model._forward(X)[0]
                loss_up = float(np.mean((up - z) ** 2))
                flat[j] = orig - step
                dn = model._forward(X)[0]
                loss_dn = float(np.mean((dn - z) ** 2))
                flat[j] = orig
                gn = (loss_up - loss_dn) / (2.0 * step)
                ga = grads[k].reshape(-1)[j]
                err = abs(ga - gn) / max(abs(ga) + abs(gn), 1e-12)
                worst = max(worst, err)
            errors[name] = worst
        return errors

    # -- persistence -------------------------------------------------------

    def _stores(self):
        """(array-name prefix, tensors) pairs that a checkpoint stores."""
        return (("param", self.params), ("m", self.adam_m), ("v", self.adam_v))

    def save(self, path) -> None:
        """Write a self-contained checkpoint (parameters, optimizer moments,
        shuffle RNG state, label statistics, config, vocabulary hash)."""
        meta = {
            "config": asdict(self.config),
            "sequence_length": self.sequence_length,
            "row_width": self.row_width,
            "label_mean": self.label_mean,
            "label_std": self.label_std,
            "adam_t": self.adam_t,
            "vocab_hash": self.vocab_hash,
            "rng_state": self._rng.bit_generator.state,
        }
        arrays = {f"{p}_{k}": v for p, store in self._stores() for k, v in store.items()}
        save_npz(path, "checkpoint", CHECKPOINT_VERSION, arrays, meta)

    @classmethod
    def load(cls, path, expected_vocab_hash: str | None = None) -> "LstmModel":
        meta, arrays = read_artifact(path, "checkpoint", CHECKPOINT_VERSION)
        with parsing(path, "checkpoint"):
            if expected_vocab_hash is not None and meta["vocab_hash"] != expected_vocab_hash:
                raise VocabularyMismatch(
                    "checkpoint was trained under a different vocabulary "
                    f"({meta['vocab_hash']} != {expected_vocab_hash})"
                )
            model = cls(
                ModelConfig(**meta["config"]),
                meta["sequence_length"],
                meta["row_width"],
                vocab_hash=meta["vocab_hash"],
            )
            model.label_mean = float(meta["label_mean"])
            model.label_std = float(meta["label_std"])
            model.adam_t = int(meta["adam_t"])
            model._rng.bit_generator.state = meta["rng_state"]
        implied = {f"{p}_{k}": (v.shape, v.dtype)
                   for p, store in model._stores() for k, v in store.items()}
        found = {k: (a.shape, a.dtype) for k, a in arrays.items()}
        wrong = [k for k in implied if found.get(k) != implied[k]]
        if wrong:
            raise CorruptArtifact(f"{path}: tensors {wrong} differ from the config's shapes and dtype")
        for p, store in model._stores():
            store.update({k: arrays[f"{p}_{k}"] for k in store})
        return model
