"""Shared fixtures: a small hand-written transactions table whose
aggregates are easy to verify by hand, reused across the suite, and the
gradient check of the LSTM regressor."""

import copy

import numpy as np
import pytest

from aqplearn import Dataset, Kind, make_schema
from aqplearn.nnet import GATES

# region, category, sales, units. Sales are chosen so that
# avg(sales) is 102 for north and 82 for south.
TRANSACTION_ROWS = [
    ("north", "food", 100.0, 5.0),
    ("north", "tools", 104.0, 3.0),
    ("north", "food", 102.0, 5.0),
    ("south", "food", 82.0, 2.0),
    ("south", "tools", 80.0, 4.0),
    ("south", "food", 84.0, 2.0),
    ("east", "tools", 120.0, 7.0),
    ("east", "food", 60.0, 1.0),
    ("west", "tools", 90.0, 6.0),
    ("west", "food", 110.0, 8.0),
]

TRANSACTION_COLUMNS = [
    ("region", Kind.NOMINAL),
    ("category", Kind.NOMINAL),
    ("sales", Kind.CONTINUOUS),
    ("units", Kind.CONTINUOUS),
]


# One mistyped field of a TokenVocabulary record each: a loose reader would
# take a string as its characters and 12.9 as 12.
MISTYPED_VOCAB_FIELDS = [
    ("targets", "avg(sales)"),
    ("cont_attrs", ["sales", 1]),
    ("nom_attrs", None),
    ("members", [["north", "south"]]),
    ("members", {"region": "north"}),
    ("members", {"region": ["north", 2]}),
    ("numeric_scales", {"sales": "4"}),
    ("numeric_scales", {"sales": True}),
    ("bit_width", 12.9),
    ("bit_width", True),
    ("bit_width", "5"),
]

# One numeric scale each that is a number but not a finite positive one: a
# scale of 0 would encode every BETWEEN bound as 0 and divide by 0 in decode.
BAD_SCALE_VOCAB_FIELDS = [
    ("numeric_scales", {"sales": 0}),
    ("numeric_scales", {"sales": -1.0}),
    ("numeric_scales", {"sales": float("nan")}),
    ("numeric_scales", {"sales": float("inf")}),
]


def build_transactions(rows=None) -> Dataset:
    rows = TRANSACTION_ROWS if rows is None else rows
    schema = make_schema(TRANSACTION_COLUMNS)
    columns = {
        "region": [r[0] for r in rows],
        "category": [r[1] for r in rows],
        "sales": [r[2] for r in rows],
        "units": [r[3] for r in rows],
    }
    return Dataset.from_columns(schema, columns)


@pytest.fixture
def transactions() -> Dataset:
    return build_transactions()


@pytest.fixture
def transactions_csv(tmp_path):
    """The same table as a CSV file plus its schema declaration."""
    import json

    path = tmp_path / "transactions.csv"
    lines = ["region,category,sales,units"]
    lines += [f"{r},{c},{s},{u}" for r, c, s, u in TRANSACTION_ROWS]
    path.write_text("\n".join(lines) + "\n")
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(
        json.dumps([{"name": n, "kind": k.value} for n, k in TRANSACTION_COLUMNS])
    )
    return path, schema_path


def gradient_check(model, X, y, samples_per_param: int | None = 4,
                   step: float = 1e-5, seed: int = 0) -> dict:
    """Compare the model's analytic gradients against central differences.

    The check runs the model's own forward and backward code on a float64
    copy, because central differences need float64 to resolve a 1e-5
    step, and leaves the model's float32 parameters as they are. Returns
    the worst relative error per parameter group, where the error of one
    coordinate is |ga - gn| / max(|ga| + |gn|, 1e-12). Each gate's column
    block of W_x, W_h and b is its own group ("W_x:i" ... "b:o"), followed
    by the four head tensors; each group samples samples_per_param
    coordinates, and None checks every one.
    """
    m = copy.copy(model)
    m.params = {k: v.astype(np.float64) for k, v in model.params.items()}
    X = m._check_input(X)
    y = np.asarray(y, dtype=np.float64).ravel()
    z = m._normalize(y)
    _, grads = m._loss_and_grads(X, z)
    H = m.config.lstm_units
    groups = []
    for gi, g in enumerate(GATES):
        for k in ("W_x", "W_h", "b"):
            coords = np.arange(m.params[k].size).reshape(m.params[k].shape)
            groups.append((f"{k}:{g}", k, coords[..., gi * H : (gi + 1) * H].ravel()))
    groups += [(k, k, np.arange(m.params[k].size)) for k in ("W_d", "b_d", "W_y", "b_y")]
    rng = np.random.default_rng(seed)
    errors = {}
    for name, k, coords in groups:
        flat = m.params[k].reshape(-1)
        if samples_per_param is not None and samples_per_param < coords.size:
            coords = coords[rng.choice(coords.size, size=samples_per_param, replace=False)]
        worst = 0.0
        for j in coords:
            orig = flat[j]
            flat[j] = orig + step
            up = m._forward(X)[0]
            loss_up = float(np.mean((up - z) ** 2))
            flat[j] = orig - step
            dn = m._forward(X)[0]
            loss_dn = float(np.mean((dn - z) ** 2))
            flat[j] = orig
            gn = (loss_up - loss_dn) / (2.0 * step)
            ga = grads[k].reshape(-1)[j]
            err = abs(ga - gn) / max(abs(ga) + abs(gn), 1e-12)
            worst = max(worst, err)
        errors[name] = worst
    return errors
