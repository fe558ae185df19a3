"""Artificial workload generation from a domain-expert query template.

The template declares the SELECT targets plus the continuous and nominal
attributes eligible for filters. Continuous BETWEEN bounds are sampled
from the attribute's four quartile intervals (two interval picks with
replacement, one uniform draw from each, smaller value becomes the lower
bound). Nominal IN filters enumerate the member combinations actually
observed in the data. Each combination of nominal filters is paired with
each continuous filter, and every target gets the full pairing.

Sampled bounds are snapped to the encoder's quantization grid (round to
the nearest multiple of 1/scale, clipped inside [min, max]) so the query
that gets executed is bit-identical to the query the model sees.

Everything here is a pure function of (Dataset, QueryTemplate): the same
seed reproduces the same workload byte for byte.

The workload section at the end is the one codec of the JSON record of a
query, in workload and predictions files and a template's targets. It
writes each part object once and reads each distinct part once, strictly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import executor
from .artifacts import (a_list, a_number, a_string, an_int, an_object, parsing, read_artifact,
                        strings, write_jsonl)
from .encoder import check_scale
from .errors import CorruptArtifact, EmptyCombos, InvalidTarget, NumericOverflow, TooFewQueries, WrongKind
from .queries import (
    AggregationFunction,
    AggregationTarget,
    BetweenFilter,
    FlatQuery,
    InFilter,
    LabeledQuery,
)
from .store import ContinuousStats, Dataset, Kind, continuous_stats

DEFAULT_N_CONT_SAMPLES = 200
WORKLOAD_VERSION = 1


@dataclass(frozen=True)
class QueryTemplate:
    """Declaration a workload is sampled from.

    Attribute lists are kept in schema order regardless of the order they
    were declared in, which fixes the canonical token sequence used by the
    encoder. Build instances through :meth:`QueryTemplate.build` so the
    lists are validated against the dataset.
    """

    targets: tuple[AggregationTarget, ...]
    cont_filter_attrs: tuple[str, ...]
    nom_filter_attrs: tuple[str, ...]
    n_cont_samples: int = DEFAULT_N_CONT_SAMPLES
    seed: int = 0
    numeric_scales: dict = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        ds: Dataset,
        targets: list[AggregationTarget],
        cont_filter_attrs: list[str] = (),
        nom_filter_attrs: list[str] = (),
        n_cont_samples: int = DEFAULT_N_CONT_SAMPLES,
        seed: int = 0,
        numeric_scales: dict | None = None,
    ) -> "QueryTemplate":
        if not targets:
            raise InvalidTarget("template needs at least one aggregation target")
        for t in targets:
            t.validate(ds)
        if len(set(targets)) != len(targets):
            raise InvalidTarget(f"duplicate targets: {[t.token() for t in targets]}")
        for attrs, kind in ((cont_filter_attrs, Kind.CONTINUOUS), (nom_filter_attrs, Kind.NOMINAL)):
            if len(set(attrs)) != len(attrs):
                raise WrongKind(f"duplicate filter attributes: {attrs}")
            for a in attrs:
                if ds.kind_of(a) is not kind:
                    raise WrongKind(f"filter attribute {a!r} is not {kind.value}")
        if n_cont_samples < 1:
            raise ValueError("n_cont_samples must be >= 1")
        if seed < 0:
            raise ValueError("seed must be >= 0")
        scales = dict(numeric_scales or {})
        for a, s in scales.items():
            if ds.kind_of(a) is not Kind.CONTINUOUS:
                raise ValueError(f"numeric scale for {a!r} must be on a continuous attribute")
            check_scale(f"numeric_scales[{a!r}]", s)
        order = lambda a: ds.attribute(a).index
        return cls(
            targets=tuple(targets),
            cont_filter_attrs=tuple(sorted(cont_filter_attrs, key=order)),
            nom_filter_attrs=tuple(sorted(nom_filter_attrs, key=order)),
            n_cont_samples=int(n_cont_samples),
            seed=int(seed),
            numeric_scales=scales,
        )

    def scale(self, attr: str) -> float:
        return float(self.numeric_scales.get(attr, 1.0))

    def to_record(self) -> dict:
        return {
            "targets": [_target_record(t) for t in self.targets],
            "cont_filter_attrs": list(self.cont_filter_attrs),
            "nom_filter_attrs": list(self.nom_filter_attrs),
            "n_cont_samples": self.n_cont_samples,
            "seed": self.seed,
            "numeric_scales": dict(self.numeric_scales),
        }


_TEMPLATE_FIELDS = {
    "targets": lambda name, raw: _read_list(name, raw, AggregationTarget, _TARGET),
    "cont_filter_attrs": strings, "nom_filter_attrs": strings,
    "n_cont_samples": an_int, "seed": an_int, "numeric_scales": an_object,
}


def load_template(source: str | Path | dict, ds: Dataset) -> QueryTemplate:
    """Read a template config (JSON file or dict) and validate it.

    The config holds the keys that QueryTemplate.to_record writes, the
    arguments of QueryTemplate.build: "targets" as {func, attr} pairs, and
    optionally the filter attribute lists, "n_cont_samples", "seed" and
    "numeric_scales". It is read strictly: any other key, or a key of
    another JSON type (an attribute list given as one string, a count of
    12.9, a seed of true, scales given as pairs), is rejected with
    CorruptArtifact naming it.
    """
    with parsing(source, "template"):
        if isinstance(source, (str, Path)):
            with open(source, encoding="utf-8") as fh:
                raw = json.load(fh)
        else:
            raw = dict(source)
        known = [f.name for f in fields(QueryTemplate)]
        unknown = sorted(set(raw) - set(known))
        if unknown:
            raise ValueError(f"unknown keys {unknown}; a template holds only {known}")
        raw = {"targets": [], **raw}
        raw.update({key: read(key, raw[key]) for key, read in _TEMPLATE_FIELDS.items()
                    if key in raw})
        return QueryTemplate.build(ds, **raw)


def snap_to_grid(value: float, scale: float, lo: float, hi: float) -> float:
    """Round onto the grid {k/scale} and clip to grid points inside [lo, hi];
    NumericOverflow when no grid point lies inside."""
    k_lo = math.ceil(lo * scale - 1e-9)
    k_hi = math.floor(hi * scale + 1e-9)
    if k_lo > k_hi:
        raise NumericOverflow(
            f"no grid point with scale {scale} inside [{lo}, {hi}]; increase the scale"
        )
    k = int(np.rint(value * scale))
    k = min(max(k, k_lo), k_hi)
    return k / scale


def gen_between_filters(
    stats: dict[str, ContinuousStats],
    attrs: list[str],
    n: int,
    rng: np.random.Generator,
    scales: dict | None = None,
) -> list[tuple[BetweenFilter, ...]]:
    """Sample n combinations of one BETWEEN filter per continuous attribute.

    Per attribute and sample: draw two of the four quartile intervals
    uniformly with replacement, one uniform value from each, order them and
    snap to the quantization grid. Deterministic given the generator state.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    scales = scales or {}
    combos: list[tuple[BetweenFilter, ...]] = []
    intervals = {a: stats[a].intervals() for a in attrs}
    for _ in range(n):
        filters = []
        for a in attrs:
            iv = intervals[a]
            picks = rng.integers(0, len(iv), size=2)
            draws = [rng.uniform(iv[p][0], iv[p][1]) for p in picks]
            s = float(scales.get(a, 1.0))
            lo, hi = stats[a].min, stats[a].max
            bounds = sorted(snap_to_grid(d, s, lo, hi) for d in draws)
            filters.append(BetweenFilter(a, bounds[0], bounds[1]))
        combos.append(tuple(filters))
    return combos


@dataclass(frozen=True)
class GenerationReport:
    n_targets: int
    n_between_sets: int
    n_member_combos: int
    n_queries: int


def generate_workload(ds: Dataset, template: QueryTemplate) -> tuple[list[FlatQuery], GenerationReport]:
    """Instantiate the template into a full unlabeled workload.

    Order is deterministic: targets outermost, then continuous filter
    samples, then member combinations.
    """
    rng = np.random.default_rng(template.seed)
    if template.cont_filter_attrs:
        stats = {a: continuous_stats(ds, a) for a in template.cont_filter_attrs}
        between_sets = gen_between_filters(
            stats,
            list(template.cont_filter_attrs),
            template.n_cont_samples,
            rng,
            template.numeric_scales,
        )
    else:
        between_sets = [()]
    if template.nom_filter_attrs:
        attrs = list(template.nom_filter_attrs)
        combos = executor.extract_member_combinations(ds, attrs)
        if not combos:
            raise EmptyCombos("group-by result set is empty; no member combinations")
        in_sets = [tuple(InFilter(a, m) for a, m in zip(attrs, combo)) for combo in combos]
    else:
        in_sets = [()]
    queries = [
        FlatQuery(target, b, i) for target in template.targets for b in between_sets for i in in_sets
    ]
    report = GenerationReport(
        n_targets=len(template.targets),
        n_between_sets=len(between_sets),
        n_member_combos=len(in_sets),
        n_queries=len(queries),
    )
    return queries, report


def split_indices(
    n: int,
    fractions: tuple[float, float, float] = (0.70, 0.15, 0.15),
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shuffled train/validation/test index arrays over range(n).

    Sizes follow floor(train), floor(validation), remainder to test, so
    100 queries split as 70/15/15 and 10 as 7/1/2.
    """
    if n < 3:
        raise TooFewQueries(f"need at least 3 queries to split, got {n}")
    if len(fractions) != 3 or any(f < 0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must be three non-negatives summing to 1: {fractions}")
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(math.floor(fractions[0] * n))
    n_val = int(math.floor(fractions[1] * n))
    return perm[:n_train], perm[n_train : n_train + n_val], perm[n_train + n_val :]


# -- workload files: the one codec of a query record --------------------------
# Each part's JSON object holds the fields of the dataclass it stands for,
# in order, each with the reader that types it.

_FUNCS = {f.value: f for f in AggregationFunction}


def _a_func(name: str, value) -> AggregationFunction:
    if a_string(name, value) not in _FUNCS:
        raise ValueError(f"{name} is {value!r}, not one of {sorted(_FUNCS)}")
    return _FUNCS[value]


_TARGET = {"func": _a_func, "attr": a_string}
_BETWEEN = {"attr": a_string, "lower": a_number, "upper": a_number}
_IN = {"attr": a_string, "member": a_string}
_RECORD_KEYS = frozenset({"target", "between", "in", "label", "support"})


def _object(name: str, raw, keys) -> dict:
    """`raw`, a JSON object with exactly `keys`; else TypeError, or KeyError
    or ValueError naming the first key missing or unknown, under `name`."""
    if an_object(name or "record", raw).keys() != keys:
        key = min(keys - raw.keys() or raw.keys() - keys)
        field = f"{name}.{key}" if name else key
        if key in keys:
            raise KeyError(field)
        raise ValueError(f"unknown key {field!r}")
    return raw


def _read_part(name: str, raw, cls, layout: dict):
    raw = _object(name, raw, layout.keys())
    return cls(*[read(f"{name}.{key}", raw[key]) for key, read in layout.items()])


def _read_list(name: str, raw, cls, layout: dict) -> tuple:
    return tuple(_read_part(f"{name}[{k}]", part, cls, layout)
                 for k, part in enumerate(a_list(name, raw)))


def _target_record(target: AggregationTarget) -> dict:
    return {"func": target.func.value, "attr": target.attr}


def _filter_records(filters: tuple, layout: dict) -> list[dict]:
    return [{key: getattr(f, key) for key in layout} for f in filters]


# Each part of a record: its key, reader and writer, in FlatQuery's field order.
_PARTS = (
    ("target", partial(_read_part, cls=AggregationTarget, layout=_TARGET), _target_record),
    ("between", partial(_read_list, cls=BetweenFilter, layout=_BETWEEN),
     partial(_filter_records, layout=_BETWEEN)),
    ("in", partial(_read_list, cls=InFilter, layout=_IN), partial(_filter_records, layout=_IN)),
)


def query_records(queries: list) -> list[dict]:
    """The record of each query (a FlatQuery or a LabeledQuery's) without
    label and support. Records share the JSON of each part object they
    share; equal parts that are separate objects keep their own (0 and 0.0)."""
    built = {}  # id of a part object -> its JSON; `queries` keeps the ids alive
    records = []
    for q in queries:
        fq = q.query if isinstance(q, LabeledQuery) else q
        rec = {}
        for (key, _, write), part in zip(_PARTS, (fq.target, fq.between_filters, fq.in_filters)):
            if id(part) not in built:
                built[id(part)] = write(part)
            rec[key] = built[id(part)]
        records.append(rec)
    return records


def write_workload(
    path: str | Path,
    records: list[FlatQuery] | list[LabeledQuery],
    meta: dict | None = None,
) -> None:
    """Write a workload file: one JSON header line, then one query per line."""
    labeled = bool(records) and isinstance(records[0], LabeledQuery)
    rows = query_records(records)
    for row, r in zip(rows, records):
        row["label"], row["support"] = (r.label, r.support) if labeled else (None, None)
    write_jsonl(path, "workload", WORKLOAD_VERSION, rows, {"labeled": labeled, **(meta or {})})


def read_workload(path: str | Path) -> tuple[dict, list]:
    """Read a workload file back into FlatQuery or LabeledQuery objects.

    Records are read strictly (README, File formats), each distinct part
    once, and equal parts come back as one object, so number_parts takes
    its identity path on them. A record that does not parse or type raises
    CorruptArtifact naming its line and the field.
    """
    header, lines = read_artifact(path, "workload", WORKLOAD_VERSION)
    labeled = header.get("labeled")
    if not isinstance(labeled, bool):
        raise CorruptArtifact(f"{path}: header 'labeled' is {json.dumps(labeled)}, not a bool")
    built = {}  # (key, repr of the part's JSON) -> part; the repr tells true from 1
    records = []
    try:
        for line in lines:
            rec = _object("", json.loads(line), _RECORD_KEYS)
            parts = []
            for key, read, _ in _PARTS:
                part = built.get(k := (key, repr(rec[key])))
                if part is None:
                    part = built[k] = read(key, rec[key])
                parts.append(part)
            query = FlatQuery(*parts)
            if not labeled:
                if (rec["label"], rec["support"]) != (None, None):
                    raise ValueError(f"label and support are {rec['label']!r} and "
                                     f"{rec['support']!r}, not null in an unlabeled workload")
                records.append(query)
            elif an_int("support", rec["support"]) < 0:
                raise ValueError(f"support is {rec['support']}, not a count")
            else:
                records.append(LabeledQuery(query, a_number("label", rec["label"]), rec["support"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptArtifact(f"{path} line {len(records) + 2} is not a workload record: "
                              f"{type(exc).__name__} {exc}") from exc
    return header, records
