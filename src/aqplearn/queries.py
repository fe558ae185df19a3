"""Query domain types shared by the generator, executor and encoder.

A FlatQuery is the atomic unit of the whole pipeline: one aggregation
target plus BETWEEN filters on continuous attributes and IN filters
binding nominal attributes to single members. It returns one scalar by
construction. SQL text rendering is for display only; queries are always
built and evaluated structurally.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidTarget
from .store import Dataset, Kind


class AggregationFunction(Enum):
    AVG = "avg"
    SUM = "sum"
    COUNT = "count"
    COUNT_DISTINCT = "count_distinct"
    MEDIAN = "median"
    MIN = "min"
    MAX = "max"


# Aggregations defined on a nominal attribute; everything applies to
# continuous attributes.
NOMINAL_FUNCS = frozenset({AggregationFunction.COUNT, AggregationFunction.COUNT_DISTINCT})

# Aggregations that are well-defined over zero matched rows (value 0).
COUNTING_FUNCS = frozenset(
    {AggregationFunction.COUNT, AggregationFunction.COUNT_DISTINCT, AggregationFunction.SUM}
)

_SQL_NAMES = {
    AggregationFunction.AVG: "AVG",
    AggregationFunction.SUM: "SUM",
    AggregationFunction.COUNT: "COUNT",
    AggregationFunction.COUNT_DISTINCT: "COUNT(DISTINCT",
    AggregationFunction.MEDIAN: "MEDIAN",
    AggregationFunction.MIN: "MIN",
    AggregationFunction.MAX: "MAX",
}


def target_allowed(func: AggregationFunction, kind: Kind) -> bool:
    return kind is Kind.CONTINUOUS or func in NOMINAL_FUNCS


@dataclass(frozen=True)
class AggregationTarget:
    """An aggregation function applied to one attribute."""

    func: AggregationFunction
    attr: str

    def token(self) -> str:
        """Vocabulary token, e.g. 'avg(sales)'."""
        return f"{self.func.value}({self.attr})"

    def to_sql(self) -> str:
        name = _SQL_NAMES[self.func]
        if self.func is AggregationFunction.COUNT_DISTINCT:
            return f"{name} {self.attr})"
        return f"{name}({self.attr})"

    def validate(self, ds: Dataset) -> None:
        kind = ds.kind_of(self.attr)
        if not target_allowed(self.func, kind):
            raise InvalidTarget(
                f"{self.func.value} is not applicable to nominal attribute {self.attr!r}"
            )


@dataclass(frozen=True)
class BetweenFilter:
    """Inclusive range predicate on a continuous attribute."""

    attr: str
    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower <= self.upper:
            raise ValueError(f"between({self.attr}): lower {self.lower} > upper {self.upper}")

    def to_sql(self) -> str:
        return f"{self.attr} BETWEEN {_fmt_num(self.lower)} AND {_fmt_num(self.upper)}"


@dataclass(frozen=True)
class InFilter:
    """Equality predicate binding a nominal attribute to one member."""

    attr: str
    member: str

    def to_sql(self) -> str:
        return f"{self.attr} IN ('{self.member}')"


def _fmt_num(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def _where_sql(between: tuple[BetweenFilter, ...], in_: tuple[InFilter, ...]) -> str:
    parts = [f.to_sql() for f in between] + [f.to_sql() for f in in_]
    return " WHERE " + " AND ".join(parts) if parts else ""


@dataclass(frozen=True, slots=True)
class FlatQuery:
    """Single-aggregation query with no GROUP BY; evaluates to one scalar."""

    target: AggregationTarget
    between_filters: tuple[BetweenFilter, ...] = ()
    in_filters: tuple[InFilter, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "between_filters", tuple(self.between_filters))
        object.__setattr__(self, "in_filters", tuple(self.in_filters))
        for filters, label in ((self.between_filters, "BETWEEN"), (self.in_filters, "IN")):
            attrs = [f.attr for f in filters]
            if len(set(attrs)) != len(attrs):
                raise ValueError(f"duplicate {label} filter attributes: {attrs}")

    def to_sql(self) -> str:
        return (
            f"SELECT {self.target.to_sql()} FROM data"
            + _where_sql(self.between_filters, self.in_filters)
        )

    def to_record(self) -> dict:
        return {
            "target": {"func": self.target.func.value, "attr": self.target.attr},
            "between": [
                {"attr": f.attr, "lower": f.lower, "upper": f.upper}
                for f in self.between_filters
            ],
            "in": [{"attr": f.attr, "member": f.member} for f in self.in_filters],
        }

    @classmethod
    def from_record(cls, rec: dict) -> "FlatQuery":
        return cls(
            target=AggregationTarget(
                AggregationFunction(rec["target"]["func"]), rec["target"]["attr"]
            ),
            between_filters=tuple(
                BetweenFilter(f["attr"], float(f["lower"]), float(f["upper"]))
                for f in rec["between"]
            ),
            in_filters=tuple(InFilter(f["attr"], f["member"]) for f in rec["in"]),
        )


@dataclass(frozen=True)
class GroupByQuery:
    """Multi-aggregation query grouped by nominal attributes; with none, the
    one group is every matched row, as in SQL without GROUP BY."""

    targets: tuple[AggregationTarget, ...]
    between_filters: tuple[BetweenFilter, ...] = ()
    groupby_attrs: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "between_filters", tuple(self.between_filters))
        object.__setattr__(self, "groupby_attrs", tuple(self.groupby_attrs))
        if not self.targets:
            raise ValueError("GroupByQuery needs at least one aggregation target")
        if len(set(self.groupby_attrs)) != len(self.groupby_attrs):
            raise ValueError(f"duplicate GROUP BY attributes: {self.groupby_attrs}")

    def to_sql(self) -> str:
        cols = ", ".join(self.groupby_attrs)
        selects = ", ".join([*self.groupby_attrs, *(t.to_sql() for t in self.targets)])
        return (
            f"SELECT {selects} FROM data"
            + _where_sql(self.between_filters, ())
            + (f" GROUP BY {cols}" if cols else "")
        )


@dataclass(frozen=True, slots=True)
class LabeledQuery:
    """A FlatQuery plus the exact result obtained from the executor."""

    query: FlatQuery
    label: float
    support: int

    def to_record(self) -> dict:
        rec = self.query.to_record()
        rec["label"] = self.label
        rec["support"] = self.support
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "LabeledQuery":
        return cls(
            query=FlatQuery.from_record(rec),
            label=float(rec["label"]),
            support=int(rec["support"]),
        )


def number_parts(queries: Iterable) -> tuple[list, np.ndarray]:
    """Number the distinct parts of a workload in one walk: (parts, index).

    A query's parts are its target, its BETWEEN tuple and its IN tuple
    (columns 0, 1, 2). parts lists each distinct (column, part) in the
    order the walk first meets it, and index[i, c] is the number of query
    i's part in column c. A part is looked up by identity first and by
    value on a miss, so equal parts that are separate objects share one
    number. The value is a plain tuple of the part's fields, which hashes
    and compares in C where the frozen dataclasses would run Python. Every
    part looked up by identity stays referenced until the walk ends, so no
    id is reused when `queries` is a generator.
    """
    parts, index, kept = [], [], []
    by_id, by_value = ({}, {}, {}), ({}, {}, {})

    def number(c, part):
        if c == 0:  # AggregationFunction members are singletons
            key = (id(part.func), part.attr)
        elif c == 1:
            key = tuple([(f.attr, f.lower, f.upper) for f in part])
        else:
            key = tuple([(f.attr, f.member) for f in part])
        k = by_id[c][id(part)] = by_value[c].setdefault(key, len(parts))
        if k == len(parts):
            parts.append((c, part))
        kept.append(part)
        return k

    get0, get1, get2 = by_id[0].get, by_id[1].get, by_id[2].get
    for q in queries:
        fq = q.query if isinstance(q, LabeledQuery) else q
        t, b, i = fq.target, fq.between_filters, fq.in_filters
        k0, k1, k2 = get0(id(t)), get1(id(b)), get2(id(i))
        index += (
            number(0, t) if k0 is None else k0,
            number(1, b) if k1 is None else k1,
            number(2, i) if k2 is None else k2,
        )
    return parts, np.array(index, dtype=np.intp).reshape(-1, 3)
