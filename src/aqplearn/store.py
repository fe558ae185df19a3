"""Immutable in-memory columnar table loaded from CSV.

Continuous columns are stored as float64 vectors, nominal columns as
dictionary-encoded member ids (int32) plus a per-column member list in
first-occurrence order. All externally visible member lists are sorted so
that outputs do not depend on row order. Arrays are flagged read-only;
a Dataset never changes after construction and is safe to share across
concurrent readers.
"""

from __future__ import annotations

import csv
import json
import logging
import threading
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .artifacts import atomic_open, parsing
from .errors import (
    EmptyDataset,
    MalformedRow,
    ParseError,
    UnknownAttribute,
    WrongKind,
)

logger = logging.getLogger(__name__)


class Kind(Enum):
    NOMINAL = "nominal"
    CONTINUOUS = "continuous"


class NullPolicy(Enum):
    DROP_ROW = "drop_row"
    REJECT = "reject"


@dataclass(frozen=True)
class AttributeSchema:
    """One declared column: name, kind and ordinal position."""

    name: str
    kind: Kind
    index: int


@dataclass(frozen=True)
class ContinuousStats:
    """Five-number summary defining the four quartile intervals."""

    min: float
    q1: float
    median: float
    q3: float
    max: float

    def intervals(self) -> list[tuple[float, float]]:
        """The four quartile intervals, low to high."""
        return [
            (self.min, self.q1),
            (self.q1, self.median),
            (self.median, self.q3),
            (self.q3, self.max),
        ]


def make_schema(columns: list[tuple[str, Kind]]) -> list[AttributeSchema]:
    """Build a schema from (name, kind) pairs; order defines the index."""
    names = [name for name, _ in columns]
    if len(set(names)) != len(names):
        raise ParseError(f"duplicate attribute names in schema: {names}")
    return [AttributeSchema(name, kind, i) for i, (name, kind) in enumerate(columns)]


def load_schema(path: str | Path) -> list[AttributeSchema]:
    """Read a schema declaration file: a JSON list of {name, kind}."""
    with open(path, encoding="utf-8") as fh, parsing(path, "schema"):
        raw = json.load(fh)
    if not isinstance(raw, list):
        raise ParseError(f"schema file {path} must hold a JSON list")
    cols = []
    for entry in raw:
        try:
            cols.append((entry["name"], Kind(entry["kind"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad schema entry {entry!r}: {exc}") from exc
    return make_schema(cols)


def dump_schema(schema: list[AttributeSchema], path: str | Path) -> None:
    payload = [{"name": a.name, "kind": a.kind.value} for a in schema]
    with atomic_open(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _first_nonfinite(values: np.ndarray) -> int | None:
    """Index of the first NaN or infinite value, or None if all are finite."""
    finite = np.isfinite(values)
    return None if finite.all() else int(np.argmin(finite))


class Dataset:
    """Read-only columnar table with typed attributes.

    Construct via :func:`load_csv` or :meth:`Dataset.from_columns`.
    """

    def __init__(
        self,
        schema: list[AttributeSchema],
        continuous: dict[str, np.ndarray],
        nominal_ids: dict[str, np.ndarray],
        nominal_members: dict[str, tuple[str, ...]],
        row_count: int,
    ):
        self.schema = tuple(schema)
        self._by_name = {a.name: a for a in schema}
        if len(self._by_name) != len(schema):
            raise ParseError("attribute names must be unique within a schema")
        self._continuous = continuous
        self._nominal_ids = nominal_ids
        self._nominal_members = nominal_members
        self.row_count = int(row_count)
        self._derived: dict = {}
        self._derived_lock = threading.Lock()
        for arr in (*continuous.values(), *nominal_ids.values()):
            if len(arr) != self.row_count:
                raise MalformedRow(
                    f"column length {len(arr)} != row_count {self.row_count}"
                )
            arr.flags.writeable = False

    # -- construction ------------------------------------------------------

    @classmethod
    def from_columns(cls, schema: list[AttributeSchema], columns: dict[str, list]) -> "Dataset":
        """Build a Dataset from in-memory columns keyed by attribute name.

        Continuous columns take any float-convertible sequence; nominal
        columns take sequences of strings, dictionary-encoded here in
        first-occurrence order. A NaN or infinite continuous value raises
        ParseError.
        """
        missing = [a.name for a in schema if a.name not in columns]
        if missing:
            raise UnknownAttribute(f"columns missing for attributes: {missing}")
        lengths = {len(columns[a.name]) for a in schema}
        if len(lengths) > 1:
            raise MalformedRow(f"column lengths differ: {sorted(lengths)}")
        n = lengths.pop() if lengths else 0

        continuous: dict[str, np.ndarray] = {}
        nominal_ids: dict[str, np.ndarray] = {}
        nominal_members: dict[str, tuple[str, ...]] = {}
        for attr in schema:
            vals = columns[attr.name]
            if attr.kind is Kind.CONTINUOUS:
                values = continuous[attr.name] = np.asarray(vals, dtype=np.float64).copy()
                i = _first_nonfinite(values)
                if i is not None:
                    raise ParseError(
                        f"non-finite value {float(values[i])} at index {i} of continuous "
                        f"column {attr.name!r}"
                    )
            else:
                members: dict[str, int] = {}
                ids = np.empty(n, dtype=np.int32)
                for i, v in enumerate(vals):
                    s = str(v)
                    ids[i] = members.setdefault(s, len(members))
                nominal_ids[attr.name] = ids
                nominal_members[attr.name] = tuple(members)
        return cls(schema, continuous, nominal_ids, nominal_members, n)

    # -- schema access -----------------------------------------------------

    def attribute(self, name: str) -> AttributeSchema:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownAttribute(f"no attribute named {name!r}") from None

    def kind_of(self, name: str) -> Kind:
        return self.attribute(name).kind

    def continuous_values(self, name: str) -> np.ndarray:
        """Raw float64 vector of a continuous attribute."""
        attr = self.attribute(name)
        if attr.kind is not Kind.CONTINUOUS:
            raise WrongKind(f"{name!r} is nominal, not continuous")
        return self._continuous[name]

    def nominal_id_values(self, name: str) -> np.ndarray:
        """Dictionary-encoded member ids of a nominal attribute."""
        attr = self.attribute(name)
        if attr.kind is not Kind.NOMINAL:
            raise WrongKind(f"{name!r} is continuous, not nominal")
        return self._nominal_ids[name]

    def members(self, name: str) -> tuple[str, ...]:
        """Member strings of a nominal attribute in first-occurrence order."""
        self.nominal_id_values(name)  # kind check
        return self._nominal_members[name]

    def derived(self, key, build):
        """build(), computed on the first call for `key` and kept for the
        life of this Dataset. Only for data derived from its columns, which
        never change."""
        with self._derived_lock:
            if key not in self._derived:
                self._derived[key] = build()
            return self._derived[key]

    def member_id(self, name: str, member: str) -> int | None:
        """Id of a member string, or None if it never occurs in the column."""
        members = self.members(name)
        try:
            return members.index(member)
        except ValueError:
            return None


def load_csv(
    path: str | Path,
    schema: list[AttributeSchema],
    delimiter: str = ",",
    header: bool = True,
    null_policy: NullPolicy = NullPolicy.DROP_ROW,
) -> Dataset:
    """Load an RFC-4180-style CSV file into a columnar Dataset.

    Every column must be declared in `schema` (same order as the file).
    Empty cells are nulls: under DROP_ROW the whole row is dropped and the
    total is logged, under REJECT a ParseError is raised. A non-numeric,
    NaN or infinite value in a continuous column raises ParseError naming
    the data row (1-based) and column.
    """
    expected = len(schema)
    raw_columns: list = [[] for _ in range(expected)]
    dropped: list[int] = []  # data row numbers of rows dropped for nulls

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        if header:
            try:
                head = next(reader)
            except StopIteration:
                raise MalformedRow(f"{path}: empty file but header expected") from None
            declared = [a.name for a in schema]
            if [h.strip() for h in head] != declared:
                raise MalformedRow(
                    f"{path}: header {head} does not match declared attributes {declared}"
                )
        for rownum, row in enumerate(reader, start=1):
            if len(row) != expected:
                raise MalformedRow(
                    f"{path}: row {rownum} has {len(row)} fields, expected {expected}"
                )
            if any(cell == "" for cell in row):
                if null_policy is NullPolicy.REJECT:
                    col = schema[row.index("")].name
                    raise ParseError(f"{path}: null value at row {rownum}, column {col!r}")
                dropped.append(rownum)
                continue
            parsed = []
            for attr, cell in zip(schema, row):
                if attr.kind is Kind.CONTINUOUS:
                    try:
                        parsed.append(float(cell))
                    except ValueError:
                        raise ParseError(
                            f"{path}: non-numeric value {cell!r} at row {rownum}, "
                            f"column {attr.name!r}"
                        ) from None
                else:
                    parsed.append(cell)
            for out, value in zip(raw_columns, parsed):
                out.append(value)

    if dropped:
        logger.info("load_csv(%s): dropped %d rows containing nulls", path, len(dropped))
    for col, attr in enumerate(schema):
        if attr.kind is Kind.CONTINUOUS:
            values = raw_columns[col] = np.array(raw_columns[col], dtype=np.float64)
            i = _first_nonfinite(values)
            if i is not None:
                rownum = i + 1
                for d in dropped:  # step over dropped rows to the file's row number
                    if d > rownum:
                        break
                    rownum += 1
                raise ParseError(
                    f"{path}: non-finite value {float(values[i])} at row {rownum}, "
                    f"column {attr.name!r}"
                )
    columns = {attr.name: raw_columns[i] for i, attr in enumerate(schema)}
    return Dataset.from_columns(schema, columns)


def dump_csv(ds: Dataset, path: str | Path) -> None:
    """Write a Dataset back out as a header-first CSV file.

    Continuous cells use repr(float), which round-trips exactly through
    load_csv.
    """
    columns = []
    for attr in ds.schema:
        if attr.kind is Kind.CONTINUOUS:
            columns.append([repr(float(v)) for v in ds.continuous_values(attr.name)])
        else:
            members = ds.members(attr.name)
            columns.append([members[i] for i in ds.nominal_id_values(attr.name)])
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([a.name for a in ds.schema])
        writer.writerows(zip(*columns))


def continuous_stats(ds: Dataset, attr: str) -> ContinuousStats:
    """Five-number summary of a continuous attribute.

    Quartiles are computed by linear interpolation between the closest
    order statistics, so repeating the call (or shuffling the rows)
    always yields the same numbers.
    """
    values = ds.continuous_values(attr)
    if ds.row_count == 0:
        raise EmptyDataset(f"cannot compute stats of {attr!r} on an empty dataset")
    q = np.percentile(values, [0.0, 25.0, 50.0, 75.0, 100.0], method="linear")
    return ContinuousStats(*(float(v) for v in q))


def distinct_members(ds: Dataset, attr: str) -> list[str]:
    """Sorted, deduplicated member strings of a nominal attribute."""
    ds.nominal_id_values(attr)  # kind + existence check
    return sorted(ds.members(attr))
