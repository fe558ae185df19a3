"""Immutable in-memory columnar table loaded from CSV.

Continuous columns are stored as float64 vectors, nominal columns as
dictionary-encoded member ids (int32) plus a per-column member list in
sorted order: id k is the k-th member, so ids, member lists and anything
ordered by id do not depend on row order. This module owns the one cell
converter and the one member encoder that both constructors use. Arrays
are flagged read-only; a Dataset never changes after construction and is
safe to share across concurrent readers.
"""

from __future__ import annotations

import csv
import itertools
import json
import logging
import threading
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from pathlib import Path

import numpy as np

from .artifacts import atomic_open, parsing, write_json
from .errors import (
    EmptyDataset,
    MalformedRow,
    ParseError,
    UnknownAttribute,
    WrongKind,
)

logger = logging.getLogger(__name__)

# Rows load_csv parses and converts at a time: large enough that numpy does
# the converting, small enough that the raw cells of one chunk stay small
# next to the table they become.
CSV_CHUNK_ROWS = 1 << 16


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
    write_json(path, [{"name": a.name, "kind": a.kind.value} for a in schema])


def _float_column(cells, where) -> np.ndarray:
    """`cells` as a float64 vector, each parsed as float() parses it. A
    non-numeric, NaN or infinite cell raises ParseError naming the first
    one by where(i), its position in `cells`."""
    try:
        values = np.array(cells, dtype=np.float64)
    except (TypeError, ValueError):
        for i, cell in enumerate(cells):
            try:
                float(cell)
            except (TypeError, ValueError):
                raise ParseError(f"non-numeric value {cell!r} at {where(i)}") from None
        raise  # every cell parses alone, so the cells do not form a vector
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ParseError(f"non-finite value {float(values[i])} at {where(i)}")
    return values


def _member_ids(cells, lookup: dict[str, int]) -> np.ndarray:
    """Ids of the member strings `cells` under `lookup`, which first gains
    the next free id for each member it lacks. The ids are provisional;
    _sorted_members renumbers them once the column is complete."""
    for member in set(cells).difference(lookup):
        lookup[member] = len(lookup)
    return np.fromiter(map(lookup.__getitem__, cells), np.int32, len(cells))


def _sorted_members(ids: np.ndarray, lookup: dict[str, int]) -> tuple[np.ndarray, tuple[str, ...]]:
    """`ids` renumbered so that id k is the k-th member in sorted order,
    and the members in that order."""
    members = tuple(sorted(lookup))
    rank = np.empty(len(members), dtype=np.int32)
    rank[[lookup[m] for m in members]] = np.arange(len(members), dtype=np.int32)
    return rank[ids], members


class Dataset:
    """Read-only columnar table with typed attributes.

    Construct via :func:`load_csv` or :meth:`Dataset.from_columns`.
    """

    def __init__(
        self,
        schema: list[AttributeSchema],
        columns: dict[str, np.ndarray],
        members: dict[str, tuple[str, ...]],
        row_count: int,
    ):
        """`columns` holds each attribute's float64 values or int32 member
        ids, `members` each nominal attribute's members in sorted order."""
        self.schema = tuple(schema)
        self._by_name = {a.name: a for a in schema}
        if len(self._by_name) != len(schema):
            raise ParseError("attribute names must be unique within a schema")
        self._columns = columns
        self._members = members
        self.row_count = int(row_count)
        self._derived: dict = {}
        self._derived_lock = threading.Lock()
        for arr in columns.values():
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
        columns take sequences of strings (other values go through str),
        dictionary-encoded here with ids in sorted member order. A
        non-numeric, NaN or infinite continuous value raises ParseError.
        """
        missing = [a.name for a in schema if a.name not in columns]
        if missing:
            raise UnknownAttribute(f"columns missing for attributes: {missing}")
        lengths = {len(columns[a.name]) for a in schema}
        if len(lengths) > 1:
            raise MalformedRow(f"column lengths differ: {sorted(lengths)}")
        n = lengths.pop() if lengths else 0

        arrays: dict[str, np.ndarray] = {}
        members: dict[str, tuple[str, ...]] = {}
        for attr in schema:
            vals = columns[attr.name]
            if attr.kind is Kind.CONTINUOUS:
                arrays[attr.name] = _float_column(
                    vals, lambda i: f"index {i} of continuous column {attr.name!r}"
                )
            else:
                lookup: dict[str, int] = {}
                ids = _member_ids(list(map(str, vals)), lookup)
                arrays[attr.name], members[attr.name] = _sorted_members(ids, lookup)
        return cls(schema, arrays, members, n)

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
        return self._columns[name]

    def nominal_id_values(self, name: str) -> np.ndarray:
        """Dictionary-encoded member ids of a nominal attribute."""
        attr = self.attribute(name)
        if attr.kind is not Kind.NOMINAL:
            raise WrongKind(f"{name!r} is continuous, not nominal")
        return self._columns[name]

    def members(self, name: str) -> tuple[str, ...]:
        """Member strings of a nominal attribute in sorted order; a member's
        id is its position here."""
        self.nominal_id_values(name)  # kind check
        return self._members[name]

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
    null_policy: NullPolicy = NullPolicy.DROP_ROW,
) -> Dataset:
    """Load a header-first, comma-separated RFC-4180 CSV file into a Dataset.

    The header must name the `schema` attributes in order. Empty cells are
    nulls: under DROP_ROW the whole row is dropped and the total is logged,
    under REJECT a ParseError is raised. A row of the wrong width raises
    MalformedRow, and a non-numeric, NaN or infinite value in a continuous
    column raises ParseError; both name the data row (1-based, dropped
    rows counted) and the column. The file is read CSV_CHUNK_ROWS rows at
    a time, and each chunk is converted column by column before the next
    is read.
    """
    width = len(schema)
    declared = [a.name for a in schema]
    lookups: dict[str, dict[str, int]] = {a.name: {} for a in schema if a.kind is Kind.NOMINAL}
    parts = {a.name: [np.empty(0, np.int32 if a.name in lookups else np.float64)] for a in schema}
    dropped = 0

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        head = next(reader, None)
        if head is None:
            raise MalformedRow(f"{path}: empty file but header expected")
        if [h.strip() for h in head] != declared:
            raise MalformedRow(
                f"{path}: header {head} does not match declared attributes {declared}"
            )
        first = 1  # data row number of the chunk's first row
        while chunk := list(itertools.islice(reader, CSV_CHUNK_ROWS)):
            rownums = range(first, first + len(chunk))
            first += len(chunk)
            if set(map(len, chunk)) != {width} or any("" in row for row in chunk):
                keep = []
                for rownum, row in zip(rownums, chunk):
                    if len(row) != width:
                        raise MalformedRow(
                            f"{path}: row {rownum} has {len(row)} fields, expected {width}"
                        )
                    if "" in row and null_policy is NullPolicy.REJECT:
                        col = schema[row.index("")].name
                        raise ParseError(f"{path}: null value at row {rownum}, column {col!r}")
                    keep.append("" not in row)
                dropped += keep.count(False)
                rownums = list(itertools.compress(rownums, keep))
                chunk = list(itertools.compress(chunk, keep))
            for k, attr in enumerate(schema):
                cells = list(map(itemgetter(k), chunk))
                if attr.kind is Kind.CONTINUOUS:
                    values = _float_column(
                        cells, lambda i: f"row {rownums[i]}, column {attr.name!r} of {path}"
                    )
                else:
                    values = _member_ids(cells, lookups[attr.name])
                parts[attr.name].append(values)

    if dropped:
        logger.info("load_csv(%s): dropped %d rows containing nulls", path, dropped)
    columns = {name: np.concatenate(p) for name, p in parts.items()}
    members = {}
    for name, lookup in lookups.items():
        columns[name], members[name] = _sorted_members(columns[name], lookup)
    return Dataset(schema, columns, members, first - 1 - dropped)


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

