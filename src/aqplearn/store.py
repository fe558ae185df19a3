"""Immutable in-memory columnar table loaded from CSV.

Continuous columns are stored as float64 vectors, nominal columns as
dictionary-encoded member ids (int32) plus a per-column member list in
sorted order: id k is the k-th member, so ids, member lists and anything
ordered by id do not depend on row order. Both constructors read numbers
as float() does and share one member encoder, and this module owns the
CSV grammar that load_csv accepts. Arrays are flagged read-only; a
Dataset never changes after construction and is safe to share across
concurrent readers.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import threading
from dataclasses import dataclass
from enum import Enum
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

# Bytes load_csv reads at a time: large enough that numpy does the
# tokenizing and converting, small enough that one block's field ranges
# stay small next to the table they become.
CSV_BLOCK_BYTES = 1 << 22
# Rows dump_csv formats at a time, so that only one chunk's cell strings
# are alive at once.
DUMP_CHUNK_ROWS = 1 << 16
# Fields _float_fields hands _decimal_fields at a time, so that the
# kernel's temporaries (a few words per field) stay small and in cache.
DECIMAL_CHUNK_FIELDS = 1 << 14

_QUOTE, _COMMA, _CR, _LF, _MINUS, _DOT, _ZERO = b'",\r\n-.0'

# Where np.longdouble is the x87 80-bit format, _decimal_fields may round a
# quotient to its 64-bit significand first (see there). Both tables of
# powers of ten are exact, since 5**19 < 2**53.
_EXTENDED = np.finfo(np.longdouble).nmant == 63
_POW10 = 10.0 ** np.arange(20)
_POW10_EXTENDED = np.longdouble(10) ** np.arange(20)
_BYTES = 0x0101010101010101  # times a byte value: a word of 8 such bytes
_BYTE_MASKS = np.array([(1 << 8 * c) - 1 for c in range(9)], np.uint64)  # a word's first c bytes
# (mask, multiplier, shift) of the steps that sum the 8 digits of a word,
# the first digit in its first byte, into one number (Lemire 2021).
_DIGIT_SUMS = tuple((mask, scale << shift | 1, shift) for mask, scale, shift in (
    (0x0F0F0F0F0F0F0F0F, 10, 8), (0x00FF00FF00FF00FF, 100, 16), (0x0000FFFF0000FFFF, 10**4, 32)))


class Kind(Enum):
    NOMINAL = "nominal"
    CONTINUOUS = "continuous"


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


def schema_to_record(schema: list[AttributeSchema]) -> list[dict]:
    """The schema as the JSON list of {name, kind} that schema_from_record reads."""
    return [{"name": a.name, "kind": a.kind.value} for a in schema]


def schema_from_record(raw: list) -> list[AttributeSchema]:
    """The schema a JSON list of {name, kind} declares; a bad entry raises ParseError."""
    cols = []
    for entry in raw:
        try:
            if not isinstance(entry["name"], str):
                raise TypeError(f"name {entry['name']!r} is not a string")
            cols.append((entry["name"], Kind(entry["kind"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad schema entry {entry!r}: {exc}") from exc
    return make_schema(cols)


def load_schema(path: str | Path) -> list[AttributeSchema]:
    """Read a schema declaration file: a JSON list of {name, kind}."""
    with open(path, encoding="utf-8") as fh, parsing(path, "schema"):
        raw = json.load(fh)
    if not isinstance(raw, list):
        raise ParseError(f"schema file {path} must hold a JSON list")
    return schema_from_record(raw)


def dump_schema(schema: list[AttributeSchema], path: str | Path) -> None:
    write_json(path, schema_to_record(schema))


def _parse_cells(cells) -> tuple[np.ndarray, dict[int, str]]:
    """float() of each cell as a float64 vector. A cell float() rejects
    reads NaN, and the reason is kept under its position."""
    try:
        return np.array(cells, dtype=np.float64), {}
    except (TypeError, ValueError):
        pass
    values = np.empty(len(cells))
    failed = {}
    for i, cell in enumerate(cells):
        try:
            values[i] = float(cell)
        except (TypeError, ValueError):
            values[i] = np.nan
            failed[i] = f"non-numeric value {cell!r}"
    return values, failed


def _first_bad(values: np.ndarray, failed: dict[int, str]) -> tuple[int, str] | None:
    """(position, reason) of the first value of _parse_cells' result that is
    not a finite number, or None."""
    finite = np.isfinite(values)
    if finite.all():
        return None
    i = int(np.argmin(finite))
    return i, failed.get(i, f"non-finite value {float(values[i])}")


def _member_ids(cells, lookup: dict[str, int]) -> np.ndarray:
    """Ids of the member strings `cells` under `lookup`, which first gains
    the next free id for each member it lacks. The ids are provisional;
    _sorted_members renumbers them once the column is complete."""
    for member in set(cells).difference(lookup):
        lookup[member] = len(lookup)
    return np.fromiter(map(lookup.__getitem__, cells), np.int32, len(cells))


def _sorted_members(ids: np.ndarray, lookup: dict[str, int]) -> tuple[np.ndarray, tuple[str, ...]]:
    """`ids` renumbered so that id k is the k-th member in sorted order,
    and the members in that order. `lookup` maps each member to its
    provisional id; a member whose id does not occur in `ids` is left out."""
    seen = np.bincount(ids, minlength=len(lookup)) > 0
    members = tuple(sorted(m for m, i in lookup.items() if seen[i]))
    rank = np.empty(len(seen), dtype=np.int32)
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
        columns take sequences of non-empty strings (other values go through
        str), dictionary-encoded here with ids in sorted member order. A
        non-numeric, NaN or infinite continuous value or an empty member
        raises ParseError.
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
                arrays[attr.name], failed = _parse_cells(vals)
                bad = _first_bad(arrays[attr.name], failed)
                if bad is not None:
                    raise ParseError(
                        f"{bad[1]} at index {bad[0]} of continuous column {attr.name!r}"
                    )
            else:
                lookup: dict[str, int] = {}
                ids = _member_ids(list(map(str, vals)), lookup)
                if "" in lookup:  # load_csv would read it as a null
                    i = int(np.argmax(ids == lookup[""]))
                    raise ParseError(
                        f"empty member at index {i} of nominal column {attr.name!r}"
                    )
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


def _record_blocks(fh):
    """The bytes of `fh` as uint8 blocks of whole records, about
    CSV_BLOCK_BYTES each: yields (buf, quotes, ends), the positions of the
    block's quotes and of its record ends. A record ends at a LF with an
    even number of quotes before it in the block, and each block starts
    right after a record end, so a block's parity starts even. The bytes
    after a block's last record end are carried into the next block with
    their quote positions, so they are not scanned again. A record longer
    than a block is read on until it ends; of the blocks that hold no
    record end only the quote parity is kept, and the record's bytes are
    read back from the file and scanned once more when its end is found. A final record without
    a LF gets one appended, which ends it even when its quotes do not pair
    up, so that _split_fields can name the fault. Quotes that do not pair
    up by the end of the file are a fault whatever follows, so of such a
    record that outgrew a block only its first block is read back, and on
    to the end of the line that block ends in. The fault named is the
    first one in those bytes, read as the whole record: exact when it lies
    in a field that ends there, else in the right row."""
    head, head_quotes = b"", np.empty(0, np.intp)  # the record after the last record end
    start = parity = 0  # its file offset, and the parity of its quotes when head is None
    while data := fh.read(CSV_BLOCK_BYTES):
        chunk = np.frombuffer(data, np.uint8)
        quotes = np.flatnonzero(chunk == _QUOTE)
        lfs = np.flatnonzero(chunk == _LF)
        ends = lfs[((np.searchsorted(quotes, lfs) + parity) & 1) == 0]
        if not len(ends):
            head, parity = None, (parity + len(quotes)) & 1
            continue
        at = fh.tell() - len(data)  # the file offset of data
        if head is None:
            fh.seek(start)
            head = fh.read(at - start)
            fh.seek(at + len(data))
            head_quotes = np.flatnonzero(np.frombuffer(head, np.uint8) == _QUOTE)
        cut = int(ends[-1]) + 1
        buf = np.frombuffer(head + data[:cut], np.uint8)
        yield buf, np.concatenate((head_quotes, quotes[quotes < cut] + len(head))), ends + len(head)
        head, head_quotes = data[cut:], quotes[quotes >= cut] - cut
        start, parity = at + cut, len(head_quotes) & 1
    if head is None:
        fh.seek(start)
        head = fh.read(CSV_BLOCK_BYTES) + fh.readline() if parity else fh.read()
        head_quotes = np.flatnonzero(np.frombuffer(head, np.uint8) == _QUOTE)
    if head:
        yield np.frombuffer(head + b"\n", np.uint8), head_quotes, np.array([len(head)])


def _split_fields(buf, quotes, ends):
    """The fields of a block's records, as byte ranges.

    Returns (starts, stops, first, widths, fault). Fields are in record
    order, and record i's fields begin at index first[i] (first[-1] is the
    field count). A comma is a separator only with an even number of quotes
    before it. A record's width is its number of fields, 0 for a blank
    line, which still takes one empty field slot. A CR before a record's LF
    belongs to no field. `fault` is (record, field in record, reason) for
    the first field that breaks the quote grammar, else None: a quote in a
    field that does not start with one, text after the closing quote, or a
    quote that is never closed.
    """
    commas = np.flatnonzero(buf == _COMMA)
    commas = commas[(np.searchsorted(quotes, commas) & 1) == 0]
    rec_starts = np.concatenate(([0], ends[:-1] + 1))
    rec_stops = ends - ((ends > rec_starts) & (buf[ends - 1] == _CR))
    slots = np.diff(np.searchsorted(commas, ends), prepend=0) + 1
    first = np.concatenate(([0], np.cumsum(slots)))
    last = first[1:] - 1
    stops = np.empty(first[-1], np.int64)
    inner = np.ones(len(stops), bool)
    inner[last] = False
    stops[inner] = commas
    stops[last] = rec_stops
    starts = np.empty_like(stops)
    starts[1:] = stops[:-1] + 1
    starts[first[:-1]] = rec_starts
    widths = np.where(rec_stops > rec_starts, slots, 0)

    # Within a well-formed quoted field the quotes are the opening one (rank
    # 0), doubled pairs at ranks (1, 2), (3, 4), ... and the closing one at
    # its last byte; a field that does not start with a quote has none.
    owner = np.searchsorted(starts, quotes, "right") - 1
    before = np.searchsorted(quotes, starts[owner])
    count = np.searchsorted(quotes, stops[owner]) - before
    rank = np.arange(len(quotes)) - before
    paired = np.append(quotes[1:] == quotes[:-1] + 1, False)
    quoted = buf[starts[owner]] == _QUOTE
    reasons = (
        (~quoted, "quote inside an unquoted field"),
        (quoted & (count % 2 == 1) & (rank == count - 1), "unterminated quote"),
        ((rank == count - 1) & (quotes != stops[owner] - 1), "text after a closing quote"),
        ((rank % 2 == 1) & (rank < count - 1) & ~paired, "text after a closing quote"),
    )
    faults = [(np.argmax(bad), reason) for bad, reason in reasons if bad.any()]
    if not faults:
        return starts, stops, first, widths, None
    q, reason = min(faults, key=lambda f: f[0])
    field = owner[q]
    record = int(np.searchsorted(first, field, "right")) - 1
    return starts, stops, first, widths, (record, int(field - first[record]), reason)


def _by_length(buf, starts, stops):
    """For each byte length n among the fields: the positions of the fields
    of length n, and their bytes as a (count, n) uint8 array."""
    size = stops - starts
    for n in np.flatnonzero(np.bincount(size)).tolist():
        at = np.flatnonzero(size == n)
        yield at, np.lib.stride_tricks.sliding_window_view(buf, n)[starts[at]]


def _text(raw: bytes) -> str:
    """A well-formed field's text: unquoted, then decoded as UTF-8."""
    if raw[:1] == b'"':
        raw = raw[1:-1].replace(b'""', b'"')
    return raw.decode("utf-8")


def _decimal_fields(buf, starts, stops) -> tuple[np.ndarray, np.ndarray]:
    """float() of the fields of the form -?digits[.digits] with 1 to 19
    ASCII digits: (values, exact), where exact marks each field whose value
    is proven to be float()'s. Elsewhere values is arbitrary.

    The 24 bytes that end a field are read as three little-endian words,
    the bytes before the field and its sign as "0", and xor with "0" turns
    each digit into its value. The bytes before the dot move one byte up,
    over it, so the words hold the digits right-aligned, and three
    multiplications per word sum its 8 digits (Lemire 2021). That gives the
    significand m < 10**19 and the k digits after the dot of the value
    m / 10**k, which one of two routes rounds as float() does:

    - Clinger's fast path (1990): for m <= 2**53, float64(m) / 10.0**k is
      one correctly rounded division of two exact doubles (k <= 19 < 23).
    - Where _EXTENDED holds, the quotient of the exact longdoubles m and
      10**k rounds once, to a 64-bit significand, and then once more, to
      float64. The result is the correctly rounded one unless the first
      quotient lies on a float64 midpoint, its low 11 bits 0b10000000000,
      after an inexact division; such fields are not proven (k == 0 is
      exact).

    A field that ends within the first 24 bytes of `buf` is not proven
    either; _float_fields converts the fields this leaves.
    """
    if len(buf) < 24:
        return np.empty(len(starts)), np.zeros(len(starts), bool)
    size = stops - starts
    neg = buf[starts] == _MINUS
    lead = 24 - size + neg  # bytes of the 24 read as "0"
    words = np.ndarray((len(buf) - 7,), "<u8", buf, 0, (1,))  # the 8 bytes from each offset
    at = np.maximum(stops - 24, 0)
    digits, dots = [], []  # dots: 1 in each "." byte
    for j in range(3):
        fill = _BYTE_MASKS.take(lead - 8 * j, mode="clip")
        digits.append((words[at + 8 * j] | fill) ^ (_ZERO * _BYTES | fill))
        t = digits[-1] ^ (_DOT ^ _ZERO) * _BYTES
        dots.append(~(((t & 0x7F * _BYTES) + 0x7F * _BYTES) | t | 0x7F * _BYTES) >> 7)
    n_dots = (dots[0] + dots[1] + dots[2]) * _BYTES >> 56
    count = size - neg - (n_dots == 1)  # digits, if there is at most one dot
    exact = (stops >= 24) & (n_dots <= 1) & (count >= 1) & (count <= 19)
    m = np.zeros(len(starts), np.uint64)
    k = np.zeros(len(starts), np.uint64)  # per byte lane, the words where it follows the dot
    later = [dots[0] | dots[1] | dots[2], dots[1] | dots[2], dots[2]]  # word j's dot or a later one
    for j in range(3):
        moves = later[j] != 0
        before = (dots[j] - 1) * moves  # the bytes before the dot, all if it lies later
        after = ~(before | dots[j] * 0xFF)
        k += after & _BYTES
        word = (digits[j] & after) | ((digits[j] & before) << 8)
        if j:
            word |= (digits[j - 1] >> 56) * moves
        exact &= (((word + 0x76 * _BYTES) | word) & 0x80 * _BYTES) == 0  # each byte below 10
        for mask, multiplier, shift in _DIGIT_SUMS:
            word = (word & mask) * multiplier >> shift
        m = m * 10**8 + word
    k = np.where(exact, (k * _BYTES >> 56) % 24, 0)  # 24 bytes follow no dot
    values = m.astype(np.float64) / _POW10[k]
    if _EXTENDED:
        slow = np.flatnonzero(exact & (m > 2**53))
        quotient = m[slow].astype(np.longdouble) / _POW10_EXTENDED[k[slow]]
        values[slow] = quotient
        low = quotient.view(np.uint16)[:: quotient.itemsize // 2]  # the significand's low bits
        exact[slow] = ((low & 0x7FF) != 0x400) | (k[slow] == 0)  # m itself rounds once
    else:
        exact &= m <= 2**53
    np.negative(values, out=values, where=neg)
    return values, exact


def _float_fields(buf, starts, stops) -> tuple[np.ndarray, tuple[int, str] | None]:
    """float() of each field's text, and (position, reason) of the first
    field that is not a finite number, or None. _decimal_fields converts
    the plain decimals it can prove; the other fields are cast in groups of
    one byte length, as exact S{len} arrays, and only a group that numpy
    rejects, such as one holding a quoted field, goes through float() one
    field at a time."""
    values, exact = np.empty(len(starts)), np.empty(len(starts), bool)
    for lo in range(0, len(starts), DECIMAL_CHUNK_FIELDS):
        part = slice(lo, lo + DECIMAL_CHUNK_FIELDS)
        values[part], exact[part] = _decimal_fields(buf, starts[part], stops[part])
    rest = np.flatnonzero(~exact)
    failed: dict[int, str] = {}
    for at, grid in _by_length(buf, starts[rest], stops[rest]):
        at = rest[at]
        if grid[:, -1].all():  # an S cell drops trailing NUL bytes, which float() rejects
            try:
                values[at] = grid.view(f"S{grid.shape[1]}")[:, 0].astype(np.float64)
                continue
            except ValueError:
                pass
        group, group_failed = _parse_cells([_text(raw.tobytes()) for raw in grid])
        values[at] = group
        failed.update((int(at[i]), reason) for i, reason in group_failed.items())
    return values, _first_bad(values, failed)


def _member_fields(buf, starts, stops, lookup: dict[str, int]) -> np.ndarray:
    """Provisional member ids of the fields under `lookup`, as _member_ids
    gives them. Fields are keyed by their exact bytes in groups of one byte
    length: a uint64 for up to 8 bytes, V{len} beyond. Only each distinct
    key is unquoted and decoded, so a quoted and an unquoted spelling of one
    member share its id."""
    codes = np.empty(len(starts), np.int64)
    keys: list[bytes] = []
    for at, grid in _by_length(buf, starts, stops):
        n = grid.shape[1]
        if n <= 8:
            padded = np.zeros((len(at), 8), np.uint8)
            padded[:, :n] = grid
            uniq, inverse = np.unique(padded.view("<u8")[:, 0], return_inverse=True)
            uniq = uniq.view(np.uint8).reshape(-1, 8)[:, :n]
        else:
            uniq, inverse = np.unique(grid.view(f"V{n}")[:, 0], return_inverse=True)
            uniq = uniq.view(np.uint8).reshape(-1, n)
        codes[at] = len(keys) + inverse
        keys.extend(key.tobytes() for key in uniq)
    return _member_ids([_text(key) for key in keys], lookup)[codes]


def load_csv(path: str | Path, schema: list[AttributeSchema]) -> Dataset:
    """Load a header-first, comma-separated RFC-4180 CSV file into a Dataset.

    The file must be UTF-8. Records end at LF or CRLF, the last one may
    lack it, and a field is either plain text without quotes, commas, CR
    or LF, or a quoted field, in which a doubled quote stands for one
    quote. The header must name the `schema` attributes in order, exactly.
    Empty cells (also "") are nulls: a row that holds one is dropped, and
    the number of dropped rows is logged at INFO. A row of the wrong
    width, a blank line or a quote outside this grammar raises
    MalformedRow; invalid UTF-8, or a non-numeric, NaN or infinite value in
    a continuous column, raises ParseError. Each names the data row
    (1-based, dropped rows counted) and the column, and the first faulty
    row in the file is the one reported; of a record whose quotes are
    still open at the end of the file, only the row is certain (see
    _record_blocks).

    The file is read in blocks of about CSV_BLOCK_BYTES, each cut after its
    last record end. Separators, field ranges, widths and nulls are found
    with array operations over a block's bytes. Continuous fields get the
    bits float() gives: a plain decimal of 1 to 19 digits is converted with
    integer arithmetic and one rounding proven to be float()'s (see
    _decimal_fields), and any other field is cast in a group of one byte
    length or, failing that, read by float() (see _float_fields). Nominal
    fields are keyed by their bytes so that only distinct values are
    decoded in Python.
    """
    width = len(schema)
    declared = [a.name for a in schema]
    lookups: dict[str, dict[str, int]] = {a.name: {} for a in schema if a.kind is Kind.NOMINAL}
    parts = {a.name: [np.empty(0, np.int32 if a.name in lookups else np.float64)] for a in schema}
    dropped = 0
    row = 0  # file row of the block's first record; the header is row 0

    def field_name(k):
        return f"column {declared[k]!r}" if k < width else f"field {k + 1}"

    def record_name(rec):
        return "header" if row + rec == 0 else f"row {row + rec}"

    with open(path, "rb") as fh:
        for buf, quotes, ends in _record_blocks(fh):
            starts, stops, first, widths, fault = _split_fields(buf, quotes, ends)
            # Records from `faulty` on are not loaded; `error` names the
            # first fault found so far, and an earlier one replaces it.
            faulty, error = len(ends), None
            if fault is not None:
                faulty, k, reason = fault
                error = MalformedRow(f"{path}: {record_name(faulty)}, {field_name(k)}: {reason}")
            # UTF-8 never splits a character at an ASCII byte, so decoding the
            # records before `faulty` whole checks each of their fields.
            try:
                buf[: ends[faulty - 1] + 1 if faulty else 0].tobytes().decode("utf-8")
            except UnicodeDecodeError as exc:
                faulty = int(np.searchsorted(ends, exc.start))
                k = int(np.searchsorted(starts, exc.start, "right")) - 1 - int(first[faulty])
                error = ParseError(
                    f"{path}: invalid UTF-8 at {record_name(faulty)}, {field_name(k)}"
                )
            lo = 0
            if row == 0:
                if faulty == 0:
                    raise error
                head = [_text(buf[a:b].tobytes()) for a, b in
                        zip(starts[: widths[0]].tolist(), stops[: widths[0]].tolist())]
                if head != declared:  # exact, so names with surrounding whitespace load back
                    raise MalformedRow(
                        f"{path}: header names {', '.join(map(repr, head))} do not match "
                        f"declared attributes {', '.join(map(repr, declared))}"
                    )
                lo = 1
            wrong = np.flatnonzero(widths[lo:faulty] != width)
            if len(wrong):
                faulty = lo + int(wrong[0])
                error = MalformedRow(
                    f"{path}: {record_name(faulty)} has {widths[faulty]} fields, expected {width}"
                )
            span = slice(first[lo], first[lo] + (faulty - lo) * width)
            cell_starts = starts[span].reshape(faulty - lo, width)
            cell_stops = stops[span].reshape(faulty - lo, width)
            size = cell_stops - cell_starts
            null = (size == 0) | ((size == 2) & (buf[cell_starts] == _QUOTE))
            kept = np.flatnonzero(~null.any(axis=1))
            bad_cells = []
            for k, attr in enumerate(schema):
                fields = (buf, cell_starts[kept, k], cell_stops[kept, k])
                if attr.kind is Kind.CONTINUOUS:
                    values, bad = _float_fields(*fields)
                    if bad is not None:
                        bad_cells.append((bad[0], k, bad[1]))
                else:
                    values = _member_fields(*fields, lookups[attr.name])
                parts[attr.name].append(values)
            if bad_cells:
                i, k, reason = min(bad_cells)
                raise ParseError(f"{reason} at {record_name(lo + int(kept[i]))}, "
                                 f"{field_name(k)} of {path}")
            if error is not None:
                raise error
            dropped += len(null) - len(kept)
            row += len(ends)
    if row == 0:
        raise MalformedRow(f"{path}: empty file but header expected")

    if dropped:
        logger.info("load_csv(%s): dropped %d rows containing nulls", path, dropped)
    columns = {name: np.concatenate(p) for name, p in parts.items()}
    members = {}
    for name, lookup in lookups.items():
        columns[name], members[name] = _sorted_members(columns[name], lookup)
    return Dataset(schema, columns, members, row - 1 - dropped)


def _csv_field(text: str) -> str:
    """A non-empty `text` as csv.writer writes it as a field of a row."""
    out = io.StringIO()
    csv.writer(out).writerow([text])
    return out.getvalue()[:-2]


def dump_csv(ds: Dataset, path: str | Path) -> None:
    """Write a Dataset back out as a header-first CSV file, the bytes
    csv.writer writes, DUMP_CHUNK_ROWS rows at a time.

    The header goes through csv.writer. Each chunk is then joined into one
    string: continuous cells use repr(float), which round-trips exactly
    through load_csv and never needs quoting, and each distinct member
    (never empty) is quoted once, up front.
    """
    members = {
        a.name: np.array([_csv_field(m) for m in ds.members(a.name)], dtype=object)
        for a in ds.schema if a.kind is Kind.NOMINAL
    }
    with atomic_open(path, newline="") as fh:
        csv.writer(fh).writerow([a.name for a in ds.schema])
        for start in range(0, ds.row_count, DUMP_CHUNK_ROWS):
            rows = slice(start, start + DUMP_CHUNK_ROWS)
            columns = [
                map(repr, ds.continuous_values(a.name)[rows].tolist())
                if a.kind is Kind.CONTINUOUS
                else members[a.name][ds.nominal_id_values(a.name)[rows]].tolist()
                for a in ds.schema
            ]
            fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def continuous_stats(ds: Dataset, attr: str) -> ContinuousStats:
    """Five-number summary of a continuous attribute.

    Quartiles are computed by linear interpolation between the closest
    order statistics, so repeating the call (or shuffling the rows)
    always yields the same numbers. The summary is computed once per
    Dataset and kept by it.
    """
    values = ds.continuous_values(attr)
    if ds.row_count == 0:
        raise EmptyDataset(f"cannot compute stats of {attr!r} on an empty dataset")
    return ds.derived(
        ("continuous_stats", attr),
        lambda: ContinuousStats(
            *np.percentile(values, [0.0, 25.0, 50.0, 75.0, 100.0], method="linear").tolist()
        ),
    )

