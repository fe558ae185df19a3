"""Columnar store: CSV parsing, typing, stats and immutability."""

import csv
import io
import math
import re
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import aqplearn
from aqplearn import (
    AggregationFunction,
    AggregationTarget,
    BetweenFilter,
    Dataset,
    GroupByQuery,
    Kind,
    column_entropy,
    continuous_stats,
    dump_csv,
    dump_schema,
    execute_groupby,
    load_csv,
    load_schema,
    make_schema,
    store,
    synth,
)
from aqplearn.errors import (
    EmptyDataset,
    MalformedRow,
    ParseError,
    UnknownAttribute,
    WrongKind,
)
from aqplearn.store import DUMP_CHUNK_ROWS, _decimal_fields


def one_column(values) -> Dataset:
    schema = make_schema([("x", Kind.CONTINUOUS)])
    return Dataset.from_columns(schema, {"x": list(values)})


# -- a reference CSV reader, built from Python's csv module ---------------------

def reference_load(path, schema) -> Dataset:
    """What load_csv must return or raise for an RFC-4180 file: csv.reader
    splits the records, each row is checked in file order (width, then
    nulls, which drop the row, then each continuous cell in column order),
    and from_columns builds the table from the kept rows."""
    names = [a.name for a in schema]
    with open(path, newline="", encoding="utf-8") as fh:
        head, *rows = csv.reader(fh)
    assert head == names
    kept = []
    for n, row in enumerate(rows, 1):
        if len(row) != len(schema):
            raise MalformedRow(f"{path}: row {n} has {len(row)} fields, expected {len(schema)}")
        if "" in row:
            continue
        for attr, cell in zip(schema, row):
            if attr.kind is Kind.CONTINUOUS:
                where = f"at row {n}, column {attr.name!r} of {path}"
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(f"non-numeric value {cell!r} {where}") from None
                if not math.isfinite(value):
                    raise ParseError(f"non-finite value {value} {where}")
        kept.append(row)
    return Dataset.from_columns(schema, {
        a.name: [float(r[a.index]) if a.kind is Kind.CONTINUOUS else r[a.index] for r in kept]
        for a in schema
    })


MEMBERS = ["a", "b", "b,c", 'say "hi"', "two\nlines", "cr\r\nlf", "\u00fcml\u00e4ut",
           "a member over eight bytes", "\u65e5\u672c\u8a9e\u306e\u30e1\u30f3\u30d0", " pad ", '"']
NUMBERS = ["1", "-2.5", "1e3", " 7 ", "1_0", "0.1", "3.141592653589793", "-0.0", "Infinity", "nan",
           "abc", "1.5.2"]


def random_csv(rng, schema, n_rows) -> str:
    """An RFC-4180 file over `schema`: random quoting, LF or CRLF record
    ends, optional final newline, nulls, bad numbers and rows of the wrong
    width at low rates."""
    def field(text):
        if any(c in text for c in ',"\r\n') or rng.random() < 0.2:
            return '"' + text.replace('"', '""') + '"'
        return text

    def cell(attr):
        if rng.random() < 0.04:
            return ""
        if attr.kind is Kind.NOMINAL:
            return MEMBERS[rng.integers(len(MEMBERS))]
        if rng.random() < 0.03:
            return NUMBERS[rng.integers(len(NUMBERS))]
        return repr(float(rng.normal(0.0, 10.0 ** rng.integers(-3, 6))))

    records = [",".join(field(a.name) for a in schema)]
    for _ in range(n_rows):
        cells = [cell(a) for a in schema]
        if rng.random() < 0.01:
            cells.append("extra")
        records.append(",".join(map(field, cells)))
    ends = ["\n", "\r\n"]
    text = "".join(r + ends[rng.integers(2)] for r in records)
    return text if rng.random() < 0.5 else text.rstrip("\r\n")


def outcome(load, *args):
    try:
        return load(*args)
    except (MalformedRow, ParseError) as exc:
        return type(exc), str(exc)


def assert_same_table(ds, ref):
    assert ds.row_count == ref.row_count
    for attr in ref.schema:
        if attr.kind is Kind.CONTINUOUS:
            got, want = ds.continuous_values(attr.name), ref.continuous_values(attr.name)
        else:
            assert ds.members(attr.name) == ref.members(attr.name)
            got, want = ds.nominal_id_values(attr.name), ref.nominal_id_values(attr.name)
        assert got.tobytes() == want.tobytes()


class TestContinuousStats:
    def test_uniform_1_to_1000(self):
        """Quartiles of {1..1000} by linear interpolation: the q-th quartile
        sits at order-statistic position 1 + q/4 * 999."""
        ds = one_column(range(1, 1001))
        st = continuous_stats(ds, "x")
        assert (st.min, st.q1, st.median, st.q3, st.max) == (1.0, 250.75, 500.5, 750.25, 1000.0)

    def test_five_values(self):
        st = continuous_stats(one_column([1, 2, 3, 4, 5]), "x")
        assert (st.min, st.q1, st.median, st.q3, st.max) == (1.0, 2.0, 3.0, 4.0, 5.0)

    def test_constant_column(self):
        st = continuous_stats(one_column([7.0] * 12), "x")
        assert (st.min, st.q1, st.median, st.q3, st.max) == (7.0,) * 5

    def test_row_order_invariance(self):
        values = [3.0, 141.0, 5.0, 9.0, 26.0, 53.0, 58.0, 97.0]
        a = continuous_stats(one_column(values), "x")
        b = continuous_stats(one_column(values[::-1]), "x")
        assert a == b

    def test_intervals_cover_range(self):
        st = continuous_stats(one_column(range(1, 101)), "x")
        iv = st.intervals()
        assert len(iv) == 4
        assert iv[0][0] == st.min and iv[-1][1] == st.max
        for (_, hi), (lo, _) in zip(iv, iv[1:]):
            assert hi == lo

    def test_empty_dataset_rejected(self):  # on every call, not only the first
        ds = one_column([])
        for _ in range(2):
            with pytest.raises(EmptyDataset):
                continuous_stats(ds, "x")

    def test_computed_once_per_dataset(self, monkeypatch):
        ds = one_column([3.0, 1.0, 2.0])
        first = continuous_stats(ds, "x")
        monkeypatch.setattr(np, "percentile", None)  # a second computation would fail
        assert continuous_stats(ds, "x") is first
        with pytest.raises(TypeError):
            continuous_stats(one_column([3.0, 1.0, 2.0]), "x")


class TestDataset:
    def test_kinds_and_members(self, transactions):
        assert transactions.row_count == 10
        assert transactions.kind_of("region") is Kind.NOMINAL
        assert transactions.kind_of("sales") is Kind.CONTINUOUS
        assert transactions.members("region") == ("east", "north", "south", "west")
        assert transactions.member_id("region", "south") == 2
        assert transactions.member_id("region", "atlantis") is None

    def test_row_order_changes_no_member_id_entropy_or_group(self):
        """Member ids follow sorted member order, so two tables holding the
        same rows in different orders agree on members, on each row's
        id-to-member mapping, on entropy bit for bit, and on group-by rows."""
        rng = np.random.default_rng(5)
        n = 300
        columns = {
            "g": [f"m{v}" for v in rng.integers(0, 7, n)],
            "h": [("zeta", "alpha", "mu")[v] for v in rng.integers(0, 3, n)],
            "x": rng.integers(0, 100, n).astype(float),  # integers: sums are exact in any order
        }
        columns["h"][0] = "zeta"  # first occurrence and sorted order disagree
        schema = make_schema([("g", Kind.NOMINAL), ("h", Kind.NOMINAL), ("x", Kind.CONTINUOUS)])
        perm = rng.permutation(n)
        a = Dataset.from_columns(schema, columns)
        b = Dataset.from_columns(schema, {k: [v[i] for i in perm] for k, v in columns.items()})
        for attr in ("g", "h"):
            assert a.members(attr) == b.members(attr) == tuple(sorted(set(columns[attr])))
            np.testing.assert_array_equal(b.nominal_id_values(attr), a.nominal_id_values(attr)[perm])
        for attr in ("g", "h", "x"):
            assert column_entropy(a, attr) == column_entropy(b, attr)
        targets = [AggregationTarget(f, "x") for f in AggregationFunction]
        gq = GroupByQuery(targets, (BetweenFilter("x", 10.0, 80.0),), ("h", "g"))
        assert execute_groupby(a, gq) == execute_groupby(b, gq)

    def test_unknown_attribute(self, transactions):
        with pytest.raises(UnknownAttribute):
            transactions.attribute("price")

    def test_kind_enforcement(self, transactions):
        with pytest.raises(WrongKind):
            transactions.continuous_values("region")
        with pytest.raises(WrongKind):
            transactions.nominal_id_values("sales")

    def test_columns_are_immutable(self, transactions):
        with pytest.raises(ValueError):
            transactions.continuous_values("sales")[0] = 0.0
        with pytest.raises(ValueError):
            transactions.nominal_id_values("region")[0] = 0

    def test_derived_is_built_once_for_concurrent_callers(self, transactions):
        calls = []

        def build():
            calls.append(1)
            time.sleep(0.01)  # widen the window in which a second build could start
            return object()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(lambda _: transactions.derived("key", build), range(32),
                                    timeout=30))
        finally:
            sys.setswitchinterval(interval)
        assert len(calls) == 1
        assert all(g is got[0] for g in got)

    def test_mismatched_column_lengths(self):
        schema = make_schema([("x", Kind.CONTINUOUS), ("g", Kind.NOMINAL)])
        with pytest.raises(MalformedRow):
            Dataset.from_columns(schema, {"x": [1.0, 2.0], "g": ["a"]})

    def test_missing_column(self):
        schema = make_schema([("x", Kind.CONTINUOUS)])
        with pytest.raises(UnknownAttribute):
            Dataset.from_columns(schema, {})

    def test_empty_member_rejected(self):
        """load_csv reads an empty cell as a null, so a table holding an empty
        member would lose that row on a dump and load."""
        schema = make_schema([("g", Kind.NOMINAL), ("x", Kind.CONTINUOUS)])
        with pytest.raises(ParseError, match=r"index 1 of nominal column 'g'"):
            Dataset.from_columns(schema, {"g": ["a", "", "b"], "x": [1.0, 2.0, 3.0]})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_rejected(self, value):
        with pytest.raises(ParseError, match=r"index 1 .*'x'"):
            one_column([1.0, value, 2.0])


class TestLoadCsv:
    def test_round_trip(self, transactions_csv, transactions):
        path, schema_path = transactions_csv
        ds = load_csv(path, load_schema(schema_path))
        assert ds.row_count == transactions.row_count
        np.testing.assert_array_equal(
            ds.continuous_values("sales"), transactions.continuous_values("sales")
        )
        assert ds.members("region") == transactions.members("region")

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        schema = make_schema([("x", Kind.CONTINUOUS), ("y", Kind.CONTINUOUS)])
        with pytest.raises(MalformedRow):
            load_csv(path, schema)

    def test_wrong_arity_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n3\n")
        schema = make_schema([("x", Kind.CONTINUOUS), ("y", Kind.CONTINUOUS)])
        with pytest.raises(MalformedRow, match="row 2"):
            load_csv(path, schema)

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x\n1\nabc\n")
        schema = make_schema([("x", Kind.CONTINUOUS)])
        with pytest.raises(ParseError, match=r"row 2.*'x'"):
            load_csv(path, schema)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"g,x\na,1\nb,\nc,{cell}\nd,2\n")  # row 2 is dropped for its null
        schema = make_schema([("g", Kind.NOMINAL), ("x", Kind.CONTINUOUS)])
        with pytest.raises(ParseError, match=r"row 3, column 'x'"):
            load_csv(path, schema)

    def test_chunks_equal_from_columns(self, tmp_path, monkeypatch):
        """A file read 16 bytes at a time, whose members first appear in
        later blocks and out of sorted order, with a dropped row, loads to
        the table from_columns builds from the kept rows."""
        monkeypatch.setattr("aqplearn.store.CSV_BLOCK_BYTES", 16)
        rng = np.random.default_rng(1)
        n = 23
        g = ["k"] * 5 + [("k", "b", "x", "a")[v] for v in rng.integers(0, 4, n - 5)]
        x = rng.normal(0.0, 1e3, n)
        h = [f"h{v}" for v in rng.integers(0, 3, n)]
        lines = ["g,x,h", *(f"{g[i]},{float(x[i])!r},{h[i]}" for i in range(n))]
        lines[10] = "b,,h9"  # data row 10 is dropped for its null; h9 appears nowhere else
        path = tmp_path / "chunks.csv"
        path.write_text("\n".join(lines) + "\n")
        schema = make_schema([("g", Kind.NOMINAL), ("x", Kind.CONTINUOUS), ("h", Kind.NOMINAL)])

        ds = load_csv(path, schema)
        kept = [i for i in range(n) if i != 9]
        ref = Dataset.from_columns(
            schema, {"g": [g[i] for i in kept], "x": x[kept], "h": [h[i] for i in kept]}
        )
        assert ds.row_count == ref.row_count == n - 1
        assert ds.continuous_values("x").tobytes() == ref.continuous_values("x").tobytes()
        for attr in ("g", "h"):
            assert ds.members(attr) == ref.members(attr)
            np.testing.assert_array_equal(ds.nominal_id_values(attr), ref.nominal_id_values(attr))
        assert ds.members("g") == ("a", "b", "k", "x")

    @pytest.mark.parametrize("cell, error, message", [
        ("abc", ParseError, r"non-numeric value 'abc' at row 7, column 'x'"),
        ("nan", ParseError, r"non-finite value nan at row 7, column 'x'"),
        ("-inf", ParseError, r"non-finite value -inf at row 7, column 'x'"),
        ("1.0,extra", MalformedRow, r"row 7 has 3 fields"),
    ])
    def test_bad_cell_past_the_first_chunk_names_its_file_row(self, tmp_path, monkeypatch,
                                                              cell, error, message):
        monkeypatch.setattr("aqplearn.store.CSV_BLOCK_BYTES", 16)
        rows = [f"m{i},{i}.5" for i in range(1, 10)]
        rows[4] = "m5,"  # data row 5, dropped in the chunk that holds the bad row
        rows[6] = f"m7,{cell}"
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(["g,x", *rows]) + "\n")
        schema = make_schema([("g", Kind.NOMINAL), ("x", Kind.CONTINUOUS)])
        with pytest.raises(error, match=message):
            load_csv(path, schema)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_rfc4180_files_load_as_the_csv_module_reads_them(self, tmp_path, monkeypatch,
                                                                   seed):
        """Records and quoted fields straddle blocks of a few bytes; columns,
        members and row_count are bit-equal to the reference's, and an error
        has the reference's type and message."""
        rng = np.random.default_rng(seed)
        monkeypatch.setattr("aqplearn.store.CSV_BLOCK_BYTES", int(rng.integers(1, 64)))
        schema = make_schema([("g", Kind.NOMINAL), ("x", Kind.CONTINUOUS), ("h", Kind.NOMINAL),
                              ("y", Kind.CONTINUOUS)][: int(rng.integers(1, 5))])
        path = tmp_path / "random.csv"
        path.write_bytes(random_csv(rng, schema, int(rng.integers(0, 60))).encode("utf-8"))
        got = outcome(load_csv, path, schema)
        want = outcome(reference_load, path, schema)
        if isinstance(want, Dataset):
            assert isinstance(got, Dataset), got
            assert_same_table(got, want)
        else:
            assert got == want

    @pytest.mark.parametrize("line, reason", [
        ('m2,a"b', "quote inside an unquoted field"),
        ('m2,"ab"c', "text after a closing quote"),
        ('m2,"a"b"', "text after a closing quote"),
        ('m2,"ab', "unterminated quote"),
        ("", "has 0 fields"),
    ])
    @pytest.mark.parametrize("block_bytes", [3, 1 << 22])
    def test_input_outside_rfc4180_names_its_row(self, tmp_path, monkeypatch, line, reason,
                                                 block_bytes):
        monkeypatch.setattr("aqplearn.store.CSV_BLOCK_BYTES", block_bytes)
        path = tmp_path / "bad.csv"
        path.write_text(f"g,h\nm1,a\n{line}\nm3,c\n")
        schema = make_schema([("g", Kind.NOMINAL), ("h", Kind.NOMINAL)])
        with pytest.raises(MalformedRow, match=f"row 2.*{reason}"):
            load_csv(path, schema)

    @pytest.mark.parametrize("n_rows", [5_000, 20_000])
    def test_stray_quote_is_named_in_constant_memory(self, tmp_path, monkeypatch, n_rows):
        """One stray opening quote in row 2 leaves the rest of the file an
        unended record; load_csv names it while holding a few blocks of it,
        however long the file."""
        block_bytes = 1 << 12
        monkeypatch.setattr("aqplearn.store.CSV_BLOCK_BYTES", block_bytes)
        ds = synth.make_benchmark_table(n_rows, 0)
        path = tmp_path / "stray.csv"
        dump_csv(ds, path)
        header, row1, row2, rest = path.read_bytes().split(b"\n", 3)
        region, channel = row2.split(b",", 1)
        path.write_bytes(b"\n".join([header, row1, region + b',"' + channel, rest]))
        assert path.stat().st_size > 50 * block_bytes
        tracemalloc.start()
        try:
            with pytest.raises(MalformedRow) as exc:
                load_csv(path, list(ds.schema))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == f"{path}: row 2, column 'channel': unterminated quote"
        assert peak < 16 * block_bytes

    @pytest.mark.parametrize("column", ["g", "x"])
    def test_invalid_utf8_names_row_and_column(self, tmp_path, column):
        cells = {"g": "m2", "x": "2.5"}
        cells[column] = b"\xff\xfe"
        path = tmp_path / "bad.csv"
        path.write_bytes(b"g,x\nm1,1.5\n" + b",".join(
            c if isinstance(c, bytes) else c.encode() for c in cells.values()) + b"\nm3,3.5\n")
        schema = make_schema([("g", Kind.NOMINAL), ("x", Kind.CONTINUOUS)])
        with pytest.raises(ParseError, match=f"invalid UTF-8 at row 2, column '{column}'"):
            load_csv(path, schema)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x\n")
        ds = load_csv(path, make_schema([("x", Kind.CONTINUOUS)]))
        assert ds.row_count == 0

    def test_null_policy_drop(self, tmp_path):
        path = tmp_path / "nulls.csv"
        path.write_text("x,g\n1,a\n,b\n3,c\n")
        schema = make_schema([("x", Kind.CONTINUOUS), ("g", Kind.NOMINAL)])
        ds = load_csv(path, schema)
        assert ds.row_count == 2
        np.testing.assert_array_equal(ds.continuous_values("x"), [1.0, 3.0])

    def test_dropping_the_row_is_the_one_null_policy(self, tmp_path):
        path = tmp_path / "nulls.csv"
        path.write_text("x,g\n1,a\n,b\n")
        schema = make_schema([("x", Kind.CONTINUOUS), ("g", Kind.NOMINAL)])
        with pytest.raises(TypeError, match="null_policy"):
            load_csv(path, schema, null_policy="reject")
        assert "NullPolicy" not in aqplearn.__all__ and not hasattr(store, "NullPolicy")

    def test_dump_then_load_is_identity(self, transactions, tmp_path):
        path = tmp_path / "out.csv"
        dump_csv(transactions, path)
        back = load_csv(path, list(transactions.schema))
        np.testing.assert_array_equal(
            back.continuous_values("units"), transactions.continuous_values("units")
        )
        assert back.members("category") == transactions.members("category")

    def test_dump_in_chunks_writes_what_csv_writer_writes(self, tmp_path, monkeypatch):
        monkeypatch.setattr("aqplearn.store.DUMP_CHUNK_ROWS", 3)
        schema = make_schema([("g", Kind.NOMINAL), ("x", Kind.CONTINUOUS)])
        g = ["b,c", 'say "hi"', "a", "two\nlines", "a", "\u00fcml\u00e4ut", "a"]
        x = [0.1, -2.5, 1e300, 3.0, 5e-324, 7.25, -0.0]
        ds = Dataset.from_columns(schema, {"g": g, "x": x})
        path = tmp_path / "out.csv"
        dump_csv(ds, path)
        want = tmp_path / "want.csv"
        with open(want, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([["g", "x"], *zip(g, map(repr, x))])
        assert path.read_bytes() == want.read_bytes()
        assert_same_table(load_csv(path, schema), ds)


# -- dump_csv against csv.writer -----------------------------------------------

# Text that csv.writer quotes, or that must pass through unquoted as it is.
AWKWARD = ["b,c", 'say "hi"', "c\rr", "l\nf", "cr\r\nlf", " lead", "trail ", "ümläut", "a"]


# -- the exact decimal kernel ---------------------------------------------------

def decimal_fields(fields: list[bytes]):
    """_decimal_fields over `fields`, laid out comma-separated after 24 bytes."""
    sizes = np.array([len(f) for f in fields], np.int64)
    starts = 24 + np.concatenate(([0], np.cumsum(sizes + 1)[:-1])).astype(np.int64)
    buf = np.frombuffer(b"x" * 24 + b",".join(fields) + b"\n", np.uint8)
    return _decimal_fields(buf, starts, starts + sizes)


def plain(field: bytes) -> bool:
    """Whether `field` is in the kernel's grammar: -?digits[.digits] with 1
    to 19 ASCII digits."""
    digits = sum(48 <= c <= 57 for c in field)
    return re.fullmatch(rb"-?[0-9]*\.?[0-9]*", field) is not None and 1 <= digits <= 19


def proven(fields: list[bytes]) -> np.ndarray:
    """Which fields _decimal_fields proves, each checked to be a plain
    decimal with the bits float() gives."""
    values, exact = decimal_fields(fields)
    at = np.flatnonzero(exact)
    want = np.array([float(fields[i]) for i in at])
    wrong = at[values[at].view(np.uint64) != want.view(np.uint64)]
    assert [fields[i] for i in wrong] == []
    assert all(plain(fields[i]) for i in at)
    return exact


def random_decimals(rng, n: int) -> tuple[list[bytes], np.ndarray]:
    """n fields of 1 to 20 random digits with a dot at any position or
    none, half of them with a "-", and each field's digit count."""
    counts = rng.integers(1, 21, n)
    dots = rng.integers(-1, counts + 1)  # -1: no dot
    signs = rng.random(n) < 0.5
    blob = rng.integers(ord("0"), ord("9") + 1, 20 * n, dtype=np.uint8).tobytes()
    fields = []
    for i, (c, d, neg) in enumerate(zip(counts.tolist(), dots.tolist(), signs.tolist())):
        digits = blob[20 * i : 20 * i + c]
        fields.append(b"-" * neg + (digits if d < 0 else digits[:d] + b"." + digits[d:]))
    return fields, counts


class TestDecimalFields:
    """_decimal_fields proves float()'s bits for the plain decimals it
    accepts, and load_csv reads every other field as before. The seeded
    cases below check over 1.2M fields against float()."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_repr_across_magnitudes(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(1.0, 10.0, (25, 8000)) * 10.0 ** np.arange(-12, 13)[:, None]
        values[:, ::2] *= -1
        fields = [repr(v).encode() for v in values.ravel().tolist()]
        exact = proven(fields)
        grammar = np.array([plain(f) for f in fields])
        assert not exact[~grammar].any()  # such as "1.5e-07"
        assert exact[grammar].mean() > 0.99

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_digit_strings_with_a_dot_anywhere(self, seed):
        fields, counts = random_decimals(np.random.default_rng(seed), 200_000)
        exact = proven(fields)
        assert not exact[counts > 19].any()
        assert exact[counts <= 19].mean() > 0.99

    @pytest.mark.parametrize("field", [
        "0", "-0", "-0.0", "000", "007.50", "-007.50", "1.", ".5", "-.5", "-1.", "0.5",
        ".0000000000000000001", "-.0000000000000000001", "0.000000000000000001",  # k = 19, 18
        "1234567890123456789", "-123456789.0123456789", "1234567890123456789.",
        "9007199254740992", "9007199254740992.0", "-9007199254740992",  # m = 2**53
        "9007199254740993",  # 2**53 + 1, a float64 midpoint, divided by 10**0
        "9999999999999999999", "18446744073709551615"[:19], "0.1", "0.3", "2.675",
        "686.8734353935042", "1.7976931348623157",
    ])
    def test_edge_cases_are_proven_with_float_bits(self, field):
        assert proven([field.encode()]).all()

    def test_negative_zero_keeps_its_sign(self):
        values, exact = decimal_fields([b"-0", b"-0.0", b"-.0", b"0"])
        assert exact.all()
        assert np.signbit(values).tolist() == [True, True, True, False]

    @pytest.mark.parametrize("field", [
        "9007199254740993.0", "9007199254740995.00", "-9007199254740993.0",
    ])
    def test_an_exact_midpoint_after_a_division_is_left_unproven(self, field):
        assert not proven([field.encode()]).any()

    def test_without_extended_precision_only_the_fast_path_proves(self, monkeypatch):
        fields = [b"9007199254740992", b"900719925474099.2", b"9007199254740993",
                  b"686.87343539350421", b"0.12345678901234567"]
        assert proven(fields).tolist() == [True, True, store._EXTENDED, store._EXTENDED,
                                           store._EXTENDED]
        monkeypatch.setattr(store, "_EXTENDED", False)
        assert proven(fields).tolist() == [True, True, False, False, False]

    OUTSIDE = ["-", ".", "-.", "1.2.3", "--1", "+1", "1e5", "1E5", " 1", "1 ", "1_0",
               "٣", "12345678901234567890", "-0.12345678901234567890", "1-", "0x10",
               "Infinity", "nan", '"1.5"', "1,5", "abc"]

    @pytest.mark.parametrize("field", OUTSIDE)
    def test_fields_outside_the_grammar_are_left_to_float(self, tmp_path, field):
        assert not decimal_fields([field.encode()])[1].any()
        schema = make_schema([("g", Kind.NOMINAL), ("x", Kind.CONTINUOUS)])
        path = tmp_path / "outside.csv"
        cell = field if '"' not in field and "," not in field else '"' + field.replace('"', '""') + '"'
        path.write_text("g,x\n" + "a,1.25\n" * 3 + f"b,{cell}\nc,2.5\n", encoding="utf-8")
        got, want = outcome(load_csv, path, schema), outcome(reference_load, path, schema)
        if isinstance(want, Dataset):
            assert_same_table(got, want)
        else:
            assert got == want

    def test_fields_within_the_first_24_bytes_are_left_unproven(self):
        buf = np.frombuffer(b"1.5,22.25,-3\n", np.uint8)
        starts, stops = np.array([0, 4, 10]), np.array([3, 9, 12])
        assert not _decimal_fields(buf, starts, stops)[1].any()
        # The first 24 bytes end in digits, which the first field must not read.
        buf = np.frombuffer(b"7,1.5,0123456789012345678,22.25\n", np.uint8)
        starts, stops = np.array([0, 2, 6, 26]), np.array([1, 5, 25, 31])
        values, exact = _decimal_fields(buf, starts, stops)
        assert exact.tolist() == [False, False, True, True]
        assert values[2:].tolist() == [123456789012345678.0, 22.25]

    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_extended_path_off_loads_the_same_columns(self, tmp_path, monkeypatch, seed):
        ds = synth.make_benchmark_table(20_000, seed)
        path = tmp_path / "bench.csv"
        dump_csv(ds, path)
        counts = []

        def counting(*args):
            values, exact = _decimal_fields(*args)
            counts[-1] += int(exact.sum())
            return values, exact

        monkeypatch.setattr(store, "_decimal_fields", counting)
        monkeypatch.setattr(store, "DECIMAL_CHUNK_FIELDS", 1000)
        loaded = []
        for extended in (store._EXTENDED, False):
            monkeypatch.setattr(store, "_EXTENDED", extended)
            counts.append(0)
            loaded.append(load_csv(path, list(ds.schema)))
        for got in loaded:
            assert_same_table(got, ds)
        assert counts[0] >= counts[1] > 0
        assert counts[0] > 0.99 * 2 * 20_000 or not store._EXTENDED



def csv_writer_bytes(ds) -> bytes:
    """What csv.writer writes for `ds`: the header, then each row with its
    continuous cells as repr(float)."""
    columns = [
        [repr(v) for v in ds.continuous_values(a.name).tolist()]
        if a.kind is Kind.CONTINUOUS
        else [ds.members(a.name)[i] for i in ds.nominal_id_values(a.name).tolist()]
        for a in ds.schema
    ]
    out = io.StringIO(newline="")
    csv.writer(out).writerows([[a.name for a in ds.schema], *zip(*columns)])
    return out.getvalue().encode("utf-8")


def awkward_table(n_rows, names=("g,1", 'q"2', "c\rr", "l\nf", "cr\r\nlf", "", "äx")):
    """n_rows rows over one continuous and six nominal columns named `names`
    (the continuous one last), every member drawn from AWKWARD."""
    rng = np.random.default_rng(n_rows)
    schema = make_schema([(n, Kind.NOMINAL) for n in names[:-1]] + [(names[-1], Kind.CONTINUOUS)])
    columns = {n: [AWKWARD[i] for i in rng.integers(len(AWKWARD), size=n_rows)] for n in names[:-1]}
    columns[names[-1]] = rng.normal(0.0, 1e3, n_rows) * rng.choice([1.0, 1e-300, 1e300], n_rows)
    return Dataset.from_columns(schema, columns)


class TestDumpCsv:
    @pytest.mark.parametrize("chunk", [1, 3, None])
    @pytest.mark.parametrize("chunks", [0, 1, 2, 2.5])
    def test_writes_what_csv_writer_writes_and_loads_back(self, tmp_path, monkeypatch,
                                                          chunk, chunks):
        if chunk is not None:
            monkeypatch.setattr("aqplearn.store.DUMP_CHUNK_ROWS", chunk)
        ds = awkward_table(int(chunks * (chunk or DUMP_CHUNK_ROWS)))
        path = tmp_path / "out.csv"
        dump_csv(ds, path)
        assert path.read_bytes() == csv_writer_bytes(ds)
        assert_same_table(load_csv(path, list(ds.schema)), ds)

    def test_header_names_with_surrounding_spaces(self, tmp_path):
        ds = awkward_table(5, names=(" lead", "trail ", " both ", "\tx", "y\r", "z\n", "v"))
        path = tmp_path / "out.csv"
        dump_csv(ds, path)
        assert path.read_bytes() == csv_writer_bytes(ds)
        assert_same_table(load_csv(path, list(ds.schema)), ds)

    @pytest.mark.parametrize("name", [" x", "x\t"])
    def test_continuous_name_with_surrounding_whitespace_loads_back(self, tmp_path, name):
        ds = awkward_table(3, names=(name,))
        path = tmp_path / "out.csv"
        dump_csv(ds, path)
        assert path.read_bytes() == csv_writer_bytes(ds)
        assert_same_table(load_csv(path, list(ds.schema)), ds)

    def test_header_mismatch_names_each_side_by_repr(self, tmp_path):
        path = tmp_path / "out.csv"
        dump_csv(awkward_table(2, names=("x",)), path)
        with pytest.raises(MalformedRow, match=r"header names 'x' do not match declared attributes 'x\\t'"):
            load_csv(path, make_schema([("x\t", Kind.CONTINUOUS)]))

    def test_single_empty_attribute_name_is_quoted(self, tmp_path):
        schema = make_schema([("", Kind.CONTINUOUS)])
        ds = Dataset.from_columns(schema, {"": [1.5, -0.0]})
        path = tmp_path / "out.csv"
        dump_csv(ds, path)
        assert path.read_bytes() == csv_writer_bytes(ds) == b'""\r\n1.5\r\n-0.0\r\n'
        assert_same_table(load_csv(path, schema), ds)


class TestSchemaFiles:
    def test_schema_round_trip(self, tmp_path, transactions):
        path = tmp_path / "schema.json"
        dump_schema(list(transactions.schema), path)
        assert load_schema(path) == list(transactions.schema)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ParseError):
            make_schema([("x", Kind.CONTINUOUS), ("x", Kind.NOMINAL)])

    def test_bad_kind_rejected(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text('[{"name": "x", "kind": "decimal"}]')
        with pytest.raises(ParseError):
            load_schema(path)

    @pytest.mark.parametrize("name", ['["x"]', "5", "null"])
    def test_name_that_is_not_a_string_rejected(self, tmp_path, name):
        path = tmp_path / "schema.json"
        path.write_text(f'[{{"name": {name}, "kind": "continuous"}}]')
        with pytest.raises(ParseError, match="is not a string"):
            load_schema(path)
