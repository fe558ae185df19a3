"""Artifact files: every header, container and load failure lives here.

Header rule: an artifact starts with a JSON header naming its `kind` and
`version`. A JSON-lines file holds it on its first line, then one
sorted-key object per record; an .npz holds it in a JSON `meta` buffer;
a JSON document is all header. The _COUNTED kinds carry a `count`, the
number of records.

Failure rule: another kind or version raises VersionMismatch; a file that
does not parse, a field that cannot be typed, or content that disagrees
with its header raises CorruptArtifact. Fields are read strictly, through
strings, an_int, a_string, a_number, a_list and an_object, where a loose
read would change them (a string into its characters, 12.9 into 12, true
into 1). Writers go through atomic_open.
"""

import json
import os
import sys
import uuid
import zipfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import CorruptArtifact, VersionMismatch

_COUNTED = ("workload", "predictions")


@contextmanager
def atomic_open(path, mode: str = "w", newline: str | None = None):
    """Open a temporary file next to `path` and rename it onto `path` when
    the block succeeds; on failure remove it and leave `path` untouched.
    The temporary name is unique, so concurrent writers never collide.
    `newline` is passed to open() for text modes."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    text = "b" not in mode
    try:
        with open(tmp, mode.replace("w", "x"), encoding="utf-8" if text else None,
                  newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def parsing(path, what: str):
    """Turn a parse or typing failure of the file at `path` into CorruptArtifact."""
    try:
        yield
    except (ValueError, KeyError, TypeError, EOFError, zipfile.BadZipFile) as exc:
        raise CorruptArtifact(f"{path} is not a readable {what} file: {exc}") from exc


def check_header(path, header, kind: str, version: int) -> None:
    """Raise VersionMismatch unless `header` names `kind` at `version`."""
    found = header if isinstance(header, dict) else {}
    if (found.get("kind"), found.get("version")) != (kind, version):
        raise VersionMismatch(
            f"{path} holds {found.get('kind') or 'no kind'} version {found.get('version')} "
            f"where {kind} version {version} is expected"
        )


def read_artifact(path, kind: str, version: int) -> tuple[dict, dict | list]:
    """Checked header and body (.npz arrays, the unparsed record lines of a
    JSON-lines file, none for a JSON document) of `path`. Any container is
    read, so another kind is named; the caller parses each record line and
    so can name the one that fails."""
    with open(path, "rb") as fh, parsing(path, kind):
        if fh.read(4) == b"PK\x03\x04":  # an .npz archive
            fh.seek(0)  # read through fh, which closes also when the archive is cut short
            with np.load(fh) as data:
                header = json.loads(bytes(data["meta"]))
                body = {k: data[k] for k in data.files if k != "meta"}
        else:
            fh.seek(0)
            first, rest = fh.readline(), fh.read()
            try:
                header, body = json.loads(first), rest.splitlines()
            except ValueError:  # a JSON document over several lines
                header, body = json.loads(first + rest), []
        check_header(path, header, kind, version)
        if kind in _COUNTED and len(body) != header["count"]:
            raise CorruptArtifact(f"{path}: content disagrees with count {header['count']}")
    return header, body


def strings(name: str, value) -> tuple[str, ...]:
    """`value`, a JSON list of strings, as a tuple; else TypeError naming `name`."""
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise TypeError(f"{name} is {value!r}, not a list of strings")
    return tuple(value)


def an_int(name: str, value) -> int:
    """`value`, a JSON integer and not a bool; else TypeError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} is {value!r}, not an int")
    return value


def a_string(name: str, value) -> str:
    """`value`, a JSON string; else TypeError naming `name`."""
    if not isinstance(value, str):
        raise TypeError(f"{name} is {value!r}, not a string")
    return value


def a_number(name: str, value) -> float:
    """`value`, a finite JSON number and not a bool, as a float; else
    TypeError or ValueError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} is {value!r}, not a number")
    if not -sys.float_info.max <= value <= sys.float_info.max:  # NaN, and ints beyond a float
        raise ValueError(f"{name} is {value!r}, not a finite number")
    return float(value)


def a_list(name: str, value) -> list:
    """`value`, a JSON list; else TypeError naming `name`."""
    if not isinstance(value, list):
        raise TypeError(f"{name} is {value!r}, not a list")
    return value


def an_object(name: str, value) -> dict:
    """`value`, a JSON object; else TypeError naming `name`."""
    if not isinstance(value, dict):
        raise TypeError(f"{name} is {value!r}, not an object")
    return value


def write_json(path, doc) -> None:
    with atomic_open(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_jsonl(path, kind: str, version: int, records: list, meta: dict | None = None) -> None:
    header = {"kind": kind, "version": version, "count": len(records), **(meta or {})}
    with atomic_open(path) as fh:
        fh.writelines(json.dumps(rec, sort_keys=True) + "\n" for rec in [header, *records])


def save_npz(path, kind: str, version: int, arrays: dict, meta: dict | None = None) -> None:
    header = json.dumps({"kind": kind, "version": version, **(meta or {})}, sort_keys=True)
    with atomic_open(path, "wb") as fh:
        np.savez(fh, meta=np.frombuffer(header.encode(), dtype=np.uint8), **arrays)
