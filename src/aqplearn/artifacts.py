"""Artifact file I/O: every writer goes through atomic_open, so a reader
sees the old file or the complete new one, and every reader parses inside
parsing(), so a truncated or edited file raises CorruptArtifact."""

import os
import uuid
import zipfile
from contextlib import contextmanager
from pathlib import Path

from .errors import CorruptArtifact


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
    """Turn a parse failure of the file at `path` into CorruptArtifact."""
    try:
        yield
    except (ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        raise CorruptArtifact(f"{path} is not a readable {what}: {exc}") from exc
