"""Disk persistence for computed count tables.

The file format is a single JSON object:

    {"format": "formula-forge-counts", "version": 1,
     "entries": [["ame", "+", 6, "25"], ...]}

Each row is (family, root class, n, count); the root classes are the
columns of the family description in ``counting`` ('all' for the one-gate
families a and lop, one per gate for am and ame).  Counts are decimal
strings (they overflow doubles long before n = 100).

This module owns only the format: loading checks the UTF-8 JSON and its
depth, the marker, the version and each row's shape (a 4-list, a positive
int n, an ASCII decimal count string of at most 2n digits), then
``CountTable.absorb`` checks the values against the table and installs all
rows or none, so a malformed or wrong file never poisons in-memory tables
(CacheError).  Saving writes a temporary file and renames it over the
target, so readers never see a torn file.  The environment variable
FORMULA_FORGE_CACHE names a default cache path honored by the command-line
tool.
"""

from __future__ import annotations

import json
import os
import tempfile

from .counting import CountTable, default_table
from .errors import CacheError, nested

FORMAT_NAME = "formula-forge-counts"
FORMAT_VERSION = 1
ENV_VAR = "FORMULA_FORGE_CACHE"


def save_table(path: str, table: CountTable | None = None) -> int:
    """Write every computed entry of the table; returns the row count.

    Raises CacheError, and writes nothing, if a count is past the
    interpreter's int -> str digit limit or the file cannot be written.
    """
    t = table if table is not None else default_table()
    try:
        rows = [[fam, root, n, str(c)] for fam, root, n, c in t.entries()]
    except ValueError:  # past the interpreter's str() digit limit
        raise CacheError(f"cannot write cache file {path}: a count is past the "
                         "int -> str digit limit") from None
    payload = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "entries": rows}
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(prefix=".counts-", suffix=".json", dir=directory)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(payload) + "\n")  # dumps runs the C encoder
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        reason = exc.strerror or exc
        raise CacheError(f"cannot write cache file {path}: {reason}") from exc
    return len(rows)


def _validate(payload) -> list:
    if not isinstance(payload, dict):
        raise CacheError("cache file is not a JSON object")
    if payload.get("format") != FORMAT_NAME:
        raise CacheError(f"unrecognized format marker {payload.get('format')!r}")
    if payload.get("version") != FORMAT_VERSION:
        raise CacheError(f"unsupported cache version {payload.get('version')!r}")
    entries = payload.get("entries")
    if not isinstance(entries, list):
        raise CacheError("entries must be a list")
    rows = []
    for row in entries:
        if not (isinstance(row, list) and len(row) == 4):
            raise CacheError(f"malformed row {row!r}")
        fam, root, n, count = row
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise CacheError(f"bad index {n!r}")
        # str.isdigit also admits non-ASCII digits such as '²', which int rejects
        if not isinstance(count, str) or not (count.isascii() and count.isdigit()):
            raise CacheError(f"count must be a decimal string, got {count!r}")
        # count(n) < 12^n, so a longer string is refused before int() reads it
        if len(count) > 2 * n:
            raise CacheError(f"count at {n} has {len(count)} digits, more than 2n")
        try:
            rows.append((fam, root, n, int(count)))
        except ValueError:  # past the interpreter's int() digit limit
            raise CacheError(f"count at {n} has {len(count)} digits, past the "
                             "int() digit limit") from None
    return rows


def load_table(path: str, table: CountTable | None = None) -> int:
    """Absorb a saved cache into the table; returns the rows it kept.

    Raises CacheError (and absorbs nothing) if the file fails validation;
    rows above a gap are dropped, as CountTable.absorb says.
    """
    t = table if table is not None else default_table()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = nested(json.load, fh, "JSON", "load")
    except OSError as exc:
        raise CacheError(f"cannot read cache file: {exc}") from exc
    except ValueError as exc:  # not UTF-8, not JSON, too deep (SizeGuard) or a long int
        raise CacheError(f"cannot parse cache file: {exc}") from exc
    rows = _validate(payload)
    return t.absorb(rows)
