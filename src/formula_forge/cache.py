"""Disk persistence for computed count tables.

The file format is a single JSON object:

    {"format": "formula-forge-counts", "version": 1,
     "entries": [["ame", "+", 6, "25"], ...]}

Each row is (family, root class, n, count); the root classes are the
columns of the family description in ``counting`` ('all' for the one-gate
families a and lop, one per gate for am and ame).  Counts are decimal
strings (they overflow doubles long before n = 100).
Loading validates the whole file before absorbing anything; a malformed or
inconsistent file is rejected wholesale with CacheError so a partial or
corrupted cache can never poison in-memory tables.  Values are checked as
well as shape: for each family, its top gap-free row and every
CHECK_EVERY-th row are recomputed from the file's own totals.  Every lower
total is an operand of the top row through the additive splits, so a
changed total shows there; the sampled rows catch counts shifted between
root classes with the total kept.  On a file warmed to 300 the check takes
about 1 ms, against 40-odd ms to refill the rows.  Saving writes to a
temporary file and renames over the target, so readers never see a torn
file.  The environment variable FORMULA_FORGE_CACHE names a default cache
path honored by the command-line tool.
"""

from __future__ import annotations

import json
import os
import tempfile

from .counting import FAMILIES, CountTable, default_table
from .errors import CacheError

FORMAT_NAME = "formula-forge-counts"
FORMAT_VERSION = 1
ENV_VAR = "FORMULA_FORGE_CACHE"
CHECK_EVERY = 16


def save_table(path: str, table: CountTable | None = None) -> int:
    """Write every computed entry of the table; returns the row count.

    Raises CacheError if the file cannot be written.
    """
    t = table if table is not None else default_table()
    rows = [[fam, root, n, str(c)] for fam, root, n, c in t.entries()]
    payload = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "entries": rows}
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(prefix=".counts-", suffix=".json", dir=directory)
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh)
                fh.write("\n")
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
        if fam not in FAMILIES:
            raise CacheError(f"unknown family {fam!r}")
        if root not in FAMILIES[fam].columns:
            raise CacheError(f"family {fam!r} cannot have root {root!r}")
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise CacheError(f"bad index {n!r}")
        # str.isdigit also admits non-ASCII digits such as '²', which int rejects
        if not isinstance(count, str) or not (count.isascii() and count.isdigit()):
            raise CacheError(f"count must be a decimal string, got {count!r}")
        rows.append((fam, root, n, int(count)))
    return rows


def _gap_free(col) -> int:
    """Largest m with 1..m all keys of col."""
    if len(col) == max(col, default=0):  # the keys are distinct and >= 1
        return len(col)
    m = 0
    while m + 1 in col:
        m += 1
    return m


def _check_values(rows):
    """CacheError unless the rows agree with each other and with the
    counts recomputed, on the rows sampled above, from the file's totals."""
    cols = {name: {c: {} for c in f.columns} for name, f in FAMILIES.items()}
    for fam, root, n, count in rows:
        if cols[fam][root].setdefault(n, count) != count:
            raise CacheError(f"conflicting rows for {fam}/{root} at {n}")
    for f in FAMILIES.values():
        fcols = list(cols[f.name].values())
        top = min(map(_gap_free, fcols))
        values = [[col[m] for m in range(1, top + 1)] for col in fcols]
        tot = [0, *map(sum, zip(*values))]
        if top and [v[top - 1] for v in values] != f.row(tot, top):
            raise CacheError(f"wrong {f.name} counts at {top}")
        # a sampled row's first column is its total less the others, and the
        # top row vouches for the totals: recompute only the others
        for (_, splits), v in zip(f.rules[1:], values[1:]):
            for m in range(CHECK_EVERY, top, CHECK_EVERY):
                if v[m - 1] != sum(tot[a] * tot[b] for a, b in splits(m)):
                    raise CacheError(f"wrong {f.name} counts at {m}")


def load_table(path: str, table: CountTable | None = None) -> int:
    """Absorb a saved cache into the table; returns rows accepted.

    Raises CacheError (and absorbs nothing) if the file fails validation.
    """
    t = table if table is not None else default_table()
    try:
        with open(path, "r") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise CacheError(f"cannot read cache file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CacheError(f"cache file is not valid JSON: {exc}") from exc
    rows = _validate(payload)
    _check_values(rows)
    t.absorb(rows)
    return len(rows)
