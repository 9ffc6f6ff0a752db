"""Exact counts of formula trees by value, and the family description.

Four families, all counted by one Catalan-style convolution on the root
gate:

* ``a``: add-only trees (counts are the Catalan numbers shifted by one),
* ``lop``: add-only trees under the LOP restriction (left operand >= right),
* ``am``: {+, *} trees,
* ``ame``: {+, *, ^} trees (strict: no 1 operand under * or ^).

Each family is a ``Family`` of (gate, splits) rules; the trees of value m
rooted at a gate number sum(count(l) * count(r)) over its splits (l, r).
Counting, enumeration, sampling, the shortest-encoding DP, the cache layout
and the CLI all read this one description.  Every layer that splits a value
walks the rule's splits(m) afresh: only this module makes split lists, and
none is stored.  ``CountTable.absorb`` checks every count row a table takes
in: the top row by ``Family.row``, every ``*`` and ``^`` count by ``sieved``.

Base case: the bare leaf counts as the single tree for n = 1 and is charged
to the first gate's class (add); mul- and pow-rooted counts at n = 1 are
zero.  Counts are exact big ints, memoized per table, filled bottom-up so
deep recursion never occurs.
"""

from __future__ import annotations

import threading
from math import isqrt
from operator import mul

from .errors import CacheError, DomainError, Record, require_int

ROOT_ALL = "all"
_ROOT_NAMES = {
    "+": "+", "*": "*", "^": "^", "all": "all",
    "add": "+", "mul": "*", "pow": "^",
}


def normalize_root(root: str) -> str:
    try:
        return _ROOT_NAMES[root]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise DomainError(f"unknown root filter {root!r}") from None


def exact_root(n: int, k: int):
    """Integer b with b**k == n, or None, for n, k >= 1.  isqrt for k = 2,
    the rounded float root below 2**52, else a Newton floor root; exact check."""
    if k == 2:
        b = isqrt(n)
    elif n.bit_length() <= 52:  # float(n) is exact, its root within 2**-30
        b = round(n ** (1 / k))
    else:
        b = 1 << ((n.bit_length() + k - 1) // k)
        while True:
            y = ((k - 1) * b + n // b ** (k - 1)) // k
            if y >= b:
                break
            b = y
    return b if b ** k == n else None


def mid_divisors(n: int) -> list[int]:
    """Divisors d of n with 2 <= d <= n//2, ascending."""
    small = [a for a in range(2, isqrt(n) + 1) if n % a == 0]
    # each cofactor n // a is at most n//2 because a >= 2, and they fall as a rises
    return small + [n // a for a in reversed(small) if a * a != n]


def exponent_candidates(n: int):
    """Exponents i >= 2 with an exact integer i-th root of n, with the root.

    Yields (i, b) pairs, i ascending, b**i == n.  Empty for n < 4.
    """
    for i in range(2, n.bit_length()):
        b = exact_root(n, i)
        if b is not None:
            yield i, b


# -- family description ----------------------------------------------------

def _add_splits(m):
    """(i, m - i) for i = 1 .. m-1."""
    return zip(range(1, m), range(m - 1, 0, -1))


def _lop_splits(m):
    """(m - i, i) for i = 1 .. m//2: the left operand is never the smaller."""
    return zip(range(m - 1, m - m // 2 - 1, -1), range(1, m // 2 + 1))


def _mul_splits(m):
    """(d, m // d) over the divisors 2 <= d <= m//2, ascending."""
    return [(d, m // d) for d in mid_divisors(m)]


def _pow_splits(m):
    """(base, exponent) over exact powers, exponent ascending."""
    return [(b, i) for i, b in exponent_candidates(m)]


def _mirrored_sum(tot, m, copies):
    """sum(tot[a] * tot[b]) over additive splits of m that hold each pair
    (i, m - i) with i < m/2 `copies` times and (m/2, m/2) once, with each
    product taken once; the pairs are two slices of the totals list."""
    k = (m + 1) // 2  # 1 <= i < k is i < m/2
    half = sum(map(mul, tot[1:k], tot[m - 1:m - k:-1]))
    return copies * half + (tot[k] ** 2 if m % 2 == 0 else 0)


def sieved(tot, op, lo, hi) -> list:
    """For each m in [lo, hi), sum(tot[a] * tot[b]) over 2 <= a, b < len(tot)
    with op(a, b) == m; op is mul (the Dirichlet product) or pow, which grow
    in each operand, so each inner loop stops at its first m >= hi."""
    out = [0] * hi
    for a in range(2, len(tot)):
        for b in range(2, len(tot)):
            if (m := op(a, b)) >= hi:
                break
            out[m] += tot[a] * tot[b]
    return out[lo:]


# the additive rules, by how often their splits hold each mirrored pair
_MIRRORED = {_add_splits: 2, _lop_splits: 1}
_SIEVED = {_mul_splits: mul, _pow_splits: pow}  # the product rules, by operator


class Family(Record):
    """A gate family as ordered (gate, splits) rules on the root gate.

    Rule order is stream order: trees rooted at an earlier gate come first,
    and within a gate the splits come in the order splits(m) yields them.
    The leaf 1 belongs to the first gate's class.  `columns` names the root
    classes as tables and cache files do: 'all' for a one-gate family, else
    the gates.
    """

    __slots__ = ("name", "rules", "columns")
    __match_args__ = ("name", "rules")

    def __init__(self, name: str, rules: tuple):
        super().__init__(name, rules)
        Family.columns.__set__(self, tuple(g for g, _ in rules) if rules[1:] else (ROOT_ALL,))

    def row(self, tot, m: int) -> list:
        """Counts of value m per root class, from the totals list below m:
        the leaf for m = 1, else sum(tot[l] * tot[r]) per rule."""
        if m == 1:
            return [1] + [0] * (len(self.rules) - 1)
        return [
            _mirrored_sum(tot, m, _MIRRORED[splits]) if splits in _MIRRORED
            else sum(tot[a] * tot[b] for a, b in splits(m))
            for _, splits in self.rules
        ]

    def check_root(self, root: str) -> str:
        """The normalized root filter; DomainError if it is not one of ours."""
        root = normalize_root(root)
        if root != ROOT_ALL and root not in self.columns:
            raise DomainError(f"root {root!r} is not in family {self.name}")
        return root


_ADD, _MUL, _POW = ("+", _add_splits), ("*", _mul_splits), ("^", _pow_splits)

FAMILIES = {
    f.name: f
    for f in (
        Family("a", (_ADD,)),
        Family("lop", (("+", _lop_splits),)),
        Family("am", (_ADD, _MUL)),
        Family("ame", (_ADD, _MUL, _POW)),
    )
}

GATE_SETS = ("a", "am", "ame")


def resolve_family(gates: str = "a", root: str = ROOT_ALL, lop: bool = False):
    """(Family, normalized root) for a gate set, root filter and LOP flag.

    The command line goes through here: the LOP restriction needs the
    add-only gate set, and the root must be a root class of the family
    ('all', or a gate of a family with more than one).
    """
    if gates not in GATE_SETS:
        raise DomainError(f"gate set must be one of {GATE_SETS}, got {gates!r}")
    if lop and gates != "a":
        raise DomainError("the LOP restriction is defined for add-only trees")
    family = FAMILIES["lop" if lop else gates]
    return family, family.check_root(root)


class CountTable:
    """Memo store for all four count families: counts only.

    Per family it keeps its totals and one column per root class in rule
    order, each a gap-free list indexed by value (index 0 unused, so
    len(totals) - 1 is the fill watermark); a one-gate family's one column
    is its totals list.  Splits come from each rule's splits(m), never from
    the table.  Fills are serialized by a lock and append every column
    before the totals, so a lock-free reader that sees row n in the totals
    finds it in every column.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._tot = {name: [0, 1] for name in FAMILIES}
        self._cols = {
            f.name: (self._tot[f.name],) if len(f.rules) == 1
            else tuple([0, c] for c in f.row(None, 1))
            for f in FAMILIES.values()
        }

    def _fill(self, f, n):
        with self._lock:
            tot, cols = self._tot[f.name], self._cols[f.name]
            for m in range(len(tot), n + 1):
                self._append(tot, cols, f.row(tot, m))

    @staticmethod
    def _append(tot, cols, row):
        """Append one row of counts, every column before the totals (a
        one-gate family's column is its totals)."""
        if len(cols) > 1:
            for col, c in zip(cols, row):
                col.append(c)
        tot.append(sum(row))

    def count(self, family: str, n: int, root: str = ROOT_ALL) -> int:
        """Trees of value n in the named family, optionally of one root class."""
        try:
            f = FAMILIES[family]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise DomainError(f"unknown count family {family!r}") from None
        root = f.check_root(root)
        tot, cols = self.filled(f, require_int(n))
        return tot[n] if root == ROOT_ALL else cols[f.columns.index(root)][n]

    def filled(self, family: Family, n: int):
        """(totals, columns) of a family filled to n, as the table's own lists
        indexed by value, index 0 unused: columns holds one per rule, in rule
        order, and a one-gate family's one column is totals itself.  Both are
        live and may run past n: read them, never write."""
        tot = self._tot[family.name]
        if len(tot) <= n:
            self._fill(family, n)
        return tot, self._cols[family.name]

    def add_only(self, n):
        return self.count("a", n)

    def add_lop(self, n):
        return self.count("lop", n)

    def am(self, n, root=ROOT_ALL):
        return self.count("am", n, root)

    def ame(self, n, root=ROOT_ALL):
        return self.count("ame", n, root)

    # -- persistence hooks (see cache module) ----------------------------

    def entries(self):
        """Snapshot as (family, root, n, count) rows, deterministic order."""
        return [
            (name, root, n, col[n])
            for name, f in FAMILIES.items()
            for root, col in zip(f.columns, self._cols[name])
            for n in range(1, len(col))
        ]

    def rows(self) -> int:
        """Number of computed entries, the length of entries()."""
        return sum(len(col) - 1 for cols in self._cols.values() for col in cols)

    def absorb(self, rows) -> int:
        """Install (family, root, n, count) rows, all of them or none.

        Raises CacheError, installing nothing, unless every row names a
        column of the table, an int index n >= 1 and an int count >= 0, no
        row disagrees with the table or another row, and per family the rows
        that extend the table's gap-free prefix recompute from the merged
        totals: the ``*`` and ``^`` columns of each by ``sieved``, and the
        new top row in full.  Every lower total is an operand of that row,
        and a count moved between columns moves a ``*`` or ``^`` count.
        Rows above a gap are dropped unchecked, since a fill would overwrite
        them before any read; the rows kept above the watermark are appended
        as fills append.  Returns the number of rows kept.
        """
        with self._lock:
            above = {name: [{} for _ in f.columns] for name, f in FAMILIES.items()}
            indices = []  # (family, n) of every row, to count the kept ones
            for family, root, n, c in rows:
                try:
                    i = FAMILIES[family].columns.index(root)
                except (KeyError, TypeError, ValueError):
                    raise CacheError(f"unknown count column {family!r}/{root!r}") from None
                if type(n) is not int or n < 1:
                    raise CacheError(f"bad index {n!r}")
                if type(c) is not int or c < 0:
                    raise CacheError(f"bad count {c!r}")
                col = self._cols[family][i]
                known = col[n] if n < len(col) else above[family][i].setdefault(n, c)
                if known != c:
                    raise CacheError(f"conflicting rows for {family}/{root} at {n}")
                indices.append((family, n))
            extensions = []
            for name, f in FAMILIES.items():
                tot, new = self._tot[name], above[name]
                low = top = len(tot) - 1
                while all(top + 1 in col for col in new):
                    top += 1
                if top == low:
                    continue
                ext = [[col[m] for col in new] for m in range(low + 1, top + 1)]
                merged = tot + list(map(sum, ext))
                sieves = [(i, sieved(merged, _SIEVED[splits], low + 1, top + 1))
                          for i, (_, splits) in enumerate(f.rules) if splits in _SIEVED]
                for m, row in enumerate(ext, low + 1):
                    if any(got[m - low - 1] != row[i] for i, got in sieves) or (
                            m == top and f.row(merged, m) != row):
                        raise CacheError(f"wrong {name} counts at {m}")
                extensions.append((tot, self._cols[name], ext))
            for tot, cols, ext in extensions:
                for row in ext:
                    self._append(tot, cols, row)
            return sum(n < len(self._tot[family]) for family, n in indices)


_DEFAULT = CountTable()


def default_table() -> CountTable:
    """The process-wide memo table used when no table is passed."""
    return _DEFAULT


def count_add_only(n: int, table: CountTable | None = None) -> int:
    """Add-only trees for n; equals the (n-1)st Catalan number.

    count_add_only(3) == 2, count_add_only(5) == 14.
    """
    return (table or _DEFAULT).add_only(n)


def count_add_lop(n: int, table: CountTable | None = None) -> int:
    """Add-only trees with left operand >= right at every addition node."""
    return (table or _DEFAULT).add_lop(n)


def count_am(n: int, root: str = ROOT_ALL, table: CountTable | None = None) -> int:
    """{+, *} trees for n, optionally restricted to a root gate.

    count_am(4, '+') == 5, count_am(4, '*') == 1, count_am(6) == 52.
    """
    return (table or _DEFAULT).am(n, root)


def count_ame(n: int, root: str = ROOT_ALL, table: CountTable | None = None) -> int:
    """Strict {+, *, ^} trees for n, optionally restricted to a root gate.

    count_ame(4, '^') == 1, count_ame(4) == 7, count_ame(6) == 58.
    """
    return (table or _DEFAULT).ame(n, root)
