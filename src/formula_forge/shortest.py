"""Shortest strict {+, *, ^} encoding of each integer, by dynamic programming.

best(n) considers, in order: every additive split n = i + (n-i) with
i <= n//2 (the rest mirror these), every divisor split n = d * (n/d) with
2 <= d <= n//2, and every exact-root split n = b ** i with i >= 2; the
splits are the rules of the family description in ``counting``.  A
candidate replaces the incumbent only when it is strictly smaller, so ties
resolve toward additive over multiplicative over exponential structure, and
toward the earliest (smallest) split point.
Witnesses put the smaller operand on the left for + and *, the base on the
left for ^.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

from .counting import FAMILIES
from .errors import require_int
from .trees import size

# The {+, *, ^} rules with the additive splits cut to the half range
# i <= m//2, which is the LOP family's additive rule.  Sizes are symmetric
# under i <-> m - i, so the first strict minimum always lies there and the
# witnesses are those of the full range.
_RULES = FAMILIES["lop"].rules + FAMILIES["ame"].rules[1:]


@dataclass(frozen=True)
class ShortestEntry:
    n: int
    size: int
    witness: object  # formula tree


class ShortestTable:
    """Memo of ShortestEntry rows, filled bottom-up on demand."""

    def __init__(self):
        self._lock = threading.RLock()
        self._rows = {1: ShortestEntry(1, 1, 1)}
        self._sizes = [0, 1]  # sizes[v] for v <= the fill watermark

    def entry(self, n: int) -> ShortestEntry:
        require_int(n)
        with self._lock:
            self._ensure(n)
            return self._rows[n]

    def _ensure(self, n):
        rows, sizes = self._rows, self._sizes
        for m in range(len(sizes), n + 1):
            best = math.inf
            for gate, splits in _RULES:
                for a, b in splits(m):
                    cand = sizes[a] + sizes[b]
                    if cand < best:
                        best, pick = cand, (gate, a, b)
            gate, a, b = pick
            if gate == "+":
                a, b = b, a  # the half-range rule lists the larger operand first
            witness = (gate, rows[a].witness, rows[b].witness)
            if size(witness) != best + 1:
                raise AssertionError(f"witness for {m} does not have size {best + 1}")
            sizes.append(best + 1)
            rows[m] = ShortestEntry(m, best + 1, witness)


_DEFAULT = ShortestTable()


def shortest(n: int, table: ShortestTable | None = None) -> ShortestEntry:
    """Minimal strict encoding of n.

    shortest(6) -> ShortestEntry(6, 9, ('*', ('+', 1, 1), ('+', 1, ('+', 1, 1))))
    """
    return (table if table is not None else _DEFAULT).entry(n)


def shortest_range(upto: int, table: ShortestTable | None = None):
    """Yield ShortestEntry for n = 1..upto (inclusive)."""
    t = table if table is not None else _DEFAULT
    t.entry(upto)
    for n in range(1, upto + 1):
        yield t.entry(n)
