"""Shortest strict {+, *, ^} encoding of each integer, by dynamic programming.

best(n) is the least size over the additive splits n = i + (n-i), the
divisor splits n = d * (n/d) with 2 <= d <= n//2 and the exact-root splits
n = b ** i with i >= 2; the * and ^ splits are the rules of the family
description in ``counting``.  Among the splits of least size the witness
takes an additive one if there is one, with the smallest i; else a divisor
split, with the smallest d; else a root split, with the smallest exponent.
Witnesses put the smaller operand on the left for + and *, the base on the
left for ^.

The additive splits are not all tried.  Sizes are symmetric under
i <-> n - i, so i <= n//2 suffices, and then the larger summand lies in
[ceil(n/2), n - 1]; with lo(n) the least size there, the split costs at
least size(i) + lo(n).  The table keeps the values of each size in
ascending order, scans i by ascending size(i), and stops once
size(i) + lo(n) exceeds the best split found.  lo(n) comes from a sliding
window minimum over the sizes, amortised O(1) per n.  Srinivas & Shankar,
"Integer complexity: breaking the Theta(n^2) barrier" (2008), and Cordwell
et al., "On algorithms to calculate integer complexity" (Integers, 2019),
bound the summands of integer complexity the same way.
"""

from __future__ import annotations

import math
import threading
from collections import deque

from .counting import FAMILIES
from .errors import Record, require_int
from .trees import size

# the * and ^ rules of {+, *, ^}; each replaces the pick so far, additive or
# not, only when strictly smaller, so ties keep the additive split and the
# earliest divisor or exponent
_PRODUCT_RULES = FAMILIES["ame"].rules[1:]


class ShortestEntry(Record):
    __slots__ = __match_args__ = ("n", "size", "witness")  # witness: a formula tree


class ShortestTable:
    """Memo of ShortestEntry rows, filled bottom-up on demand."""

    def __init__(self):
        self._lock = threading.RLock()
        self._rows = [None, ShortestEntry(1, 1, 1)]
        self._sizes = [0, 1]  # sizes[v] for v <= the fill watermark
        self._by_size = [[], [1]]  # by_size[s]: the values of size s, ascending
        # values in [ceil(m/2), m - 1] whose sizes rise from front to back,
        # for the m filled last: the front has the least size lo(m)
        self._window = deque()

    def entry(self, n: int) -> ShortestEntry:
        require_int(n)
        if n >= len(self._rows):  # rows are appended whole, under the lock
            with self._lock:
                self._ensure(n)
        return self._rows[n]

    def _ensure(self, n):
        rows, sizes, by_size, window = self._rows, self._sizes, self._by_size, self._window
        for m in range(len(sizes), n + 1):
            half = m // 2
            while window and sizes[window[-1]] >= sizes[m - 1]:
                window.pop()
            window.append(m - 1)
            if window[0] < m - half:
                window.popleft()
            lo = sizes[window[0]]
            best, i = self._additive(m, half, lo)
            gate, a, b = "+", i, m - i
            for g, splits in _PRODUCT_RULES:
                for x, y in splits(m):
                    cand = sizes[x] + sizes[y]
                    if cand < best:
                        best, gate, a, b = cand, g, x, y
            witness = (gate, rows[a].witness, rows[b].witness)
            if size(witness) != best + 1:
                raise AssertionError(f"witness for {m} does not have size {best + 1}")
            sizes.append(best + 1)
            while len(by_size) <= best + 1:
                by_size.append([])
            by_size[best + 1].append(m)
            rows.append(ShortestEntry(m, best + 1, witness))

    def _additive(self, m, half, lo):
        """The least (sizes[i] + sizes[m - i], i) over 1 <= i <= half, where
        no size in [m - half, m - 1] is below lo."""
        sizes = self._sizes
        best = pick = math.inf
        for s, values in enumerate(self._by_size):
            if s + lo > best:
                break
            for i in values:
                if i > half:
                    break
                cand = s + sizes[m - i]
                if cand < best or cand == best and i < pick:
                    best, pick = cand, i
        return best, pick


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
