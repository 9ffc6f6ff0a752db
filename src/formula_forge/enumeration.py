"""Exhaustive enumeration of formula trees by value, as lazy streams.

Stream order is deterministic and read off the family description in
``counting``: root gates in rule order (add, mul, pow), and within a gate
the splits in the order the rule yields them, with the left subtree stream
outermost.  So addition splits come by ascending left value (by descending
left value under LOP), multiplicative splits by ascending divisor and
exponent splits by ascending exponent.

One generator builds every stream.  Operands of value at most MEMO_VALUE
are read from a per-stream memo of tuples, which the stream fills the first
time it needs each value; larger operands are generated lazily each time.
The memo holds at most sum(count(v) for v <= MEMO_VALUE) trees: 10,226 for
ame, 8,786 for am and 6,918 for a, and it is dropped with the stream.

A stream nests one generator per level of the tree it is building, and the
first tree of value n is n - 1 levels deep, so values above
MAX_STREAM_VALUE are refused with SizeGuard before the interpreter's
recursion limit is reached.
"""

from __future__ import annotations

from .counting import FAMILIES, ROOT_ALL, Family
from .errors import SizeGuard, require_int

MAX_STREAM_VALUE = 500
MEMO_VALUE = 10
_LEAF = (1,)


def _trees(rules, m, memo, top=None):
    """Every tree of value m > 1, root rule drawn from top (default: rules).

    memo maps values to the tuple of their trees; it starts as {1: (1,)}
    and takes every value <= MEMO_VALUE the first time it is an operand.
    """
    for gate, splits in top or rules:
        for lv, rv in splits(m):
            for left in memo.get(lv) or _operand(rules, lv, memo):
                for right in memo.get(rv) or _operand(rules, rv, memo):
                    yield (gate, left, right)


def _operand(rules, v, memo):
    """Trees of a value not in memo: memoised up to MEMO_VALUE, else lazy."""
    if v > MEMO_VALUE:
        return _trees(rules, v, memo)
    trees = memo[v] = tuple(_trees(rules, v, memo))
    return trees


def stream(family: Family, n: int, root: str = ROOT_ALL):
    """All trees of value n in a family, optionally of one root class."""
    require_int(n)
    root = family.check_root(root)
    if n > MAX_STREAM_VALUE:
        raise SizeGuard(f"value {n} > {MAX_STREAM_VALUE} would nest {n - 1} "
                        "generators, past the interpreter's recursion limit")
    rules = family.rules
    top = None if root == ROOT_ALL else tuple(r for r in rules if r[0] == root)
    if n == 1:  # the leaf is charged to the first gate's class
        return iter(_LEAF if not top or top[0] is rules[0] else ())
    return _trees(rules, n, {1: _LEAF}, top)


def enumerate_add(n: int):
    """All add-only trees for n; length count_add_only(n).

    list(enumerate_add(3)) == [('+', 1, ('+', 1, 1)), ('+', ('+', 1, 1), 1)]
    """
    return stream(FAMILIES["a"], n)


def enumerate_add_lop(n: int):
    """Add-only trees whose every addition has left value >= right value.

    list(enumerate_add_lop(3)) == [('+', ('+', 1, 1), 1)]
    """
    return stream(FAMILIES["lop"], n)


def enumerate_am(n: int, root: str = "all"):
    """All {+, *} trees for n, optionally only those with a given root gate.

    list(enumerate_am(4, '*')) == [('*', ('+', 1, 1), ('+', 1, 1))]
    """
    return stream(FAMILIES["am"], n, root)


def enumerate_ame(n: int, root: str = "all"):
    """All strict {+, *, ^} trees for n; exponent nodes are (^ base exp).

    list(enumerate_ame(4, '^')) == [('^', ('+', 1, 1), ('+', 1, 1))]
    """
    return stream(FAMILIES["ame"], n, root)
