"""Exhaustive enumeration of formula trees by value, as lazy streams.

Stream order is deterministic and read off the family description in
``counting``: root gates in rule order (add, mul, pow), and within a gate
the splits in the order the rule yields them, with the left subtree stream
outermost.  So addition splits come by ascending left value (by descending
left value under LOP), multiplicative splits by ascending divisor and
exponent splits by ascending exponent.

By default nothing is memoized (bounded memory, some recomputation).  With
``cached=True`` subtree lists are materialized in a per-call memo, which is
the right trade for small n (say n <= 12); the memo is dropped when the
stream is exhausted.

A stream nests one generator per level of the tree it is building, and the
first tree of value n is n - 1 levels deep, so values above
MAX_STREAM_VALUE are refused with SizeGuard before the interpreter's
recursion limit is reached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .counting import FAMILIES, ROOT_ALL, Family, resolve_family
from .errors import DomainError, SizeGuard, require_int
from .trees import to_postfix, to_prefix

MAX_STREAM_VALUE = 500
_LEAF = (1,)


def _trees(rules, m, top=None):
    """Every tree of value m > 1, root rule drawn from top (default: rules).

    Leaf operands come from a constant tuple, not a generator of their own.
    """
    for gate, splits in top or rules:
        for lv, rv in splits(m):
            for left in _trees(rules, lv) if lv > 1 else _LEAF:
                for right in _trees(rules, rv) if rv > 1 else _LEAF:
                    yield (gate, left, right)


def _tree_tuple(rules, m, memo, top=None):
    """_trees(rules, m, top) as a tuple; unrestricted results go in memo."""
    if top is None and m in memo:
        return memo[m]
    if m == 1:
        out = _LEAF
    else:
        out = tuple(
            (gate, left, right)
            for gate, splits in top or rules
            for lv, rv in splits(m)
            for left in _tree_tuple(rules, lv, memo)
            for right in _tree_tuple(rules, rv, memo)
        )
    if top is None:
        memo[m] = out
    return out


def stream(family: Family, n: int, root: str = ROOT_ALL, cached: bool = False):
    """All trees of value n in a family, optionally of one root class."""
    require_int(n)
    root = family.check_root(root)
    if n > MAX_STREAM_VALUE:
        raise SizeGuard(f"value {n} > {MAX_STREAM_VALUE} would nest {n - 1} "
                        "generators, past the interpreter's recursion limit")
    # each split list is built once per stream, not once per generator
    rules = tuple(
        (gate, lru_cache(maxsize=256)(lambda m, s=splits: tuple(s(m))))
        for gate, splits in family.rules
    )
    top = None if root == ROOT_ALL else tuple(r for r in rules if r[0] == root)
    if n == 1:  # the leaf is charged to the first gate's class
        return iter(_LEAF if not top or top[0] is rules[0] else ())
    if cached:
        return iter(_tree_tuple(rules, n, {}, top))
    return _trees(rules, n, top)


def enumerate_add(n: int, cached: bool = False):
    """All add-only trees for n; length count_add_only(n).

    list(enumerate_add(3)) == [('+', 1, ('+', 1, 1)), ('+', ('+', 1, 1), 1)]
    """
    return stream(FAMILIES["a"], n, cached=cached)


def enumerate_add_lop(n: int, cached: bool = False):
    """Add-only trees whose every addition has left value >= right value.

    list(enumerate_add_lop(3)) == [('+', ('+', 1, 1), 1)]
    """
    return stream(FAMILIES["lop"], n, cached=cached)


def enumerate_am(n: int, root: str = "all", cached: bool = False):
    """All {+, *} trees for n, optionally only those with a given root gate.

    list(enumerate_am(4, '*')) == [('*', ('+', 1, 1), ('+', 1, 1))]
    """
    return stream(FAMILIES["am"], n, root, cached)


def enumerate_ame(n: int, root: str = "all", cached: bool = False):
    """All strict {+, *, ^} trees for n; exponent nodes are (^ base exp).

    list(enumerate_ame(4, '^')) == [('^', ('+', 1, 1), ('+', 1, 1))]
    """
    return stream(FAMILIES["ame"], n, root, cached)


# -- request form -----------------------------------------------------------

@dataclass(frozen=True)
class EnumerationRequest:
    """What to enumerate: value, gate set, root filter, LOP restriction.

    The family is resolved (and the combination checked) on construction.
    """

    n: int
    gates: str = "a"
    root: str = "all"
    lop: bool = False
    family: Family = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        require_int(self.n)
        family, root = resolve_family(self.gates, self.root, self.lop)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "family", family)


def enumerate_trees(request: EnumerationRequest, cached: bool = False):
    """The stream a request names."""
    return stream(request.family, request.n, request.root, cached)


def enumerate_strings(request: EnumerationRequest, notation: str = "prefix",
                      cached: bool = False):
    """The same stream rendered as prefix or postfix strings.

    list(enumerate_strings(EnumerationRequest(3))) == ['+1+11', '++111']
    """
    render = {"prefix": to_prefix, "postfix": to_postfix}.get(notation)
    if render is None:
        raise DomainError(f"notation must be prefix or postfix, got {notation!r}")
    return map(render, enumerate_trees(request, cached))
