"""Uniform random generation of formula trees by recursive weighted choice.

Every random decision is a loaded-die roll whose weights are exact counts of
the outcomes below each branch, so each tree of the target class comes out
with probability exactly 1/count.  The branches are those of the family
description in ``counting``: at each node one roll picks the root gate
(skipped for a one-gate family or a forced root), one roll picks the split,
and then the left subtree is drawn before the right.  The randomness source
is a seedable ``random.Random``; a given seed reproduces the same trees on
any platform.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import accumulate

from .counting import FAMILIES, ROOT_ALL, Family, default_table
from .errors import DomainError, NoMultiplicativeSplit, require_int

def roll_loaded_die(weights, rng: random.Random) -> int:
    """1-based index drawn with probability weights[i-1] / sum(weights).

    Prefix-sum inversion of a uniform integer in [1, sum].  Weights are
    nonnegative integers, at least one positive.

    roll_loaded_die([0, 7], rng) == 2 for any rng.
    """
    weights = list(weights)
    if any(w < 0 for w in weights):
        raise DomainError("weights must be nonnegative")
    prefix = list(accumulate(weights))
    if not prefix or prefix[-1] <= 0:
        raise DomainError("need at least one positive weight")
    return bisect_left(prefix, rng.randint(1, prefix[-1])) + 1


# the error a forced root raises on a value it cannot split
_NO_SPLIT = {"*": (NoMultiplicativeSplit, "divisor"), "^": (DomainError, "exact-power")}


def sample_from(family: Family, n: int, rng: random.Random | None = None,
                root: str = ROOT_ALL):
    """Uniform tree of value n in a family, optionally of one root class."""
    require_int(n)
    rng = rng if rng is not None else random.Random()
    root = family.check_root(root)
    table = default_table()
    tot = [0] + [table.count(family.name, v) for v in range(1, n + 1)]
    rules = family.rules

    def rec(m, top):
        if m == 1 and top[0] is rules[0]:
            return 1
        rule = top[0]
        if len(top) > 1:
            weights = [table.count(family.name, m, g) for g, _ in top]
            rule = top[roll_loaded_die(weights, rng) - 1]
        gate, splits = rule
        pairs = list(splits(m))
        if not pairs:
            exc, what = _NO_SPLIT[gate]
            raise exc(f"{m} has no {what} split")
        a, b = pairs[roll_loaded_die([tot[a] * tot[b] for a, b in pairs], rng) - 1]
        return (gate, rec(a, rules), rec(b, rules))

    top = rules if root == ROOT_ALL else tuple(r for r in rules if r[0] == root)
    return rec(n, top)


def sample_add(n: int, rng: random.Random | None = None):
    """Uniform add-only tree for n (out of count_add_only(n) trees)."""
    return sample_from(FAMILIES["a"], n, rng)


def sample_add_lop(n: int, rng: random.Random | None = None):
    """Uniform LOP-restricted add-only tree: left value >= right value."""
    return sample_from(FAMILIES["lop"], n, rng)


def sample_am(n: int, rng: random.Random | None = None, root: str = "all"):
    """Uniform {+, *} tree for n; root may force the top gate class.

    Raises NoMultiplicativeSplit when root='*' is forced on a value with no
    divisor in [2, n//2] (n = 1 or n prime).
    """
    return sample_from(FAMILIES["am"], n, rng, root)


def sample_ame(n: int, rng: random.Random | None = None, root: str = "all"):
    """Uniform strict {+, *, ^} tree for n.

    Extension beyond the {+, *} samplers: the root class is drawn from the
    exact (add, mul, pow)-rooted counts and the pow branch draws an exponent
    split weighted by count_ame(base) * count_ame(exponent).  Forcing
    root='^' on a value that is not an exact power raises DomainError.
    """
    return sample_from(FAMILIES["ame"], n, rng, root)
