"""Uniform random generation of formula trees by recursive weighted choice.

Every random decision is a loaded-die roll whose weights are exact counts of
the outcomes below each branch, so each tree of the target class comes out
with probability exactly 1/count.  The branches are those of the family
description in ``counting``: at each node one roll picks the root gate
(skipped for a one-gate family or a forced root), one roll picks the split,
and then the left subtree is drawn before the right.  The randomness source
is a seedable ``random.Random``; a given seed reproduces the same trees on
any platform.

Each roll draws one r in [1, W] against a total the count table already
holds: W is tot[m] for the root class, and the rule's column at m for the
split.  ``_roll`` draws r by the getrandbits rejection loop that
randint(1, W) runs underneath, so r and the rng state after it are
randint's for random.Random and its subclasses.  The roll then walks the
outcomes, subtracting each one's weight until the draw is used up.  That
is prefix-sum inversion: it picks the first outcome whose running weight
total reaches r, with no weight or prefix list built.  The splits walked
are the rule's own splits(m) from ``counting``, made afresh at each node;
the table holds only counts.  The m - 1 sum splits of a, am and ame are
walked from the nearer end: their weights tot[i] * tot[m - i] are
symmetric, so a draw r with 2r > W walks splits(m) from i = 1 with
W - r + 1 and swaps the pair (j, m - j) it lands on, giving (m - j, j),
the split r lands on from i = 1 (Flajolet, Zimmermann and Van Cutsem,
TCS 132, 1994).  lop's weights peak at i = 1; it walks from there.  A tree
nested past the recursion limit raises SizeGuard.
"""

from __future__ import annotations

import random

from .counting import _MIRRORED, FAMILIES, ROOT_ALL, Family, default_table
from .errors import DomainError, NoMultiplicativeSplit, nested, require_int


def _roll(getrandbits, w: int) -> int:
    """randint(1, w) of the random.Random whose getrandbits this is."""
    k = w.bit_length()
    r = getrandbits(k)
    while r >= w:
        r = getrandbits(k)
    return r + 1


# the error a forced root raises on a value it cannot split
_NO_SPLIT = {"*": (NoMultiplicativeSplit, "divisor"), "^": (DomainError, "exact-power")}


def sample_from(family: Family, n: int, rng: random.Random | None = None,
                root: str = ROOT_ALL):
    """Uniform tree of value n in a family, optionally of one root class."""
    require_int(n)
    rng = rng if rng is not None else random.Random()
    root = family.check_root(root)
    tot, cols = default_table().filled(family, n)
    getrandbits = rng.getrandbits
    # each rule's gate and splits, its column (the count of its trees, and so
    # the total weight of its splits, at every value) and whether splits mirror
    rules = tuple((gate, splits, col, _MIRRORED.get(splits) == 2)
                  for (gate, splits), col in zip(family.rules, cols))
    leaf = rules[0]

    def rec(m, top):
        if m == 1 and top[0] is leaf:
            return 1
        entry = top[0]
        if len(top) > 1:
            # every root class at once: the classes' counts sum to tot[m]
            r = _roll(getrandbits, tot[m])
            for entry in top:
                r -= entry[2][m]
                if r <= 0:
                    break
        gate, splits, col, mirrored = entry
        w = col[m]
        if not w:  # every split adds at least 1, so m has none
            exc, what = _NO_SPLIT[gate]
            raise exc(f"{m} has no {what} split")
        r = _roll(getrandbits, w)
        # the upper half's split mirrors the lower half's (module docstring)
        flip = mirrored and 2 * r > w
        if flip:
            r = w - r + 1
        for a, b in splits(m):
            r -= tot[a] * tot[b]
            if r <= 0:
                break
        if flip:
            a, b = b, a
        # a leaf takes no roll, so it skips the call
        return (gate, 1 if a == 1 else rec(a, rules), 1 if b == 1 else rec(b, rules))

    top = rules if root == ROOT_ALL else tuple(e for e in rules if e[0] == root)
    return nested(lambda m: rec(m, top), n, "tree", "sample")


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
