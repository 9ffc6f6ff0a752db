"""Canonical tower encodings: hereditary base-x normal forms and Horner lists.

A normal form here is a sum of distinct powers x^e with the exponents e
themselves in normal form, exponents strictly decreasing.  Values never
appear explicitly: addition, multiplication, and exponentiation are carried
out on the forms, and produce the normal form of the result.  The Horner
side builds level lists of even/odd/power shorthand expressions and a direct
encoder that peels factors of x.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heapify, heappop, heappush

from .errors import DomainError, LevelTooLarge, MagnitudeError, require_int
from .symexpr import ONE, X, Interned, SymExpr, sym_pow, sym_prod, sym_sum


class GoodsteinForm(Interned):
    """Sum of x^e over `exponents`, strictly decreasing by value.

    The empty form is 0; the form (ZERO,) is x^0 = 1.  Forms are interned
    like SymExpr nodes, so equal forms are the same object.
    """

    __slots__ = ("exponents",)

    def __str__(self):
        return "0" if self is ZERO else str(gs_to_symexpr(self))


ZERO = GoodsteinForm(())
GS_ONE = GoodsteinForm((ZERO,))


@lru_cache(maxsize=None)
def gs_value(f: GoodsteinForm) -> int:
    return sum(2 ** gs_value(e) for e in f.exponents)


def encode_goodstein(n: int) -> GoodsteinForm:
    """Normal form of n >= 0, by binary expansion of n and of each exponent.

    encode_goodstein(6) has exponents with values (2, 1): x^x + x.
    """
    return _encode(require_int(n, 0))


@lru_cache(maxsize=None)
def _encode(n):
    # one exponent per set bit of n, highest first; n = 0 gives ZERO
    bits = reversed(range(n.bit_length()))
    return GoodsteinForm(tuple(_encode(k) for k in bits if n >> k & 1))


def _normal(exponents) -> GoodsteinForm:
    """Normal form of the sum of x^e over `exponents`, repeats allowed.

    One carry pass from the smallest exponent up: x^e + x^e = x^(e + 1),
    the carry re-entering the heap until all exponents are distinct.  The
    heap holds the exponents' values, small integers (at most the bit length
    of the sum); `form` maps a value to its form, built once per value.
    """
    heap = [gs_value(e) for e in exponents]
    form = dict(zip(heap, exponents))
    heapify(heap)
    out = []
    while heap:
        v = heappop(heap)
        if heap and heap[0] == v:
            heappop(heap)
            heappush(heap, v + 1)
            if v + 1 not in form:
                form[v + 1] = g_add(form[v], GS_ONE)
        else:
            out.append(form[v])
    return GoodsteinForm(tuple(reversed(out)))


@lru_cache(maxsize=None)
def g_add(a: GoodsteinForm, b: GoodsteinForm) -> GoodsteinForm:
    """Sum of two normal forms: merge exponents, carry on collision.

    Memoised: forms are interned, so a key hashes in O(1), and g_mul and
    the carries of _normal add the same small exponents over and over.
    """
    return _normal(a.exponents + b.exponents)


def g_mul(a: GoodsteinForm, b: GoodsteinForm) -> GoodsteinForm:
    """Product of normal forms: x^e * x^f = x^(e + f), summed over digits."""
    return _normal([g_add(e, f) for e in a.exponents for f in b.exponents])


def g_pow(a: GoodsteinForm, b: GoodsteinForm, max_bits: int = 1 << 20) -> GoodsteinForm:
    """a ** b on normal forms, by squaring along the binary digits of b.

    The result of a tower exponentiation can dwarf memory; when the value of
    a**b would exceed max_bits bits, MagnitudeError is raised before any
    work is done.
    """
    va, vb = gs_value(a), gs_value(b)
    if vb == 0:
        return GS_ONE
    if va == 0:
        return ZERO
    if va == 1:
        return GS_ONE
    if vb * (va.bit_length() - 1) + 1 > max_bits:
        raise MagnitudeError(
            f"result needs about {vb * (va.bit_length() - 1) + 1} bits"
            f" (> max_bits = {max_bits})"
        )
    positions = {gs_value(e) for e in b.exponents}
    result = GS_ONE
    square = a
    for k in range(max(positions) + 1):
        if k in positions:
            result = g_mul(result, square)
        if k < max(positions):
            square = g_mul(square, square)
    return result


def gs_to_symexpr(f: GoodsteinForm) -> SymExpr:
    """Shorthand expression of a nonzero normal form.

    gs_to_symexpr(encode_goodstein(7)) renders as 'x^x + x + 1'.
    """
    if f is ZERO:
        raise DomainError("0 has no gate expression")
    terms = [ONE if e is ZERO else sym_pow(X, gs_to_symexpr(e)) for e in f.exponents]
    return sym_sum(terms)


def goodstein_levels(t: int, force: bool = False) -> list:
    """Level sets of normal-form expressions, doubling-tower sized.

    Level 0 is [1, x].  Each round replaces the level N by all nonempty
    subset sums of {1} + {x^n : n in N}.  Level 1 has 7 expressions
    (values 1..7), level 2 has 255 (values 1..255); level 3 would have
    2^256 - 1, so t > 2 is refused unless force=True.
    """
    require_int(t, 0, "level")
    if t > 2 and not force:
        raise LevelTooLarge(f"level {t} would hold a tower-of-two of expressions")
    level = [ONE, X]
    for _ in range(t):
        pool = [ONE] + [sym_pow(X, e) for e in level]
        level = []
        for mask in range(1, 1 << len(pool)):
            picked = [pool[i] for i in range(len(pool)) if mask >> i & 1]
            level.append(sym_sum(picked))
    return level


def horner_levels(t: int, force: bool = False) -> list:
    """Horner-style level list: every value gets exactly one expression.

    State at level k is (N, LE, LO, LP): all expressions so far, the new
    even ones, the new odd ones, and the accumulated pure powers.  One step:

        LE' = {m * n : m in LP, n in LO} + {x^m : m in LE + LO}
        LO' = {n + 1 : n in LE}
        LP' = LP + {x^m : m in LE + LO}

    Level 0 is [1, x, x + 1, x^x]; level 1 adds values {5, 6, 8, 12, 16}.
    t > 3 is refused unless force=True.
    """
    require_int(t, 0, "level")
    if t > 3 and not force:
        raise LevelTooLarge(f"level {t} is beyond the guarded range")
    xx = sym_pow(X, X)
    n_all = [ONE, X, sym_sum([X, ONE]), xx]
    le = [xx]
    lo = [sym_sum([X, ONE])]
    lp = [X, xx]
    for _ in range(t):
        le1 = [sym_prod([m, n]) for m in lp for n in lo]
        le1 += [sym_pow(X, m) for m in le + lo]
        lo1 = [sym_sum([n, ONE]) for n in le]
        lp1 = lp + [sym_pow(X, m) for m in le + lo]
        n_all = n_all + le1 + lo1
        le, lo, lp = le1, lo1, lp1
    return n_all


def encode_horner(n: int) -> SymExpr:
    """Direct Horner encoding: peel the power of two, recurse on the rest.

    Even n = 2**a * b (b odd) becomes x^enc(a) or x^enc(a) * enc(b);
    odd n becomes enc(n - 1) + 1.  The peeling runs as a loop, so only the
    exponents a (at most n.bit_length()) recurse.

    str(encode_horner(6)) == '(x + 1)*x'
    """
    require_int(n)
    peeled = []  # a per step, with n = 2**a * b; a = 0 for odd n
    while n > 1:
        a = (n & -n).bit_length() - 1
        peeled.append(a)
        n = n >> a if a else n - 1
    e = ONE
    for a in reversed(peeled):  # sym_prod drops the unit factor when b == 1
        e = sym_prod([sym_pow(X, encode_horner(a)), e]) if a else sym_sum([e, ONE])
    return e
