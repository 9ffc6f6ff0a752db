"""Canonical tower encodings: hereditary base-x normal forms and Horner lists.

A normal form here is a sum of distinct powers x^e with the exponents e
themselves in normal form, exponents strictly decreasing.  Values never
appear explicitly: addition, multiplication, and exponentiation are carried
out on the forms, and produce the normal form of the result.  A sum or a
product counts how often each exponent value occurs (for a product, each
sum of an exponent of one factor and one of the other), then carries the
counts upward as binary addition does: two copies of x^v make x^(v + 1).
The work of a product is one step per pair of exponents, capped by
MAX_MUL_PAIRS; powers square by the same count over unordered pairs, and
their result is capped at MAX_POW_BITS bits.  force=True lifts these caps;
the level caps are hard limits.

Each form has one builder, its encoder: encode_goodstein, or encode_horner,
which peels factors of x.  The level sets take every expression from them.
"""

from __future__ import annotations

from functools import lru_cache, partial

from .errors import (DomainError, LevelTooLarge, MagnitudeError, SizeGuard, check_cap, nested,
                     require_int)
from .symexpr import CACHE_CLEARS, ONE, X, Interned, Prod, Sum, SymExpr, sym_pow, sym_value


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

# exponent pairs that one g_mul, or all the multiplies of one g_pow, may
# take: about 0.3 s of work on a 2-vCPU VM.  The square of 2^1000 - 1 and
# 3 ** 2000 take about 10^6 pairs each, the square of 2^2000 - 1 4 * 10^6
MAX_MUL_PAIRS = 1 << 21
# bits of a g_pow result: str() of a 2^20-bit value takes 1.8 s on a 2-vCPU VM
MAX_POW_BITS = 1 << 20
# level sets, hard limits: goodstein level 3 would hold 2^256 - 1
# expressions, and horner level 4 holds values near 2^(2^65536), past an int
MAX_GOODSTEIN_LEVEL = 2
MAX_HORNER_LEVEL = 3


@lru_cache(maxsize=None)
def gs_value(f: GoodsteinForm) -> int:
    """Value of f at x = 2.

    Nesting past the recursion limit on a cache miss raises SizeGuard.  The
    guard is in this body, not in a wrapper, so each level costs one frame.
    """
    try:
        return sum(2 ** gs_value(e) for e in f.exponents)
    except RecursionError:
        raise SizeGuard("Goodstein form nests too deeply to evaluate") from None


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


CACHE_CLEARS += (gs_value.cache_clear, _encode.cache_clear)


def _normal(counts: dict) -> GoodsteinForm:
    """Normal form of the sum of counts[v] copies of x^v over the values v.

    Binary addition with a carry (Knuth, TAOCP vol. 2, 4.3.1), run on the
    multiplicities: sweeping up from the smallest value, c copies of x^v
    leave c mod 2 at v and carry c // 2 to v + 1.  The values are exponent
    values, small integers (at most the bit length of the sum); the sum
    itself is never formed.  Only the values that survive get a form, each
    from the memoised _encode, so equal exponents are the same object.
    """
    survivors = []
    c = v = 0  # c copies of x^v still to place
    for w in sorted(counts):
        while c and v < w:
            if c & 1:
                survivors.append(v)
            c >>= 1
            v += 1
        c += counts[w]
        v = w
    while c:
        if c & 1:
            survivors.append(v)
        c >>= 1
        v += 1
    return GoodsteinForm(tuple(map(_encode, reversed(survivors))))


def g_add(a: GoodsteinForm, b: GoodsteinForm) -> GoodsteinForm:
    """Sum of two normal forms: count the exponent values, carry on collision."""
    counts = {}
    for e in a.exponents + b.exponents:
        v = gs_value(e)
        counts[v] = counts.get(v, 0) + 1
    return _normal(counts)


def g_mul(a: GoodsteinForm, b: GoodsteinForm, force: bool = False) -> GoodsteinForm:
    """Product of normal forms: x^e * x^f = x^(e + f), summed over digits.

    Counts each sum of an exponent value of a and one of b, then carries.
    The work is one step per pair of exponents, popcount(a) * popcount(b);
    above MAX_MUL_PAIRS pairs SizeGuard is raised before any of it, unless
    force=True.
    """
    pairs = len(a.exponents) * len(b.exponents)
    check_cap(pairs, MAX_MUL_PAIRS, f"{pairs} exponent pairs to multiply", force)
    ws = [gs_value(f) for f in b.exponents]
    counts = {}
    for e in a.exponents:
        v = gs_value(e)
        for w in ws:
            s = v + w
            counts[s] = counts.get(s, 0) + 1
    return _normal(counts)


def _square(a: GoodsteinForm) -> GoodsteinForm:
    """a * a from each unordered pair of exponents once, n(n + 1)/2 steps:
    x^v * x^v is x^(2v), and x^v * x^w twice over (v < w) is x^(v + w + 1)."""
    vs = [gs_value(e) for e in a.exponents]
    counts = {}
    for i, v in enumerate(vs):
        counts[2 * v] = counts.get(2 * v, 0) + 1
        for w in vs[i + 1:]:
            s = v + w + 1
            counts[s] = counts.get(s, 0) + 1
    return _normal(counts)


def g_pow(a: GoodsteinForm, b: GoodsteinForm, force: bool = False) -> GoodsteinForm:
    """a ** b on normal forms, by squaring along the binary digits of b.

    The result of a tower exponentiation can dwarf memory; when the value of
    a**b would exceed MAX_POW_BITS bits, MagnitudeError is raised before any
    work is done.  The exponent pairs of all the multiplies count against
    MAX_MUL_PAIRS as g_mul's do, a square's n exponents as n(n + 1)/2 pairs:
    SizeGuard is raised before the multiply that would pass it.  force=True
    overrides both caps.
    """
    va, vb = gs_value(a), gs_value(b)
    if vb == 0 or va == 1:
        return GS_ONE
    if va == 0:
        return ZERO
    bits = vb * (va.bit_length() - 1) + 1
    check_cap(bits, MAX_POW_BITS, f"a power of about {bits} bits", force, MagnitudeError)
    positions = {gs_value(e) for e in b.exponents}
    top = max(positions)
    pairs = 0
    result = GS_ONE
    square = a
    for k in range(top + 1):
        if k in positions:
            pairs += len(result.exponents) * len(square.exponents)
            check_cap(pairs, MAX_MUL_PAIRS, f"{pairs} exponent pairs to multiply", force)
            result = g_mul(result, square, force=True)
        if k < top:
            n = len(square.exponents)
            pairs += n * (n + 1) // 2
            check_cap(pairs, MAX_MUL_PAIRS, f"{pairs} exponent pairs to multiply", force)
            square = _square(square)
    return result


def gs_to_symexpr(f: GoodsteinForm) -> SymExpr:
    """Shorthand expression of a nonzero normal form.

    gs_to_symexpr(encode_goodstein(7)) renders as 'x^x + x + 1'.
    SizeGuard on a form nested past the interpreter's recursion limit.
    """
    if f is ZERO:
        raise DomainError("0 has no gate expression")
    return nested(partial(_gs_to_symexpr, done={}), f, "Goodstein form", "convert")


def _gs_to_symexpr(f, done):
    """f's Sum node, or its lone term: the terms descend by value as the
    exponents do, so this is the node sym_sum would sort them into.  done,
    one call's table, maps each exponent converted so far to its term."""
    for e in f.exponents:
        if e not in done:
            done[e] = ONE if e is ZERO else sym_pow(X, _gs_to_symexpr(e, done))
    terms = tuple(map(done.__getitem__, f.exponents))
    return Sum(terms) if len(terms) > 1 else terms[0]


def goodstein_levels(t: int) -> list:
    """Level sets of normal-form expressions, doubling-tower sized.

    Level 0 is [1, x].  Each round replaces the level L by all nonempty
    subset sums of {1} + {x^n : n in L}.  L holds the values 1..|L|, so
    level t is the normal forms of 1..N_t, in value order, with N_0 = 2 and
    N_(t+1) = 2^(N_t + 1) - 1: level 1 has 7 expressions and level 2 255.
    t > MAX_GOODSTEIN_LEVEL raises LevelTooLarge, with no override: level 3
    would hold 2^256 - 1, more than a list can.
    """
    if require_int(t, 0, "level") > MAX_GOODSTEIN_LEVEL:
        raise LevelTooLarge(f"goodstein level {t} > {MAX_GOODSTEIN_LEVEL}: level 3 would "
                            "hold 2^256 - 1 expressions, more than a list can")
    top = 2
    for _ in range(t):
        top = (1 << top + 1) - 1
    return list(map(partial(_gs_to_symexpr, done={}), map(_encode, range(1, top + 1))))


def horner_levels(t: int) -> list:
    """Horner-style level list: every value gets exactly one expression.

    State at level k is (N, LE, LO, LP): all values so far, the new even
    ones, the new odd ones, and the accumulated pure powers.  One step:

        LE' = {m * n : m in LP, n in LO} + {x^m : m in LE + LO}
        LO' = {n + 1 : n in LE}
        LP' = LP + {x^m : m in LE + LO}

    It runs on values, and each expression is encode_horner's, the shape
    the step gives it.  Level 0 is [1, x, x + 1, x^x]; level 1 adds values
    {5, 6, 8, 12, 16}.  t > MAX_HORNER_LEVEL raises LevelTooLarge, with no
    override: level 4 holds values near 2^(2^65536), past an int.
    """
    if require_int(t, 0, "level") > MAX_HORNER_LEVEL:
        raise LevelTooLarge(f"horner level {t} > {MAX_HORNER_LEVEL}: level 4 holds values "
                            "near 2^(2^65536), past an int")
    n_all, le, lo, lp = [1, 2, 3, 4], [4], [3], [2, 4]
    for _ in range(t):
        powers = [1 << m for m in le + lo]
        le, lo = [m * n for m in lp for n in lo] + powers, [n + 1 for n in le]
        lp = lp + powers
        n_all += le + lo
    return [encode_horner(v) for v in n_all]


def encode_horner(n: int) -> SymExpr:
    """Direct Horner encoding: peel the power of two, recurse on the rest.

    Even n = 2**a * b (b odd) becomes x^enc(a) or x^enc(a) * enc(b);
    odd n becomes enc(n - 1) + 1.  The peeling runs as a loop, and each
    factor x^enc(a) comes from a table keyed by a (at most n.bit_length()),
    so an exponent is encoded once per process.  Each step builds its node
    in sym_sum's and sym_prod's normal form directly; reading the order from
    sym_value warms its cache one level at a time, so deep results evaluate.

    str(encode_horner(6)) == '(x + 1)*x'
    """
    require_int(n)
    peeled = []  # a per step, with n = 2**a * b; a = 0 for odd n
    while n > 1:
        a = (n & -n).bit_length() - 1
        peeled.append(a)
        n = n >> a if a else n - 1
    e = ONE
    for a in reversed(peeled):
        if not a:
            e = Sum((e, ONE))  # e encodes an even n - 1 >= 2: a Pow, Prod or x
        elif e is ONE:
            e = _x_pow(a)
        elif 1 << a > sym_value(e):  # e encodes an odd b > 1, never 2**a
            e = Prod((_x_pow(a), e))
        else:
            e = Prod((e, _x_pow(a)))
    return e


@lru_cache(maxsize=None)
def _x_pow(a):
    """x^enc(a), the factor that peels 2**a."""
    return sym_pow(X, encode_horner(a))


CACHE_CLEARS.append(_x_pow.cache_clear)
