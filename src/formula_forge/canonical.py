"""Canonical tower encodings: hereditary base-x normal forms and Horner lists.

A normal form here is a sum of distinct powers x^e with the exponents e
themselves in normal form, exponents strictly decreasing.  Values never
appear explicitly: addition, multiplication, and exponentiation are carried
out on the forms, and produce the normal form of the result.  The Horner
side builds level lists of even/odd/power shorthand expressions and a direct
encoder that peels factors of x.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, LevelTooLarge, MagnitudeError, require_int
from .symexpr import ONE, X, SymExpr, sym_pow, sym_prod, sym_sum, sym_value


@dataclass(frozen=True)
class GoodsteinForm:
    """Sum of x^e over `exponents`, strictly decreasing by value.

    The empty form is 0; the form (ZERO,) is x^0 = 1.
    """

    exponents: tuple

    def __str__(self):
        if self is ZERO or not self.exponents:
            return "0"
        return str(gs_to_symexpr(self))


ZERO = GoodsteinForm(())
GS_ONE = GoodsteinForm((ZERO,))


def gs_value(f: GoodsteinForm) -> int:
    # memoized on the instance: forms are immutable, and hashing the whole
    # nested structure per lookup is what this avoids
    v = f.__dict__.get("_value")
    if v is None:
        v = sum(2 ** gs_value(e) for e in f.exponents)
        object.__setattr__(f, "_value", v)
    return v


def encode_goodstein(n: int) -> GoodsteinForm:
    """Normal form of n >= 0, by binary expansion of n and of each exponent.

    encode_goodstein(6) has exponents with values (2, 1): x^x + x.
    """
    return _encode(require_int(n, 0))


@lru_cache(maxsize=None)
def _encode(n):
    if n == 0:
        return ZERO
    exps = []
    k = 0
    while n:
        if n & 1:
            exps.append(_encode(k))
        n >>= 1
        k += 1
    return GoodsteinForm(tuple(reversed(exps)))


def _insert(digits, form):
    """Insert into an ascending-by-value digit list, keeping order."""
    v = gs_value(form)
    k = 0
    while k < len(digits) and gs_value(digits[k]) < v:
        k += 1
    digits.insert(k, form)


def g_add(a: GoodsteinForm, b: GoodsteinForm) -> GoodsteinForm:
    """Sum of two normal forms: merge exponents, carry on collision.

    Equal exponents e merge as x^e + x^e = x^(e + 1), the carry re-entering
    the merge until all exponents are distinct.
    """
    digits = sorted(a.exponents + b.exponents, key=gs_value)
    out = []
    while digits:
        e = digits.pop(0)
        if digits and gs_value(digits[0]) == gs_value(e):
            digits.pop(0)
            _insert(digits, g_add(e, GS_ONE))
        else:
            out.append(e)
    return GoodsteinForm(tuple(reversed(out)))


def g_mul(a: GoodsteinForm, b: GoodsteinForm) -> GoodsteinForm:
    """Product of normal forms: x^e * x^f = x^(e + f), summed over digits."""
    acc = ZERO
    for e in a.exponents:
        for f in b.exponents:
            acc = g_add(acc, GoodsteinForm((g_add(e, f),)))
    return acc


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
    if not f.exponents:
        raise DomainError("0 has no gate expression")
    terms = []
    for e in f.exponents:
        v = gs_value(e)
        if v == 0:
            terms.append(ONE)
        elif v == 1:
            terms.append(X)
        else:
            terms.append(sym_pow(X, gs_to_symexpr(e)))
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
    odd n becomes enc(n - 1) + 1.

    str(encode_horner(6)) == '(x + 1)*x'
    """
    require_int(n)
    if n == 1:
        return ONE
    if n % 2:
        return sym_sum([encode_horner(n - 1), ONE])
    a = (n & -n).bit_length() - 1
    b = n >> a
    power = sym_pow(X, encode_horner(a))
    if b == 1:
        return power
    return sym_prod([power, encode_horner(b)])
