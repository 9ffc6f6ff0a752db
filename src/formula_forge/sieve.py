"""Prime discovery by encoding completion over dyadic ranges.

The state holds one shorthand expression per integer covered so far, plus
the subset flagged prime.  One step covers the next dyadic range
(2^(k+1), 2^(k+2)]: every composite in range is built once, from its
smallest known prime p, as p^e times the known encoding of its cofactor
(a prime power, or a product of two or more distinct prime powers); the
values left over are exactly the new primes, and each is encoded as its
predecessor plus one.  No primality test is ever consulted; primality falls
out of the completion.  This is the sieve of Gries and Misra ("A linear
sieve algorithm for finding prime numbers", CACM 21(12), 1978) with
encodings in place of flags.

run_sieve and scf_coarse keep the states they reach in one table per
process, so a longer run extends a shorter one; clear_caches() releases it.
Both refuse, unless forced, a state past run_sieve(MAX_LEVELS), which
covers 65536: the coarse levels have no cap of their own.
"""

from __future__ import annotations

from math import comb

from .errors import DomainError, InternalGapError, LevelTooLarge, Record, check_cap, require_int
from .symexpr import (CACHE_CLEARS, ONE, Neg, Pow, Prod, Sum, SymExpr, X, sym_pow, sym_prod,
                      sym_value)

MAX_LEVELS = 14
# expressions rational_set builds, about 55 us each with their JSON on the
# command line: 37,687 take 2.2 s on a 2-vCPU VM
MAX_RATIONALS = 50_000


class SieveState(Record):
    """Encodings for 1..2^(level+1), ascending; primes is the flagged subset."""

    __slots__ = __match_args__ = ("level", "integers", "primes")

    @property
    def covers(self) -> int:
        return len(self.integers)

    def encoding_of(self, v: int) -> SymExpr:
        if require_int(v) > self.covers:
            raise DomainError(f"value {v!r} outside covered range 1..{self.covers}")
        return self.integers[v - 1]

    def prime_values(self) -> list:
        return [sym_value(p) for p in self.primes]


def initial_state() -> SieveState:
    """Level 0: integers (1, x), primes (x,)."""
    return SieveState(0, (ONE, X), (X,))


def _range_encodings(state: SieveState, k: int) -> list:
    """The encodings of the values in (lo, hi] = (2^(k+1), 2^(k+2)], by value.

    v = p^e * b, with p its smallest known prime and b coprime to p, is p^e
    (p for e = 1) if b = 1 and otherwise the product of p^e with b's known
    encoding.  A value with no such p is a new prime, the Sum of its
    predecessor and 1.  Each value's p is read from one list, which each
    prime's multiples overwrite, largest prime first.  b's encoding is one
    prime power, worth b, or a Prod of them descending by value, so p^e is
    inserted at its place by value (prime powers never tie) instead of
    sorted in by sym_prod.
    """
    lo, hi = 2 ** (k + 1), 2 ** (k + 2)
    if state.covers < lo:
        raise DomainError(f"state covers {state.covers}, below range start {lo}")
    pvals = state.prime_values()
    if any(a >= b for a, b in zip(pvals, pvals[1:])):
        raise InternalGapError("known primes do not ascend strictly by value")
    integers = state.integers
    smallest = [None] * (hi - lo)  # (v's smallest prime, its value), at v - lo - 1
    for p, vp in reversed([(p, vp) for p, vp in zip(state.primes, pvals) if vp * vp <= hi]):
        start = vp - lo % vp - 1  # the index of p's first multiple
        smallest[start::vp] = [(p, vp)] * len(range(start, hi - lo, vp))
    out, enc = [], integers[lo - 1]
    for v, pair in zip(range(lo + 1, hi + 1), smallest):
        if pair is None:  # a prime: the even v - 1 >= 2 is x, a Pow or a Prod
            enc = Sum((enc, ONE))
        else:
            p, vp = pair
            e, b = 1, v // vp
            while b % vp == 0:
                e, b = e + 1, b // vp
            enc = p if e == 1 else Pow(p, integers[e - 1])
            if b > 1:
                fb, q = integers[b - 1], v // b
                if type(fb) is not Prod:  # one prime power, worth b
                    enc = Prod((fb, enc) if b > q else (enc, fb))
                else:
                    fs, j = fb.factors, 0  # j counts the factors above p^e = q
                    while j < len(fs) and sym_value(fs[j]) > q:
                        j += 1
                    enc = Prod((*fs[:j], enc, *fs[j:]))
        out.append(enc)
    return out


def _encode_range(state: SieveState, k: int) -> list:
    """(value, encoding) pairs over _range_encodings, for the range filters
    and tests; a step keeps only the encodings, its values implicit."""
    return list(enumerate(_range_encodings(state, require_int(k, 0, "k")), 2 ** (k + 1) + 1))


def prime_power_range(state: SieveState, k: int) -> list:
    """(value, encoding) by value for prime powers p^e, e >= 2, in (2^(k+1), 2^(k+2)].

    Exponents are encoded by table lookup, so p^e arrives as the known
    encoding of p raised to the known encoding of e.
    """
    return [(v, enc) for v, enc in _encode_range(state, k) if type(enc) is Pow]


def multi_factor_products(state: SieveState, k: int, c: int) -> list:
    """(value, encoding) by value for products of exactly c distinct prime
    powers in (2^(k+1), 2^(k+2)], primes ascending inside each product.

    multi_factor_products at k=2 with primes 2,3,5,7 known and c=2 yields
    the values 10, 12, 14, 15 (and their encodings).
    """
    require_int(c, 2, "factor count")
    return [(v, enc) for v, enc in _encode_range(state, k)
            if type(enc) is Prod and len(enc.factors) == c]


def zeta_step(state: SieveState) -> SieveState:
    """Advance one dyadic range, discovering the primes in it."""
    found = tuple(_range_encodings(state, state.level))
    return SieveState(state.level + 1, state.integers + found,
                      state.primes + tuple(e for e in found if type(e) is Sum))


_STATES = {}  # steps from the initial state -> the state they reach
CACHE_CLEARS.append(_STATES.clear)


def _dyadic(steps: int) -> SieveState:
    """The state after `steps` dyadic steps, extending the process table.

    setdefault is atomic, so racing threads still agree on one state per
    step count.  Each step calls the module's zeta_step, so a wrapper
    installed there sees every step.
    """
    known = steps
    while known and known not in _STATES:
        known -= 1
    state = _STATES[known] if known else initial_state()
    for n in range(known + 1, steps + 1):
        state = _STATES.setdefault(n, zeta_step(state))
    return state


def _capped(steps: int, what: str, force: bool) -> SieveState:
    """_dyadic(steps), refused past the steps of run_sieve(MAX_LEVELS)."""
    check_cap(steps - 1, MAX_LEVELS, what, force, LevelTooLarge)
    return _dyadic(steps)


def run_sieve(levels: int, force: bool = False) -> SieveState:
    """Run levels + 1 dyadic steps from the initial state (levels >= 1),
    covering 1..2^(levels+2); levels = 0 returns the initial state.

    run_sieve(3).prime_values() lists the 11 primes up to 32.
    Levels beyond 14 (coverage 65536) are refused unless force=True.
    """
    steps = levels + 1 if require_int(levels, 0, "levels") else 0
    return _capped(steps, f"sieve levels {levels}", force)


def scf_coarse(levels: int, force: bool = False) -> SieveState:
    """Tower-paced sieve: coverage jumps 2 -> 4 -> 16 -> 65536 per level.

    Internally runs the same dyadic steps, so scf_coarse(t) is the dyadic
    state of equal coverage: scf_coarse(3) is run_sieve(14), and levels
    from 4 on (coverage 2^65536) pass run_sieve's cap and are refused
    unless force=True.
    """
    steps = 0  # covering 2^(steps + 1)
    for _ in range(require_int(levels, 0, "levels")):
        if steps - 1 > MAX_LEVELS and not force:
            break  # refused by _capped; one more level would cover 2^(2^65536)
        steps = 2 ** (steps + 1) - 1  # coverage c becomes 2^c
    return _capped(steps, f"coarse sieve levels {levels} reach sieve levels", force)


def rational_set(state: SieveState, exponent_bound: int, factor_bound: int,
                 force: bool = False) -> list:
    """Signed-exponent extension: products p1^(±e1)*...*pc^(±ec) over at
    most factor_bound distinct known primes, 1 <= e <= exponent_bound,
    plus the empty product 1.

    rational_set(initial_state(), 1, 1) -> [1, x, x^(-1)]
    (values 1, 2, 1/2).

    With P known primes and E = exponent_bound there are the sum over
    c <= min(factor_bound, P) of C(P, c) * (2E)^c products: c of the primes,
    each to one of 2E exponents.  Above MAX_RATIONALS, SizeGuard is raised
    before any is built, unless force=True.
    """
    require_int(exponent_bound, 1, "exponent_bound")
    require_int(factor_bound, 0, "factor_bound")
    primes = len(state.primes)
    size = sum(comb(primes, c) * (2 * exponent_bound) ** c
               for c in range(min(factor_bound, primes) + 1))
    check_cap(size, MAX_RATIONALS, f"rational expressions over {primes} primes with "
              f"exponent bound {exponent_bound} and factor bound {factor_bound}", force)
    if exponent_bound > state.covers:
        raise DomainError(
            f"exponent bound {exponent_bound} exceeds covered range {state.covers}"
        )
    out = []

    def rec(idx, remaining, factors):
        out.append(sym_prod(factors) if factors else ONE)
        if remaining == 0:
            return
        for j in range(idx, len(state.primes)):
            p = state.primes[j]
            for e in range(1, exponent_bound + 1):
                enc = state.encoding_of(e)
                rec(j + 1, remaining - 1, factors + [sym_pow(p, enc)])
                rec(j + 1, remaining - 1, factors + [Pow(p, Neg(enc))])

    rec(0, factor_bound, [])
    return out
