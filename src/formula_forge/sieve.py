"""Prime discovery by encoding completion over dyadic ranges.

The state holds one shorthand expression per integer covered so far, plus
the subset flagged prime.  One step covers the next dyadic range
(2^(k+1), 2^(k+2)]: every value in range expressible from known primes (as a
prime power, or as a product of two or more distinct prime powers) gets that
composite encoding; the values left over are exactly the new primes, and
each is encoded as its predecessor plus one.  No primality test is ever
consulted; primality falls out of the completion.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, InternalGapError, LevelTooLarge, check_cap, require_int
from .symexpr import ONE, Neg, Pow, SymExpr, X, sym_pow, sym_prod, sym_sum, sym_value

MAX_LEVELS = 14
COARSE_MAX_LEVELS = 2


@dataclass(frozen=True)
class SieveState:
    """Encodings for 1..2^(level+1), ascending; primes is the flagged subset."""

    level: int
    integers: tuple
    primes: tuple

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


def prime_power_range(state: SieveState, k: int) -> list:
    """(value, encoding) for prime powers p^e, e >= 2, in (2^(k+1), 2^(k+2)].

    Exponents are encoded by table lookup, so p^e arrives as the known
    encoding of p raised to the known encoding of e.
    """
    lo, hi = 2 ** (k + 1), 2 ** (k + 2)
    if state.covers < lo:
        raise DomainError(f"state covers {state.covers}, below range start {lo}")
    out = []
    for p in state.primes:
        vp = sym_value(p)
        e = 2
        while vp**e <= hi:
            if vp**e > lo:
                out.append((vp**e, sym_pow(p, state.encoding_of(e))))
            e += 1
    return out


def multi_factor_products(state: SieveState, k: int, c: int) -> list:
    """(value, encoding) for products of exactly c distinct prime powers
    landing in (2^(k+1), 2^(k+2)], primes ascending inside each product.

    multi_factor_products at k=2 with primes 2,3,5,7 known and c=2 yields
    the values 10, 12, 14, 15 (and their encodings).
    """
    require_int(c, 2, "factor count")
    lo, hi = 2 ** (k + 1), 2 ** (k + 2)
    if state.covers < lo:
        raise DomainError(f"state covers {state.covers}, below range start {lo}")
    pvals = state.prime_values()
    out = []

    def min_tail(idx, remaining):
        # smallest possible completion: next `remaining` primes, once each
        t = 1
        for j in range(idx, idx + remaining):
            if j >= len(pvals):
                return None
            t *= pvals[j]
        return t

    def rec(idx, remaining, val, factors):
        if remaining == 0:
            if lo < val <= hi:
                out.append((val, sym_prod(factors)))
            return
        for j in range(idx, len(pvals)):
            tail = min_tail(j + 1, remaining - 1)
            if tail is None or val * pvals[j] * tail > hi:
                break
            v = val * pvals[j]
            e = 1
            while v * tail <= hi:
                factor = sym_pow(state.primes[j], state.encoding_of(e))
                rec(j + 1, remaining - 1, v, factors + [factor])
                e += 1
                v *= pvals[j]

    rec(0, c, 1, [])
    return out


def zeta_step(state: SieveState) -> SieveState:
    """Advance one dyadic range, discovering the primes in it."""
    k = state.level
    lo, hi = 2 ** (k + 1), 2 ** (k + 2)
    composite = {}
    for v, enc in prime_power_range(state, k):
        if v in composite:
            raise InternalGapError(f"value {v} generated twice")
        composite[v] = enc
    c = 2
    while True:
        tail = 1
        for pv in state.prime_values()[:c]:
            tail *= pv
        if len(state.primes) < c or tail > hi:
            break
        for v, enc in multi_factor_products(state, k, c):
            if v in composite:
                raise InternalGapError(f"value {v} generated twice")
            composite[v] = enc
        c += 1
    for v in composite:
        if not lo < v <= hi:
            raise InternalGapError(f"value {v} outside range ({lo}, {hi}]")
    integers = list(state.integers)
    primes = list(state.primes)
    for v in range(lo + 1, hi + 1):
        enc = composite.get(v)
        if enc is None:
            enc = sym_sum([integers[v - 2], ONE])
            primes.append(enc)
        integers.append(enc)
    return SieveState(k + 1, tuple(integers), tuple(primes))


def run_sieve(levels: int, force: bool = False) -> SieveState:
    """Run levels + 1 dyadic steps from the initial state (levels >= 1),
    covering 1..2^(levels+2); levels = 0 returns the initial state.

    run_sieve(3).prime_values() lists the 11 primes up to 32.
    Levels beyond 14 (coverage 65536) are refused unless force=True.
    """
    check_cap(require_int(levels, 0, "levels"), MAX_LEVELS, f"sieve levels {levels}",
              force, LevelTooLarge)
    state = initial_state()
    if levels == 0:
        return state
    for _ in range(levels + 1):
        state = zeta_step(state)
    return state


def scf_coarse(levels: int, force: bool = False) -> SieveState:
    """Tower-paced sieve: coverage jumps 2 -> 4 -> 16 -> 65536 per level.

    Internally runs the same dyadic steps, so scf_coarse(t) equals the
    dyadic state of equal coverage.  levels > 2 is refused unless
    force=True (level 3 already builds 65536 encodings).
    """
    check_cap(require_int(levels, 0, "levels"), COARSE_MAX_LEVELS,
              f"coarse sieve levels {levels}", force, LevelTooLarge)
    state = initial_state()
    target = 4
    for _ in range(levels):
        while state.covers < target:
            state = zeta_step(state)
        target = 2**target
    return state


def rational_set(state: SieveState, exponent_bound: int, factor_bound: int) -> list:
    """Signed-exponent extension: products p1^(±e1)*...*pc^(±ec) over at
    most factor_bound distinct known primes, 1 <= e <= exponent_bound,
    plus the empty product 1.

    rational_set(initial_state(), 1, 1) -> [1, x, x^(-1)]
    (values 1, 2, 1/2).
    """
    require_int(exponent_bound, 1, "exponent_bound")
    require_int(factor_bound, 0, "factor_bound")
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
