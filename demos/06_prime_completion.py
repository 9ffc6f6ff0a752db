"""Primes discovered by completing a table of encodings.

The sieve never runs a primality test.  It keeps one shorthand expression
per integer covered so far and extends coverage one dyadic range at a
time: everything in (2^(k+1), 2^(k+2)] expressible from known primes gets
a composite encoding, and whatever is left over must be a new prime.
"""

from bisect import bisect_right

from formula_forge import (
    initial_state,
    multi_factor_products,
    prime_power_range,
    rational_set,
    render,
    run_sieve,
    scf_coarse,
    sym_value,
    zeta_step,
)


def classical(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i in range(limit + 1) if flags[i]]


print("= stepping the sieve =")
state = initial_state()
print(f"level 0 covers 1..{state.covers}, primes {state.prime_values()}")
reference = classical(4096)
for _ in range(10):
    before = set(state.prime_values())
    state = zeta_step(state)
    new = sorted(set(state.prime_values()) - before)
    lo, hi = state.covers // 2, state.covers
    expected = reference[bisect_right(reference, lo) : bisect_right(reference, hi)]
    assert new == expected
    print(f"level {state.level} covers 1..{state.covers}: {len(new)} new primes {new[:8]}{'...' if len(new) > 8 else ''}")
print()

print("= encodings it assigned =")
for v in (7, 12, 31, 100, 128, 2047):
    print(f"{v:>5} = {render(state.encoding_of(v))}")
print()

# The leftovers rule at work inside one range: every composite in (32, 64]
# is either a prime power or a product of distinct prime powers, so once
# the table covers 1..32 those encodings pin down the primes in (32, 64].
small = run_sieve(3)
pp = prime_power_range(small, 4)
mf = multi_factor_products(small, 4, 2) + multi_factor_products(small, 4, 3)
covered = {v for v, _ in pp} | {v for v, _ in mf}
leftovers = sorted(set(range(33, 65)) - covered)
print(f"range (32, 64]: prime powers {sorted(v for v, _ in pp)}")
print(f"new primes by elimination: {leftovers}")
assert leftovers == [37, 41, 43, 47, 53, 59, 61]
print()

print("= coarse variant =")
# scf_coarse paces coverage as a tower: each level turns the bound c into 2^c.
for t in range(3):
    s = scf_coarse(t)
    print(f"coarse level {t} covers 1..{s.covers}, {len(s.primes)} primes")
print()

print("= rationals from the same table =")
state2 = run_sieve(2)
rats = rational_set(state2, 2, 2)
for e in rats[:6]:
    print(f"{render(e)} = {sym_value(e)}")
