"""Prime discovery by encoding completion, against a classical sieve."""

import sys
import threading
import time
from fractions import Fraction

import pytest

from formula_forge import (
    DomainError,
    InternalGapError,
    LevelTooLarge,
    ONE,
    Prod,
    SieveState,
    SizeGuard,
    Sum,
    X,
    clear_caches,
    encode_goodstein,
    encode_horner,
    gs_value,
    initial_state,
    multi_factor_products,
    prime_power_range,
    rational_set,
    run_sieve,
    scf_coarse,
    sym_pow,
    sym_prod,
    sym_sum,
    sym_value,
    zeta_step,
)

from formula_forge import canonical, sieve

from conftest import classical_primes


def test_initial_state():
    s = initial_state()
    assert s.level == 0
    assert s.covers == 2
    assert s.integers == (ONE, X)
    assert s.primes == (X,)
    assert s.prime_values() == [2]


def test_run_sieve_zero_is_initial():
    assert run_sieve(0) == initial_state()


def test_small_run_matches_classical_primes():
    s = run_sieve(3)
    assert s.covers == 32
    assert s.prime_values() == classical_primes(32)
    assert len(s.primes) == 11


def test_no_value_is_skipped_and_encodings_are_exact():
    s = run_sieve(6)
    assert s.covers == 256
    for i, enc in enumerate(s.integers):
        assert sym_value(enc) == i + 1
    assert s.prime_values() == classical_primes(256)
    # a prime's flagged encoding is the table entry for that value
    for p, v in zip(s.primes, s.prime_values()):
        assert s.integers[v - 1] == p


def test_encoding_of():
    s = run_sieve(2)
    assert s.encoding_of(1) is ONE
    assert sym_value(s.encoding_of(11)) == 11
    for bad in (0, 17, -3, True, 2.5):
        with pytest.raises(DomainError):
            s.encoding_of(bad)


def test_prime_power_range_golden():
    s = run_sieve(1)  # covers 8, primes 2 3 5 7
    got = prime_power_range(s, 2)
    assert sorted(v for v, _ in got) == [9, 16]
    for v, enc in got:
        assert sym_value(enc) == v
    # squares only show up once their range is reached
    assert [v for v, _ in prime_power_range(s, 1)] == [8]
    with pytest.raises(DomainError):
        prime_power_range(initial_state(), 2)


def test_multi_factor_products_golden():
    s = run_sieve(1)
    got = multi_factor_products(s, 2, 2)
    assert sorted(v for v, _ in got) == [10, 12, 14, 15]
    for v, enc in got:
        assert sym_value(enc) == v
    # no product of three distinct primes fits below 16
    assert multi_factor_products(s, 2, 3) == []
    for bad in (1, 0, -2, True, "2"):
        with pytest.raises(DomainError):
            multi_factor_products(s, 2, bad)
    with pytest.raises(DomainError):
        multi_factor_products(initial_state(), 2, 2)


@pytest.mark.parametrize("bad", [-1, -2, -3, 1.5, "2", True])
def test_range_filters_refuse_a_bad_k(bad):
    # not a raw TypeError, an empty range for -1, or True read as 1
    s = run_sieve(1)
    for call in (sieve._encode_range, prime_power_range,
                 lambda s, k: multi_factor_products(s, k, 2)):
        with pytest.raises(DomainError):
            call(s, bad)


def test_products_and_powers_ascend_by_value():
    s = run_sieve(6)
    powers = prime_power_range(s, 7)
    assert [v for v, _ in powers] == sorted(v for v, _ in powers)
    assert [v for v, _ in powers][:3] == [289, 343, 361]
    products = multi_factor_products(s, 7, 3)
    assert [v for v, _ in products] == sorted(v for v, _ in products)
    assert [v for v, _ in products][:4] == [258, 260, 264, 266]


def _reference_composites(state, k):
    """The composites of sieve._encode_range by the walk over each prime's
    multiples, smallest prime first, with a flag per value that a smaller
    prime claimed: composites grouped by smallest prime, and p^e placed by
    counting the cofactor's larger factors."""
    lo, hi = 2 ** (k + 1), 2 ** (k + 2)
    claimed = bytearray(hi - lo)
    out = []
    for p, vp in zip(state.primes, state.prime_values()):
        if vp * vp > hi:
            break
        for v in range(lo - lo % vp + vp, hi + 1, vp):
            if claimed[v - lo - 1]:
                continue
            claimed[v - lo - 1] = 1
            e, b = 1, v // vp
            while b % vp == 0:
                e, b = e + 1, b // vp
            power = sym_pow(p, state.integers[e - 1])
            if b == 1:
                out.append((v, power))
                continue
            fb = state.integers[b - 1]
            fs = fb.factors if type(fb) is Prod else (fb,)
            i = sum(sym_value(f) > v // b for f in fs)
            out.append((v, Prod((*fs[:i], power, *fs[i:]))))
    return out


@pytest.mark.parametrize("k", range(13))
def test_composites_equal_the_reference_walk(k):
    state = sieve._dyadic(k)
    got = sieve._encode_range(state, k)
    assert [v for v, _ in got] == list(range(2 ** (k + 1) + 1, 2 ** (k + 2) + 1))
    want = sorted(_reference_composites(state, k))
    composites = [(v, e) for v, e in got if type(e) is not Sum]
    assert [v for v, _ in composites] == [v for v, _ in want]
    assert all(a is b for (_, a), (_, b) in zip(composites, want, strict=True))
    # the rest are the primes, each its predecessor plus one
    primes = [(v, e) for v, e in got if type(e) is Sum]
    assert [v for v, _ in primes] == classical_primes(2 ** (k + 2))[len(state.primes):]
    known = dict(got)
    assert all(e is Sum((known.get(v - 1) or state.integers[v - 2], ONE)) for v, e in primes)


def test_zeta_step_advances_one_range():
    s = run_sieve(2)
    t = zeta_step(s)
    assert t.level == s.level + 1
    assert t.covers == 2 * s.covers
    assert t.integers[: s.covers] == s.integers
    assert t.prime_values() == classical_primes(t.covers)


@pytest.mark.parametrize("level", range(13))
def test_zeta_step_keeps_the_encodings_of_the_range(level):
    s = sieve._dyadic(level)
    found = zeta_step(s).integers[s.covers:]
    want = sieve._encode_range(s, s.level)
    assert len(found) == len(want) == s.covers
    assert all(a is b for a, (_, b) in zip(found, want))


def test_corrupt_state_is_detected():
    # a duplicated prime makes the same power arrive twice
    broken = SieveState(0, (ONE, X), (X, X))
    with pytest.raises(InternalGapError):
        zeta_step(broken)


def test_known_primes_out_of_order_are_detected():
    # 3 flagged before 2: the smallest-prime construction needs them ascending
    three = sym_sum([X, ONE])
    broken = SieveState(1, (ONE, X, three, sym_prod([X, X])), (three, X))
    with pytest.raises(InternalGapError):
        zeta_step(broken)
    with pytest.raises(InternalGapError):
        prime_power_range(broken, 1)


def _step_chain(steps):
    """Fresh states after 0..steps zeta_steps, none taken from the table."""
    chain = [initial_state()]
    for _ in range(steps):
        chain.append(zeta_step(chain[-1]))
    return chain


def test_run_sieve_in_any_order_equals_the_step_chain():
    clear_caches()
    chain = _step_chain(15)
    for levels in (13, 3, 11, 0, 14, 5):
        got = run_sieve(levels)
        want = chain[levels + 1 if levels else 0]
        # a longer table never leaks into a shorter state; compared without
        # letting pytest diff the reprs of thousands of nodes on failure
        same = got == want
        assert same, f"run_sieve({levels}) is not the state after {want.level} steps"
        assert (got.level, got.covers) == (want.level, 2 ** (levels + 2) if levels else 2)
    same = scf_coarse(2) == chain[3] and scf_coarse(1) == chain[1]
    assert same


def test_racing_threads_get_one_state_per_level():
    clear_caches()
    orders = [(8, 3, 6), (6, 8, 3), (3, 6, 8), (8, 6, 3)]
    results = [None] * len(orders)
    start = threading.Barrier(len(orders))

    def run(k):
        start.wait(timeout=60)
        results[k] = {levels: run_sieve(levels) for levels in orders[k]}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(orders))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    chain = _step_chain(9)
    for levels in (3, 6, 8):
        assert all(got[levels] is results[0][levels] for got in results)
        same = results[0][levels] == chain[levels + 1] and run_sieve(levels) is results[0][levels]
        assert same


def test_clear_caches_keeps_results_and_nodes():
    before = run_sieve(12)
    form = encode_goodstein(10**30 + 7)
    value = gs_value(form)
    node = sym_prod([sym_sum([X, ONE]), X])
    horner = encode_horner(2**64 - 59)
    clear_caches()
    for cached in (sym_value, gs_value, canonical._x_pow):
        assert cached.cache_info().currsize == 0
    assert encode_horner(2**64 - 59) is horner
    after = run_sieve(12)
    same = after == before
    assert same and after is not before  # rebuilt, not kept
    assert sym_prod([sym_sum([X, ONE]), X]) is node  # interned nodes survive
    assert encode_goodstein(10**30 + 7) is form and gs_value(form) == value


def test_run_sieve_guards():
    with pytest.raises(LevelTooLarge):
        run_sieve(15)
    for bad in (-1, 1.5, True, "3"):
        with pytest.raises(DomainError):
            run_sieve(bad)


def test_coarse_matches_dyadic_at_equal_coverage():
    assert scf_coarse(0) == initial_state()
    assert scf_coarse(1) == zeta_step(initial_state())
    assert scf_coarse(1).covers == 4
    two = scf_coarse(2)
    assert two.covers == 16
    assert two == run_sieve(2)
    with pytest.raises(DomainError):
        scf_coarse(-1)
    # coarse level 3 covers 65536, as the dyadic state of MAX_LEVELS does
    assert scf_coarse(3) is run_sieve(sieve.MAX_LEVELS)
    for levels in (4, 6, 10**6):  # refused before the tower passes 2^65536
        start = time.perf_counter()
        with pytest.raises(LevelTooLarge, match=rf"> {sieve.MAX_LEVELS};.*--unsafe"):
            scf_coarse(levels)
        assert time.perf_counter() - start < 1


def test_rational_set_golden():
    got = rational_set(initial_state(), 1, 1)
    assert [str(e) for e in got] == ["1", "x", "x^(-1)"]
    assert [sym_value(e) for e in got] == [1, 2, Fraction(1, 2)]


def test_rational_set_counts_and_values():
    s = run_sieve(1)  # 4 primes known
    got = rational_set(s, 2, 2)
    # sum over c of C(4, c) * 4^c picks: 1 + 16 + 96
    assert len(got) == 113
    values = [sym_value(e) for e in got]
    assert len(set(values)) == len(values)
    assert all(isinstance(v, (int, Fraction)) and v > 0 for v in values)


def test_rational_set_guard_refuses_before_building(monkeypatch):
    state = run_sieve(14)  # 6,542 primes: (2, 2) would build about 3.4e8 products
    start = time.perf_counter()
    with pytest.raises(SizeGuard):
        rational_set(state, 2, 2)
    assert time.perf_counter() - start < 1
    monkeypatch.setattr(sieve, "MAX_RATIONALS", 112)
    with pytest.raises(SizeGuard):
        rational_set(run_sieve(1), 2, 2)
    assert len(rational_set(run_sieve(1), 2, 2, force=True)) == 113


def test_rational_set_validation():
    s = initial_state()
    with pytest.raises(DomainError):
        rational_set(s, 0, 1)
    with pytest.raises(DomainError):
        rational_set(s, 1, -1)
    with pytest.raises(DomainError):
        rational_set(s, 3, 1)  # exponent 3 has no encoding yet
    with pytest.raises(DomainError):
        rational_set(s, True, 1)
