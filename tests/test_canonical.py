"""Hereditary base-x normal forms, their arithmetic, and the level lists."""

import random
from functools import lru_cache
from heapq import heapify, heappop, heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formula_forge import (
    DomainError,
    GS_ONE,
    GoodsteinForm,
    LevelTooLarge,
    MagnitudeError,
    ONE,
    SizeGuard,
    X,
    ZERO,
    canonical,
    clear_caches,
    encode_goodstein,
    encode_horner,
    expand_x,
    g_add,
    g_mul,
    g_pow,
    goodstein_levels,
    gs_to_symexpr,
    gs_value,
    horner_levels,
    render,
    sym_pow,
    sym_sum,
    sym_value,
)


def is_normal(f):
    """Exponents strictly decreasing by value, recursively."""
    if not isinstance(f, GoodsteinForm):
        return False
    vals = [gs_value(e) for e in f.exponents]
    if any(u <= v for u, v in zip(vals, vals[1:])):
        return False
    return all(is_normal(e) for e in f.exponents)


# encoding and value

def test_encode_round_trip():
    for n in range(2049):
        f = encode_goodstein(n)
        assert gs_value(f) == n
        assert is_normal(f)


def test_encode_goldens():
    assert encode_goodstein(0) == ZERO
    assert encode_goodstein(1) == GS_ONE
    assert encode_goodstein(2) == GoodsteinForm((GS_ONE,))
    # 6 = 2^2 + 2^1: exponent values descending
    six = encode_goodstein(6)
    assert [gs_value(e) for e in six.exponents] == [2, 1]


def test_encode_rejects_bad_input():
    for bad in (-1, True, 2.0, "3", None):
        with pytest.raises(DomainError):
            encode_goodstein(bad)


def test_forms_are_hashable_and_comparable():
    a = encode_goodstein(100)
    b = encode_goodstein(100)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b, encode_goodstein(101)}) == 2


def test_str_goldens():
    assert str(ZERO) == "0"
    assert str(GS_ONE) == "1"
    assert str(encode_goodstein(2)) == "x"
    assert str(encode_goodstein(6)) == "x^x + x"
    assert str(encode_goodstein(7)) == "x^x + x + 1"
    with pytest.raises(DomainError):
        gs_to_symexpr(ZERO)


def test_symexpr_view_matches_value():
    for n in range(1, 300):
        assert sym_value(gs_to_symexpr(encode_goodstein(n))) == n


def _sym_sum_view(f):
    """f's expression with each sum sorted by sym_sum: the node that
    gs_to_symexpr, building each Sum in the form's own order, must give."""
    return sym_sum([ONE if e is ZERO else sym_pow(X, _sym_sum_view(e)) for e in f.exponents])


def test_symexpr_view_is_the_sym_sum_node():
    forms = [encode_goodstein(n) for n in range(1, 1 << 12)]
    rng = random.Random(4096)
    for _ in range(50):
        a, b = (encode_goodstein(rng.randint(1, 10**6)) for _ in range(2))
        forms.append(g_mul(a, b))
    for a in (2, 3, 7):
        for b in (5, 13, 100):
            forms.append(g_pow(encode_goodstein(a), encode_goodstein(b)))
    forms.append(g_pow(encode_goodstein(3), encode_goodstein(2000)))
    for f in forms:
        assert gs_to_symexpr(f) is _sym_sum_view(f)


def test_deep_forms_are_too_deep_to_walk():
    # x^(x^(...^(x^0))) 3,000 levels deep, built by hand: encode_goodstein
    # never nests this far, and its value is a tower of 2s far past memory
    f = ZERO
    for _ in range(3000):
        f = GoodsteinForm((f,))
    for _ in range(2):  # a cold cache, then one emptied by clear_caches()
        for walk in (str, gs_value, gs_to_symexpr):
            with pytest.raises(SizeGuard, match="Goodstein form nests too deeply"):
                walk(f)
        clear_caches()


def test_deep_conversion_does_not_depend_on_earlier_conversions():
    # sub-forms 250 levels apart: a table kept from one call to the next
    # would let each rung, and at last the whole form, convert past the
    # recursion limit; a table per call refuses the form every time
    chain = [ZERO]
    for _ in range(3000):
        chain.append(GoodsteinForm((chain[-1],)))
    converted = []
    for depth in (*range(250, 3000, 250), 1000):
        try:
            converted.append(gs_to_symexpr(chain[depth]))
        except SizeGuard:
            pass
    assert converted[0] is sym_pow(X, gs_to_symexpr(chain[249]))
    with pytest.raises(SizeGuard, match="Goodstein form nests too deeply to convert"):
        gs_to_symexpr(chain[3000])


def test_conversion_reuses_each_shared_exponent(monkeypatch):
    # 3^2000 has 1,583 distinct forms among its exponents, shared by many terms
    f = g_pow(encode_goodstein(3), encode_goodstein(2000))
    calls = []
    walk = canonical._gs_to_symexpr
    monkeypatch.setattr(canonical, "_gs_to_symexpr",
                        lambda g, done: calls.append(g) or walk(g, done))
    gs_to_symexpr(f)
    assert len(calls) == len(set(calls)) == 1582  # each nonzero form once


# arithmetic: the binary-expansion encoder is the oracle, and normal forms
# are unique, so structural equality is the strongest possible check

def test_add_exhaustive_small():
    for a in range(65):
        fa = encode_goodstein(a)
        for b in range(65):
            assert g_add(fa, encode_goodstein(b)) == encode_goodstein(a + b)


def test_mul_exhaustive_small():
    for a in range(65):
        fa = encode_goodstein(a)
        for b in range(65):
            assert g_mul(fa, encode_goodstein(b)) == encode_goodstein(a * b)


def test_add_mul_random_pairs():
    rng = random.Random(20211)
    for _ in range(300):
        a = rng.randint(0, 10**6)
        b = rng.randint(0, 10**6)
        assert g_add(encode_goodstein(a), encode_goodstein(b)) == encode_goodstein(a + b)
        assert g_mul(encode_goodstein(a), encode_goodstein(b)) == encode_goodstein(a * b)


def test_add_identity_and_carry_chain():
    f = encode_goodstein(12345)
    assert g_add(f, ZERO) == f
    assert g_add(ZERO, f) == f
    # 63 + 1 carries through six positions
    assert g_add(encode_goodstein(63), GS_ONE) == encode_goodstein(64)


# the heap carry that the multiplicity carry replaced, kept here as an
# oracle: same forms, reached by a different route

def heap_normal(exponents):
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
                form[v + 1] = heap_add(form[v], GS_ONE)
        else:
            out.append(form[v])
    return GoodsteinForm(tuple(reversed(out)))


@lru_cache(maxsize=None)
def heap_add(a, b):
    return heap_normal(a.exponents + b.exponents)


def heap_mul(a, b):
    return heap_normal([heap_add(e, f) for e in a.exponents for f in b.exponents])


# operands up to about 300 bits: small-biased integers, dense random bit
# strings, and runs of ones, whose products carry the longest
OPERANDS = st.one_of(
    st.integers(0, 2**300),
    st.binary(max_size=38).map(lambda raw: int.from_bytes(raw, "big")),
    st.integers(0, 300).map(lambda k: 2**k - 1),
)


@settings(max_examples=100, deadline=None)
@given(a=OPERANDS, b=OPERANDS)
def test_add_mul_match_the_heap_carry(a, b):
    fa, fb = encode_goodstein(a), encode_goodstein(b)
    assert g_add(fa, fb) is heap_add(fa, fb)
    assert g_mul(fa, fb) is heap_mul(fa, fb)
    # a square takes each unordered pair of exponents once
    two = encode_goodstein(2)
    assert g_pow(fa, two) is g_mul(fa, fa) is heap_mul(fa, fa)


def test_carry_runs_past_the_largest_count():
    # 2^k copies of x^0 carry k places up; 3 copies leave x^1 + x^0
    assert canonical._normal({0: 2**40}) is encode_goodstein(2**40)
    assert canonical._normal({5: 3, 7: 1}) is encode_goodstein(3 * 32 + 128)
    assert canonical._normal({}) is ZERO


def test_mul_pair_guard():
    cap = canonical.MAX_MUL_PAIRS
    wide = encode_goodstein(2 ** (cap // 1000 + 1) - 1)  # popcount cap // 1000 + 1
    narrow = encode_goodstein(2**1000 - 1)  # popcount 1000
    with pytest.raises(SizeGuard, match=str(cap)):
        g_mul(wide, narrow)
    assert gs_value(g_mul(wide, narrow, force=True)) == gs_value(wide) * gs_value(narrow)
    assert gs_value(g_mul(narrow, narrow)) == gs_value(narrow) ** 2


def test_pow_pair_guard_counts_every_multiply():
    # each multiply of 3 ** 3500 stays under the cap; together they pass it
    # (2,429,102 pairs, a square's n exponents counted as n(n + 1)/2)
    three, big = encode_goodstein(3), encode_goodstein(3500)
    with pytest.raises(SizeGuard, match=str(canonical.MAX_MUL_PAIRS)):
        g_pow(three, big)
    assert g_pow(three, big, force=True) is encode_goodstein(3**3500)
    assert g_pow(three, encode_goodstein(2000)) is encode_goodstein(3**2000)
    # 1,760,480 pairs; 2,168,983 when a square took every ordered pair
    assert g_pow(three, encode_goodstein(3000)) is encode_goodstein(3**3000)


def test_pow_exhaustive_small():
    for a in range(7):
        fa = encode_goodstein(a)
        for b in range(7):
            assert g_pow(fa, encode_goodstein(b)) == encode_goodstein(a**b)


def test_pow_edge_cases():
    assert g_pow(ZERO, ZERO) == GS_ONE
    assert g_pow(ZERO, encode_goodstein(5)) == ZERO
    assert g_pow(GS_ONE, encode_goodstein(9)) == GS_ONE
    assert g_pow(encode_goodstein(9), ZERO) == GS_ONE


def test_pow_worked_example():
    # (x^x + 1) ^ (x + 1) at the base value: 5 ** 3 = 125
    five = encode_goodstein(5)
    three = encode_goodstein(3)
    result = g_pow(five, three)
    assert result == encode_goodstein(125)
    assert str(result) == (
        "x^(x^x + x) + x^(x^x + 1) + x^(x^x) + x^(x + 1) + x^x + 1"
    )


def test_pow_magnitude_guard(monkeypatch):
    two = encode_goodstein(2)
    with pytest.raises(MagnitudeError):
        g_pow(two, encode_goodstein(2**21))
    # the guard is on predicted bits, not on operand size
    monkeypatch.setattr(canonical, "MAX_POW_BITS", 100)
    assert g_pow(two, encode_goodstein(64)) == encode_goodstein(2**64)
    monkeypatch.setattr(canonical, "MAX_POW_BITS", 60)
    with pytest.raises(MagnitudeError):
        g_pow(two, encode_goodstein(64))
    assert g_pow(two, encode_goodstein(64), force=True) == encode_goodstein(2**64)


def test_pow_magnitude_guard_at_its_boundary(monkeypatch):
    # 2 ** 64 has 65 bits, which the estimate vb * (bit_length(va) - 1) + 1 gives
    two, exponent = encode_goodstein(2), encode_goodstein(64)
    monkeypatch.setattr(canonical, "MAX_POW_BITS", 65)
    assert g_pow(two, exponent) is encode_goodstein(2**64)
    monkeypatch.setattr(canonical, "MAX_POW_BITS", 64)
    with pytest.raises(MagnitudeError, match="^a power of about 65 bits > 64;"):
        g_pow(two, exponent)


def test_pow_pair_guard_counts_a_square_as_its_unordered_pairs(monkeypatch):
    # 7 ** 2: the square of 7's 3 exponents counts 3 * 4 / 2 = 6 pairs, and
    # the multiply by it 1 * 3 more, 9 in all
    seven, two = encode_goodstein(7), encode_goodstein(2)
    monkeypatch.setattr(canonical, "MAX_MUL_PAIRS", 9)
    assert g_pow(seven, two) is encode_goodstein(49)
    monkeypatch.setattr(canonical, "MAX_MUL_PAIRS", 8)
    with pytest.raises(SizeGuard, match="^9 exponent pairs to multiply > 8;"):
        g_pow(seven, two)


# level lists

def test_goodstein_level_zero_and_one():
    assert goodstein_levels(0) == [ONE, X]
    lvl = goodstein_levels(1)
    assert len(lvl) == 7
    assert {sym_value(e) for e in lvl} == set(range(1, 8))
    assert {str(e) for e in lvl} == {
        "1",
        "x",
        "x + 1",
        "x^x",
        "x^x + 1",
        "x^x + x",
        "x^x + x + 1",
    }


def test_goodstein_level_two_is_every_normal_form():
    lvl = goodstein_levels(2)
    assert len(lvl) == 255
    assert {sym_value(e) for e in lvl} == set(range(1, 256))
    expected = {gs_to_symexpr(encode_goodstein(n)) for n in range(1, 256)}
    assert set(lvl) == expected


def test_goodstein_level_guard():
    with pytest.raises(LevelTooLarge):
        goodstein_levels(3)
    for bad in (-1, 1.5, True, "2"):
        with pytest.raises(DomainError):
            goodstein_levels(bad)


def test_goodstein_level_three_is_a_hard_limit():
    # level 3 holds 2^256 - 1 expressions: refused at once, with no override
    for t in (3, 4):
        with pytest.raises(LevelTooLarge, match=r"> 2: .*2\^256 - 1 expressions"):
            goodstein_levels(t)
    with pytest.raises(TypeError):
        goodstein_levels(3, force=True)


def test_horner_level_zero_and_one():
    base = horner_levels(0)
    assert base == [ONE, X, sym_sum([X, ONE]), sym_pow(X, X)]
    lvl = horner_levels(1)
    assert [str(e) for e in lvl] == [
        "1",
        "x",
        "x + 1",
        "x^x",
        "(x + 1)*x",
        "x^x*(x + 1)",
        "x^(x^x)",
        "x^(x + 1)",
        "x^x + 1",
    ]
    assert [sym_value(e) for e in lvl] == [1, 2, 3, 4, 6, 12, 16, 8, 5]


def test_horner_levels_agree_with_direct_encoder():
    # every listed expression is exactly the directly encoded form of
    # its value, and no value appears twice
    for t in (2, 3):
        lvl = horner_levels(t)
        values = [sym_value(e) for e in lvl]
        assert len(set(values)) == len(values)
        for e, v in zip(lvl, values):
            assert encode_horner(v) == e
    assert len(horner_levels(2)) == 22
    assert len(horner_levels(3)) == 80


def test_horner_level_guard():
    with pytest.raises(LevelTooLarge):
        horner_levels(4)
    with pytest.raises(DomainError):
        horner_levels(-2)


def test_horner_level_four_is_a_hard_limit():
    # level 4 holds values near 2^(2^65536): refused at once, with no override
    with pytest.raises(LevelTooLarge, match=r"> 3: .*past an int"):
        horner_levels(4)
    with pytest.raises(TypeError):
        horner_levels(4, force=True)


# direct Horner encoder

def test_horner_encode_goldens():
    assert encode_horner(1) is ONE
    assert encode_horner(2) is X
    assert str(encode_horner(3)) == "x + 1"
    assert str(encode_horner(4)) == "x^x"
    assert str(encode_horner(5)) == "x^x + 1"
    assert str(encode_horner(6)) == "(x + 1)*x"
    assert str(encode_horner(7)) == "(x + 1)*x + 1"
    assert str(encode_horner(8)) == "x^(x + 1)"
    assert str(encode_horner(12)) == "x^x*(x + 1)"


def test_horner_encode_round_trip():
    for n in range(1, 4097):
        assert sym_value(encode_horner(n)) == n


def test_horner_encode_deep_operand():
    # 2**k - 1 takes k odd and k even peeling steps: a 2,000-step chain here
    n = 2**1000 - 1
    e = encode_horner(n)
    assert sym_value(e) == n
    with pytest.raises(SizeGuard):
        render(e)


def test_horner_encode_renders_180_bits_cold():
    # 360 levels from an empty text table: the table costs no frame per level
    n = 2**180 - 1
    clear_caches()
    e = encode_horner(n)
    assert eval(render(e).replace("^", "**"), {"x": 2}) == n


def test_horner_encode_deep_operand_is_too_deep_to_expand():
    with pytest.raises(SizeGuard):
        expand_x(encode_horner(2**1000 - 1))


def test_horner_encode_rejects_bad_input():
    for bad in (0, -5, True, 1.0, "8"):
        with pytest.raises(DomainError):
            encode_horner(bad)
