import os
import random
import subprocess
import sys
import textwrap
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import formula_forge

from formula_forge import (
    CountTable,
    DomainError,
    NoMultiplicativeSplit,
    count_add_lop,
    count_add_only,
    count_am,
    count_ame,
    enumerate_add,
    enumerate_add_lop,
    enumerate_am,
    enumerate_ame,
    sample_add,
    sample_add_lop,
    sample_am,
    sample_ame,
)
from formula_forge.counting import FAMILIES, exponent_candidates, mid_divisors
from formula_forge import sampling
from formula_forge.sampling import sample_from
from formula_forge.trees import evaluate, is_strict


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


def test_roll_loaded_die_degenerate():
    rng = random.Random(0)
    assert all(roll_loaded_die([0, 7], rng) == 2 for _ in range(20))
    assert all(roll_loaded_die([5], rng) == 1 for _ in range(5))
    assert all(roll_loaded_die([0, 0, 3, 0], rng) == 3 for _ in range(5))


def test_roll_loaded_die_errors():
    rng = random.Random(0)
    with pytest.raises(DomainError):
        roll_loaded_die([], rng)
    with pytest.raises(DomainError):
        roll_loaded_die([0, 0], rng)
    with pytest.raises(DomainError):
        roll_loaded_die([3, -1], rng)


def test_roll_loaded_die_covers_support():
    rng = random.Random(123)
    seen = {roll_loaded_die([1, 2, 3], rng) for _ in range(500)}
    assert seen == {1, 2, 3}


class _OwnBits(random.Random):
    """A subclass with its own getrandbits, which randint then draws through."""

    def getrandbits(self, k):
        return super().getrandbits(k)


# every total whose bit length is at an edge of the rejection loop
_EDGE_TOTALS = [1, 2, 3, *(2**k + d for k in range(2, 301) for d in (-1, 0, 1))]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), big=st.integers(1, 2**2000),
       cls=st.sampled_from([random.Random, _OwnBits]))
def test_sampler_roll_is_randint(seed, big, cls):
    """The sampler's own roll is randint(1, w): the same value and the same
    rng state after it, so seeded samples do not depend on which one runs."""
    rng, reference = cls(seed), cls(seed)
    for w in [*_EDGE_TOTALS, big]:
        got, want = sampling._roll(rng.getrandbits, w), reference.randint(1, w)
        assert got == want, (
            f"randint(1, {w}) no longer draws by the getrandbits rejection loop that "
            "sampling._roll copies; seeded samples would change with it")
    assert rng.getstate() == reference.getstate(), "_roll left a different rng state"


def test_samples_are_valid():
    rng = random.Random(99)
    for n in [1, 2, 7, 12, 30]:
        t = sample_add(n, rng)
        assert evaluate(t) == n
        t = sample_add_lop(n, rng)
        assert evaluate(t) == n
        t = sample_am(n, rng)
        assert evaluate(t) == n and is_strict(t)
        t = sample_ame(n, rng)
        assert evaluate(t) == n and is_strict(t)


def test_seed_determinism():
    a = [sample_ame(15, random.Random(7)) for _ in range(5)]
    b = [sample_ame(15, random.Random(7)) for _ in range(5)]
    assert a == b
    seq1 = random.Random(11)
    seq2 = random.Random(11)
    assert [sample_am(9, seq1) for _ in range(10)] == [
        sample_am(9, seq2) for _ in range(10)
    ]


def test_forced_roots():
    rng = random.Random(3)
    for _ in range(10):
        assert sample_am(12, rng, "*")[0] == "*"
        assert sample_ame(16, rng, "^")[0] == "^"
        assert sample_ame(12, rng, "+")[0] == "+"


def test_no_multiplicative_split():
    rng = random.Random(0)
    with pytest.raises(NoMultiplicativeSplit):
        sample_am(7, rng, "*")
    with pytest.raises(NoMultiplicativeSplit):
        sample_am(1, rng, "*")
    with pytest.raises(NoMultiplicativeSplit):
        sample_ame(13, rng, "*")
    with pytest.raises(DomainError):
        sample_ame(12, rng, "^")  # 12 is not a perfect power
    with pytest.raises(DomainError):
        sample_am(6, rng, "^")


def test_domain_errors():
    rng = random.Random(0)
    for bad in [0, -1, 1.5, "3"]:
        with pytest.raises(DomainError):
            sample_ame(bad, rng)
    for bad in ({}, ["+"], None):
        with pytest.raises(DomainError):
            sample_am(5, rng, root=bad)


# -- exact uniformity: branch-probability products telescope to 1/count ----


def prob_add(t):
    n = evaluate(t)
    if t == 1:
        return Fraction(1)
    va, vb = evaluate(t[1]), evaluate(t[2])
    total = sum(count_add_only(i) * count_add_only(n - i) for i in range(1, n))
    p = Fraction(count_add_only(va) * count_add_only(vb), total)
    return p * prob_add(t[1]) * prob_add(t[2])


def prob_add_lop(t):
    n = evaluate(t)
    if t == 1:
        return Fraction(1)
    va, vb = evaluate(t[1]), evaluate(t[2])
    total = sum(
        count_add_lop(i) * count_add_lop(n - i) for i in range(1, n // 2 + 1)
    )
    p = Fraction(count_add_lop(va) * count_add_lop(vb), total)
    return p * prob_add_lop(t[1]) * prob_add_lop(t[2])


def prob_am(t, forced=False):
    n = evaluate(t)
    if t == 1:
        return Fraction(1)
    gate = t[0]
    p = Fraction(1) if forced else Fraction(count_am(n, gate), count_am(n))
    va, vb = evaluate(t[1]), evaluate(t[2])
    if gate == "+":
        total = sum(count_am(i) * count_am(n - i) for i in range(1, n))
        p *= Fraction(count_am(va) * count_am(vb), total)
    else:
        total = sum(count_am(d) * count_am(n // d) for d in mid_divisors(n))
        p *= Fraction(count_am(va) * count_am(vb), total)
    return p * prob_am(t[1]) * prob_am(t[2])


def prob_ame(t, forced=False):
    n = evaluate(t)
    if t == 1:
        return Fraction(1)
    gate = t[0]
    p = Fraction(1) if forced else Fraction(count_ame(n, gate), count_ame(n))
    va, vb = evaluate(t[1]), evaluate(t[2])
    if gate == "+":
        total = sum(count_ame(i) * count_ame(n - i) for i in range(1, n))
        p *= Fraction(count_ame(va) * count_ame(vb), total)
    elif gate == "*":
        total = sum(count_ame(d) * count_ame(n // d) for d in mid_divisors(n))
        p *= Fraction(count_ame(va) * count_ame(vb), total)
    else:
        total = sum(
            count_ame(b) * count_ame(i) for i, b in exponent_candidates(n)
        )
        p *= Fraction(count_ame(va) * count_ame(vb), total)
    return p * prob_ame(t[1]) * prob_ame(t[2])


def test_exact_uniformity():
    for n in range(1, 7):
        for t in enumerate_add(n):
            assert prob_add(t) == Fraction(1, count_add_only(n))
        for t in enumerate_add_lop(n):
            assert prob_add_lop(t) == Fraction(1, count_add_lop(n))
        for t in enumerate_am(n):
            assert prob_am(t) == Fraction(1, count_am(n))
        for t in enumerate_ame(n):
            assert prob_ame(t) == Fraction(1, count_ame(n))


def test_exact_uniformity_forced_roots():
    for n in range(2, 7):
        for g in "+*":
            trees = list(enumerate_am(n, g))
            for t in trees:
                assert prob_am(t, forced=True) == Fraction(1, count_am(n, g))
        for g in "+*^":
            trees = list(enumerate_ame(n, g))
            for t in trees:
                assert prob_ame(t, forced=True) == Fraction(1, count_ame(n, g))


def test_chi_square_uniformity_small():
    from scipy.stats import chisquare

    n = 5
    trees = list(enumerate_ame(n))
    rng = random.Random(2024)
    counts = {t: 0 for t in trees}
    draws = 500 * len(trees)
    for _ in range(draws):
        counts[sample_ame(n, rng)] += 1
    stat, p = chisquare(list(counts.values()))
    assert p > 0.001


# -- the sampler against its first form: rebuilt weights at every roll -----

_REFERENCE_COUNTS = CountTable()  # its own table, not the sampler's
_NO_SPLIT = {"*": NoMultiplicativeSplit, "^": DomainError}


def reference_sample(family, n, rng, root):
    """sample_from as first written: at each node the weight list is rebuilt
    from table lookups and rolled with roll_loaded_die."""
    count, rules = _REFERENCE_COUNTS.count, family.rules

    def rec(m, top):
        if m == 1 and top[0] is rules[0]:
            return 1
        rule = top[0]
        if len(top) > 1:
            weights = [count(family.name, m, g) for g, _ in top]
            rule = top[roll_loaded_die(weights, rng) - 1]
        gate, splits = rule
        pairs = list(splits(m))
        if not pairs:
            raise _NO_SPLIT[gate](f"{m} has no split")
        weights = [count(family.name, a) * count(family.name, b) for a, b in pairs]
        a, b = pairs[roll_loaded_die(weights, rng) - 1]
        return (gate, rec(a, rules), rec(b, rules))

    top = rules if root == "all" else tuple(r for r in rules if r[0] == root)
    return rec(n, top)


def _outcome(sampler, family, n, rng, root):
    try:
        return sampler(family, n, rng, root)
    except (DomainError, NoMultiplicativeSplit) as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from([FAMILIES[name] for name in sorted(FAMILIES)]),
    # exact powers and primes make forced * and ^ roots split or fail
    n=st.integers(1, 120) | st.sampled_from([1, 2, 4, 7, 8, 16, 27, 64, 81, 97, 100]),
    seed=st.integers(0, 2**32 - 1),
    draws=st.integers(1, 3),
    data=st.data(),
)
def test_sampler_matches_rebuilt_weight_rolls(family, n, seed, draws, data):
    root = data.draw(st.sampled_from(sorted({"all", *family.columns})))
    rng, reference_rng = random.Random(seed), random.Random(seed)
    for _ in range(draws):
        got = _outcome(sample_from, family, n, rng, root)
        assert got == _outcome(reference_sample, family, n, reference_rng, root)
    assert rng.getstate() == reference_rng.getstate()


_CASES = [(family, root) for _, family in sorted(FAMILIES.items())
          for root in sorted({"all", *family.columns})]


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(_CASES), n=st.integers(121, 400),
       seed=st.integers(0, 2**32 - 1), draws=st.integers(1, 2))
# the smallest sums with a mirrored half: (1, 1), then (1, 2) | (2, 1),
# then (1, 3) | (2, 2) | (3, 1)
@example(case=(FAMILIES["a"], "all"), n=2, seed=0, draws=1)
@example(case=(FAMILIES["am"], "+"), n=3, seed=1, draws=12)
@example(case=(FAMILIES["ame"], "all"), n=4, seed=2, draws=12)
def test_mirrored_sum_walk_matches_rebuilt_weight_rolls(case, n, seed, draws):
    """Above n = 120 most sum rolls of a, am and ame draw in the upper half
    and walk the mirrored splits; they land where the plain walk does."""
    family, root = case
    rng, reference_rng = random.Random(seed), random.Random(seed)
    for _ in range(draws):
        got = _outcome(sample_from, family, n, rng, root)
        assert got == _outcome(reference_sample, family, n, reference_rng, root)
    assert rng.getstate() == reference_rng.getstate()


def test_a_draw_deeper_than_the_recursion_limit_is_a_size_guard():
    # a uniform sum tree of value 400 is about 70 levels deep
    code = """
        import random, sys
        from formula_forge import SizeGuard, sample_add
        sample_add(400, random.Random(0))  # imports and fills first
        sys.setrecursionlimit(25)
        try:
            sample_add(400, random.Random(0))
        except SizeGuard as exc:
            print(exc)
    """
    src = os.path.dirname(os.path.dirname(formula_forge.__file__))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    want = (0, "tree nests too deeply to sample\n", "")
    assert (proc.returncode, proc.stdout, proc.stderr) == want
