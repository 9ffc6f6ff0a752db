import hashlib
import math
import random
import sys
import threading

import pytest

from conftest import brute_min_sizes
from formula_forge import DomainError, ShortestTable, shortest, shortest_range
from formula_forge.counting import FAMILIES
from formula_forge.enumeration import enumerate_ame
from formula_forge.trees import evaluate, is_strict, size, to_prefix

# sha256 over f"{size} {to_prefix(witness)}\n" for n = 1..20,000, taken from
# the DP that tries every additive split
DIGEST_20000 = "d3ac62adbe71e8d519d77e2404c8744d3c9b354bace280be50cc50358053e55c"


def test_golden():
    entry = shortest(6)
    assert entry.size == 9
    assert entry.witness == ("*", ("+", 1, 1), ("+", 1, ("+", 1, 1)))
    assert shortest(1).witness == 1
    assert shortest(2).witness == ("+", 1, 1)


def test_witnesses_are_optimal_and_valid():
    oracle = brute_min_sizes(40)
    for n in range(1, 41):
        entry = shortest(n)
        assert entry.size == oracle[n], f"n={n}"
        assert evaluate(entry.witness) == n
        assert is_strict(entry.witness)
        assert size(entry.witness) == entry.size


def test_matches_literal_stream_minimum():
    for n in range(1, 13):
        stream_min = min(size(t) for t in enumerate_ame(n))
        assert shortest(n).size == stream_min


def test_size_is_odd_and_bounded():
    for n in range(1, 60):
        s = shortest(n).size
        assert s % 2 == 1
        assert s <= 2 * n - 1


def test_powers_get_short_encodings():
    # powers of two lean on the tower: size grows like O(log n)
    assert shortest(16).size == 11
    assert shortest(256).size == 13  # 2^(2^3)
    assert shortest(1024).size == 15  # 2^10


def test_range_matches_single():
    entries = list(shortest_range(25))
    assert [e.n for e in entries] == list(range(1, 26))
    for e in entries:
        assert shortest(e.n) == e


def test_independent_table():
    t = ShortestTable()
    assert t.entry(30) == shortest(30)


def test_domain_errors():
    for bad in [0, -2, 1.5, "9"]:
        with pytest.raises(DomainError):
            shortest(bad)


def _full_scan(n):
    """(size, witness) for m = 1..n from the DP that tries every additive
    split i <= m//2 in order, then every divisor and root split, and keeps a
    candidate only when strictly smaller: the first least split wins."""
    rules = FAMILIES["lop"].rules + FAMILIES["ame"].rules[1:]
    sizes, witnesses = [0, 1], [None, 1]
    for m in range(2, n + 1):
        best = math.inf
        for gate, splits in rules:
            for a, b in splits(m):
                cand = sizes[a] + sizes[b]
                if cand < best:
                    best, pick = cand, (gate, a, b)
        gate, a, b = pick
        if gate == "+":
            a, b = b, a  # the half-range rule lists the larger operand first
        sizes.append(best + 1)
        witnesses.append((gate, witnesses[a], witnesses[b]))
    return list(zip(sizes, witnesses))[1:]


def _rows(table, n):
    return [(e.size, e.witness) for e in map(table.entry, range(1, n + 1))]


def test_matches_the_full_additive_scan():
    assert _rows(ShortestTable(), 3000) == _full_scan(3000)


def test_digest_to_20000():
    table, digest = ShortestTable(), hashlib.sha256()
    table.entry(20_000)
    for n in range(1, 20_001):
        entry = table.entry(n)
        digest.update(f"{entry.size} {to_prefix(entry.witness)}\n".encode())
    assert digest.hexdigest() == DIGEST_20000


def test_incremental_fills_equal_a_fresh_fill():
    table = ShortestTable()
    for n in (700, 1500, 3000):
        table.entry(n)
    assert _rows(table, 3000) == _rows(ShortestTable(), 3000)


def test_range_on_a_partly_filled_table():
    table = ShortestTable()
    table.entry(400)
    assert list(shortest_range(1200, table)) == list(shortest_range(1200, ShortestTable()))


def test_threads_share_one_table():
    # rows are read without the lock while another thread may be filling
    table, want = ShortestTable(), _rows(ShortestTable(), 2000)
    got = {}

    def ask(seed):
        ns = random.Random(seed).sample(range(1, 2001), 300)
        got[seed] = [(n, table.entry(n)) for n in ns]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(seed,)) for seed in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(got) == list(range(8))
    for pairs in got.values():
        assert all((e.n, e.size, e.witness) == (n, *want[n - 1]) for n, e in pairs)
