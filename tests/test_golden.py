"""Golden digests of observable output: stream order, seeded samples, cache
file bytes, shortest witnesses, and the rendered tower encodings (Horner
forms, sieve tables, level sets and Goodstein arithmetic).

Each digest is a sha256 over a plain-text rendering of what the public API
returns.  The expected values were recorded from the releases whose
per-family code and non-interned symbolic nodes this suite guards, so any
change in order, in the seed-to-tree mapping, in the cache file format or
in tie-breaking shows up here as a digest mismatch for one (family, root)
pair, or for one group of tower outputs.
"""

import hashlib
import random

import pytest

from formula_forge import (
    ONE,
    X,
    CountTable,
    ShortestTable,
    count_add_lop,
    count_add_only,
    count_am,
    count_ame,
    encode_goodstein,
    encode_horner,
    enumerate_add,
    enumerate_add_lop,
    enumerate_am,
    enumerate_ame,
    g_add,
    g_mul,
    g_pow,
    goodstein_levels,
    horner_levels,
    rational_set,
    run_sieve,
    sample_add,
    sample_add_lop,
    sample_am,
    sample_ame,
    save_table,
    scf_coarse,
    shortest_range,
    sym_pow,
    sym_prod,
    sym_sum,
    to_prefix,
)

FAMILY_ROOTS = [
    ("a", "all"),
    ("lop", "all"),
    ("am", "all"),
    ("am", "+"),
    ("am", "*"),
    ("ame", "all"),
    ("ame", "+"),
    ("ame", "*"),
    ("ame", "^"),
]


def _sha(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _stream(family, root, n, cached):
    if family == "a":
        return enumerate_add(n, cached)
    if family == "lop":
        return enumerate_add_lop(n, cached)
    if family == "am":
        return enumerate_am(n, root, cached)
    return enumerate_ame(n, root, cached)


def stream_digest(family, root, cached):
    lines = []
    for n in range(1, 10):
        lines.append(f"n={n}")
        lines.extend(to_prefix(t) for t in _stream(family, root, n, cached))
    return _sha(lines)


def _sample(family, root, n, rng):
    if family == "a":
        return sample_add(n, rng)
    if family == "lop":
        return sample_add_lop(n, rng)
    if family == "am":
        return sample_am(n, rng, root)
    return sample_ame(n, rng, root)


# 64 = 8^2 = 4^3 = 2^6 gives the forced pow root something to draw
SAMPLE_SIZES = (1, 7, 30, 64, 95)


def sample_digest(family, root):
    lines = []
    for seed in range(5):
        rng = random.Random(seed)
        for n in SAMPLE_SIZES:
            try:
                lines.append(f"{seed} {n} {to_prefix(_sample(family, root, n, rng))}")
            except Exception as exc:  # the error type is part of the golden
                lines.append(f"{seed} {n} !{type(exc).__name__}")
    return _sha(lines)


def cache_digest(tmp_path):
    table = CountTable()
    count_add_only(40, table)
    count_add_lop(40, table)
    count_am(40, table=table)
    count_ame(40, table=table)
    path = tmp_path / "counts.json"
    rows = save_table(str(path), table)
    return rows, hashlib.sha256(path.read_bytes()).hexdigest()


def shortest_digest(upto):
    return _sha(
        f"{e.n} {e.size} {to_prefix(e.witness)}"
        for e in shortest_range(upto, ShortestTable())
    )


def horner_digest(ns):
    return _sha(f"{n} {encode_horner(n)}" for n in ns)


def _random_64_bit(count):
    rng = random.Random(64)
    return [rng.getrandbits(64) | 1 << 63 for _ in range(count)]


def sieve_digest(state):
    return _sha(
        [f"{v} {e}" for v, e in enumerate(state.integers, 1)]
        + [f"prime {p}" for p in state.primes]
    )


def goodstein_digest():
    rng = random.Random(1000)
    lines = []
    for _ in range(300):
        a, b = rng.randint(0, 10**6), rng.randint(0, 10**6)
        fa, fb = encode_goodstein(a), encode_goodstein(b)
        lines.append(f"{a} {b} {g_add(fa, fb)} {g_mul(fa, fb)}")
    for a in range(13):
        for b in range(13):
            lines.append(f"{a}^{b} {g_pow(encode_goodstein(a), encode_goodstein(b))}")
    return _sha(lines)


STREAM_DIGESTS = {
    ("a", "all"): "d031d416d85a2164621876f14c0f5fa1efc7ece6ef4c73ea170286c7358cc5d7",
    ("lop", "all"): "47d2373890b722ef61d8222a8e65a16b2fbf59ebfe4c7a82899ff9cb959ba23a",
    ("am", "all"): "ce78d72b2668aae55879c469262f520bb7a19dcb59843640fb38b5e888f04cb0",
    ("am", "+"): "6e27143f3d6b0895368f2fa5e9e306edb20c8a7b992bff9c489d0d84d7c268db",
    ("am", "*"): "b8d8971a4b6b91ed5748793359241eb36cfc401d4a9a07044dda0c079655c029",
    ("ame", "all"): "86256efefd729747234222240a4f83ce095fdf2e4af7a213b9715736b77ae689",
    ("ame", "+"): "f626e8620c7031fde65165f3b4b82a1c78b173aaeee732fe103f221252f0ea20",
    ("ame", "*"): "f88ff2de0bd45503851fccecc49505300ecc348f6737296e1b9cff14e1fa277c",
    ("ame", "^"): "f26ea25a312ae336159b0bdcc58d7cb0d00caf4a11742a158f675346cf8ff2bd",
}

SAMPLE_DIGESTS = {
    ("a", "all"): "784aaddea3f9073b001ae7629258ba2a26e42a6d969c4f618cff427877ebd8de",
    ("lop", "all"): "18764fc56c604b1c6643135d366ec1c025688190adb4bbd15a9e1df07168e754",
    ("am", "all"): "eab26fc335caab2895f7ec8161c7deaa0c63ab35ff7d459510d437c51736faa5",
    ("am", "+"): "31dc6ec28d5876edb95a3f8ef6dadff13d2d7ed842d64e092f34c3232ad76bca",
    ("am", "*"): "17f9aaa51069c1e40407d742f4aadfdf17076da37cb4f2790e8e2ce2837f1af3",
    ("ame", "all"): "027690d556861ee1b3792d236705555253bf8c8ecb5db70f88eb8a8f3b479485",
    ("ame", "+"): "ecf86c8133aca0c20868d718490e41d58e36344e2620dd4c1119430dbdf687fd",
    ("ame", "*"): "61b66ec3c7aa01f98b6cbbe71032f5af375941f7dcbdbd48b14eda0c716f4efe",
    ("ame", "^"): "ac318d9335a477987b318819a1e7f7350c01614f8dfc3d2141156fddb63679b0",
}

CACHE_ROWS = 280
CACHE_DIGEST = "06796b46f18e6cdd3c549809279e5ba93ec1eddab02541e8965eb84e885ac9db"

SHORTEST_UPTO = 2000
SHORTEST_DIGEST = "bb6c43f9bbef1380cd5cec69c03452ec3ad6bc4622e05b8248500efec3482f36"


@pytest.mark.parametrize("family, root", FAMILY_ROOTS)
@pytest.mark.parametrize("cached", [False, True])
def test_stream_order(family, root, cached):
    assert stream_digest(family, root, cached) == STREAM_DIGESTS[family, root]


@pytest.mark.parametrize("family, root", FAMILY_ROOTS)
def test_seeded_samples(family, root):
    assert sample_digest(family, root) == SAMPLE_DIGESTS[family, root]


def test_cache_file_bytes(tmp_path):
    assert cache_digest(tmp_path) == (CACHE_ROWS, CACHE_DIGEST)


def test_shortest_witnesses():
    assert shortest_digest(SHORTEST_UPTO) == SHORTEST_DIGEST


HORNER_UPTO = 5000
HORNER_DIGEST = "1b2fc2063058d5a7b1622f0786f4b538ab4335063c96b39e5ff4832cd10bb91a"
HORNER_64_BIT_DIGEST = "0cfea934f16550a86da69c43a0595e167f6183085fd2631d759b747d119a6534"
SIEVE_11_DIGEST = "95c176488145b63842ba6f910368be735cb4b661aba6bdcbd041677178f30fd3"
SCF_COARSE_2_DIGEST = "39c2f6bb4dc293b2a3a445719d2a7403f2665fe81ffb0780132c75ed4ea3c6a6"
RATIONAL_DIGEST = "92fdc81add40e89f412c7d86f62cdfc91a0e55e27eb5bb679ba346b4a7e86edc"
GOODSTEIN_LEVELS_2_DIGEST = "533b5efe1854a02f0f5a7e3c5f2e759acbf7e3a9582817fba5e1469ed6617247"
HORNER_LEVELS_3_DIGEST = "947514e43016d92f555099b593c2558e3aa775aeffdf33e7720717e9eedf0567"
GOODSTEIN_ARITHMETIC_DIGEST = "e9b46f8d19984f0b2e7c55f6ec707b5e797000ca393c43acdfbf81c898528897"


def test_horner_encodings():
    assert horner_digest(range(1, HORNER_UPTO + 1)) == HORNER_DIGEST
    assert horner_digest(_random_64_bit(200)) == HORNER_64_BIT_DIGEST


def test_sieve_tables():
    assert sieve_digest(run_sieve(11)) == SIEVE_11_DIGEST
    assert sieve_digest(scf_coarse(2)) == SCF_COARSE_2_DIGEST
    assert _sha(str(e) for e in rational_set(run_sieve(2), 2, 2)) == RATIONAL_DIGEST


def test_level_sets():
    assert _sha(str(e) for e in goodstein_levels(2)) == GOODSTEIN_LEVELS_2_DIGEST
    assert _sha(str(e) for e in horner_levels(3)) == HORNER_LEVELS_3_DIGEST


def test_goodstein_arithmetic():
    assert goodstein_digest() == GOODSTEIN_ARITHMETIC_DIGEST


def test_equal_values_order_by_rendering():
    # x^x and x*x tie at 4, x and x tie at 2: ties keep the rendered order
    terms = [sym_pow(X, X), sym_prod([X, X]), X, X, ONE]
    assert str(sym_sum(terms)) == "x*x + x^x + x + x + 1"
