"""Golden digests of observable output: stream order, seeded samples, cache
file bytes, shortest witnesses and the rendered tower encodings (Horner
forms, sieve tables, level sets and Goodstein arithmetic), and a golden
record of the growth constants (every field of rho_estimate and
constant_estimate).

Each digest is a sha256 over a plain-text rendering of what the public API
returns.  The expected values were recorded from the releases whose
per-family code and non-interned symbolic nodes this suite guards, so any
change in order, in the seed-to-tree mapping, in the cache file format or
in tie-breaking shows up here as a digest mismatch for one (family, root)
pair, or for one group of tower outputs.  The growth constants are exact
values in golden_growth.json, checked within the bounds their certificate
allows (see GROWTH below).
"""

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from formula_forge import (
    ONE,
    X,
    CountTable,
    ShortestTable,
    constant_estimate,
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
    rho_estimate,
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
from formula_forge.counting import resolve_family
from formula_forge.enumeration import stream

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


def _stream(family, root, n, via_request=False):
    if via_request:  # the path the CLI's list takes
        gates, lop = ("a", True) if family == "lop" else (family, False)
        family, root = resolve_family(gates, root, lop)
        return stream(family, n, root)
    if family == "a":
        return enumerate_add(n)
    if family == "lop":
        return enumerate_add_lop(n)
    if family == "am":
        return enumerate_am(n, root)
    return enumerate_ame(n, root)


def _memo_prefix():
    """to_prefix for streamed trees, memoised on the shared subtrees."""
    memo = {1: "1"}

    def render(tree):
        text = memo.get(tree)
        if text is None:
            text = memo[tree] = tree[0] + render(tree[1]) + render(tree[2])
        return text

    return render


def stream_digest(family, root, via_request=False, values=range(1, 10),
                  render=to_prefix):
    lines = []
    for n in values:
        lines.append(f"n={n}")
        lines.extend(map(render, _stream(family, root, n, via_request)))
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

# n = 11 and 12, recorded from the release whose default streams memoised
# nothing and whose cached=True streams materialised every subtree list
DEEP_STREAM_DIGESTS = {
    ("a", "all"): "436217df43ba39e50f1cf48165eb9c0b1840ba12de644d59054e3a6a3e29108d",
    ("lop", "all"): "c6834f4c68c0f1d46d63c03db2d95280fa9b40ee4291fa5dad7d3b13cbd482a8",
    ("am", "all"): "a8e355d4036c5e08c645d4a73507eb6517ffd99c57a9194d21359a8fe9f61022",
    ("am", "+"): "13f291d4fe564bb736afa096069d78a862782655b58e4cbbe843875443daaaf5",
    ("am", "*"): "278ae99beb94d770c92c55bdd9104f65ee9c14054025562f2daee3dbc5a4ae76",
    ("ame", "all"): "dc610424095986e181827a9be95040052c3b179a290836c6abe3ce9a77a19ee9",
    ("ame", "+"): "f553c3a41cc0bf3c44536637110b102b346db9cd756f683e3dc43a6212d4315d",
    ("ame", "*"): "1fc79c7811ca5eabd2608e1bec7348bdde7bed8f5c996759bf69eb3e26fb4644",
    ("ame", "^"): "8ba4e65c4ecc3d0f188312194c7454c3dd77520197f7cd2144d0609cf0ca628e",
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
@pytest.mark.parametrize("via_request", [False, True])
def test_stream_order(family, root, via_request):
    assert stream_digest(family, root, via_request) == STREAM_DIGESTS[family, root]


@pytest.mark.parametrize("family, root", FAMILY_ROOTS)
def test_stream_order_past_memo(family, root):
    # values 11 and 12 mix memoised operands (<= MEMO_VALUE) with lazy ones
    digest = stream_digest(family, root, values=(11, 12), render=_memo_prefix())
    assert digest == DEEP_STREAM_DIGESTS[family, root]


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
# recorded from the release whose steps searched products once per factor count
SIEVE_14_DIGEST = "830fe9790da969f3f3afba25995b24207a4d2b689fe5d634cc58ed10012477f5"
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
    assert sieve_digest(run_sieve(14)) == SIEVE_14_DIGEST
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


# Growth constants, each mpf as [signed mantissa, exponent], value =
# mantissa * 2^exponent, and each rho cell's polish step count.  They were
# recorded from the release that polished the fixed point with up to 64
# plain steps of g.  The Newton polish lands on a different point inside the
# same certificate, so the fixed point, rho, G, C and the ratios are checked
# against the record within bounds derived from that certificate (see
# _fixed_point_gap), the residual against the certificate itself, and every
# field bit for bit where the plain steps alone certified (no polish step on
# either side).
GROWTH = json.loads((Path(__file__).parent / "golden_growth.json").read_text())
# Newton steps after the 20 plain ones, by precision
NEWTON_STEPS = {53: 0, 100: 1, 200: 2, 256: 2}
RHO_CELLS = [
    (family, int(terms), int(bits))
    for family, terms, bits in (cell.split(",") for cell in GROWTH["rho"])
]
CONSTANT_CELLS = [
    (int(terms), int(bits))
    for terms, bits in (cell.split(",") for cell in GROWTH["constant"])
]


def _fraction(value):
    """An mpf, or a recorded [mantissa, exponent] pair, as an exact Fraction."""
    if isinstance(value, mpmath.mpf):
        sign, man, exp, _ = value._mpf_
        value = [-man if sign else man, exp]
    man, exp = value
    return man * Fraction(2) ** exp


def _ulp(pair, bits):
    """One unit in the last place of a bits-bit float near the recorded pair."""
    man, exp = pair
    return Fraction(2) ** (exp + abs(man).bit_length() - bits)


def _sqrt_below(q):
    """A Fraction no larger than sqrt(q), for q > 0, within 2^-64 of it."""
    return Fraction(math.isqrt(math.floor(q * 2**128)), 2**64)


def _fixed_point_gap(bits):
    """How far the recorded and the new unrounded fixed point may lie apart.

    Each side certified |g(x) - x| < 2^-(bits - 8) at bits + 16 working bits.
    F(x) = x - g(x) has F' = 1 + S' >= 1 on (0, 1/4], so each side is within
    its residual of the one fixed point of its cut (the cut is the same on
    both sides), and the two lie within twice that.  2^-bits more covers the
    rounding of S in the certificate (under 2 * len(cut) ulps at bits + 16
    working bits, with S < 1/4).
    """
    return 2 * Fraction(1, 2 ** (bits - 8)) + Fraction(1, 2**bits)


def _assert_within(got, pinned, bound):
    assert abs(_fraction(got) - _fraction(pinned)) <= bound


def _check_rho(est, pinned, bits):
    """The fixed point and rho = 1/x against the record; returns the bounds
    on how far each returned value may move.  Each bound adds 2 ulp for the
    rounding to bits on both sides (either may sit across a power of two)."""
    gap = _fixed_point_gap(bits)
    dx = gap + 2 * _ulp(pinned["fixed_point"], bits)
    _assert_within(est.fixed_point, pinned["fixed_point"], dx)
    # |1/a - 1/b| = |a - b| / (ab), a and b the unrounded fixed points
    x_low = min(_fraction(est.fixed_point), _fraction(pinned["fixed_point"])) - dx
    drho = gap / x_low**2 + 2 * _ulp(pinned["rho"], bits)
    _assert_within(est.rho, pinned["rho"], drho)
    return dx, drho


@pytest.mark.parametrize("family, terms, bits", RHO_CELLS)
def test_rho_estimate_fields(family, terms, bits):
    est = rho_estimate(family, terms, 20, bits)
    pinned = GROWTH["rho"][f"{family},{terms},{bits}"]
    assert (est.family, est.terms, est.iterations, est.precision_bits) == (
        family, terms, 20, bits,
    )
    assert est.extra_iterations == NEWTON_STEPS[bits]
    assert _fraction(est.residual) < Fraction(1, 2 ** (bits - 8))
    if pinned["extra_iterations"] == 0:
        for field in ("fixed_point", "rho", "residual"):
            assert _fraction(getattr(est, field)) == _fraction(pinned[field])
    _check_rho(est, pinned, bits)


@pytest.mark.parametrize("terms, bits", CONSTANT_CELLS)
def test_constant_estimate(terms, bits):
    est = constant_estimate(terms, 20, bits)
    pinned = GROWTH["constant"][f"{terms},{bits}"]
    pinned_rho = GROWTH["rho"][f"am,{terms},{bits}"]
    assert (est.terms, est.iterations, est.precision_bits) == (terms, 20, bits)
    assert len(est.ratios) == len(pinned["ratios"]) == terms - 2
    if pinned_rho["extra_iterations"] == 0:
        got = [est.rho, est.constant, est.radicand, *est.ratios]
        want = [pinned["rho"], pinned["constant"], pinned["radicand"], *pinned["ratios"]]
        assert [_fraction(v) for v in got] == [_fraction(v) for v in want]
    # constant_estimate evaluates G at rho_estimate's returned fixed point
    r = rho_estimate("am", terms, 20, bits)
    assert est.rho == r.rho and pinned["rho"] == pinned_rho["rho"]
    dx, drho = _check_rho(r, pinned_rho, bits)

    # G(r) = sum_{i<T} (T - i) a_i r^i with a = 1 - 4(x + S), S the sum of
    # count(d) count(n) x^(dn) over 2 <= d, n.  Every a_i past a_0 is
    # negative, so sum i (T - i) |a_i| r^(i-1) at the larger of the two
    # fixed points bounds |G'| between them.
    a = [1, -4] + [0] * (terms - 2)
    for d in range(2, terms):
        for n in range(2, (terms - 1) // d + 1):
            a[d * n] -= 4 * count_am(d) * count_am(n)
    r_high = max(_fraction(r.fixed_point), _fraction(pinned_rho["fixed_point"]))
    slope = sum(i * (terms - i) * -c * r_high ** (i - 1) for i, c in enumerate(a) if i)
    dg = slope * dx
    _assert_within(est.radicand, pinned["radicand"], dg + 2 * _ulp(pinned["radicand"], bits))

    # C = sqrt(G) / (4 sqrt(pi)), and sqrt moves by at most dG / (2 sqrt(G_low))
    g_low = _fraction(pinned["radicand"]) - dg - 2 * _ulp(pinned["radicand"], bits)
    dc = dg / (8 * _sqrt_below(g_low) * Fraction(177, 100))  # sqrt(pi) > 1.77
    dc += 2 * _ulp(pinned["constant"], bits)
    _assert_within(est.constant, pinned["constant"], dc)

    # ratio_n = count(n) / (C rho^n n^-1.5) moves by a relative u / (1 - u)
    # at most, u = dC / C_low + n drho / rho_low
    c_low = _fraction(pinned["constant"]) - dc
    rho_low = _fraction(pinned["rho"]) - drho
    for n, (got, want) in enumerate(zip(est.ratios, pinned["ratios"]), start=2):
        u = dc / c_low + n * drho / rho_low
        bound = abs(_fraction(want)) * u / (1 - u) + 2 * _ulp(want, bits)
        _assert_within(got, want, bound)


def test_ame_at_300_bits_certifies():
    # once beyond the 64 steps of the plain polish; each certificate bounds
    # its fixed point's distance to the true one by its threshold
    for terms in (60, 100, 150):
        at_300 = rho_estimate("ame", terms, 20, 300)
        at_256 = rho_estimate("ame", terms, 20, 256)
        assert at_300.residual < mpmath.mpf(2) ** -(300 - 8)
        gap = abs(_fraction(at_300.fixed_point) - _fraction(at_256.fixed_point))
        assert gap < Fraction(1, 2 ** (256 - 8)) + Fraction(1, 2 ** (300 - 8))
