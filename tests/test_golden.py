"""Golden digests of observable output: stream order, seeded samples, cache
file bytes, shortest witnesses, the rendered tower encodings (Horner
forms, sieve tables, level sets and Goodstein arithmetic) and the growth
constants (every field of rho_estimate, constant_estimate's scalars and
its ratios to within 2 ulp).

Each digest is a sha256 over a plain-text rendering of what the public API
returns.  The expected values were recorded from the releases whose
per-family code and non-interned symbolic nodes this suite guards, so any
change in order, in the seed-to-tree mapping, in the cache file format or
in tie-breaking shows up here as a digest mismatch for one (family, root)
pair, or for one group of tower outputs.  The growth constants were
recorded from the release that evaluated S through a dense truncated
series class.
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from formula_forge import (
    ONE,
    X,
    CountTable,
    EnumerationRequest,
    NonConvergence,
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
    enumerate_trees,
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
        return enumerate_trees(EnumerationRequest(n, gates, root, lop))
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


def _exact(value):
    """repr of a field, mpf values as their exact (sign, man, exp, bc)."""
    return repr(value._mpf_) if isinstance(value, mpmath.mpf) else repr(value)


RHO_FIELDS = (
    "family", "rho", "fixed_point", "terms", "iterations",
    "extra_iterations", "precision_bits", "residual",
)

RHO_DIGESTS = {
    ("am", 8, 53): "42ff2e3c4e7abaaa13f3011a9f980c75b6e0713b9a26f8e24e16e3e55480a339",
    ("am", 8, 100): "ba24bc0781e6739ee27066838ca714aef9498b6dd2e2d98454d2bf5de40a85bc",
    ("am", 8, 200): "6e44c2d68b836a441677091db948a25265bacffcdece6ced4ea6dbabc16cf60f",
    ("am", 8, 256): "149968bdc5662e112a842ab8a6b11b2f517ce9dad258e8bf18e8919a519f9091",
    ("am", 40, 53): "2239263dbf2cc08ad9afbe612a7ae850e2501f111dea4b816be8a340ddde23be",
    ("am", 40, 100): "2231438674235f4ec72fd9730e562fc21221d89e2728dfe4a7d38e26df9f0747",
    ("am", 40, 200): "6773d8ec6ca288ef82d57acb5abd08c6f3eeebea1c894045c0e3fb974dad84ec",
    ("am", 40, 256): "59bd249f32f0fc9e7c3dfc1526912a37af2d322934219e583d206407e0402fdf",
    ("am", 60, 53): "12f1a873956c293c23e56f1de16ad8e5a76015ea40b3d9d8194184fe8b6c8510",
    ("am", 60, 100): "d6b648a988a1179612e7528f83f3aa7600c92ee9b7f3c8fe8c1a0d9d41cb6340",
    ("am", 60, 200): "c12b73c3ed80d1a9b32963666f9f5c9ad81e7f9ffc77b69d4b0ba079a02a5650",
    ("am", 60, 256): "491069cde4612d1902722c747d4f40cf4d40bd325bed03681783d36f5041a922",
    ("am", 100, 53): "e9625c02776646ce5861c05976df00b1776391b490536667fa3bd9c102863f51",
    ("am", 100, 100): "0b577175b1f733fe0d5bae77550c4878eea531609bcccfb6afb4c3fccd506162",
    ("am", 100, 200): "b5942dc54d9ac7794be96cd283e8622466e19dd60b0ae2778fab56b60a5714fd",
    ("am", 100, 256): "fa07b83cccc901a1caae99901be08c49a5b2b8b28c1c5baa394a67dda5668311",
    ("am", 150, 53): "ca69a8ab5d6b59789b46f004478d3151502253a6151f43912461f9e5ddb029cf",
    ("am", 150, 100): "fd20cc0e50d412ba92e4d1f1d0fdf7824db59f28be677f631006c7ecacd40fa7",
    ("am", 150, 200): "883d29c0e506392dcf12733c288c6f2b20715e7ae2c3245d434be8a682468775",
    ("am", 150, 256): "c0ff2ebf8bcf4b929eb56baf88eda8e1db1b8442183566ebb32fb4afd2944620",
    ("ame", 8, 53): "444d030c53b14083b2857502b23dd084e85c2f55db7f68f4f4cdd91ab7410eac",
    ("ame", 8, 100): "fbef4809fa9249788baccf53a7b11a490d3f17b00c5f7562df0ab7f2b8ce0901",
    ("ame", 8, 200): "c88831fa6d581f6e779587cb9f8aa070135cbb7353d3d3aee4c652330b901313",
    ("ame", 8, 256): "24a7e97aca3ed3682d2e4505416d0a40141b6321f2199234637242e93447bcfb",
    ("ame", 40, 53): "1df9d37f759047d9603b78f3faeecea21515ca48e37f6372e1242e2e2f946c9e",
    ("ame", 40, 100): "33876336a1b2ebe9489d3288e9e414f1a7ace51b67a27d1f85a2f3d75a6bfdb9",
    ("ame", 40, 200): "67df3032f64143f140ad01c741c8b711012837add90aca1118d0a77f68649bbf",
    ("ame", 40, 256): "6e4c44c711acc9c57f58a3da7c9d6695a09e728b7ed69e187b606fa28a65b1e8",
    ("ame", 60, 53): "5b1c35d699ea3bb3223d0573c17b80deda5d643ac2d4945f7ba78464b88079d5",
    ("ame", 60, 100): "8dfc85c37457713607ba87d81a49bd570e3ef9699d4f28f5613c1e4ba9140dec",
    ("ame", 60, 200): "872ca5b29fe024c5c0d4837bf53ebe3fa61b789ddde5e169a5c299aae4930338",
    ("ame", 60, 256): "4936201008f4ff640c9993e1717de183d4b6a2fa89045c8914351c85d014dd18",
    ("ame", 100, 53): "f4b5f8cbfe4147a1eb426a3518bdf82539f90e2ad9513cfa2d4313910e73c372",
    ("ame", 100, 100): "a7f18ec597a77086b4444ba9807bdd2b90d776013e243d9a2e76951a05b43477",
    ("ame", 100, 200): "07857279fe036c8eaf1d63b58d36ac9818e6088e49a7ce6ff8342ca4b1f0697a",
    ("ame", 100, 256): "ea69a1f3d73d75a8513753b1877fab5954f2614bffa0efe3024bcee16453103c",
    ("ame", 150, 53): "e7f6f6e223c98a2a3efa133761897a631d9f830a764cb59fb4bf9b827a1a1dc4",
    ("ame", 150, 100): "3f9cb46233ffe3493ee81457b8c785177017cf24e8fa6151d64c5dd403e5ed55",
    ("ame", 150, 200): "1b4e3ef388f2e819c5420b8eef7e08b59c3971c5319c5b1ff323393303d94fab",
    ("ame", 150, 256): "469083f556a35d730184b2ba5ae029dfaa88f96f65e99ef7e9635ac7d9b97357",
}
CONSTANT_DIGESTS = {
    (8, 53): "b8def7b163e6fd63dcdeb342062fa04e1896a1d43fb8a7f350344976991bad86",
    (8, 100): "e3e980f637149c39af573513e967f94bbe658a6a4ae758c1c094ab5e7d61df1e",
    (8, 200): "747646d2922c9b8396236fc5067c89529aa9f7ad56a130eced10ddef6e91badc",
    (40, 53): "54085e72b1bc839b46b34ebcb0caa83e512c0ceb0fa2c0ffb8ca7d2292df90e0",
    (40, 100): "a8e6e602b2a5f0d243051a45c2999d0af127d12f13729add2d035244326c1eb1",
    (40, 200): "7755480878e58fb1a3e4fdbe7f9cfde18d5e4f42758d01f5824d4635f98d0b54",
    (60, 53): "7d985a74c97c961edd6891bab9cfd30e63950fa1b82c9aa7c29126700b7c488f",
    (60, 100): "a1a7ba079b5cb45214970cf968a65707ede034476476d80d88c9923afe5d9ed3",
    (60, 200): "8ba333b615fe32e2a1d1cf721b5f35fa3ab00e4205d584eaa8e4862a7fb8d9c9",
    (100, 53): "b92fd2f104f8e85a3e573c3a8f5504926e918d86299f13eac0332218d2aa0d35",
    (100, 100): "9f451f0f014d2cc38b876bde1d8b804a80606546f29fabbfa8a443b585ece3b3",
    (100, 200): "ee5bf026d900ff1cf3693a9607378f16a6f918811df85a5560994ae2727aad67",
}
# each ratio as [signed mantissa, exponent], value = mantissa * 2^exponent
CONSTANT_RATIOS = json.loads(
    (Path(__file__).parent / "golden_constant_ratios.json").read_text()
)


@pytest.mark.parametrize("family, terms, bits", list(RHO_DIGESTS))
def test_rho_estimate_fields(family, terms, bits):
    est = rho_estimate(family, terms, 20, bits)
    digest = _sha(_exact(getattr(est, f)) for f in RHO_FIELDS)
    assert digest == RHO_DIGESTS[family, terms, bits]


def _fraction(mpf_value):
    sign, man, exp, _ = mpf_value._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


@pytest.mark.parametrize("terms, bits", list(CONSTANT_DIGESTS))
def test_constant_estimate(terms, bits):
    est = constant_estimate(terms, 20, bits)
    digest = _sha(_exact(v) for v in (est.rho, est.constant, est.radicand))
    assert digest == CONSTANT_DIGESTS[terms, bits]
    expected = CONSTANT_RATIOS[f"{terms},{bits}"]
    assert len(est.ratios) == len(expected)
    for got, (man, exp) in zip(est.ratios, expected):
        ulp = Fraction(2) ** (exp + abs(man).bit_length() - bits)
        assert abs(_fraction(got) - man * Fraction(2) ** exp) <= 2 * ulp


def test_ame_at_300_bits_does_not_converge():
    with pytest.raises(NonConvergence):
        rho_estimate("ame", 60, 20, 300)
