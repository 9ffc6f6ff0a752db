"""Hash-consed nodes: structurally equal SymExpr nodes and Goodstein forms
are one object, however they were built or copied, and the arithmetic on
forms agrees with encoding the integer result directly."""

import copy
import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formula_forge import (
    GS_ONE,
    ONE,
    X,
    ZERO,
    GoodsteinForm,
    Neg,
    Pow,
    Prod,
    Sum,
    encode_goodstein,
    encode_horner,
    g_add,
    g_mul,
    sym_pow,
    sym_prod,
    sym_sum,
)

NODES = [
    ONE,
    X,
    Pow(X, Neg(ONE)),
    sym_sum([sym_pow(X, X), X, ONE]),
    sym_prod([sym_sum([X, ONE]), X]),
    encode_horner(2**64 - 59),
    ZERO,
    GS_ONE,
    encode_goodstein(123456789),
]


def test_equal_structure_is_one_object():
    assert Pow(X, Neg(ONE)) is Pow(X, Neg(ONE))
    assert Sum((X, ONE)) is sym_sum([ONE, X])
    assert Prod((X, X)) is sym_prod([X, X])
    assert sym_pow(X, sym_sum([X, ONE])) is Pow(X, Sum((X, ONE)))
    assert encode_horner(6) is sym_prod([sym_sum([X, ONE]), X])
    assert GoodsteinForm((GS_ONE,)) is encode_goodstein(2)
    assert GoodsteinForm(()) is ZERO
    assert g_add(encode_goodstein(3), encode_goodstein(4)) is encode_goodstein(7)
    # an unordered form is kept as given: a different node of the same value
    unordered = GoodsteinForm((ZERO, GS_ONE))
    assert unordered is GoodsteinForm((ZERO, GS_ONE))
    assert unordered is not encode_goodstein(3)


def test_distinct_structure_is_unequal():
    assert Pow(X, X) != Prod((X, X))
    assert Sum((X, ONE)) != Sum((ONE, X))
    assert GoodsteinForm((ZERO,)) != GoodsteinForm((GS_ONE,))


def test_nodes_are_immutable():
    with pytest.raises(AttributeError):
        Pow(X, X).base = ONE
    with pytest.raises(AttributeError):
        GS_ONE.exponents = ()


@pytest.mark.parametrize("node", NODES, ids=str)
def test_copies_return_the_interned_node(node):
    assert copy.copy(node) is node
    assert copy.deepcopy(node) is node
    assert pickle.loads(pickle.dumps(node)) is node


def test_arithmetic_on_hand_built_forms():
    # x^(1 + x) lists its exponent's digits unordered; 8 is x^(x + 1)
    u = GoodsteinForm((GoodsteinForm((ZERO, GS_ONE)),))
    assert g_add(u, encode_goodstein(8)) is encode_goodstein(16)
    assert g_mul(u, encode_goodstein(8)) is encode_goodstein(64)


@settings(deadline=None)
@given(st.integers(0, 2**128 - 1), st.integers(0, 2**128 - 1))
def test_arithmetic_matches_encoding(a, b):
    fa, fb = encode_goodstein(a), encode_goodstein(b)
    assert g_add(fa, fb) is encode_goodstein(a + b)
    assert g_mul(fa, fb) is encode_goodstein(a * b)


def test_racing_threads_get_one_node():
    # 64-bit values nobody else encodes, so every node starts uninterned
    rng = random.Random(7)
    ns = [rng.getrandbits(64) | 1 << 63 for _ in range(40)]
    results = [None] * 8
    start = threading.Barrier(8)

    def build(k):
        start.wait(timeout=60)
        results[k] = [encode_horner(n) for n in ns]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for built in results[1:]:
        assert all(a is b for a, b in zip(built, results[0], strict=True))

