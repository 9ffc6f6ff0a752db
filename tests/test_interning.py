"""Hash-consed nodes: structurally equal SymExpr nodes and Goodstein forms
are one object, however they were built or copied, and the arithmetic on
forms agrees with encoding the integer result directly."""

import copy
import pickle
import random
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formula_forge import (
    GS_ONE,
    ONE,
    X,
    ZERO,
    GoodsteinForm,
    Neg,
    SizeGuard,
    Pow,
    Prod,
    Sum,
    clear_caches,
    encode_goodstein,
    encode_horner,
    evaluate,
    expand_x,
    g_add,
    g_mul,
    gs_to_symexpr,
    render,
    run_sieve,
    sym_pow,
    sym_prod,
    sym_sum,
    sym_value,
    symexpr,
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


def test_each_class_has_its_own_table_keyed_by_its_fields():
    t = (X, ONE)
    assert Sum(t) is not Prod(t)
    assert type(Sum(t)) is Sum and type(Prod(t)) is Prod
    assert Sum._nodes[t] is Sum(t) and Prod._nodes[t] is Prod(t)
    assert Pow(X, X) is Pow(X, X) and Pow._nodes[(X, X)] is Pow(X, X)
    assert Neg(X) is Neg._nodes[X]
    assert GoodsteinForm(()) is ZERO and GoodsteinForm._nodes[()] is ZERO


@pytest.mark.parametrize("build", [lambda: Sum(X, ONE), lambda: Sum(), lambda: Pow(X),
                                   lambda: Pow(X, X, X), lambda: GoodsteinForm(),
                                   lambda: Neg(base=X)])
def test_a_wrong_field_count_raises_type_error(build):
    with pytest.raises(TypeError):
        build()


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


def test_deep_nodes_copy_pickle_and_repr_without_recursing():
    # over 1,900 levels of alternating Prod and Sum, past the recursion limit
    deep = encode_horner(2**1000 - 1)
    with pytest.raises(SizeGuard):
        repr(deep)
    assert copy.copy(deep) is deep
    assert copy.deepcopy([deep, deep]) == [deep, deep]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(deep, protocol)) is deep
    forms = [encode_goodstein(2**2000 - 1), ZERO]
    restored = pickle.loads(pickle.dumps(forms))
    assert all(a is b for a, b in zip(restored, forms, strict=True))


def _result_or_size_guard(walk, node):
    """walk(node), or None when it refuses with SizeGuard; a RecursionError
    fails the test."""
    try:
        return walk(node)
    except SizeGuard:
        return None


@settings(max_examples=30, deadline=None)
@given(n=st.one_of(st.integers(1, 2**300), st.integers(2**900, 2**2100)),
       horner=st.booleans())
@example(n=2**1000 - 1, horner=True)
def test_deep_values_after_clear_caches_give_the_result_or_a_size_guard(n, horner):
    # Horner nodes nest about 1.5 levels per bit; Goodstein forms are wide
    form = encode_horner(n) if horner else encode_goodstein(n)
    expr = form if horner else gs_to_symexpr(form)
    clear_caches()  # sym_value now misses at every level
    assert _result_or_size_guard(sym_value, expr) in (n, None)
    tree = _result_or_size_guard(expand_x, expr)
    assert tree is None or _result_or_size_guard(evaluate, tree) in (n, None)
    assert isinstance(_result_or_size_guard(render, expr), (str, type(None)))
    for node in {form, expr}:
        assert isinstance(_result_or_size_guard(repr, node), (str, type(None)))
        assert pickle.loads(pickle.dumps(node)) is node
    if n == 2**1000 - 1:
        with pytest.raises(SizeGuard, match="nests too deeply to evaluate"):
            sym_value(expr)


def _operands(e):
    if type(e) is Sum:
        return e.terms
    if type(e) is Prod:
        return e.factors
    if type(e) is Pow:
        return (e.base, e.exponent)
    return (e.inner,) if type(e) is Neg else ()


def test_encoders_build_smart_constructor_normal_forms():
    # render cannot tell a Prod nested in a Prod from a flat one; this can
    rng = random.Random(22)
    roots = list(run_sieve(12).integers)
    roots += [encode_horner(n) for n in range(1, 5001)]
    roots += [encode_horner(rng.getrandbits(64) or 1) for _ in range(200)]
    roots.append(encode_horner(2**1000 - 1))
    seen, stack = set(), roots
    while stack:
        e = stack.pop()
        if e not in seen:
            seen.add(e)
            stack.extend(_operands(e))
    checked = 0
    for e in seen:
        if type(e) is Prod:
            assert sym_prod(e.factors) is e
        elif type(e) is Sum:
            assert sym_sum(e.terms) is e
        else:
            continue
        values = [sym_value(o) for o in _operands(e)]
        assert all(a > b for a, b in zip(values, values[1:])), render(e)
        checked += 1
    assert checked > 10_000


def test_cold_renders_equal_warm_renders():
    # in order each text reuses its operands' texts; reversed, none is warm
    state = run_sieve(12)
    nodes = [*state.primes, *state.integers]
    nodes += [encode_horner(n) for n in range(1, 3001)]
    warm = [render(e) for e in nodes]
    clear_caches()
    assert not symexpr._TEXTS
    cold = [render(e) for e in reversed(nodes)]
    assert cold[::-1] == warm


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

