import pytest

from conftest import brute_trees
from formula_forge import (
    DomainError,
    SizeGuard,
    count_add_lop,
    count_add_only,
    count_am,
    count_ame,
    enumerate_add,
    enumerate_add_lop,
    enumerate_am,
    enumerate_ame,
)
from formula_forge.counting import FAMILIES, resolve_family
from formula_forge.enumeration import stream
from formula_forge.trees import evaluate, is_strict


def test_goldens():
    assert list(enumerate_add(3)) == [("+", 1, ("+", 1, 1)), ("+", ("+", 1, 1), 1)]
    assert list(enumerate_add_lop(3)) == [("+", ("+", 1, 1), 1)]
    assert list(enumerate_am(4, "*")) == [("*", ("+", 1, 1), ("+", 1, 1))]


def test_streams_match_counts_and_are_clean():
    for n in range(1, 9):
        for enum, count in [
            (enumerate_add, count_add_only),
            (enumerate_add_lop, count_add_lop),
            (enumerate_am, count_am),
            (enumerate_ame, count_ame),
        ]:
            trees = list(enum(n))
            assert len(trees) == count(n)
            assert len(set(trees)) == len(trees)
            assert all(evaluate(t) == n for t in trees)


def test_streams_match_structural_generation():
    for n in range(1, 9):
        assert set(enumerate_add(n)) == brute_trees(n, "+")
        assert set(enumerate_am(n)) == brute_trees(n, "+*")
        assert set(enumerate_ame(n)) == brute_trees(n, "+*^")


def test_strictness_and_lop():
    for n in range(1, 9):
        assert all(is_strict(t) for t in enumerate_ame(n))
        for t in enumerate_add_lop(n):
            stack = [t]
            while stack:
                u = stack.pop()
                if u == 1:
                    continue
                assert evaluate(u[1]) >= evaluate(u[2])
                stack.extend([u[1], u[2]])


def test_root_filters():
    for n in range(2, 9):
        assert len(list(enumerate_am(n, "+"))) == count_am(n, "+")
        assert len(list(enumerate_am(n, "*"))) == count_am(n, "*")
        for g in "+*^":
            trees = list(enumerate_ame(n, g))
            assert len(trees) == count_ame(n, g)
            assert all(t[0] == g for t in trees)


def test_enumeration_order_is_add_mul_pow():
    trees = list(enumerate_ame(4))
    roots = [t[0] for t in trees]
    assert roots == ["+"] * 5 + ["*"] + ["^"]


def test_request_validation():
    # the command line resolves its --gates, --root and --lop here
    assert resolve_family("am", "mul") == (FAMILIES["am"], "*")
    assert resolve_family("a", lop=True) == (FAMILIES["lop"], "all")
    family, root = resolve_family()
    with pytest.raises(DomainError):
        stream(family, 0, root)
    for gates, root, lop in [("xyz", "all", False), ("a", "mul", False),
                             ("am", "pow", False), ("am", "all", True)]:
        with pytest.raises(DomainError):
            resolve_family(gates, root, lop)
    with pytest.raises(DomainError):
        enumerate_am(4, "^")


def test_deep_streams_are_refused():
    # the first add-only tree of 2000 is a comb 1999 levels deep; streaming
    # it would nest one generator per level
    for enum in (enumerate_add, enumerate_add_lop, enumerate_am, enumerate_ame):
        with pytest.raises(SizeGuard):
            enum(2000)
    first = next(enumerate_add(300))
    assert evaluate(first) == 300
