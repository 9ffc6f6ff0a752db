import pytest

from conftest import brute_trees
from formula_forge import (
    DomainError,
    EnumerationRequest,
    SizeGuard,
    count_add_lop,
    count_add_only,
    count_am,
    count_ame,
    enumerate_add,
    enumerate_add_lop,
    enumerate_am,
    enumerate_ame,
    enumerate_strings,
    enumerate_trees,
)
from formula_forge.trees import evaluate, is_strict


def test_goldens():
    assert list(enumerate_add(3)) == [("+", 1, ("+", 1, 1)), ("+", ("+", 1, 1), 1)]
    assert list(enumerate_add_lop(3)) == [("+", ("+", 1, 1), 1)]
    assert list(enumerate_am(4, "*")) == [("*", ("+", 1, 1), ("+", 1, 1))]
    assert list(enumerate_strings(EnumerationRequest(3))) == ["+1+11", "++111"]
    assert list(enumerate_strings(EnumerationRequest(3), "postfix")) == [
        "11+1+",
        "111++",
    ]


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
    with pytest.raises(DomainError):
        EnumerationRequest(0)
    with pytest.raises(DomainError):
        EnumerationRequest(4, gates="xyz")
    with pytest.raises(DomainError):
        EnumerationRequest(4, gates="a", root="mul")
    with pytest.raises(DomainError):
        EnumerationRequest(4, gates="am", root="pow")
    with pytest.raises(DomainError):
        EnumerationRequest(4, gates="am", lop=True)
    with pytest.raises(DomainError):
        enumerate_am(4, "^")
    with pytest.raises(DomainError):
        enumerate_strings(EnumerationRequest(3), "infix")


def test_request_is_an_immutable_value():
    req = EnumerationRequest(5, gates="am", root="mul")
    same = EnumerationRequest(n=5, gates="am", root="*")
    assert req == same and hash(req) == hash(same)
    assert req.root == "*" and req.family.name == "am"
    for other in (EnumerationRequest(6, "am", "*"), EnumerationRequest(5, "ame", "*"),
                  EnumerationRequest(5, "am"), EnumerationRequest(5, lop=True)):
        assert req != other
    assert EnumerationRequest(5) != EnumerationRequest(5, lop=True)
    assert req != (5, "am", "*", False)
    assert len({req, same, EnumerationRequest(5)}) == 2
    assert repr(req) == "EnumerationRequest(n=5, gates='am', root='*', lop=False)"
    for field in ("n", "gates", "root", "lop", "family"):
        with pytest.raises(AttributeError):
            setattr(req, field, None)
        with pytest.raises(AttributeError):
            delattr(req, field)
    assert req == same


def test_request_dispatch():
    req = EnumerationRequest(5, gates="ame", root="pow")
    assert list(enumerate_trees(req)) == list(enumerate_ame(5, "^"))
    req = EnumerationRequest(5, lop=True)
    assert list(enumerate_trees(req)) == list(enumerate_add_lop(5))


def test_deep_streams_are_refused():
    # the first add-only tree of 2000 is a comb 1999 levels deep; streaming
    # it would nest one generator per level
    for enum in (enumerate_add, enumerate_add_lop, enumerate_am, enumerate_ame):
        with pytest.raises(SizeGuard):
            enum(2000)
    first = next(enumerate_add(300))
    assert evaluate(first) == 300
