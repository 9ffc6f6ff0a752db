from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formula_forge import (
    ONE,
    DomainError,
    Neg,
    Pow,
    Prod,
    Sum,
    X,
    expand_x,
    render,
    sym_pow,
    sym_prod,
    sym_sum,
    sym_value,
)
from formula_forge.symexpr import _Leaf
from formula_forge.trees import evaluate, is_strict


def test_values():
    assert sym_value(ONE) == 1
    assert sym_value(X) == 2
    assert sym_value(sym_sum([X, ONE])) == 3
    assert sym_value(sym_pow(X, X)) == 4
    assert sym_value(sym_prod([sym_sum([X, ONE]), X])) == 6
    assert sym_value(Pow(X, Neg(ONE))) == Fraction(1, 2)
    assert sym_value(Pow(sym_sum([X, ONE]), Neg(X))) == Fraction(1, 9)


def test_a_fractional_negative_exponent_has_no_value():
    # x^(-x + x^(-1)) is 2^(-3/2), no rational: refused, not read as 2^(-1)
    with pytest.raises(DomainError, match="unsupported exponent value"):
        sym_value(Pow(X, Sum((Neg(X), Pow(X, Neg(ONE))))))


@pytest.mark.parametrize("bad, message", [
    (Neg(Neg(ONE)), "Neg wraps positive integer exponents only"),
    (5, "not a symbolic expression: 5"),
], ids=repr)
def test_sym_value_refuses_what_has_no_value(bad, message):
    with pytest.raises(DomainError, match=message):
        sym_value(bad)


def test_constructor_canonicalization():
    # sums sort descending by value and flatten
    s = sym_sum([ONE, sym_sum([X, sym_pow(X, X)])])
    assert isinstance(s, Sum)
    assert [sym_value(t) for t in s.terms] == [4, 2, 1]
    # products drop 1-factors and flatten
    p = sym_prod([ONE, X, sym_prod([X, X])])
    assert isinstance(p, Prod)
    assert len(p.factors) == 3
    assert sym_prod([ONE]) is ONE
    assert sym_prod([ONE, X]) is X
    # trivial powers collapse
    assert sym_pow(X, ONE) is X
    assert sym_pow(ONE, X) is ONE
    # single-term sum collapses
    assert sym_sum([X]) is X


def test_structural_equality():
    a = sym_sum([sym_pow(X, X), ONE])
    b = sym_sum([ONE, sym_pow(X, X)])
    assert a == b and hash(a) == hash(b)
    assert sym_prod([X, sym_sum([X, ONE])]) == sym_prod([sym_sum([X, ONE]), X])


def test_rendering():
    assert render(ONE) == "1"
    assert render(X) == "x"
    assert str(sym_sum([sym_pow(X, X), X, ONE])) == "x^x + x + 1"
    assert str(sym_pow(X, sym_sum([X, ONE]))) == "x^(x + 1)"
    assert str(sym_prod([sym_sum([X, ONE]), X])) == "(x + 1)*x"
    assert str(Pow(X, Neg(ONE))) == "x^(-1)"
    assert str(sym_pow(sym_sum([X, ONE]), X)) == "(x + 1)^x"
    assert str(sym_pow(sym_pow(X, X), X)) == "(x^x)^x"
    assert str(sym_prod([sym_pow(X, X), sym_sum([X, ONE])])) == "x^x*(x + 1)"


def _oracle(e):
    """Infix form by precedence levels, written apart from the package:
    Sum and Neg 1, Prod 2, Pow 3, leaves 4; a term or factor below 2 and a
    base, exponent or Neg operand below 4 gets parentheses."""

    def prec(e):
        return {Sum: 1, Neg: 1, Prod: 2, Pow: 3}.get(type(e), 4)

    def wrap(e, minimum):
        s = walk(e)
        return f"({s})" if prec(e) < minimum else s

    def walk(e):
        if e is ONE or e is X:
            return e.name
        if isinstance(e, Sum):
            return " + ".join(wrap(t, 2) for t in e.terms)
        if isinstance(e, Prod):
            return "*".join(wrap(f, 2) for f in e.factors)
        if isinstance(e, Pow):
            return f"{wrap(e.base, 4)}^{wrap(e.exponent, 4)}"
        if isinstance(e, Neg):
            return f"-{wrap(e.inner, 4)}"
        raise DomainError(f"not a symbolic expression: {e!r}")

    return walk(e)


# raw constructors, so also the shapes the smart ones never build
_RAW = st.recursive(
    st.sampled_from([ONE, X]),
    lambda kids: st.one_of(
        st.lists(kids, min_size=1, max_size=4).map(lambda ts: Sum(tuple(ts))),
        st.lists(kids, min_size=1, max_size=4).map(lambda fs: Prod(tuple(fs))),
        st.tuples(kids, kids).map(lambda be: Pow(*be)),
        kids.map(Neg),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_RAW)
@example(Sum((Sum((X, ONE)), X)))
@example(Prod((Prod((X, X)), ONE)))
@example(Sum((Neg(X), ONE)))
@example(Prod((X, Neg(Sum((X, ONE))))))
@example(Pow(X, Neg(Prod((X, X)))))
@example(Pow(Pow(X, X), Neg(ONE)))
@example(Neg(Neg(Pow(X, X))))
@example(Prod((Pow(Sum((X, ONE)), X), Sum((Prod((X, X)), ONE)))))
def test_render_matches_the_precedence_oracle(e):
    assert render(e) == _oracle(e) == str(e)


@pytest.mark.parametrize("bad", [
    3, None, Sum((X, 3)), Prod((X, "x")), Pow(X, 2), Pow(2, X), Neg(1),
    _Leaf("y"), Sum((X, _Leaf("y"))), Prod((_Leaf("y"), X)), Pow(X, _Leaf("y")),
    Neg(_Leaf("y")), [], {}, [X],
], ids=repr)
def test_render_rejects_what_is_not_a_node(bad):
    with pytest.raises(DomainError):
        render(bad)


def test_empty_sum_rejected():
    with pytest.raises(DomainError):
        sym_sum([])


def test_expand_x():
    for e, v in [
        (ONE, 1),
        (X, 2),
        (sym_sum([X, ONE]), 3),
        (sym_pow(X, X), 4),
        (sym_prod([sym_sum([X, ONE]), X, X]), 12),
        (sym_pow(X, sym_sum([X, ONE])), 8),
    ]:
        t = expand_x(e)
        assert evaluate(t) == v == sym_value(e)
        assert is_strict(t)
    with pytest.raises(DomainError):
        expand_x(Pow(X, Neg(ONE)))
