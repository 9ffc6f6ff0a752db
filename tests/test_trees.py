import ast
import contextlib
import operator
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import formula_forge
from formula_forge import (
    DomainError,
    MalformedString,
    SizeGuard,
    depth,
    evaluate,
    from_brackets,
    is_strict,
    leaf_count,
    neighbors,
    parse_postfix,
    parse_prefix,
    size,
    to_brackets,
    to_postfix,
    to_prefix,
    validate,
)
from formula_forge.enumeration import enumerate_ame
from formula_forge.trees import GATES

T6 = ("*", ("+", 1, 1), ("+", 1, ("+", 1, 1)))


def test_evaluate():
    assert evaluate(1) == 1
    assert evaluate(("+", 1, 1)) == 2
    assert evaluate(T6) == 6
    assert evaluate(("^", ("+", 1, 1), ("+", 1, ("+", 1, 1)))) == 8


def test_size_depth_leaves():
    assert size(1) == 1 and depth(1) == 0 and leaf_count(1) == 1
    assert size(T6) == 9
    assert depth(T6) == 3
    assert leaf_count(T6) == 5
    assert size(T6) == 2 * leaf_count(T6) - 1


def test_strictness():
    assert is_strict(T6)
    assert not is_strict(("*", 1, ("+", 1, 1)))
    assert not is_strict(("*", ("+", 1, 1), 1))
    assert not is_strict(("^", ("+", 1, 1), 1))
    assert not is_strict(("^", 1, ("+", 1, 1)))
    assert is_strict(("+", 1, ("+", 1, 1)))


def test_validate_rejects_garbage():
    with pytest.raises(DomainError):
        validate(("?", 1, 1))
    with pytest.raises(DomainError):
        validate(("+", 1))
    with pytest.raises(DomainError):
        validate(("+", 0, 1))
    validate(T6)


def test_evaluate_refuses_an_unknown_gate():
    for tree in (("?", 1, 1), ("+", 1, ("?", 1, 1))):
        with pytest.raises(DomainError, match="unknown gate '\\?'"):
            evaluate(tree)


@pytest.mark.parametrize("walk", [
    evaluate, size, depth, leaf_count, is_strict, validate, to_brackets, to_prefix, to_postfix,
    from_brackets, neighbors,
])
@pytest.mark.parametrize("tree", [
    True, 1.0, ("+", 1.0, 1), ("+", True, 1), ["+", 1, True], ("+", 1, 1, "junk"),
    ("*", True, 1), ("*", 1, "junk"), ("^", ("+", 1, 1, "x"), 1),
])
def test_float_and_bool_leaves_are_refused(walk, tree):
    # 1.0 == True == 1, but only the int 1 is a leaf, and a node has three items;
    # a malformed operand beside a wasted gate (1*f, f^1) is refused too
    with pytest.raises(DomainError):
        walk(tree)


@pytest.mark.parametrize("parse", [parse_prefix, parse_postfix])
@pytest.mark.parametrize("text", [5, None, b"+11", ["+", "1", "1"]], ids=repr)
def test_parsers_refuse_what_is_not_a_string(parse, text):
    with pytest.raises(MalformedString, match="not a string"):
        parse(text)


def test_parse_prefix_shares_each_gate_over_two_leaves():
    tree = parse_prefix("*+11+11")
    assert tree == ("*", ("+", 1, 1), ("+", 1, 1))
    assert tree[1] is tree[2] is parse_prefix("+11")
    assert parse_prefix("^11") is parse_prefix("+1^11")[2]


def test_prefix_postfix_goldens():
    assert to_prefix(("+", 1, 1)) == "+11"
    assert to_postfix(("+", 1, 1)) == "11+"
    assert to_prefix(("+", 1, ("+", 1, 1))) == "+1+11"
    assert to_postfix(("+", 1, ("+", 1, 1))) == "11+1+"
    assert to_prefix(T6) == "*+11+1+11"


def test_postfix_is_reversed_prefix():
    for n in range(1, 9):
        for t in enumerate_ame(n):
            assert to_postfix(t) == to_prefix(t)[::-1]


def test_round_trips():
    for n in range(1, 9):
        for t in enumerate_ame(n):
            assert parse_prefix(to_prefix(t)) == t
            assert parse_postfix(to_postfix(t)) == t
            assert from_brackets(to_brackets(t)) == t


def test_parse_prefix_goldens():
    assert parse_prefix("+1+11") == ("+", 1, ("+", 1, 1))
    assert parse_prefix("1") == 1
    # mirror reading: the postfix string is consumed right to left
    assert parse_postfix("11+1+") == ("+", 1, ("+", 1, 1))
    assert parse_postfix("111++") == ("+", ("+", 1, 1), 1)


def test_parse_errors():
    for bad in ["", "+1", "+x1", "11", "+111", "*11+", "^"]:
        with pytest.raises(MalformedString):
            parse_prefix(bad)
    for bad in ["", "1+", "+11"]:
        with pytest.raises(MalformedString):
            parse_postfix(bad)
    assert parse_postfix("11*") == ("*", 1, 1)  # parseable, just not strict


def test_brackets():
    assert to_brackets(T6) == ["*", ["+", 1, 1], ["+", 1, ["+", 1, 1]]]
    assert from_brackets(1) == 1
    with pytest.raises(DomainError):
        from_brackets(["+", 1])
    with pytest.raises(DomainError):
        from_brackets(["&", 1, 1])


@pytest.mark.parametrize("walk", [
    evaluate, size, depth, leaf_count, is_strict, validate, to_brackets, to_prefix, to_postfix,
])
@pytest.mark.parametrize("value", [2, None, ("+", 1), "11"])
def test_every_walker_refuses_a_value_that_is_no_tree(walk, value):
    with pytest.raises(DomainError, match="not a formula tree"):
        walk(value)


def test_nesting_past_the_recursion_limit_is_a_size_guard():
    # == on tuples this deep recurses in the interpreter, so compare tokens
    text = "+1" * (3 * _LIMIT) + "1"
    assert to_prefix(parse_prefix(text)) == text
    assert _tokens(parse_prefix(text)) == list(text)
    assert _tokens(parse_postfix(text[::-1])) == list(text)
    tree = 1
    for _ in range(1500):
        tree = ("+", 1, tree)
    with pytest.raises(SizeGuard):
        evaluate(tree)
    shallow = "+1" * 500 + "1"
    assert evaluate(parse_prefix(shallow)) == 501


@pytest.mark.parametrize("walk", [
    size, depth, leaf_count, is_strict, validate, to_brackets, from_brackets,
])
def test_every_walker_refuses_a_tree_past_the_recursion_limit(walk):
    tree, brackets = 1, 1
    for _ in range(1500):
        tree, brackets = ("+", 1, tree), ["+", 1, brackets]
    with pytest.raises(SizeGuard):
        walk(brackets if walk is from_brackets else tree)


class _RecursionCatchers(ast.NodeVisitor):
    """The function around each `except RecursionError` of a module."""

    def __init__(self):
        self.scope, self.found = ["<module>"], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_ExceptHandler(self, node):
        if node.type is not None and "RecursionError" in ast.unparse(node.type):
            self.found.append(self.scope[-1])
        self.generic_visit(node)


def test_only_the_nesting_rule_catches_recursion_errors():
    """errors.nested turns RecursionError into SizeGuard for every recursive
    walker; sym_value and gs_value alone catch it in their own bodies, to
    keep one frame per level of their caches."""
    found = []
    for path in sorted(Path(formula_forge.__file__).parent.glob("*.py")):
        catchers = _RecursionCatchers()
        catchers.visit(ast.parse(path.read_text()))
        found += [f"{path.stem}.{name}" for name in catchers.found]
    assert sorted(found) == ["canonical.gs_value", "errors.nested", "symexpr.sym_value"]


def _deep_tree(height, shape, seed):
    """A tree `height` gates deep and its bracket form, built bottom-up
    without recursion: the spine runs down the left operands, the right
    ones, or either at random; `seed` picks the gates (and the spine side
    for a mixed tree)."""
    rng = random.Random(seed)
    tree = brackets = 1
    for _ in range(height):
        gate = rng.choice("+*^")
        if shape == "left" or (shape == "mixed" and rng.random() < 0.5):
            tree, brackets = (gate, tree, 1), [gate, brackets, 1]
        else:
            tree, brackets = (gate, 1, tree), [gate, 1, brackets]
    return tree, brackets


def _tokens(tree):
    """Prefix tokens by an explicit stack: == on a deep tree would recurse."""
    out, stack = [], [tree]
    while stack:
        t = stack.pop()
        if t == 1:
            out.append("1")
        else:
            out.append(t[0])
            stack += (t[2], t[1])
    return out


def _same(walk, arg, want):
    """walk(arg) has the prefix tokens want (a string is its own tokens),
    or it refuses with SizeGuard; a RecursionError fails the test."""
    try:
        got = walk(arg)
    except SizeGuard:
        return True
    return _gives(got, want)


def _gives(got, want):
    """got (a string, or a tree) has the prefix tokens want."""
    return (list(got) if isinstance(got, str) else _tokens(got)) == want


_LIMIT = sys.getrecursionlimit()


@settings(max_examples=60, deadline=None)
@given(height=st.one_of(st.integers(0, 40), st.integers(_LIMIT - 60, _LIMIT + 60),
                        st.integers(0, 3 * _LIMIT)),
       shape=st.sampled_from(["left", "right", "mixed"]),
       seed=st.integers(0, 2**32 - 1))
def test_deep_codecs_give_the_tree_back_or_a_size_guard(height, shape, seed):
    """The prefix and postfix codecs give the tree back at any depth; the
    bracket codecs recurse, and may refuse with SizeGuard."""
    tree, brackets = _deep_tree(height, shape, seed)
    tokens = _tokens(tree)
    text = "".join(tokens)
    assert _gives(to_prefix(tree), tokens)
    assert _gives(parse_prefix(text), tokens)
    assert _gives(to_postfix(tree), tokens[::-1])
    assert _gives(parse_postfix(text[::-1]), tokens)
    for encode, decode in ((to_prefix, parse_prefix), (to_postfix, parse_postfix)):
        assert _gives(decode(encode(tree)), tokens), encode.__name__
    assert _same(to_brackets, tree, tokens)
    assert _same(from_brackets, brackets, tokens)
    assert _same(lambda t: from_brackets(to_brackets(t)), tree, tokens)


_TREES = st.recursive(st.just(1), lambda kids: st.tuples(st.sampled_from(GATES), kids, kids))


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(st.text(alphabet="1+*^x", max_size=40), _TREES.map(to_prefix),
                      st.tuples(_TREES.map(to_prefix), st.text(alphabet="1+*^x", max_size=3))
                      .map("".join)))
def test_every_string_parses_to_its_own_prefix_or_is_malformed(text):
    """A string over {1, +, *, ^, x} is a tree's prefix (or mirrored, its
    postfix) string, or MalformedString; nothing else comes out."""
    for parse, encode, string in ((parse_prefix, to_prefix, text),
                                  (parse_postfix, to_postfix, text[::-1])):
        try:
            tree = parse(string)
        except MalformedString:
            continue
        assert encode(tree) == string


# Small recursive oracles for the walkers, independent of formula_forge.trees.
# A tree's leaf is 1; a node is (gate, left, right).

class _TooBig(Exception):
    pass


_OPS = {"+": operator.add, "*": operator.mul, "^": operator.pow}


def _o_value(t):
    if t == 1:
        return 1
    a, b = _o_value(t[1]), _o_value(t[2])
    if t[0] == "^" and a > 1 and a.bit_length() * b > 10_000:
        raise _TooBig
    return _OPS[t[0]](a, b)


def _o_size(t):
    return 1 if t == 1 else 1 + _o_size(t[1]) + _o_size(t[2])


def _o_depth(t):
    return 0 if t == 1 else 1 + max(_o_depth(t[1]), _o_depth(t[2]))


def _o_strict(t):
    if t == 1:
        return True
    gate, left, right = t
    wasted = gate in "*^" and (left == 1 or right == 1)
    return not wasted and _o_strict(left) and _o_strict(right)


def _o_prefix(t):
    return "1" if t == 1 else t[0] + _o_prefix(t[1]) + _o_prefix(t[2])


def _o_brackets(t):
    return 1 if t == 1 else [t[0], _o_brackets(t[1]), _o_brackets(t[2])]


@contextlib.contextmanager
def _room_to_recurse():
    """The oracles recurse once per node; give them room past the limit
    that the walkers work under."""
    sys.setrecursionlimit(4 * _LIMIT)
    try:
        yield
    finally:
        sys.setrecursionlimit(_LIMIT)


_SHARED = {gate: (gate, 1, 1) for gate in "+*^"}


def _share_cherries(t):
    """t with every gate over two leaves replaced by one shared tuple."""
    if t == 1:
        return 1
    gate, left, right = t
    if left == 1 and right == 1:
        return _SHARED[gate]
    return (gate, _share_cherries(left), _share_cherries(right))


_SMALL = st.recursive(st.just(1), lambda kids: st.tuples(st.sampled_from("+*^"), kids, kids),
                      max_leaves=40)
_WALKER_TREES = st.one_of(
    _SMALL,
    _SMALL.map(_share_cherries),
    st.tuples(st.integers(_LIMIT - 60, _LIMIT + 60), st.integers(0, 2**32 - 1))
    .map(lambda hs: _deep_tree(hs[0], "right", hs[1])[0]),
)


@settings(max_examples=200, deadline=None)
@given(tree=_WALKER_TREES)
def test_walkers_agree_with_recursive_oracles(tree):
    """Each walker gives the oracle's answer; on a tree nested near the
    recursion limit a recursive walker may refuse with SizeGuard instead,
    and the prefix codecs never do."""
    with _room_to_recurse():
        try:
            value = _o_value(tree)
        except _TooBig:
            value = None
        want = {size: _o_size(tree), depth: _o_depth(tree), is_strict: _o_strict(tree),
                to_brackets: _o_brackets(tree)}
        text = _o_prefix(tree)
    shallow = want[depth] < _LIMIT // 2
    if value is not None:
        want[evaluate] = value
    want[leaf_count] = (want[size] + 1) // 2
    want[validate] = None
    for walk, expected in want.items():
        try:
            got = walk(tree)
        except SizeGuard:
            assert not shallow, walk.__name__
            continue
        with _room_to_recurse():
            assert got == expected, walk.__name__
    assert to_prefix(tree) == text
    assert to_postfix(tree) == text[::-1]
    with _room_to_recurse():
        assert _o_prefix(parse_prefix(text)) == text
        assert _o_prefix(parse_postfix(text[::-1])) == text
        if shallow:
            assert parse_prefix(text) == tree
