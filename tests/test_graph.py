"""Rewrite graphs: vertex sets, adjacency symmetry, and rule labels.

The package writes the gate laws once, as splices on prefix strings.  The
tuple rules below are an independent reference for them.
"""

import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formula_forge import (
    DomainError,
    RewriteGraph,
    RewriteRule,
    SizeGuard,
    build_graph,
    count_ame,
    default_table,
    enumerate_ame,
    evaluate,
    is_strict,
    neighbors,
    parse_prefix,
    sample_am,
    sample_ame,
    size,
    to_prefix,
)
from formula_forge import graph

T2 = ("+", 1, 1)


def _root_rewrites(t):
    gate, a, b = t
    if gate == "+":
        yield ("+", b, a), RewriteRule.COMM_ADD
        if a != 1 and a[0] == "+":
            yield ("+", a[1], ("+", a[2], b)), RewriteRule.ASSOC_ADD
        if b != 1 and b[0] == "+":
            yield ("+", ("+", a, b[1]), b[2]), RewriteRule.ASSOC_ADD
        if a != 1 and b != 1 and a[0] == "*" and b[0] == "*" and a[1] == b[1]:
            # f*g + f*h -> f*(g + h)
            yield ("*", a[1], ("+", a[2], b[2])), RewriteRule.DIST_MUL_OVER_ADD
    elif gate == "*":
        yield ("*", b, a), RewriteRule.COMM_MUL
        if a != 1 and a[0] == "*":
            yield ("*", a[1], ("*", a[2], b)), RewriteRule.ASSOC_MUL
        if b != 1 and b[0] == "*":
            yield ("*", ("*", a, b[1]), b[2]), RewriteRule.ASSOC_MUL
        if b != 1 and b[0] == "+":
            # f*(g + h) -> f*g + f*h
            yield ("+", ("*", a, b[1]), ("*", a, b[2])), RewriteRule.DIST_MUL_OVER_ADD
        if a != 1 and b != 1 and a[0] == "^" and b[0] == "^":
            if a[1] == b[1]:
                # f^g * f^h -> f^(g + h)
                yield ("^", a[1], ("+", a[2], b[2])), RewriteRule.DIST_POW_OVER_ADD_EXP
            if a[2] == b[2]:
                # f^h * g^h -> (f*g)^h
                yield ("^", ("*", a[1], b[1]), a[2]), RewriteRule.DIST_POW_OVER_MUL_BASE
    else:
        if b != 1 and b[0] == "+":
            # f^(g + h) -> f^g * f^h
            yield ("*", ("^", a, b[1]), ("^", a, b[2])), RewriteRule.DIST_POW_OVER_ADD_EXP
        if a != 1 and a[0] == "*":
            # (f*g)^h -> f^h * g^h
            yield ("*", ("^", a[1], b), ("^", a[2], b)), RewriteRule.DIST_POW_OVER_MUL_BASE


def _all_rewrites(t):
    if t == 1:
        return
    gate, a, b = t
    yield from _root_rewrites(t)
    for u, rule in _all_rewrites(a):
        yield (gate, u, b), rule
    for u, rule in _all_rewrites(b):
        yield (gate, a, u), rule


def _reference_neighbors(tree):
    """neighbors() from the tuple rules, with the same filter."""
    n = evaluate(tree)
    return {(u, rule) for u, rule in _all_rewrites(tree)
            if u != tree and is_strict(u) and evaluate(u) == n and size(u) <= 2 * n - 1}


def _reference_graph(n):
    """The graph on value n from the tuple rules, vertices keyed by tree."""
    vertices = tuple(enumerate_ame(n))
    prefix = {v: to_prefix(v) for v in vertices}
    adj = {v: set() for v in vertices}
    labels = {}
    for v in vertices:
        pv = prefix[v]
        for u, rule in _all_rewrites(v):
            if u in prefix and u != v:
                adj[v].add(u)
                pu = prefix[u]
                labels.setdefault((pv, pu) if pv < pu else (pu, pv), set()).add(rule.value)
    adjacency = {v: tuple(sorted(adj[v], key=prefix.__getitem__)) for v in vertices}
    edge_labels = {k: tuple(sorted(rs)) for k, rs in labels.items()}
    return RewriteGraph(n=n, vertices=vertices, adjacency=adjacency, edge_labels=edge_labels)


def test_smallest_interesting_graph():
    g = build_graph(3)
    assert len(g.vertices) == 2
    assert g.edge_count == 1
    assert len(g.components()) == 1
    (labels,) = g.edge_labels.values()
    assert labels == ("AssocAdd", "CommAdd")


def test_graph_compares_by_value_and_is_unhashable():
    g = build_graph(4)
    assert g == build_graph(4) and g is not build_graph(4)
    assert g != build_graph(3)
    assert g != RewriteGraph(g.n, g.vertices, {}, g.edge_labels)
    assert g != RewriteGraph(g.n, g.vertices, g.adjacency, {})
    assert g == RewriteGraph(n=g.n, vertices=g.vertices, adjacency=dict(g.adjacency),
                             edge_labels=dict(g.edge_labels))
    assert repr(build_graph(3)).startswith("RewriteGraph(n=3, vertices=((")
    with pytest.raises(TypeError):
        hash(g)
    with pytest.raises(AttributeError):
        g.n = 5


def test_value_four_graph():
    g = build_graph(4)
    assert len(g.vertices) == 7
    assert g.edge_count == 7
    assert len(g.components()) == 3
    assert g.degree_histogram() == {0: 2, 2: 1, 3: 4}
    # the multiplicative and power trees are the isolated ones
    isolated = sorted(v[0] for v in g.vertices if not g.adjacency[v])
    assert isolated == ["*", "^"]


def test_vertex_count_matches_exact_count():
    for n in range(1, 9):
        g = build_graph(n)
        assert len(g.vertices) == count_ame(n)
        assert all(evaluate(v) == n and is_strict(v) for v in g.vertices)


def _graph_of_neighbors(n):
    """The graph on value n built from the public neighbors() of each vertex,
    each edge keyed by its sorted pair of prefixes."""
    vertices = tuple(enumerate_ame(n))
    adjacency, labels = {}, {}
    for v in vertices:
        adjacency[v] = tuple(sorted({u for u, _ in neighbors(v)}, key=to_prefix))
        for u, rule in neighbors(v):
            key = tuple(sorted((to_prefix(v), to_prefix(u))))
            labels.setdefault(key, set()).add(rule.value)
    edge_labels = {key: tuple(sorted(rules)) for key, rules in labels.items()}
    return RewriteGraph(n, vertices, adjacency, edge_labels)


@pytest.mark.parametrize("n", range(1, 8))
def test_build_graph_equals_the_graph_of_neighbors(n):
    got, want = build_graph(n), _graph_of_neighbors(n)
    assert got == want
    assert got.stats() == want.stats()
    assert got.to_dot() == want.to_dot()


@pytest.mark.parametrize("n", range(1, 10))
def test_build_graph_equals_the_reference_graph(n):
    got, want = build_graph(n), _reference_graph(n)
    assert got == want
    assert list(got.adjacency) == list(want.adjacency)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(10, 60), seed=st.integers(0, 2**32 - 1),
       sample=st.sampled_from([sample_am, sample_ame]))
def test_neighbors_equal_the_reference_beyond_the_graph_cap(n, seed, sample):
    tree = sample(n, random.Random(seed))
    assert neighbors(tree) == _reference_neighbors(tree)
    _assert_rewrites_equal_the_reference(tree)


def _assert_rewrites_equal_the_reference(tree):
    """The unfiltered rewrites, with their multiplicities, before neighbors()
    drops the source itself and the rewrites that are not strict."""
    got = Counter((parse_prefix(pu), graph._RULE_OF_BIT[bit])
                  for pu, bit in graph._rewrites(to_prefix(tree)))
    assert got == Counter(_all_rewrites(tree))


# any tree, strict or not: small ones, so that equal operands are common
_TREES = st.recursive(st.just(1), lambda kids: st.tuples(st.sampled_from("+*^"), kids, kids),
                      max_leaves=12)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(tree=_TREES)
def test_rewrites_equal_the_reference_on_any_tree(tree):
    # the reference also filters on value and size; neither ever fires
    assert neighbors(tree) == _reference_neighbors(tree)
    _assert_rewrites_equal_the_reference(tree)


@pytest.mark.parametrize("n, digest, vertices, edges, components", [
    (8, "b85b86bc0e2cea16b3d5085b8c1c51abe15494ddd6525f270fde0b91d885ccee", 613, 2509, 10),
    (9, "798473a8c23ea5ad5a7be1bb76e85f140048ad79b197bdbc566af6b95859857f", 2076, 10118, 12),
])
def test_whole_graph_golden(n, digest, vertices, edges, components):
    g = build_graph(n)
    assert hashlib.sha256(g.to_dot().encode()).hexdigest() == digest
    assert (len(g.vertices), g.edge_count, len(g.components())) == (vertices, edges, components)


@pytest.mark.parametrize("bad", [("+", 1), "x", ("+", 1, ("+", 1)), 2, None, ["+", 1, 1]])
def test_neighbors_refuses_what_is_not_a_tree(bad):
    with pytest.raises(DomainError):
        neighbors(bad)


def test_adjacency_is_symmetric_and_value_preserving():
    for n in (5, 6, 7):
        g = build_graph(n)
        for v in g.vertices:
            for u in g.adjacency[v]:
                assert evaluate(u) == n
                assert v in g.adjacency[u]
                assert u != v


def test_edge_labels_are_known_rules():
    g = build_graph(6)
    names = {r.value for r in RewriteRule}
    for (pu, pv), rules in g.edge_labels.items():
        assert pu < pv
        assert rules
        assert set(rules) <= names


def test_neighbors_of_a_sum():
    got = neighbors(("+", 1, T2))
    flipped = ("+", T2, 1)
    assert got == {
        (flipped, RewriteRule.COMM_ADD),
        (flipped, RewriteRule.ASSOC_ADD),
    }


def test_neighbors_power_distribution():
    # 2^(2+2) splits into 2^2 * 2^2; (2*2)^2 becomes the same product.
    # Reassociating inside the exponent also counts as a step.
    four_exp = ("^", T2, ("+", T2, T2))
    product = ("*", ("^", T2, T2), ("^", T2, T2))
    base_form = ("^", ("*", T2, T2), T2)
    assert neighbors(four_exp) == {
        (product, RewriteRule.DIST_POW_OVER_ADD_EXP),
        (("^", T2, ("+", 1, ("+", 1, T2))), RewriteRule.ASSOC_ADD),
        (("^", T2, ("+", ("+", T2, 1), 1)), RewriteRule.ASSOC_ADD),
    }
    assert neighbors(product) == {
        (four_exp, RewriteRule.DIST_POW_OVER_ADD_EXP),
        (base_form, RewriteRule.DIST_POW_OVER_MUL_BASE),
    }
    assert neighbors(base_form) == {(product, RewriteRule.DIST_POW_OVER_MUL_BASE)}


def test_neighbors_mul_distribution_both_ways():
    factored = ("*", T2, ("+", T2, T2))
    expanded = ("+", ("*", T2, T2), ("*", T2, T2))
    assert (expanded, RewriteRule.DIST_MUL_OVER_ADD) in neighbors(factored)
    assert (factored, RewriteRule.DIST_MUL_OVER_ADD) in neighbors(expanded)


def test_non_strict_rewrites_are_dropped():
    # 2*(1+1) would distribute into 2*1 + 2*1; the unit factors kill it
    got = neighbors(("*", T2, T2))
    assert got == set()
    for u, _ in neighbors(("^", T2, T2)):
        assert is_strict(u)


def test_dot_output_shape():
    g = build_graph(3)
    dot = g.to_dot()
    lines = dot.splitlines()
    assert lines[0] == 'graph "G_3" {'
    assert lines[1] == "  node [shape=box];"
    assert lines[-1] == "}"
    assert dot.count(" -- ") == g.edge_count
    assert 'label="AssocAdd,CommAdd"' in dot


def test_stats_shape():
    s = build_graph(4).stats()
    assert s == {
        "n": 4,
        "vertices": 7,
        "edges": 7,
        "components": 3,
        "degree_histogram": {"0": 2, "2": 1, "3": 4},
    }


def test_guards():
    with pytest.raises(SizeGuard):
        build_graph(10)
    for bad in (0, -1, True, "5", 2.5):
        with pytest.raises(DomainError):
            build_graph(bad)


def test_guard_refuses_before_any_count():
    def ame_rows():
        return sum(1 for row in default_table().entries() if row[0] == "ame")

    before = ame_rows()
    with pytest.raises(SizeGuard, match=r"value 1200 > 9;"):
        build_graph(1200)
    assert ame_rows() == before
