"""Rewrite graphs: vertex sets, adjacency symmetry, and rule labels."""

import pytest

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
    to_prefix,
)

T2 = ("+", 1, 1)


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
