"""Equivalence graph of the strict trees of a fixed value, under one-step
rewrites by the gate laws.

Vertices are all strict {+, *, ^} trees of value n; two trees are adjacent
when a single rule application at any position maps one to the other.  Every
rule is value-preserving, and each rule is matched in both directions, so
adjacency is symmetric.  A pair of trees can be connected by more than one
rule; edges keep the full label set.
"""

from __future__ import annotations

from enum import Enum

from .enumeration import enumerate_ame
from .errors import Record, check_cap, require_int
from .trees import evaluate, is_strict, size, to_prefix

MAX_GRAPH_VALUE = 9


class RewriteRule(Enum):
    COMM_ADD = "CommAdd"
    COMM_MUL = "CommMul"
    ASSOC_ADD = "AssocAdd"
    ASSOC_MUL = "AssocMul"
    DIST_MUL_OVER_ADD = "DistMulOverAdd"
    DIST_POW_OVER_ADD_EXP = "DistPowOverAddExp"
    DIST_POW_OVER_MUL_BASE = "DistPowOverMulBase"


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


def neighbors(tree) -> set:
    """All (tree', rule) one step away, filtered to the vertex set: strict,
    same value, size within 2n - 1, and different from the source."""
    n = evaluate(tree)
    bound = 2 * n - 1
    out = set()
    for u, rule in _all_rewrites(tree):
        if u != tree and is_strict(u) and evaluate(u) == n and size(u) <= bound:
            out.add((u, rule))
    return out


class RewriteGraph(Record):
    """The vertices, adjacency (tree -> tuple of adjacent trees, prefix-sorted)
    and edge labels (sorted (prefix, prefix) pair -> tuple of rule names) of
    the graph on value n.  Compared by value; unhashable, as its dicts are."""

    __slots__ = __match_args__ = ("n", "vertices", "adjacency", "edge_labels")

    def __init__(self, n: int, vertices: tuple, adjacency: dict, edge_labels: dict):
        self._init(n=n, vertices=vertices, adjacency=adjacency, edge_labels=edge_labels)

    @property
    def edge_count(self) -> int:
        return len(self.edge_labels)

    def components(self) -> list:
        seen = set()
        out = []
        for v in self.vertices:
            if v in seen:
                continue
            comp = []
            stack = [v]
            seen.add(v)
            while stack:
                u = stack.pop()
                comp.append(u)
                for w in self.adjacency[u]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            out.append(comp)
        return out

    def degree_histogram(self) -> dict:
        hist = {}
        for v in self.vertices:
            d = len(self.adjacency[v])
            hist[d] = hist.get(d, 0) + 1
        return dict(sorted(hist.items()))

    def stats(self) -> dict:
        return {
            "n": self.n,
            "vertices": len(self.vertices),
            "edges": self.edge_count,
            "components": len(self.components()),
            "degree_histogram": {str(k): v for k, v in self.degree_histogram().items()},
        }

    def to_dot(self) -> str:
        lines = [f'graph "G_{self.n}" {{', "  node [shape=box];"]
        for v in self.vertices:
            lines.append(f'  "{to_prefix(v)}";')
        for (pu, pv), rules in sorted(self.edge_labels.items()):
            label = ",".join(rules)
            lines.append(f'  "{pu}" -- "{pv}" [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)


def build_graph(n: int, force: bool = False) -> RewriteGraph:
    """Rewrite graph on all strict trees of value n.

    build_graph(3) has two vertices joined by a single edge carrying both
    the CommAdd and AssocAdd labels.  Vertex counts grow like 4.13^n, so
    n > 9 is refused unless force=True.
    """
    check_cap(require_int(n), MAX_GRAPH_VALUE, f"graph value {n}", force)
    vertices = tuple(enumerate_ame(n))
    prefix = {v: to_prefix(v) for v in vertices}
    adj = {v: set() for v in vertices}
    labels = {}
    for v in vertices:
        pv = prefix[v]
        for u, rule in _all_rewrites(v):
            # the vertices are exactly the strict trees of value n, so
            # membership is neighbors()' strict, value and size filter
            if u in prefix and u != v:
                adj[v].add(u)
                pu = prefix[u]
                labels.setdefault((pv, pu) if pv < pu else (pu, pv), set()).add(rule.value)
    adjacency = {v: tuple(sorted(adj[v], key=prefix.__getitem__)) for v in vertices}
    edge_labels = {k: tuple(sorted(rs)) for k, rs in labels.items()}
    return RewriteGraph(n=n, vertices=vertices, adjacency=adjacency, edge_labels=edge_labels)
