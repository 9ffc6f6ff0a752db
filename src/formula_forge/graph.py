"""Equivalence graph of the strict trees of a fixed value, under one-step
rewrites by the gate laws.

Vertices are all strict {+, *, ^} trees of value n; two trees are adjacent
when a single rule application at any position maps one to the other.  Every
rule is value-preserving, and each rule is matched in both directions, so
adjacency is symmetric.  A pair of trees can be connected by more than one
rule; edges keep the full label set.

The seven laws are written once, in _rewrites, as splices on prefix strings:
a text made of slices of the source's prefix replaces a subtree's substring.
build_graph keys vertices by prefix, looks each rewrite up as a str, which
caches its hash, and keeps an edge's labels as a bit mask until the end.
"""

from __future__ import annotations

from enum import Enum

from .enumeration import enumerate_ame
from .errors import Record, check_cap, require_int
from .trees import is_strict, parse_prefix, to_prefix, validate

MAX_GRAPH_VALUE = 9


class RewriteRule(Enum):
    COMM_ADD = "CommAdd"
    COMM_MUL = "CommMul"
    ASSOC_ADD = "AssocAdd"
    ASSOC_MUL = "AssocMul"
    DIST_MUL_OVER_ADD = "DistMulOverAdd"
    DIST_POW_OVER_ADD_EXP = "DistPowOverAddExp"
    DIST_POW_OVER_MUL_BASE = "DistPowOverMulBase"


# bit 1 << k is the k-th RewriteRule's (_CA: COMM_ADD, ..., _DB:
# DIST_POW_OVER_MUL_BASE); _NAMES[mask] sorts the names of mask's rules
_RULE_OF_BIT = {1 << k: rule for k, rule in enumerate(RewriteRule)}
_CA, _CM, _AA, _AM, _DM, _DE, _DB = _RULE_OF_BIT
_NAMES = tuple(tuple(sorted(r.value for bit, r in _RULE_OF_BIT.items() if mask & bit))
               for mask in range(1 << len(_RULE_OF_BIT)))


def _rewrites(p: str) -> list:
    """Every one-step rewrite of the tree with prefix p, as (prefix, rule
    bit), position by position.

    ends[i] is where the subtree starting at i ends.  One right-to-left
    scan fills it, as parse_prefix reads: a gate at i has the left operand
    a = p[i+1:m] with m = ends[i+1] and the right operand b = p[m:e] with
    e = ends[m]; k and j split a and b the same way when they are gates.
    """
    out = []
    add = out.append
    ends = [0] * (len(p) + 1)
    for i in range(len(p) - 1, -1, -1):
        g = p[i]
        if g == "1":
            ends[i] = i + 1
            continue
        m = ends[i + 1]
        ends[i] = e = ends[m]
        a, b, k, j = p[i + 1:m], p[m:e], ends[i + 2], ends[m + 1]
        pre, post, ga, gb = p[:i], p[e:], a[0], b[0]
        if g == "+":
            add((pre + "+" + b + a + post, _CA))
            if ga == "+":  # (f + g) + h -> f + (g + h)
                add((pre + "+" + p[i + 2:k] + "+" + p[k:m] + b + post, _AA))
            if gb == "+":  # f + (g + h) -> (f + g) + h
                add((pre + "++" + a + b[1:] + post, _AA))
            if ga == "*" == gb and p[i + 2:k] == p[m + 1:j]:  # f*g + f*h -> f*(g + h)
                add((pre + "*" + p[i + 2:k] + "+" + p[k:m] + p[j:e] + post, _DM))
        elif g == "*":
            add((pre + "*" + b + a + post, _CM))
            if ga == "*":  # (f*g)*h -> f*(g*h)
                add((pre + "*" + p[i + 2:k] + "*" + p[k:m] + b + post, _AM))
            if gb == "*":  # f*(g*h) -> (f*g)*h
                add((pre + "**" + a + b[1:] + post, _AM))
            if gb == "+":  # f*(g + h) -> f*g + f*h
                add((pre + "+*" + a + p[m + 1:j] + "*" + a + p[j:e] + post, _DM))
            if ga == "^" == gb and p[i + 2:k] == p[m + 1:j]:  # f^g * f^h -> f^(g + h)
                add((pre + "^" + p[i + 2:k] + "+" + p[k:m] + p[j:e] + post, _DE))
            if ga == "^" == gb and p[k:m] == p[j:e]:  # f^h * g^h -> (f*g)^h
                add((pre + "^*" + p[i + 2:k] + p[m + 1:j] + p[k:m] + post, _DB))
        else:
            if gb == "+":  # f^(g + h) -> f^g * f^h
                add((pre + "*^" + a + p[m + 1:j] + "^" + a + p[j:e] + post, _DE))
            if ga == "*":  # (f*g)^h -> f^h * g^h
                add((pre + "*^" + p[i + 2:k] + b + "^" + p[k:m] + b + post, _DB))
    return out


def neighbors(tree) -> set:
    """All (tree', rule) one step away, filtered to the vertex set: strict
    and different from the source.  Every law preserves the value, and a
    strict tree of value n has at most n leaves, so no rewrite can leave the
    value or pass size 2n - 1.  DomainError unless tree is a formula tree
    (trees.validate)."""
    validate(tree)
    p = to_prefix(tree)
    return {(u, _RULE_OF_BIT[bit]) for pu, bit in _rewrites(p)
            if pu != p and is_strict(u := parse_prefix(pu))}


class RewriteGraph(Record):
    """The vertices, adjacency (tree -> tuple of adjacent trees, prefix-sorted)
    and edge labels (sorted (prefix, prefix) pair -> tuple of rule names) of
    the graph on value n.  Compared by value; unhashable, as its dicts are."""

    __slots__ = __match_args__ = ("n", "vertices", "adjacency", "edge_labels")

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
    tree_of = {to_prefix(v): v for v in vertices}
    adj = {pv: set() for pv in tree_of}
    masks = {}
    for pv, near in adj.items():
        for pu, bit in _rewrites(pv):
            # the vertices are exactly the strict trees of value n, so
            # membership is neighbors()' strict filter
            if pu in tree_of and pu != pv:
                near.add(pu)
                key = (pv, pu) if pv < pu else (pu, pv)
                masks[key] = masks.get(key, 0) | bit
    adjacency = {tree_of[pv]: tuple(map(tree_of.__getitem__, sorted(near)))
                 for pv, near in adj.items()}
    edge_labels = {key: _NAMES[mask] for key, mask in masks.items()}
    return RewriteGraph(n=n, vertices=vertices, adjacency=adjacency, edge_labels=edge_labels)
