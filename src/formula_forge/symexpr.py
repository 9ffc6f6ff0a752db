"""Shorthand expressions over the symbol x (the doubled unit, value 2).

Encodings built from towers of x quickly describe numbers far too large to
expand into raw formula trees, so this module keeps them symbolic: immutable
nodes ONE, X, Sum, Prod, Pow, plus Neg strictly for reciprocal exponents.
Smart constructors flatten nested sums/products, drop unit factors, collapse
trivial powers, and keep n-ary operands sorted by descending value.  The
sieve and canonical.encode_horner build their Sum and Prod nodes directly
in that normal form: their operands are already flat, unit-free and
strictly descending by value, so sorting them again would change nothing.
Nodes are interned, in one table per class (hash-consed, as are the forms
in ``canonical``): each distinct node is built once, so ``==`` and ``hash``
are identity and cost O(1), as do lookups in memo tables keyed by node:
sym_value's values, and render's text table ``_TEXTS``, which grows per
rendered node until clear_caches() (a refused render keeps only the
operands it finished).
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DomainError, Record, SizeGuard, nested


class Interned(Record):
    """Hash-consing base: one instance per class and field values.

    A subclass lists its one or two fields in __slots__ and takes them
    positionally; __match_args__ collects them along the class chain.  Each
    class keys its own table, _nodes, by its lone field or its pair of them.
    Nodes are immutable and compare and hash by identity.  Copies are the
    node itself, and a pickle holds the node's DAG as a flat post-order
    list, so neither walks a deep node recursively.
    """

    __slots__ = ()
    __init__ = object.__init__  # __new__ sets the fields: no Python-level call
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init_subclass__(cls, **kwargs):
        cls.__match_args__ += cls.__dict__.get("__slots__", ())
        super().__init_subclass__(**kwargs)  # sets cls._setters from __match_args__
        if not cls.__match_args__:
            return
        table = cls._nodes = {}  # setdefault is atomic: racing threads agree on one node
        set_first, set_second = cls._setters[0], cls._setters[-1]

        def one(cls, first):
            node = table.get(first)
            if node is None:
                node = object.__new__(cls)
                set_first(node, first)
                node = table.setdefault(first, node)
            return node

        def two(cls, first, second):
            node = table.get((first, second))
            if node is None:
                node = object.__new__(cls)
                set_first(node, first)
                set_second(node, second)
                node = table.setdefault((first, second), node)
            return node
        cls.__new__ = staticmethod({1: one, 2: two}[len(cls._setters)])

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        return _rebuild, (_flatten(self),)


def _flatten(root):
    """root's distinct nodes in post-order, with an explicit stack, as
    (class, fields) pairs that give a node field as its index in the list
    and a tuple field as a tuple of indices."""
    index, flat, stack = {}, [], [root]
    while stack:
        e = stack.pop()
        if e in index:
            continue
        fields = e._values()
        kids = [k for v in fields for k in (v if isinstance(v, tuple) else (v,))
                if isinstance(k, Interned) and k not in index]
        if kids:
            stack += [e, *kids]
            continue
        index[e] = len(flat)
        flat.append((type(e), tuple(tuple(index[k] for k in v) if isinstance(v, tuple)
                                    else index[v] if isinstance(v, Interned) else v
                                    for v in fields)))
    return flat


def _rebuild(flat):
    """The last node of a _flatten list, interned afresh."""
    nodes = []
    for cls, fields in flat:
        nodes.append(cls(*(tuple(nodes[i] for i in v) if isinstance(v, tuple)
                           else nodes[v] if isinstance(v, int) else v
                           for v in fields)))
    return nodes[-1]


class SymExpr(Interned):
    __slots__ = ()

    def __str__(self):
        return render(self)

    def __lt__(self, other):  # the operand order's tie-break, for equal values
        return render(self) < render(other)


class _Leaf(SymExpr):
    __slots__ = ("name",)


ONE = _Leaf("1")
X = _Leaf("x")


class Sum(SymExpr):
    __slots__ = ("terms",)


class Prod(SymExpr):
    __slots__ = ("factors",)


class Pow(SymExpr):
    __slots__ = ("base", "exponent")


class Neg(SymExpr):
    """Negated exponent; only valid underneath Pow."""

    __slots__ = ("inner",)


@lru_cache(maxsize=None)
def sym_value(e: SymExpr):
    """Numeric value at x = 2; an int, or a Fraction under Neg exponents.

    Nesting past the recursion limit on a cache miss raises SizeGuard.  The
    guard is in this body, not in a wrapper, so each level costs one frame.
    """
    if e is ONE:
        return 1
    if e is X:
        return 2
    try:
        if isinstance(e, Sum):
            return sum(sym_value(t) for t in e.terms)
        if isinstance(e, Prod):
            v = 1
            for f in e.factors:
                v *= sym_value(f)
            return v
        if isinstance(e, Pow):
            b = sym_value(e.base)
            x = sym_value(e.exponent)
            if isinstance(x, int) and x >= 0:
                return b**x
            if x < 0 and x.denominator == 1:  # x^(-3/2) is no rational
                from fractions import Fraction  # only Neg exponents need it

                return Fraction(1, b ** int(-x))
            raise DomainError(f"unsupported exponent value {x!r}")
        if isinstance(e, Neg):
            v = sym_value(e.inner)
            if not (isinstance(v, int) and v >= 1):
                raise DomainError("Neg wraps positive integer exponents only")
            from fractions import Fraction

            return Fraction(-v)
    except RecursionError:
        raise SizeGuard("expression nests too deeply to evaluate") from None
    raise DomainError(f"not a symbolic expression: {e!r}")


# the cache_clear of every per-process memo table of the package; a module
# adds its own when it loads, so clear_caches() reaches what was loaded
CACHE_CLEARS = [sym_value.cache_clear]


def clear_caches() -> None:
    """Empty the per-process memo tables: sym_value's, render's texts,
    gs_value's, the Goodstein and Horner encoders', and the sieve's table
    of dyadic states.

    For long-running callers.  Interned nodes are never released: a node
    still referenced stays the one node of its kind and fields, and later
    results are built from the same nodes as before.
    """
    for clear in CACHE_CLEARS:
        clear()


def _sort_key(e):
    return (-sym_value(e), e)


def sym_sum(terms) -> SymExpr:
    """n-ary sum with flattening and value-descending canonical order."""
    flat = []
    for t in terms:
        if isinstance(t, Sum):
            flat.extend(t.terms)
        else:
            flat.append(t)
    if not flat:
        raise DomainError("empty sum")
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(sorted(flat, key=_sort_key)))


def sym_prod(factors) -> SymExpr:
    """n-ary product; drops unit factors, flattens, sorts by value desc."""
    flat = []
    for f in factors:
        if isinstance(f, Prod):
            flat.extend(f.factors)
        elif f is ONE:
            continue
        else:
            flat.append(f)
    if not flat:
        return ONE
    if len(flat) == 1:
        return flat[0]
    return Prod(tuple(sorted(flat, key=_sort_key)))


def sym_pow(base: SymExpr, exponent: SymExpr) -> SymExpr:
    if base is ONE:
        return ONE
    if exponent is ONE:
        return base
    return Pow(base, exponent)


_NAMES = {ONE: "1", X: "x"}  # any operand of a node is hashable: interning hashed it
_TEXTS = {}  # node -> its whole-expression text, as _top rendered it
CACHE_CLEARS.append(_TEXTS.clear)


def render(e: SymExpr) -> str:
    """Infix form with minimal parentheses.

    render(sym_sum([Pow(X, X), X, ONE])) == 'x^x + x + 1'
    render(Pow(X, sym_sum([X, ONE]))) == 'x^(x + 1)'
    render(Pow(X, Neg(ONE))) == 'x^(-1)'

    The texts of e and of each parenthesised operand in it go into a
    per-process table that later renders reuse; it grows by one entry per
    such node until clear_caches().  Each level of nesting down to an
    operand already in the table costs about three interpreter frames;
    nesting past the recursion limit raises SizeGuard, and a refused render
    keeps only the texts of the operands it finished.
    """
    if not isinstance(e, SymExpr):  # before the table: render([]) is no TypeError
        raise DomainError(f"not a symbolic expression: {e!r}")
    return nested(_top, e, "expression", "render")


def _top(e):
    """The whole expression: a Sum, Prod, Pow or Neg bare, or a leaf."""
    text = _TEXTS.get(e)  # in this frame: a wrapper or helper costs depth
    if text is not None:
        return text
    t = type(e)
    if t is Sum:
        text = " + ".join(map(_operand, e.terms))
    elif t is Prod or t is Pow:
        text = _operand(e)
    elif t is Neg:
        text = f"-{_atom(e.inner)}"
    elif t is _Leaf and e in _NAMES:
        text = _NAMES[e]
    else:
        raise DomainError(f"not a symbolic expression: {e!r}")
    _TEXTS[e] = text
    return text


def _operand(e):
    """A term or factor: a leaf, Pow or Prod bare, anything else in parentheses."""
    t = type(e)
    if t is Prod:
        return "*".join(map(_operand, e.factors))
    if t is Pow:
        return f"{_atom(e.base)}^{_atom(e.exponent)}"
    return _NAMES.get(e) or f"({_top(e)})"


def _atom(e):
    """A base, exponent or Neg operand: only a leaf prints bare."""
    return _NAMES.get(e) or f"({_top(e)})"


def expand_x(e: SymExpr):
    """Rewrite into a raw formula tree, substituting x = (1 + 1).

    The result is a strict tree whose evaluate() equals sym_value(e).
    Reciprocal exponents (no tree form) raise DomainError, deep nesting SizeGuard.
    """
    return nested(_expand_x, e, "expression", "expand")


def _expand_x(e):
    if e is ONE:
        return 1
    if e is X:
        return ("+", 1, 1)
    if isinstance(e, Sum):
        return _fold("+", [_expand_x(t) for t in e.terms])
    if isinstance(e, Prod):
        return _fold("*", [_expand_x(f) for f in e.factors])
    if isinstance(e, Pow):
        return ("^", _expand_x(e.base), _expand_x(e.exponent))
    raise DomainError(f"no tree form for {e!r}")


def _fold(gate, parts):
    out = parts[0]
    for p in parts[1:]:
        out = (gate, out, p)
    return out
