"""Shorthand expressions over the symbol x (the doubled unit, value 2).

Encodings built from towers of x quickly describe numbers far too large to
expand into raw formula trees, so this module keeps them symbolic: immutable
nodes ONE, X, Sum, Prod, Pow, plus Neg strictly for reciprocal exponents.
Smart constructors flatten nested sums/products, drop unit factors, collapse
trivial powers, and keep n-ary operands sorted by descending value.  Nodes
are interned (hash-consed, as are the forms in ``canonical``): each distinct
node is built once, so ``==`` and ``hash`` are identity and cost O(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, SizeGuard

_NODES = {}
# `node` classes are immutable, compare by identity and take their fields
# positionally through Interned.__new__
node = dataclass(frozen=True, eq=False, init=False, slots=True)


class Interned:
    """Hash-consing base: one instance per class and field values."""

    __slots__ = ()

    def __new__(cls, *fields):
        key = (cls, *fields)
        found = _NODES.get(key)
        if found is None:
            found = object.__new__(cls)
            for name, value in zip(cls.__match_args__, fields, strict=True):
                object.__setattr__(found, name, value)
            # setdefault is atomic, so racing threads still agree on one node
            found = _NODES.setdefault(key, found)
        return found

    def __reduce__(self):  # copy, deepcopy and pickle rebuild through __new__
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


@node
class SymExpr(Interned):
    def __str__(self):
        return render(self)

    def __lt__(self, other):  # the operand order's tie-break, for equal values
        return render(self) < render(other)


@node
class _Leaf(SymExpr):
    name: str


ONE = _Leaf("1")
X = _Leaf("x")


@node
class Sum(SymExpr):
    terms: tuple


@node
class Prod(SymExpr):
    factors: tuple


@node
class Pow(SymExpr):
    base: SymExpr
    exponent: SymExpr


@node
class Neg(SymExpr):
    """Negated exponent; only valid underneath Pow."""

    inner: SymExpr


@lru_cache(maxsize=None)
def sym_value(e: SymExpr):
    """Numeric value at x = 2; an int, or a Fraction under Neg exponents."""
    if e is ONE:
        return 1
    if e is X:
        return 2
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
        if x < 0:
            return Fraction(1, b ** int(-x))
        raise DomainError(f"unsupported exponent value {x!r}")
    if isinstance(e, Neg):
        v = sym_value(e.inner)
        if not (isinstance(v, int) and v >= 1):
            raise DomainError("Neg wraps positive integer exponents only")
        return Fraction(-v)
    raise DomainError(f"not a symbolic expression: {e!r}")


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


# precedence: Sum < Prod < Pow < atom
_PREC_SUM, _PREC_PROD, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4


def _prec(e):
    if isinstance(e, (Sum, Neg)):
        return _PREC_SUM
    if isinstance(e, Prod):
        return _PREC_PROD
    if isinstance(e, Pow):
        return _PREC_POW
    return _PREC_ATOM


def _wrap(e, minimum):
    s = _render(e)
    return f"({s})" if _prec(e) < minimum else s


def render(e: SymExpr) -> str:
    """Infix form with minimal parentheses.

    render(sym_sum([Pow(X, X), X, ONE])) == 'x^x + x + 1'
    render(Pow(X, sym_sum([X, ONE]))) == 'x^(x + 1)'
    render(Pow(X, Neg(ONE))) == 'x^(-1)'

    Nesting past the interpreter's recursion limit raises SizeGuard.
    """
    try:
        return _render(e)
    except RecursionError:
        raise SizeGuard("expression nests too deeply to render") from None


def _render(e):
    if e is ONE or e is X:
        return e.name
    if isinstance(e, Sum):
        return " + ".join(_wrap(t, _PREC_PROD) for t in e.terms)
    if isinstance(e, Prod):
        return "*".join(_wrap(f, _PREC_PROD) for f in e.factors)
    if isinstance(e, Pow):
        return f"{_wrap(e.base, _PREC_ATOM)}^{_wrap(e.exponent, _PREC_ATOM)}"
    if isinstance(e, Neg):
        return f"-{_wrap(e.inner, _PREC_ATOM)}"
    raise DomainError(f"not a symbolic expression: {e!r}")


def expand_x(e: SymExpr):
    """Rewrite into a raw formula tree, substituting x = (1 + 1).

    The result is a strict tree whose evaluate() equals sym_value(e).
    Reciprocal exponents (no tree form) raise DomainError, deep nesting SizeGuard.
    """
    try:
        return _expand_x(e)
    except RecursionError:
        raise SizeGuard("expression nests too deeply to expand") from None


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
