"""Reference answers the benchmark owns.

Nothing here imports the package or its tests: every check is rederived
from the definitions (trees over +, *, ^ with all-1 leaves; hereditary
base-2 forms; the shorthand symbol x = 2) or pinned from published values.
Each check returns None when the output is right and a short message when
it is wrong.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import comb, isqrt

# counts are compared modulo a Mersenne prime: exact for all practical
# purposes, and cheap enough to recompute up to n ~ 1000 on every run
P = (1 << 61) - 1

PINNED_COUNTS = {("am", 6): 52, ("ame", 9): 2076}
PINNED_SHORTEST = {1000: 17}

RHO = {
    "am": Decimal("4.076561785276046198604022852815"),
    "ame": Decimal("4.130735295148006396822552566926"),
}
CONSTANT = Decimal("0.1456918546999792945604")
# estimates at terms 60..150 and 100..300 bits agree with the references
# to better than 1e-20; a result further off than this is wrong
GROWTH_TOL = Fraction(1, 10**18)


# -- formula trees --------------------------------------------------------

def tree_value(t) -> int:
    if t == 1:
        return 1
    gate, left, right = t
    a, b = tree_value(left), tree_value(right)
    if gate == "+":
        return a + b
    if gate == "*":
        return a * b
    if gate == "^":
        return a**b
    raise ValueError(f"unknown gate {gate!r}")


def tree_size(t) -> int:
    if t == 1:
        return 1
    return 1 + tree_size(t[1]) + tree_size(t[2])


def family_ok(t, gates: str) -> bool:
    """Only the given gates, and no 1 operand under * or ^ (strictness)."""
    if t == 1:
        return True
    gate, left, right = t
    if gate not in gates:
        return False
    if gate in "*^" and (left == 1 or right == 1):
        return False
    return family_ok(left, gates) and family_ok(right, gates)


def lop_ok(t) -> bool:
    """Add-only with left operand value >= right operand value everywhere."""
    if t == 1:
        return True
    gate, left, right = t
    return (
        gate == "+"
        and tree_value(left) >= tree_value(right)
        and lop_ok(left)
        and lop_ok(right)
    )


def parse_prefix(text: str):
    """Preorder string over {1, +, *, ^} back to a tuple tree."""
    stack = []
    for ch in reversed(text):
        if ch == "1":
            stack.append(1)
        elif ch in "+*^" and len(stack) >= 2:
            left = stack.pop()
            right = stack.pop()
            stack.append((ch, left, right))
        else:
            raise ValueError(f"bad prefix string {text!r}")
    if len(stack) != 1:
        raise ValueError(f"bad prefix string {text!r}")
    return stack[0]


def from_nested(obj):
    """Nested-list bracket form back to a tuple tree."""
    if obj == 1:
        return 1
    gate, left, right = obj
    return (gate, from_nested(left), from_nested(right))


def check_tree(t, n: int, family: str) -> str | None:
    if tree_value(t) != n:
        return f"tree has value {tree_value(t)}, expected {n}"
    if family == "lop":
        ok = lop_ok(t)
    else:
        ok = family_ok(t, {"a": "+", "am": "+*", "ame": "+*^"}[family])
    return None if ok else f"tree outside family {family}: {t!r}"


# -- counts ---------------------------------------------------------------

def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


def _mid_divisors(n):
    """Divisors d with 2 <= d <= n/2."""
    return {d for a in range(2, isqrt(n) + 1) if n % a == 0 for d in (a, n // a)}


def _powers(n):
    """(base, exponent) pairs with base**exponent == n, both >= 2."""
    out = []
    b = 2
    while b * b <= n:
        e, v = 0, 1
        while v < n:
            v *= b
            e += 1
        if v == n:
            out.append((b, e))
        b += 1
    return out


class CountOracle:
    """Counts mod P by root gate for the families lop, am, ame (and a)."""

    def __init__(self, upto: int):
        self.upto = upto
        self.lop = [0, 1]
        self.am = {"+": [0, 1], "*": [0, 0]}
        self.ame = {"+": [0, 1], "*": [0, 0], "^": [0, 0]}
        am_tot = [0, 1]
        ame_tot = [0, 1]
        for m in range(2, upto + 1):
            self.lop.append(sum(self.lop[i] * self.lop[m - i] for i in range(1, m // 2 + 1)) % P)
            divs = _mid_divisors(m)
            add = sum(am_tot[i] * am_tot[m - i] for i in range(1, m)) % P
            mul = sum(am_tot[d] * am_tot[m // d] for d in divs) % P
            self.am["+"].append(add)
            self.am["*"].append(mul)
            am_tot.append((add + mul) % P)
            add = sum(ame_tot[i] * ame_tot[m - i] for i in range(1, m)) % P
            mul = sum(ame_tot[d] * ame_tot[m // d] for d in divs) % P
            pw = sum(ame_tot[b] * ame_tot[e] for b, e in _powers(m)) % P
            self.ame["+"].append(add)
            self.ame["*"].append(mul)
            self.ame["^"].append(pw)
            ame_tot.append((add + mul + pw) % P)

    def expected_mod(self, family: str, n: int, root: str = "all") -> int:
        if family == "a":
            return catalan(n - 1) % P
        if family == "lop":
            return self.lop[n]
        table = self.am if family == "am" else self.ame
        roots = table if root == "all" else {root: table[root]}
        return sum(col[n] for col in roots.values()) % P

    def check(self, family: str, n: int, value: int, root: str = "all") -> str | None:
        pinned = PINNED_COUNTS.get((family, n))
        if pinned is not None and root == "all" and value != pinned:
            return f"count {family}({n}) = {value}, pinned {pinned}"
        if n > self.upto and family != "a":
            return f"no reference for {family}({n})"
        if value % P != self.expected_mod(family, n, root):
            return f"count {family}({n}, {root}) = {value} is wrong"
        return None


# -- primes ---------------------------------------------------------------

def primes_upto(n: int) -> list:
    """Classical boolean sieve of Eratosthenes."""
    mark = bytearray([1]) * (n + 1)
    mark[0:2] = b"\x00\x00"
    for p in range(2, isqrt(n) + 1):
        if mark[p]:
            mark[p * p :: p] = bytearray(len(range(p * p, n + 1, p)))
    return [i for i in range(n + 1) if mark[i]]


# -- hereditary base-2 forms and shorthand expressions --------------------

def form_value(f) -> int:
    """Value of a form with `exponents`: sum of 2**value(e); also checks
    the exponents are strictly decreasing, as a normal form requires."""
    values = [form_value(e) for e in f.exponents]
    if any(a <= b for a, b in zip(values, values[1:])):
        raise ValueError("exponents not strictly decreasing")
    return sum(2**v for v in values)


def check_form(f, expected: int) -> str | None:
    try:
        v = form_value(f)
    except ValueError as exc:
        return f"not a normal form: {exc}"
    return None if v == expected else f"form has value {v}, expected {expected}"


class SymValue:
    """Value at x = 2 of a shorthand expression, read from its fields
    (terms, factors, base/exponent, inner).  Memoized by node identity, so
    an instance must not outlive the expressions it has seen."""

    def __init__(self, one, x):
        self.leaves = {id(one): 1, id(x): 2}
        self.memo = {}

    def __call__(self, e):
        key = id(e)
        if key in self.leaves:
            return self.leaves[key]
        if key in self.memo:
            return self.memo[key]
        if hasattr(e, "terms"):
            v = sum(self(t) for t in e.terms)
        elif hasattr(e, "factors"):
            v = 1
            for f in e.factors:
                v *= self(f)
        elif hasattr(e, "base"):
            b, x = self(e.base), self(e.exponent)
            v = b**x if x >= 0 else Fraction(1, b ** (-x))
        elif hasattr(e, "inner"):
            v = -self(e.inner)
        else:
            raise ValueError(f"not a shorthand expression: {e!r}")
        self.memo[key] = v
        return v


def infix_value(text: str) -> int:
    """Value of rendered shorthand text such as 'x^(x + 1)*x + 1'."""
    s = text.replace(" ", "")
    pos = 0

    def peek():
        return s[pos] if pos < len(s) else ""

    def take(ch):
        nonlocal pos
        if peek() != ch:
            raise ValueError(f"expected {ch!r} at {pos} in {text!r}")
        pos += 1

    def atom():
        nonlocal pos
        ch = peek()
        if ch == "1":
            pos += 1
            return 1
        if ch == "x":
            pos += 1
            return 2
        if ch == "-":
            pos += 1
            return -atom()
        take("(")
        v = total()
        take(")")
        return v

    def power():
        b = atom()
        if peek() == "^":
            take("^")
            e = atom()
            return b**e if e >= 0 else Fraction(1, b ** (-e))
        return b

    def product():
        v = power()
        while peek() == "*":
            take("*")
            v *= power()
        return v

    def total():
        v = product()
        while peek() == "+":
            take("+")
            v += product()
        return v

    v = total()
    if pos != len(s):
        raise ValueError(f"trailing text in {text!r}")
    return v


# -- growth constants -----------------------------------------------------

def as_fraction(v) -> Fraction:
    """Exact value of an mpmath number (via man/exp), or of a decimal string."""
    if hasattr(v, "man") and hasattr(v, "exp"):
        return Fraction(v.man) * Fraction(2) ** v.exp
    return Fraction(Decimal(str(v)))


def check_close(value, ref: Decimal, what: str) -> str | None:
    err = abs(as_fraction(value) - Fraction(ref))
    if err > GROWTH_TOL:
        return f"{what} off by {float(err):.3g}"
    return None
