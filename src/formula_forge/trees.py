"""Formula trees over the gates {+, *, ^} with all-1 leaves.

A tree is either the leaf ``1`` (the int) or a tuple ``(gate, left, right)``
with gate one of ``'+'``, ``'*'``, ``'^'``; for ``'^'`` the left child is the
base, as in the bracket notation ``(+ 1 (+ 1 1))`` = ``('+', 1, ('+', 1, 1))``.
Size is the node count (always odd, 2*leaves - 1), depth the longest
root-to-leaf path.  A tree is *strict* when no subterm is 1*f, f*1, f^1 or
1^f; those shapes waste gates without changing the value.

Every walker takes only the int 1 (by identity: not 1.0 or True) as a leaf
and only three-element nodes, else DomainError; it answers a leaf operand
inline, one call per gate.  Only evaluate and validate check the gate; the
others pass an unknown one.  parse_prefix shares one tuple per gate over
two leaves, so its trees may share subtrees (== does not see it).
"""

from __future__ import annotations

from .errors import DomainError, FormulaForgeError, MalformedString, nested

ADD, MUL, POW = "+", "*", "^"
GATES = (ADD, MUL, POW)
_LEAF = 1
_CHERRIES = {gate: (gate, 1, 1) for gate in GATES}


def _walk(walk, tree, verb):
    """nested(walk, tree, "tree", verb), and DomainError for a non-tree."""
    try:
        return nested(walk, tree, "tree", verb)
    except FormulaForgeError:
        raise
    except (TypeError, ValueError, LookupError) as exc:
        raise DomainError(f"not a formula tree: {exc}") from None


def evaluate(tree) -> int:
    """Value of the formula, in exact big ints; SizeGuard on deep nesting."""
    return 1 if tree is _LEAF else _walk(_evaluate, tree, "evaluate")


def _evaluate(tree):
    gate, left, right = tree
    a = 1 if left is _LEAF else _evaluate(left)
    b = 1 if right is _LEAF else _evaluate(right)
    if gate == ADD:
        return a + b
    if gate == MUL:
        return a * b
    if gate == POW:
        return a ** b
    raise DomainError(f"unknown gate {gate!r}")


def size(tree) -> int:
    """Node count; odd, equal to 2*leaf_count(tree) - 1."""
    return 1 if tree is _LEAF else _walk(_size, tree, "measure")


def _size(tree):
    _, left, right = tree
    return 1 + (1 if left is _LEAF else _size(left)) + (1 if right is _LEAF else _size(right))


def depth(tree) -> int:
    """Longest root-to-leaf path; 0 for the bare leaf."""
    return 0 if tree is _LEAF else _walk(_depth, tree, "measure")


def _depth(tree):
    _, left, right = tree
    return 1 + max(0 if left is _LEAF else _depth(left), 0 if right is _LEAF else _depth(right))


def leaf_count(tree) -> int:
    return (size(tree) + 1) // 2


def is_strict(tree) -> bool:
    """True when no subterm is 1*f, f*1, f^1 or 1^f."""
    return tree is _LEAF or _walk(_is_strict, tree, "check")


def _is_strict(tree):  # walks both operands, so a malformed one raises
    gate, left, right = tree
    a = left is _LEAF or _is_strict(left)
    b = right is _LEAF or _is_strict(right)
    return a and b and not (gate in (MUL, POW) and (left is _LEAF or right is _LEAF))


def validate(tree) -> None:
    """Raise DomainError unless tree is a well-formed formula tree."""
    if tree is not _LEAF:
        _walk(_validate, tree, "check")


def _validate(tree):
    gate, left, right = tree  # a value of another length faults
    if not isinstance(tree, tuple) or gate not in GATES:
        raise DomainError(f"not a formula tree: a {type(tree).__name__} with gate {gate!r}")
    if left is not _LEAF:
        _validate(left)
    if right is not _LEAF:
        _validate(right)


def to_prefix(tree) -> str:
    """Preorder string over {1, +, *, ^}, at any depth: ('+', 1, 1) -> '+11'."""
    return _walk(_to_prefix, tree, "print")


def _to_prefix(tree):
    parts, pending = [], []  # pending: right operands still due
    while True:
        while tree is not _LEAF:
            gate, tree, right = tree
            parts.append(gate)
            pending.append(right)
        parts.append("1")
        if not pending:
            return "".join(parts)
        tree = pending.pop()


def to_postfix(tree) -> str:
    """Mirror-postorder string; always the reverse of to_prefix(tree)."""
    return to_prefix(tree)[::-1]


def parse_prefix(text: str):
    """Inverse of to_prefix, at any depth; MalformedString on bad input.

    The string is read right to left: a 1 pushes a leaf, and a gate pops
    its left operand, then its right one.
    """
    return _parse(text, reversed)


def parse_postfix(text: str):
    """Inverse of to_postfix: the prefix reading, left to right."""
    return _parse(text, iter)


def _parse(text, order):
    if not isinstance(text, str):
        raise MalformedString(f"not a string: {text!r}")
    stack = []
    push, pop = stack.append, stack.pop
    for ch in order(text):
        if ch == "1":
            push(1)
        elif ch in GATES and len(stack) > 1:
            left, right = pop(), pop()
            push(_CHERRIES[ch] if left is right is _LEAF else (ch, left, right))
        elif ch in GATES:
            raise MalformedString(f"gate {ch!r} lacks an operand in {text!r}")
        else:
            raise MalformedString(f"unknown symbol {ch!r} in {text!r}")
    if len(stack) != 1:
        raise MalformedString(f"{len(stack)} trees in {text!r}, not one")
    return stack[0]


def to_brackets(tree):
    """Nested-list form for JSON: ('+', 1, 1) -> ['+', 1, 1]."""
    return 1 if tree is _LEAF else _walk(_to_brackets, tree, "print")


def _to_brackets(tree):
    gate, left, right = tree
    return [gate, 1 if left is _LEAF else _to_brackets(left),
            1 if right is _LEAF else _to_brackets(right)]


def from_brackets(obj):
    """Inverse of to_brackets; accepts lists or tuples, validates shape."""
    return nested(_from_brackets, obj, "bracket form", "read")


def _from_brackets(obj):
    if obj is _LEAF:  # not 1.0 or True
        return 1
    if isinstance(obj, (list, tuple)) and len(obj) == 3 and obj[0] in GATES:
        return (obj[0], _from_brackets(obj[1]), _from_brackets(obj[2]))
    raise DomainError(f"not a bracket-form tree: {obj!r}")
