"""Formula trees over the gates {+, *, ^} with all-1 leaves.

A tree is either the leaf ``1`` (the int) or a tuple ``(gate, left, right)``
with gate one of ``'+'``, ``'*'``, ``'^'``.  For ``'^'`` the left child is the
base.  This mirrors the bracket notation used throughout: ``(+ 1 (+ 1 1))``
is ``('+', 1, ('+', 1, 1))``.

Size is the node count (always odd, 2*leaves - 1), depth the longest
root-to-leaf path.  A tree is *strict* when no subterm is 1*f, f*1, f^1 or
1^f; those shapes waste gates without changing the value.
"""

from __future__ import annotations

from .errors import DomainError, FormulaForgeError, MalformedString, nested

ADD, MUL, POW = "+", "*", "^"
GATES = (ADD, MUL, POW)


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
    return _walk(_evaluate, tree, "evaluate")


def _evaluate(tree):
    if tree == 1:
        return 1
    gate, left, right = tree
    a, b = _evaluate(left), _evaluate(right)
    if gate == ADD:
        return a + b
    if gate == MUL:
        return a * b
    if gate == POW:
        return a ** b
    raise DomainError(f"unknown gate {gate!r}")


def size(tree) -> int:
    """Node count; odd, equal to 2*leaf_count(tree) - 1."""
    return _walk(_size, tree, "measure")


def _size(tree):
    if tree == 1:
        return 1
    return 1 + _size(tree[1]) + _size(tree[2])


def depth(tree) -> int:
    """Longest root-to-leaf path; 0 for the bare leaf."""
    return _walk(_depth, tree, "measure")


def _depth(tree):
    if tree == 1:
        return 0
    return 1 + max(_depth(tree[1]), _depth(tree[2]))


def leaf_count(tree) -> int:
    return (size(tree) + 1) // 2


def is_strict(tree) -> bool:
    """True when no subterm is 1*f, f*1, f^1 or 1^f."""
    return _walk(_is_strict, tree, "check")


def _is_strict(tree):
    if tree == 1:
        return True
    gate, left, right = tree
    if gate in (MUL, POW) and (left == 1 or right == 1):
        return False
    return _is_strict(left) and _is_strict(right)


def validate(tree) -> None:
    """Raise DomainError unless tree is a well-formed formula tree."""
    _walk(_validate, tree, "check")


def _validate(tree):
    if tree == 1 and type(tree) is int:  # not 1.0 or True
        return
    gate, left, right = tree  # a value of another length faults
    if not isinstance(tree, tuple) or gate not in GATES:
        raise DomainError(f"not a formula tree: a {type(tree).__name__} with gate {gate!r}")
    _validate(left)
    _validate(right)


def to_prefix(tree) -> str:
    """Preorder string over the alphabet {1, +, *, ^}, at any depth.

    to_prefix(('+', 1, 1)) == '+11'
    """
    return _walk(_to_prefix, tree, "print")


def _to_prefix(tree):
    parts, pending = [], []  # pending: gates whose right operand is still due
    while True:
        if tree == 1:
            parts.append("1")
            if not pending:
                return "".join(parts)
            tree = pending.pop()[2]
        else:
            parts.append(tree[0])
            pending.append(tree)
            tree = tree[1]


def to_postfix(tree) -> str:
    """Mirror-postorder string; always the reverse of to_prefix(tree)."""
    return to_prefix(tree)[::-1]


def parse_prefix(text: str):
    """Inverse of to_prefix, at any depth; MalformedString on bad input.

    The string is read right to left: a 1 pushes a leaf, and a gate pops
    its left operand, then its right one.
    """
    stack = []
    push, pop = stack.append, stack.pop
    for ch in reversed(text):
        if ch == "1":
            push(1)
        elif ch in GATES and len(stack) > 1:
            push((ch, pop(), pop()))
        elif ch in GATES:
            raise MalformedString(f"gate {ch!r} lacks an operand in {text!r}")
        else:
            raise MalformedString(f"unknown symbol {ch!r} in {text!r}")
    if len(stack) != 1:
        raise MalformedString(f"{len(stack)} trees in {text!r}, not one")
    return stack[0]


def parse_postfix(text: str):
    """Inverse of to_postfix: parse the reversed string as prefix."""
    return parse_prefix(text[::-1])


def to_brackets(tree):
    """Nested-list form for JSON: ('+', 1, 1) -> ['+', 1, 1]."""
    return _walk(_to_brackets, tree, "print")


def _to_brackets(tree):
    if tree == 1:
        return 1
    return [tree[0], _to_brackets(tree[1]), _to_brackets(tree[2])]


def from_brackets(obj):
    """Inverse of to_brackets; accepts lists or tuples, validates shape."""
    return nested(_from_brackets, obj, "bracket form", "read")


def _from_brackets(obj):
    if obj == 1 and type(obj) is int:  # not 1.0 or True
        return 1
    if isinstance(obj, (list, tuple)) and len(obj) == 3 and obj[0] in GATES:
        return (obj[0], _from_brackets(obj[1]), _from_brackets(obj[2]))
    raise DomainError(f"not a bracket-form tree: {obj!r}")
