"""Exception types shared across the package."""


class FormulaForgeError(Exception):
    """Base class for all package errors."""


class DomainError(FormulaForgeError, ValueError):
    """Argument outside the defined domain (n <= 0, bad gate name, ...)."""


class MalformedString(FormulaForgeError, ValueError):
    """Prefix/postfix string does not encode a formula tree.

    Raised on unknown symbols, token underflow, or leftover tokens.
    """


class NoMultiplicativeSplit(FormulaForgeError, ValueError):
    """Mul-rooted sampling was forced on a value with no divisor split."""


class LevelTooLarge(FormulaForgeError, ValueError):
    """Level/recursion guard tripped (output would be astronomically large)."""


class SizeGuard(FormulaForgeError, ValueError):
    """Request beyond a configured size bound, or nesting too deep to walk."""


class MagnitudeError(FormulaForgeError, OverflowError):
    """Result would exceed the configured bit budget."""


class NonConvergence(FormulaForgeError, ArithmeticError):
    """Fixed-point iteration diverged or failed to certify convergence."""


class NegativeRadicand(FormulaForgeError, ArithmeticError):
    """Square root of a negative truncated-polynomial value (T too small)."""


class InternalGapError(FormulaForgeError, RuntimeError):
    """Sieve completion found an impossible hole; generation invariant broken."""


class CacheError(FormulaForgeError, ValueError):
    """Count-cache file is missing, corrupt, or version-incompatible."""


def require_int(value, minimum: int = 1, name: str = "value") -> int:
    """value itself if it is an int (bool excluded) >= minimum, else
    DomainError: the one integer check behind every public entry point."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise DomainError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value
