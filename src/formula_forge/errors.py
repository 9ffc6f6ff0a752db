"""Exception types, the integer check, the size-guard and nesting rules
and the value-record base shared across the package."""


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


def check_cap(value, cap, what: str, force: bool = False, error=SizeGuard) -> None:
    """error when value > cap, unless force (the command line's --unsafe):
    the one size-guard rule, called before any of the work it caps.  `what`
    names the capped quantity and may quote the input; the message quotes
    the cap, never value, which may be a count too long to print."""
    if value > cap and not force:
        raise error(f"{what} > {cap}; pass --unsafe (force=True) to override")


def require_int(value, minimum: int = 1, name: str = "value") -> int:
    """value itself if it is an int (bool excluded) >= minimum, else
    DomainError: the one integer check behind every public entry point."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise DomainError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def nested(walk, value, kind: str, verb: str):
    """walk(value), or SizeGuard(f"{kind} nests too deeply to {verb}") in
    place of the RecursionError of a value nested past the interpreter's
    recursion limit: the one nesting rule of the recursive walkers."""
    try:
        return walk(value)
    except RecursionError:
        raise SizeGuard(f"{kind} nests too deeply to {verb}") from None


class _Dataclass:
    """Record's lazy __dataclass_fields__ or __dataclass_params__."""

    twins = {}  # Record class -> the make_dataclass class with its fields

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, record, cls):
        if cls.__eq__ is not Record.__eq__:  # compared by identity: no dataclass
            raise AttributeError(self.name)
        if cls not in self.twins:
            from dataclasses import make_dataclass
            self.twins.setdefault(cls, make_dataclass(cls.__name__, cls.__match_args__))
        return getattr(self.twins[cls], self.name)


class Record:
    """Base of the package's immutable value classes.

    It gives what a frozen dataclass would, without importing `dataclasses`
    (11 ms with what it pulls in on a 2-vCPU VM).  Fields live in __slots__;
    __match_args__ names the fields that ==, hash, repr, copies and pickles
    use, and the constructor takes them in that order, by position or
    keyword, and sets each through its slot (_setters).  A class with more
    slots, or another signature, defines __init__.  Assignment and deletion
    raise AttributeError.  dataclasses.replace, fields and asdict read a
    make_dataclass twin, made on first use, unless == is identity.
    """

    __slots__ = ()
    __match_args__ = ()
    __dataclass_fields__ = _Dataclass()
    __dataclass_params__ = _Dataclass()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__match_args__)

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        if kwargs and sorted(kwargs) == sorted(names[len(args):]):
            args += tuple(map(kwargs.get, names[len(args):]))
        elif kwargs or len(args) != len(names):
            raise TypeError(f"{type(self).__qualname__} takes the fields {', '.join(names)}")
        for set_field, value in zip(self._setters, args):
            set_field(self, value)

    def __reduce__(self):  # copies and pickles go through the constructor
        return type(self), self._values()

    def _values(self):
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):  # a field that is unhashable makes the record so
        return hash(self._values())

    def __repr__(self):
        """Class name and the __match_args__ fields; SizeGuard on a value
        nested past the interpreter's recursion limit."""
        fields = (f"{n}={v!r}" for n, v in zip(self.__match_args__, self._values()))
        return f"{type(self).__qualname__}({nested(', '.join, fields, 'value', 'repr')})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
