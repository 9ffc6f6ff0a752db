"""formula-forge: monotone formula trees over {+, *, ^} with all-1 inputs.

Count them, enumerate them, sample them uniformly, find the shortest
encoding of an integer, build canonical tower encodings and do arithmetic
on them, sieve primes by encoding completion, estimate the growth constants
of the counting sequences, and explore the one-step rewrite graph.

The public names are exported lazily (PEP 562): ``import formula_forge``
loads no submodule, and each name imports its home module on first use.
Only the growth API (``rho_estimate``, ``constant_estimate``) imports
mpmath.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

_EXPORTS = {
    "asymptotics": (
        "ConstantEstimate", "RhoEstimate", "constant_estimate", "rho_estimate",
    ),
    "cache": ("load_table", "save_table"),
    "canonical": (
        "GS_ONE", "ZERO", "GoodsteinForm", "encode_goodstein", "encode_horner",
        "g_add", "g_mul", "g_pow", "goodstein_levels", "gs_to_symexpr", "gs_value",
        "horner_levels",
    ),
    "counting": (
        "CountTable", "count_add_lop", "count_add_only", "count_am", "count_ame",
        "default_table",
    ),
    "enumeration": (
        "enumerate_add", "enumerate_add_lop", "enumerate_am", "enumerate_ame",
    ),
    "errors": (
        "CacheError", "DomainError", "FormulaForgeError", "InternalGapError",
        "LevelTooLarge", "MagnitudeError", "MalformedString", "NegativeRadicand",
        "NoMultiplicativeSplit", "NonConvergence", "SizeGuard",
    ),
    "graph": ("RewriteGraph", "RewriteRule", "build_graph", "neighbors"),
    "sampling": ("sample_add", "sample_add_lop", "sample_am", "sample_ame"),
    "shortest": ("ShortestEntry", "ShortestTable", "shortest", "shortest_range"),
    "sieve": (
        "SieveState", "initial_state", "multi_factor_products", "prime_power_range",
        "rational_set", "run_sieve", "scf_coarse", "zeta_step",
    ),
    "symexpr": (
        "ONE", "X", "Neg", "Pow", "Prod", "Sum", "SymExpr", "clear_caches", "expand_x",
        "render", "sym_pow", "sym_prod", "sym_sum", "sym_value",
    ),
    "trees": (
        "evaluate", "depth", "from_brackets", "is_strict", "leaf_count", "parse_postfix",
        "parse_prefix", "size", "to_brackets", "to_postfix", "to_prefix", "validate",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# the submodules are public too, except `shortest`, whose name is the function's
__all__ = sorted({*_HOME, *_EXPORTS})


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module("." + name, __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return [*__all__, "__version__"]


class _Package(types.ModuleType):
    """Importing a submodule binds it as an attribute of the package, which
    would hide an export of the same name (`shortest`) from __getattr__;
    bind the export instead."""

    def __setattr__(self, name, value):
        if isinstance(value, types.ModuleType) and _HOME.get(name) == name:
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
