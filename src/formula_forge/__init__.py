"""formula-forge: monotone formula trees over {+, *, ^} with all-1 inputs.

Count them, enumerate them, sample them uniformly, find the shortest
encoding of an integer, build canonical tower encodings and do arithmetic
on them, sieve primes by encoding completion, estimate the growth constants
of the counting sequences, and explore the one-step rewrite graph.
"""

from .asymptotics import (
    ConstantEstimate,
    RhoEstimate,
    constant_estimate,
    rho_estimate,
)
from .cache import load_table, save_table
from .canonical import (
    GS_ONE,
    ZERO,
    GoodsteinForm,
    encode_goodstein,
    encode_horner,
    g_add,
    g_mul,
    g_pow,
    goodstein_levels,
    gs_to_symexpr,
    gs_value,
    horner_levels,
)
from .counting import (
    CountTable,
    count_add_lop,
    count_add_only,
    count_am,
    count_ame,
    default_table,
)
from .enumeration import (
    EnumerationRequest,
    enumerate_add,
    enumerate_add_lop,
    enumerate_am,
    enumerate_ame,
    enumerate_strings,
    enumerate_trees,
)
from .errors import (
    CacheError,
    DomainError,
    FormulaForgeError,
    InternalGapError,
    LevelTooLarge,
    MagnitudeError,
    MalformedString,
    NegativeRadicand,
    NoMultiplicativeSplit,
    NonConvergence,
    SizeGuard,
)
from .graph import RewriteGraph, RewriteRule, build_graph, neighbors
from .sampling import (
    roll_loaded_die,
    sample_add,
    sample_add_lop,
    sample_am,
    sample_ame,
)
from .shortest import ShortestEntry, ShortestTable, shortest, shortest_range
from .sieve import (
    SieveState,
    initial_state,
    multi_factor_products,
    prime_power_range,
    rational_set,
    run_sieve,
    scf_coarse,
    zeta_step,
)
from .symexpr import (
    ONE,
    X,
    Neg,
    Pow,
    Prod,
    Sum,
    SymExpr,
    expand_x,
    render,
    sym_pow,
    sym_prod,
    sym_sum,
    sym_value,
)
from .trees import (
    evaluate,
    depth,
    from_brackets,
    is_leaf,
    is_strict,
    leaf_count,
    parse_postfix,
    parse_prefix,
    size,
    to_brackets,
    to_postfix,
    to_prefix,
    validate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
