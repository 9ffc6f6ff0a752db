"""Command-line interface.

One subcommand per capability; results go to stdout as single-line JSON
(except `list`/`sample`, which stream one encoding per line, and
`constant`, which defaults to CSV).  Exit codes: 0 success, 1 stdout
closed early (a reader such as `head` stopped; nothing is printed on stderr
and the cache is not written), 2 usage, 3 domain error or an output file
that cannot be written, 4 resource guard refused the request (every
subcommand takes --unsafe to override its guards, except the hard limits
of `list`'s stream depth and the level sets).  Every guard that --unsafe
lifts is one errors.check_cap call made before the work it caps; the caps
that only the command line enforces are in the block below the imports.

With FORMULA_FORGE_CACHE set, a command that reads the count table
(`count`, `sample`, `cache`, `rho`, `constant`, and `list` without --limit)
loads the tables from that path first and writes them back after
a successful run that added rows (or when the file did not exist yet), so
repeated invocations share work; a failed write-back is only a warning.
`cache load` of that path reads it once and never writes it.  Every other
command leaves the file alone: it neither reads nor creates it.

Start-up imports only `errors` of the package, all that the parser needs;
each subcommand imports its own modules when it runs (`goodstein`,
`horner` and `sieve` never import `counting`), the `cache` module only
with the count table, and only `rho` and `constant` import mpmath.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from . import __version__
from .errors import (
    CacheError, FormulaForgeError, LevelTooLarge, MagnitudeError, SizeGuard, check_cap,
    require_int,
)

# The caps that only the command line enforces, each lifted by --unsafe;
# times are fresh runs on a 2-vCPU VM.  Count and sample values: a fresh am
# or ame fill to 2000 takes about 1.4 s, `sample 2000 --gates ame` about
# 1.5 s, start-up included, and the fill grows about as n^3
MAX_COUNT_VALUE = 2000
MAX_SAMPLE_VALUE = 2000
# shortest n or --upto: `shortest 10000` takes about 0.7 s and `--upto 10000`
# about 0.8 s, start-up included, and the fill grows about as n^1.4
MAX_SHORTEST_VALUE = 10_000
DEFAULT_LIST_LIMIT = 1_000_000  # encodings `list` prints without --limit
# --warm 1000 takes 0.6 s and 2000 5.5 s; --terms 1000 takes 0.26 s (0.9 s
# at 3000 bits) and 2000 1.6 s, peaks near 20 MB; --iterations 5000 and
# --precision-bits 3000 take 0.5 s each, 10^5 iterations 8.6 s, 20,000 bits 66 s
MAX_WARM_VALUE = 1000
MAX_TERMS = 1000
MAX_ITERATIONS = 5000
MAX_PRECISION_BITS = 3000
_NOTATIONS = ("brackets", "prefix", "postfix")
_ROOT_WORDS = {"+": "add", "*": "mul", "^": "pow"}
# the fewest and most operands of each `goodstein` and `horner` mode
_OPERANDS = {"levels": (0, 1), "encode": (1, 1), "add": (2, 2), "mul": (2, 2), "pow": (2, 2)}
_GATE_SETS = ("a", "am", "ame")  # counting.GATE_SETS, pinned equal by a test


def _emit(obj):
    print(json.dumps(obj))


def _nstr(value, precision_bits):
    import mpmath

    digits = max(17, precision_bits * 30103 // 100000 + 2)
    return mpmath.nstr(value, digits)


def _estimate_json(est):
    """A growth estimate's fields in its own order, each mpf to the estimate's
    precision (the residual to 17 digits); `ratios` prints only as CSV."""
    import mpmath

    fields = {name: getattr(est, name) for name in est.__match_args__ if name != "ratios"}
    return {name: _nstr(v, 17 if name == "residual" else est.precision_bits)
            if isinstance(v, mpmath.mpf) else v for name, v in fields.items()}


def _expr_json(e):
    from .symexpr import sym_value

    return {"value": str(sym_value(e)), "text": str(e)}


def _renderer(notation):
    from .trees import to_brackets, to_postfix, to_prefix

    if notation == "brackets":
        return lambda tree: json.dumps(to_brackets(tree))
    return to_prefix if notation == "prefix" else to_postfix


def _request(args):
    """(family, root) behind n and --gates/--root/--lop; checks the combination."""
    from .counting import resolve_family

    require_int(args.n)
    return resolve_family(args.gates, args.root, args.lop)


def _cmd_count(args):
    from .counting import ROOT_ALL, default_table

    family, root = _request(args)
    check_cap(args.n, MAX_COUNT_VALUE, f"count value {args.n}", args.unsafe)
    count = default_table().count
    out = {
        "n": args.n,
        "gates": args.gates,
        "root": args.root,
        "lop": args.lop,
        "total": str(count(family.name, args.n, root)),
    }
    if root == ROOT_ALL and len(family.columns) > 1:
        out["by_root"] = {
            _ROOT_WORDS[g]: str(count(family.name, args.n, g)) for g in family.columns
        }
    _emit(out)
    return 0


def _cmd_list(args):
    from .counting import default_table
    from .enumeration import stream

    family, root = _request(args)
    trees = stream(family, args.n, root)  # refuses a stream too deep to run
    if args.limit is None:
        check_cap(default_table().count(family.name, args.n, root), DEFAULT_LIST_LIMIT,
                  f"encodings of value {args.n} to list without --limit", args.unsafe)
    render = _renderer(args.notation)
    for tree in itertools.islice(trees, args.limit):
        print(render(tree))
    return 0


def _cmd_sample(args):
    import random

    from .sampling import sample_from

    family, root = _request(args)
    check_cap(args.n, MAX_SAMPLE_VALUE, f"sample value {args.n}", args.unsafe)
    rng, render = random.Random(args.seed), _renderer(args.notation)
    for _ in range(args.count):
        print(render(sample_from(family, args.n, rng, root)))
    return 0


def _cmd_shortest(args):
    from .shortest import shortest, shortest_range
    from .trees import to_prefix

    n = args.n if args.upto is None else args.upto
    check_cap(n, MAX_SHORTEST_VALUE, f"shortest value {n}", args.unsafe)
    entries = shortest_range(n) if args.upto is not None else [shortest(n)]
    for entry in entries:
        _emit({"n": entry.n, "size": entry.size, "witness": to_prefix(entry.witness)})
    return 0


def _gs_json(form):
    from .canonical import gs_value

    return {"value": str(gs_value(form)), "text": str(form)}


def _emit_levels(levels, args):
    t = args.operands[0] if args.operands else 1
    exprs = levels(t)
    _emit({"t": t, "count": len(exprs), "expressions": [_expr_json(e) for e in exprs]})
    return 0


def _cmd_goodstein(args):
    from .canonical import encode_goodstein, g_add, g_mul, g_pow, goodstein_levels

    if args.mode == "levels":
        return _emit_levels(goodstein_levels, args)
    if args.mode == "encode":
        (n,) = args.operands
        _emit({"n": str(n), **_gs_json(encode_goodstein(n))})
        return 0
    a, b = args.operands
    fa, fb = encode_goodstein(a), encode_goodstein(b)
    if args.mode == "pow":
        result = g_pow(fa, fb, force=args.unsafe)
    elif args.mode == "mul":
        result = g_mul(fa, fb, force=args.unsafe)
    else:
        result = g_add(fa, fb)
    _emit({"op": args.mode, "a": str(a), "b": str(b), **_gs_json(result)})
    return 0


def _cmd_horner(args):
    from .canonical import encode_horner, horner_levels

    if args.mode == "levels":
        return _emit_levels(horner_levels, args)
    (n,) = args.operands
    _emit({"n": str(n), **_expr_json(encode_horner(n))})
    return 0


def _cmd_sieve(args):
    from .sieve import rational_set, run_sieve, scf_coarse

    state = (scf_coarse if args.coarse else run_sieve)(args.levels, force=args.unsafe)
    out = {
        "levels": args.levels,
        "coarse": args.coarse,
        "covers": str(state.covers),
        "prime_count": len(state.primes),
        "primes": [_expr_json(p) for p in state.primes],
    }
    if args.integers:
        out["integers"] = [_expr_json(e) for e in state.integers]
    if args.rationals:
        bounds = [1 if b is None else b for b in (args.exponent_bound, args.factor_bound)]
        rationals = rational_set(state, *bounds, force=args.unsafe)
        out["rationals"] = [_expr_json(r) for r in rationals]
    _emit(out)
    return 0


def _check_growth_caps(args):
    """--terms, --iterations and --precision-bits, before mpmath is imported."""
    for flag, value, cap in (("terms", args.terms, MAX_TERMS),
                             ("iterations", args.iterations, MAX_ITERATIONS),
                             ("precision-bits", args.precision_bits, MAX_PRECISION_BITS)):
        check_cap(value, cap, f"--{flag} {value}", args.unsafe)


def _cmd_rho(args):
    _check_growth_caps(args)
    from .asymptotics import rho_estimate

    _emit(_estimate_json(rho_estimate(args.gates, args.terms, args.iterations,
                                      args.precision_bits)))
    return 0


def _cmd_constant(args):
    _check_growth_caps(args)
    from .asymptotics import constant_estimate

    est = constant_estimate(args.terms, args.iterations, args.precision_bits)
    if args.json:
        _emit(_estimate_json(est))
        return 0
    print("n,ratio")
    for i, ratio in enumerate(est.ratios):
        print(f"{i + 2},{_nstr(ratio, 53)}")
    return 0


def _cmd_graph(args):
    from .graph import build_graph

    g = build_graph(args.n, force=args.unsafe)
    if args.dot == "-":
        print(g.to_dot())
        return 0
    if args.dot is not None:
        try:
            with open(args.dot, "w") as fh:
                fh.write(g.to_dot())
                fh.write("\n")
        except OSError as exc:
            raise FormulaForgeError(f"cannot write DOT file: {exc}") from exc
    _emit(g.stats())
    return 0


def _cmd_cache(args):
    from .cache import load_table, save_table
    from .counting import FAMILIES, default_table

    if args.mode == "save":
        if args.warm:
            check_cap(args.warm, MAX_WARM_VALUE, f"cache --warm {args.warm}", args.unsafe)
            for name in FAMILIES:
                default_table().count(name, args.warm)
        rows = save_table(args.path)
        _emit({"saved": rows, "path": args.path})
        return 0
    rows = load_table(args.path)
    _emit({"loaded": rows, "path": args.path})
    return 0


def _family_command(sub, name, help, func):
    """A subcommand on the trees of value n in the family --gates/--root/--lop name."""
    p = sub.add_parser(name, help=help)
    p.add_argument("n", type=int)
    p.add_argument("--gates", choices=_GATE_SETS, default="a",
                   help="gate set: a (add-only), am, or ame (default a)")
    p.add_argument("--root", choices=["all", "add", "mul", "pow"], default="all",
                   help="restrict the root gate (am/ame families)")
    p.add_argument("--lop", action="store_true",
                   help="left operand >= right (add-only family)")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="formula-forge",
        description="Count, enumerate, sample, and encode formula trees "
        "over the gates +, *, ^ with all-1 inputs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    _family_command(sub, "count", "exact number of trees of value n", _cmd_count)

    p = _family_command(sub, "list", "enumerate all trees of value n", _cmd_list)
    p.add_argument("--notation", choices=_NOTATIONS, default="brackets")
    p.add_argument("--limit", type=int, default=None,
                   help="stop after this many encodings")

    p = _family_command(sub, "sample", "uniform random trees of value n", _cmd_sample)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--notation", choices=_NOTATIONS, default="brackets")

    p = sub.add_parser("shortest", help="minimal strict encoding of n")
    one = p.add_mutually_exclusive_group(required=True)
    one.add_argument("n", type=int, nargs="?")
    one.add_argument("--upto", type=int, help="all entries 1..N, one JSON line each")
    p.set_defaults(func=_cmd_shortest)

    p = sub.add_parser("goodstein", help="hereditary base-x normal forms")
    p.add_argument("mode", choices=list(_OPERANDS))
    p.add_argument("operands", type=int, nargs="*",
                   help="levels [t]: the level t (default 1); encode n; add, mul, pow a b")
    p.set_defaults(func=_cmd_goodstein)

    p = sub.add_parser("horner", help="Horner-style canonical encodings")
    p.add_argument("mode", choices=["levels", "encode"])
    p.add_argument("operands", type=int, nargs="*",
                   help="levels [t]: the level t (default 1); encode n")
    p.set_defaults(func=_cmd_horner)

    p = sub.add_parser("sieve", help="prime discovery by encoding completion")
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--coarse", action="store_true",
                   help="tower-paced levels (2 -> 4 -> 16 -> 65536)")
    p.add_argument("--integers", action="store_true",
                   help="include the full integer encoding table")
    p.add_argument("--rationals", action="store_true",
                   help="include signed-exponent prime products")
    p.add_argument("--exponent-bound", type=int, help="with --rationals (default 1)")
    p.add_argument("--factor-bound", type=int, help="with --rationals (default 1)")
    p.set_defaults(func=_cmd_sieve)

    rho = sub.add_parser("rho", help="growth base of a counting sequence")
    rho.add_argument("--gates", choices=["am", "ame"], default="am")
    rho.set_defaults(func=_cmd_rho)
    constant = sub.add_parser("constant", help="leading constant of the {+, *} counts")
    constant.add_argument("--json", action="store_true",
                          help="summary JSON instead of the n,ratio CSV")
    constant.set_defaults(func=_cmd_constant)
    for p in (rho, constant):  # capped at MAX_TERMS, MAX_ITERATIONS, MAX_PRECISION_BITS
        p.add_argument("--terms", type=int, default=100)
        p.add_argument("--iterations", type=int, default=20)
        p.add_argument("--precision-bits", type=int, default=100)

    p = sub.add_parser("graph", help="one-step rewrite graph on trees of value n")
    p.add_argument("n", type=int)
    p.add_argument("--dot", metavar="PATH",
                   help="write Graphviz DOT here ('-' for stdout)")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("cache", help="save or load the count cache")
    p.add_argument("mode", choices=["save", "load"])
    p.add_argument("path")
    p.add_argument("--warm", type=int, help="save only: fill all families up to N first")
    p.set_defaults(func=_cmd_cache)

    for p in sub.choices.values():
        p.add_argument("--unsafe", action="store_true",
                       help="allow a request beyond the size guard (exit 4)")
        p.set_defaults(parser=p)
    return parser


def _check_required(args, extra):
    """Usage errors past argparse's, `extra` the arguments it did not know;
    each goes through the subcommand's parser, which prints its usage."""
    if extra:
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    for flag in ("limit", "count"):
        if (getattr(args, flag, None) or 0) < 0:
            args.parser.error(f"--{flag} must be >= 0")
    if args.command in ("goodstein", "horner"):
        fewest, most = _OPERANDS[args.mode]
        if not fewest <= len(args.operands) <= most:
            amount = str(most) if fewest == most else f"at most {most}"
            noun = "operand" if most == 1 else "operands"
            args.parser.error(f"{args.command} {args.mode} takes {amount} {noun}")
    # options that only one mode or flag reads
    if args.command == "cache" and args.mode == "load" and args.warm is not None:
        args.parser.error("cache load takes no --warm")
    for bound in ("exponent_bound", "factor_bound"):
        if getattr(args, bound, None) is not None and not args.rationals:
            args.parser.error(f"--{bound.replace('_', '-')} needs --rationals")


def _reads_counts(args):
    """Whether the command reads the count table, so loads and saves the cache;
    `list` reads it only to size a stream that has no --limit."""
    if args.command == "list":
        return args.limit is None
    return args.command in ("count", "sample", "cache", "rho", "constant")


def _run(args) -> int:
    """Run a parsed command: load the cache if it reads counts, map errors to
    exit codes, and save the cache if the command grew the table."""
    cache_path = None
    if _reads_counts(args):
        from .cache import ENV_VAR, load_table, save_table
        from .counting import default_table

        cache_path = os.environ.get(ENV_VAR)
        if cache_path and args.command == "cache" and args.mode == "load" and (
                os.path.realpath(cache_path) == os.path.realpath(args.path)):
            cache_path = None  # the command reads that file itself
    loaded = None  # rows read from the cache file, None if there was none
    try:
        if cache_path and os.path.exists(cache_path):
            loaded = load_table(cache_path)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
    except BrokenPipeError:
        # the recipe of the `signal` docs: Python flushes stdout again at
        # exit, so point it at devnull to keep that flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (LevelTooLarge, SizeGuard, MagnitudeError) as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return 4
    except FormulaForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if code == 0 and cache_path and (loaded is None or default_table().rows() > loaded):
        try:
            save_table(cache_path)
        except CacheError as exc:
            print(f"warning: could not write cache: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    _check_required(args, extra)
    # lift the 4,300-digit str() limit of 3.10.7 on for the results, and put
    # the caller's limit back; the operands were parsed under it
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda _: None)
    set_limit(0)
    try:
        return _run(args)
    finally:
        set_limit(limit)


if __name__ == "__main__":
    sys.exit(main())
