"""Command-line interface.

One subcommand per capability; results go to stdout as single-line JSON
(except `list`/`sample`, which stream one encoding per line, and
`constant`, which defaults to CSV).  Exit codes: 0 success, 1 stdout
closed early (a reader such as `head` stopped; nothing is printed on stderr
and the cache is not written), 2 usage, 3 domain error, 4 resource guard
refused the request (pass --unsafe to override a guard where the flag is
offered).

With FORMULA_FORGE_CACHE set, count tables are loaded from that path on
startup and written back after a successful run, so repeated invocations
share work.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys

import mpmath

from . import __version__
from .asymptotics import constant_estimate, rho_estimate
from .cache import ENV_VAR, load_table, save_table
from .canonical import (
    encode_goodstein,
    encode_horner,
    g_add,
    g_mul,
    g_pow,
    goodstein_levels,
    gs_value,
    horner_levels,
)
from .counting import FAMILIES, GATE_SETS, ROOT_ALL, default_table
from .enumeration import EnumerationRequest, enumerate_trees
from .errors import (
    FormulaForgeError,
    LevelTooLarge,
    MagnitudeError,
    SizeGuard,
)
from .graph import build_graph
from .sampling import sample_from
from .shortest import shortest, shortest_range
from .sieve import rational_set, run_sieve, scf_coarse
from .symexpr import sym_value
from .trees import to_brackets, to_postfix, to_prefix

DEFAULT_LIST_LIMIT = 1_000_000
_RENDER = {
    "brackets": lambda tree: json.dumps(to_brackets(tree)),
    "prefix": to_prefix,
    "postfix": to_postfix,
}
_ROOT_WORDS = {"+": "add", "*": "mul", "^": "pow"}


def _emit(obj):
    print(json.dumps(obj))


def _nstr(value, precision_bits):
    digits = max(17, precision_bits * 30103 // 100000 + 2)
    return mpmath.nstr(value, digits)


def _expr_json(e):
    return {"value": str(sym_value(e)), "text": str(e)}


def _request(args):
    """The family request behind --gates/--root/--lop; checks the combination."""
    return EnumerationRequest(n=args.n, gates=args.gates, root=args.root, lop=args.lop)


def _cmd_count(args):
    request = _request(args)
    family, root = request.family, request.root
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
    request = _request(args)
    if args.limit is None and not args.unsafe:
        total = default_table().count(request.family.name, args.n, request.root)
        if total > DEFAULT_LIST_LIMIT:
            raise SizeGuard(
                f"{total} encodings (> {DEFAULT_LIST_LIMIT}); "
                "pass --limit or --unsafe"
            )
    render = _RENDER[args.notation]
    for tree in itertools.islice(enumerate_trees(request), args.limit):
        print(render(tree))
    return 0


def _cmd_sample(args):
    request = _request(args)
    rng, render = random.Random(args.seed), _RENDER[args.notation]
    for _ in range(args.count):
        print(render(sample_from(request.family, args.n, rng, request.root)))
    return 0


def _cmd_shortest(args):
    entries = shortest_range(args.upto) if args.upto is not None else [shortest(args.n)]
    for entry in entries:
        _emit({"n": entry.n, "size": entry.size, "witness": to_prefix(entry.witness)})
    return 0


def _gs_json(form):
    return {"value": str(gs_value(form)), "text": str(form)}


def _emit_levels(t, exprs):
    _emit({"t": t, "count": len(exprs), "expressions": [_expr_json(e) for e in exprs]})
    return 0


def _cmd_goodstein(args):
    if args.mode == "levels":
        return _emit_levels(args.t, goodstein_levels(args.t, force=args.unsafe))
    if args.mode == "encode":
        form = encode_goodstein(args.a)
        _emit({"n": str(args.a), **_gs_json(form)})
        return 0
    fa, fb = encode_goodstein(args.a), encode_goodstein(args.b)
    if args.mode == "pow":
        result = g_pow(fa, fb, max_bits=args.max_bits)
    else:
        result = (g_add if args.mode == "add" else g_mul)(fa, fb)
    _emit({"op": args.mode, "a": str(args.a), "b": str(args.b), **_gs_json(result)})
    return 0


def _cmd_horner(args):
    if args.mode == "levels":
        return _emit_levels(args.t, horner_levels(args.t, force=args.unsafe))
    _emit({"n": str(args.a), **_expr_json(encode_horner(args.a))})
    return 0


def _cmd_sieve(args):
    if args.coarse:
        state = scf_coarse(args.levels, force=args.unsafe)
    else:
        state = run_sieve(args.levels, force=args.unsafe)
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
        rs = rational_set(state, args.exponent_bound, args.factor_bound)
        out["rationals"] = [_expr_json(e) for e in rs]
    _emit(out)
    return 0


def _cmd_rho(args):
    est = rho_estimate(args.gates, args.terms, args.iterations, args.precision_bits)
    _emit({
        "family": est.family,
        "rho": _nstr(est.rho, est.precision_bits),
        "fixed_point": _nstr(est.fixed_point, est.precision_bits),
        "terms": est.terms,
        "iterations": est.iterations,
        "extra_iterations": est.extra_iterations,
        "precision_bits": est.precision_bits,
        "residual": _nstr(est.residual, 17),
    })
    return 0


def _cmd_constant(args):
    est = constant_estimate(args.terms, args.iterations, args.precision_bits)
    if args.json:
        _emit({
            "rho": _nstr(est.rho, est.precision_bits),
            "constant": _nstr(est.constant, est.precision_bits),
            "radicand": _nstr(est.radicand, est.precision_bits),
            "terms": est.terms,
            "iterations": est.iterations,
            "precision_bits": est.precision_bits,
        })
        return 0
    print("n,ratio")
    for i, ratio in enumerate(est.ratios):
        print(f"{i + 2},{_nstr(ratio, 53)}")
    return 0


def _cmd_graph(args):
    g = build_graph(args.n, force=args.unsafe)
    if args.dot == "-":
        print(g.to_dot())
        return 0
    if args.dot is not None:
        with open(args.dot, "w") as fh:
            fh.write(g.to_dot())
            fh.write("\n")
    _emit(g.stats())
    return 0


def _cmd_cache(args):
    if args.mode == "save":
        if args.warm:
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
    p.add_argument("--gates", choices=GATE_SETS, default="a",
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
    p.add_argument("--notation", choices=list(_RENDER), default="brackets")
    p.add_argument("--limit", type=int, default=None,
                   help="stop after this many encodings")
    p.add_argument("--unsafe", action="store_true",
                   help=f"allow streams beyond {DEFAULT_LIST_LIMIT} items")

    p = _family_command(sub, "sample", "uniform random trees of value n", _cmd_sample)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--notation", choices=list(_RENDER), default="brackets")

    p = sub.add_parser("shortest", help="minimal strict encoding of n")
    p.add_argument("n", type=int, nargs="?")
    p.add_argument("--upto", type=int, default=None,
                   help="all entries 1..N, one JSON line each")
    p.set_defaults(func=_cmd_shortest)

    p = sub.add_parser("goodstein", help="hereditary base-x normal forms")
    p.add_argument("mode", choices=["levels", "encode", "add", "mul", "pow"])
    p.add_argument("a", type=int, nargs="?")
    p.add_argument("b", type=int, nargs="?")
    p.add_argument("-t", type=int, default=1, help="level for mode=levels")
    p.add_argument("--max-bits", type=int, default=1 << 20,
                   help="bit budget for mode=pow")
    p.add_argument("--unsafe", action="store_true")
    p.set_defaults(func=_cmd_goodstein)

    p = sub.add_parser("horner", help="Horner-style canonical encodings")
    p.add_argument("mode", choices=["levels", "encode"])
    p.add_argument("a", type=int, nargs="?")
    p.add_argument("-t", type=int, default=1, help="level for mode=levels")
    p.add_argument("--unsafe", action="store_true")
    p.set_defaults(func=_cmd_horner)

    p = sub.add_parser("sieve", help="prime discovery by encoding completion")
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--coarse", action="store_true",
                   help="tower-paced levels (2 -> 4 -> 16 -> 65536)")
    p.add_argument("--integers", action="store_true",
                   help="include the full integer encoding table")
    p.add_argument("--rationals", action="store_true",
                   help="include signed-exponent prime products")
    p.add_argument("--exponent-bound", type=int, default=1)
    p.add_argument("--factor-bound", type=int, default=1)
    p.add_argument("--unsafe", action="store_true")
    p.set_defaults(func=_cmd_sieve)

    p = sub.add_parser("rho", help="growth base of a counting sequence")
    p.add_argument("--gates", choices=["am", "ame"], default="am")
    p.add_argument("--terms", type=int, default=100)
    p.add_argument("--iterations", type=int, default=20)
    p.add_argument("--precision-bits", type=int, default=100)
    p.set_defaults(func=_cmd_rho)

    p = sub.add_parser("constant", help="leading constant of the {+, *} counts")
    p.add_argument("--terms", type=int, default=100)
    p.add_argument("--iterations", type=int, default=20)
    p.add_argument("--precision-bits", type=int, default=100)
    p.add_argument("--json", action="store_true",
                   help="summary JSON instead of the n,ratio CSV")
    p.set_defaults(func=_cmd_constant)

    p = sub.add_parser("graph", help="one-step rewrite graph on trees of value n")
    p.add_argument("n", type=int)
    p.add_argument("--dot", metavar="PATH",
                   help="write Graphviz DOT here ('-' for stdout)")
    p.add_argument("--unsafe", action="store_true")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("cache", help="save or load the count cache")
    p.add_argument("mode", choices=["save", "load"])
    p.add_argument("path")
    p.add_argument("--warm", type=int, default=0,
                   help="fill all families up to N before saving")
    p.set_defaults(func=_cmd_cache)

    return parser


def _check_required(args, parser):
    for flag in ("limit", "count"):
        if (getattr(args, flag, None) or 0) < 0:
            parser.error(f"--{flag} must be >= 0")
    if args.command == "shortest" and args.n is None and args.upto is None:
        parser.error("shortest needs n or --upto")
    if args.command == "goodstein":
        if args.mode in ("encode", "add", "mul", "pow") and args.a is None:
            parser.error(f"goodstein {args.mode} needs an operand")
        if args.mode in ("add", "mul", "pow") and args.b is None:
            parser.error(f"goodstein {args.mode} needs two operands")
    if args.command == "horner" and args.mode == "encode" and args.a is None:
        parser.error("horner encode needs an operand")
    if args.command in ("goodstein", "horner") and args.mode == "levels":
        args.t = args.a if args.a is not None else args.t


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_required(args, parser)
    cache_path = os.environ.get(ENV_VAR)
    try:
        if cache_path and os.path.exists(cache_path):
            load_table(cache_path)
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
    if code == 0 and cache_path:
        try:
            save_table(cache_path)
        except OSError as exc:
            print(f"warning: could not write cache: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
