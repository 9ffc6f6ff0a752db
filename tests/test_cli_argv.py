"""Property: any argv built from the parser's own words gives a documented exit.

Each argv is drawn from build_parser()'s subcommands, their choices and
flags, with ints in [-3, 12] and a few junk tokens, and never --unsafe, so
every size guard stays on.  main() runs in-process with FORMULA_FORGE_CACHE
unset.  The exit must be 0-4, stderr must hold no traceback, and an exit 0
must print something unless the output is one of the documented empty ones:
`--limit 0`, `--count 0`, or a `list` of a root class with no trees.
"""

import argparse
import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from formula_forge.cache import ENV_VAR
from formula_forge.cli import build_parser, main
from formula_forge.counting import default_table, resolve_family

_INTS = st.integers(-3, 12).map(str)
_JUNK = st.sampled_from(["", "x", "1.5", "-", "--", "0x3", "--nope", "ame", "1e3"])


def _words(parser):
    """{subcommand: (positionals, flags)}, without --help and --unsafe."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    words = {}
    for name, p in sub.choices.items():
        actions = [a for a in p._actions
                   if not isinstance(a, argparse._HelpAction) and a.dest != "unsafe"]
        words[name] = ([a for a in actions if not a.option_strings],
                       [a for a in actions if a.option_strings])
    return words


@st.composite
def _argvs(draw, words, paths):
    def value(action):
        if action.choices:
            return st.sampled_from(sorted(action.choices))
        return _INTS if action.type is int else st.sampled_from(paths)

    command = draw(st.sampled_from(sorted(words)))
    positionals, flags = words[command]
    argv = [command]
    for action in positionals:
        most = {None: 1, "?": 2}.get(action.nargs, 3)
        fewest = 1 if action.nargs is None else 0
        argv += draw(st.lists(value(action), min_size=fewest, max_size=most)
                     | st.lists(value(action), max_size=1))
    for action in draw(st.lists(st.sampled_from(flags), max_size=3, unique_by=id)
                       if flags else st.just([])):
        argv.append(draw(st.sampled_from(action.option_strings)))
        if action.nargs != 0:
            argv.append(draw(value(action)))
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(_JUNK))
    return argv


def _documented_empty(argv):
    args = build_parser().parse_args(argv)
    if args.command == "list" and args.limit == 0:
        return True
    if args.command == "sample" and args.count == 0:
        return True
    if args.command == "list":
        family, root = resolve_family(args.gates, args.root, args.lop)
        return default_table().count(family.name, args.n, root) == 0
    return False


def test_every_drawn_argv_exits_as_documented(monkeypatch, tmp_path):
    monkeypatch.delenv(ENV_VAR, raising=False)
    monkeypatch.chdir(tmp_path)  # a junk token taken as a path is written here
    paths = ["counts.json", "graph.dot", "no/such.json", ".", "-"]

    @settings(max_examples=1000, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argv=_argvs(_words(build_parser()), paths))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2, 3, 4), (argv, code)
        assert "Traceback" not in err.getvalue(), argv
        if code == 0 and not out.getvalue():
            assert _documented_empty(argv), argv

    check()
