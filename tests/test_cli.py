"""End-to-end command-line checks through main(argv)."""

import importlib
import itertools
import json
import os
import re
import subprocess
import sys
import time

import pytest

import formula_forge
import formula_forge.cache as cache_module
from formula_forge import canonical, cli, enumeration, graph, sieve
from formula_forge import parse_prefix, evaluate, is_strict
from formula_forge.cache import ENV_VAR, save_table
from formula_forge.cli import main
from formula_forge.counting import GATE_SETS


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# count

def test_count_add_only(capsys):
    got = run_json(capsys, "count", "3")
    assert got["total"] == "2"
    assert got["gates"] == "a"
    assert "by_root" not in got


def test_count_lop(capsys):
    assert run_json(capsys, "count", "3", "--lop")["total"] == "1"


def test_count_am_with_split(capsys):
    got = run_json(capsys, "count", "6", "--gates", "am")
    assert got["total"] == "52"
    assert got["by_root"] == {"add": "48", "mul": "4"}


def test_count_ame(capsys):
    got = run_json(capsys, "count", "4", "--gates", "ame")
    assert got["total"] == "7"
    assert got["by_root"] == {"add": "5", "mul": "1", "pow": "1"}
    assert run_json(capsys, "count", "8", "--gates", "ame", "--root", "pow")[
        "total"
    ] == "2"


def test_count_flag_conflicts(capsys):
    code, _, err = run(capsys, "count", "5", "--root", "add")
    assert code == 3
    assert err.startswith("error:")
    code, _, err = run(capsys, "count", "5", "--lop", "--gates", "am")
    assert code == 3


def test_count_domain_error(capsys):
    code, _, err = run(capsys, "count", "0")
    assert code == 3
    assert err.startswith("error:")


# list

def test_list_prefix_golden(capsys):
    code, out, _ = run(capsys, "list", "3", "--notation", "prefix")
    assert code == 0
    assert out.splitlines() == ["+1+11", "++111"]


def test_list_postfix_golden(capsys):
    code, out, _ = run(capsys, "list", "3", "--notation", "postfix")
    assert code == 0
    assert out.splitlines() == ["11+1+", "111++"]


def test_list_brackets_parse_back(capsys):
    code, out, _ = run(capsys, "list", "4", "--gates", "ame")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7
    for line in lines:
        json.loads(line)


def test_list_limit(capsys):
    code, out, _ = run(capsys, "list", "8", "--gates", "am", "--limit", "3",
                       "--notation", "prefix")
    assert code == 0
    assert len(out.splitlines()) == 3


def test_list_guard_on_huge_streams(capsys):
    code, _, err = run(capsys, "list", "40", "--gates", "am")
    assert code == 4
    assert err.startswith("guard:")
    code, out, _ = run(capsys, "list", "40", "--gates", "am", "--limit", "2")
    assert code == 0
    assert len(out.splitlines()) == 2


def test_list_guard_on_deep_streams(capsys):
    code, out, err = run(capsys, "list", "2000", "--limit", "1")
    assert code == 4
    assert err.startswith("guard:")
    assert out == ""


def test_list_at_the_stream_cap(capsys):
    # value 500 streams: only the operands above MEMO_VALUE nest generators
    code, out, _ = run(capsys, "list", "500", "--gates", "ame", "--notation", "prefix",
                       "--limit", "1")
    assert code == 0
    assert evaluate(parse_prefix(out.strip())) == 500


def test_list_into_a_closed_pipe_exits_one_quietly(tmp_path):
    # the stream is about 1.8 MB, far past a pipe buffer, so the child is
    # still writing when the reader stops after the first line
    src = os.path.dirname(os.path.dirname(formula_forge.__file__))
    cache = tmp_path / "counts.json"
    env = {**os.environ, "PYTHONPATH": src, ENV_VAR: str(cache)}
    argv = ["list", "12", "--gates", "am", "--notation", "prefix"]
    proc = subprocess.Popen([sys.executable, "-m", "formula_forge.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert evaluate(parse_prefix(first.decode().strip())) == 12
    assert err == b""
    assert proc.returncode == 1
    assert not cache.exists()


# sample

def test_sample_is_valid_and_seeded(capsys):
    args = ("sample", "9", "--gates", "ame", "--count", "5", "--seed", "11",
            "--notation", "prefix")
    code, first, _ = run(capsys, *args)
    assert code == 0
    code, second, _ = run(capsys, *args)
    assert first == second
    for line in first.splitlines():
        tree = parse_prefix(line)
        assert evaluate(tree) == 9
        assert is_strict(tree)


def test_sample_forced_root(capsys):
    code, out, _ = run(capsys, "sample", "4", "--gates", "ame", "--root", "pow",
                       "--seed", "1", "--notation", "prefix")
    assert code == 0
    assert out.strip() == "^+11+11"


def test_sample_no_split_is_domain_error(capsys):
    code, _, err = run(capsys, "sample", "7", "--gates", "am", "--root", "mul")
    assert code == 3


# shortest

def test_shortest_single(capsys):
    got = run_json(capsys, "shortest", "6")
    assert got == {"n": 6, "size": 9, "witness": "*+11+1+11"}


def test_shortest_upto(capsys):
    code, out, _ = run(capsys, "shortest", "--upto", "4")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["n"] for r in rows] == [1, 2, 3, 4]
    assert [r["size"] for r in rows] == [1, 3, 5, 7]


def test_shortest_needs_an_argument(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["shortest"])
    assert exc.value.code == 2
    capsys.readouterr()


# goodstein / horner

def test_goodstein_encode(capsys):
    got = run_json(capsys, "goodstein", "encode", "6")
    assert got == {"n": "6", "value": "6", "text": "x^x + x"}


def test_goodstein_arithmetic(capsys):
    assert run_json(capsys, "goodstein", "add", "3", "5")["value"] == "8"
    assert run_json(capsys, "goodstein", "mul", "6", "7")["value"] == "42"
    got = run_json(capsys, "goodstein", "pow", "5", "3")
    assert got["value"] == "125"
    assert got["text"] == "x^(x^x + x) + x^(x^x + 1) + x^(x^x) + x^(x + 1) + x^x + 1"


def test_goodstein_levels(capsys):
    got = run_json(capsys, "goodstein", "levels", "2")
    assert got["count"] == 255
    got = run_json(capsys, "goodstein", "levels")
    assert (got["t"], got["count"]) == (1, 7)


def test_goodstein_guards(capsys):
    code, _, err = run(capsys, "goodstein", "levels", "3")
    assert code == 4
    assert err.startswith("guard:")
    code, _, err = run(capsys, "goodstein", "pow", "2", "2097152")
    assert code == 4


def test_goodstein_needs_operands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["goodstein", "add", "3"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_horner(capsys):
    got = run_json(capsys, "horner", "encode", "6")
    assert got["text"] == "(x + 1)*x"
    assert run_json(capsys, "horner", "levels", "1")["count"] == 9
    code, _, _ = run(capsys, "horner", "levels", "4")
    assert code == 4


# sieve

def test_sieve_default(capsys):
    got = run_json(capsys, "sieve")
    assert got["covers"] == "32"
    assert got["prime_count"] == 11
    assert got["primes"][0] == {"value": "2", "text": "x"}
    assert [int(p["value"]) for p in got["primes"]][:5] == [2, 3, 5, 7, 11]


def test_sieve_coarse_and_tables(capsys):
    got = run_json(capsys, "sieve", "--coarse", "--levels", "2", "--integers")
    assert got["covers"] == "16"
    assert got["prime_count"] == 6
    assert len(got["integers"]) == 16
    assert got["integers"][0] == {"value": "1", "text": "1"}


def test_sieve_rationals(capsys):
    got = run_json(capsys, "sieve", "--levels", "0", "--rationals")
    assert [r["text"] for r in got["rationals"]] == ["1", "x", "x^(-1)"]
    assert got["rationals"][2]["value"] == "1/2"


def test_sieve_guard(capsys):
    code, _, _ = run(capsys, "sieve", "--levels", "15")
    assert code == 4
    code, _, _ = run(capsys, "sieve", "--coarse", "--levels", "4")
    assert code == 4


def test_sieve_rationals_guard_refuses_before_the_sieve_runs(capsys):
    code, out, err = run(capsys, "sieve", "--levels", "14", "--rationals", "--factor-bound", "3")
    assert (code, out) == (4, "") and err.startswith("guard:")
    assert f"> {sieve.MAX_RATIONALS};" in err and "over 6542 primes" in err
    code, _, err = run(capsys, "sieve", "--coarse", "--levels", "2", "--rationals",
                       "--exponent-bound", "8", "--factor-bound", "4")
    assert code == 4 and "over 6 primes" in err


# rho / constant

def test_rho_output(capsys):
    got = run_json(capsys, "rho", "--terms", "40")
    assert got["family"] == "am"
    assert got["rho"].startswith("4.0765617")
    got = run_json(capsys, "rho", "--gates", "ame", "--terms", "40")
    assert got["rho"].startswith("4.1307352")


def test_constant_csv(capsys):
    code, out, _ = run(capsys, "constant", "--terms", "40")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,ratio"
    assert len(lines) == 39  # header + n = 2..39
    n, ratio = lines[-1].split(",")
    assert n == "39"
    assert 0.9 < float(ratio) < 1.1


def test_constant_json(capsys):
    got = run_json(capsys, "constant", "--terms", "40", "--json")
    assert got["constant"].startswith("0.1456918")
    assert got["radicand"].startswith("1.06694")


# graph

def test_graph_stats(capsys):
    got = run_json(capsys, "graph", "4")
    assert got["vertices"] == 7
    assert got["edges"] == 7
    assert got["components"] == 3


def test_graph_dot_stdout(capsys):
    code, out, _ = run(capsys, "graph", "3", "--dot", "-")
    assert code == 0
    assert out.startswith('graph "G_3" {')
    assert out.rstrip().endswith("}")


def test_graph_dot_file(capsys, tmp_path):
    target = tmp_path / "g3.dot"
    got = run_json(capsys, "graph", "3", "--dot", str(target))
    assert got["vertices"] == 2
    text = target.read_text()
    assert text.startswith('graph "G_3" {')


# a CLI child whose --warm and --terms caps are cut to 8
_CAPPED = ("import sys, formula_forge.cli as cli; cli.MAX_WARM_VALUE = cli.MAX_TERMS = 8; "
           "sys.exit(cli.main(sys.argv[1:]))")


def _run_child(tmp_path, *argv, cache=None, capped=False):
    src = os.path.dirname(os.path.dirname(formula_forge.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop(ENV_VAR, None)
    if cache is not None:
        env[ENV_VAR] = str(cache)
    entry = ["-c", _CAPPED] if capped else ["-m", "formula_forge.cli"]
    return subprocess.run([sys.executable, *entry, *argv],
                          capture_output=True, text=True, env=env, cwd=tmp_path,
                          timeout=60)


def test_graph_dot_into_a_missing_directory(tmp_path):
    proc = _run_child(tmp_path, "graph", "3", "--dot", str(tmp_path / "no" / "x.dot"))
    assert proc.returncode == 3
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_goodstein_mul_past_the_pair_cap(tmp_path):
    a = str(2**2000 - 1)
    proc = _run_child(tmp_path, "goodstein", "mul", a, a)
    assert proc.returncode == 4
    assert proc.stderr.startswith("guard:")
    assert proc.stdout == ""
    proc = _run_child(tmp_path, "goodstein", "mul", a, a, "--unsafe")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == str((2**2000 - 1) ** 2)


def test_goodstein_pow_under_the_pair_cap(tmp_path):
    proc = _run_child(tmp_path, "goodstein", "pow", "3", "2000")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == str(3**2000)


@pytest.mark.parametrize("base, exponent", [
    pytest.param(3, 3000, id="pow-3-3000"),  # 1,760,480 pairs, 2,168,983 before
    pytest.param(3, 3250, id="pow-3-3250"),  # 2,085,934 pairs, just under the cap
])
def test_goodstein_pow_squares_count_each_pair_once(tmp_path, base, exponent):
    proc = _run_child(tmp_path, "goodstein", "pow", str(base), str(exponent))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == str(base**exponent)


def test_horner_encode_too_deep_to_render(tmp_path):
    proc = _run_child(tmp_path, "horner", "encode", str(2**1000 - 1))
    assert proc.returncode == 4
    assert proc.stderr.startswith("guard:")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_forced_horner_level_four_is_a_magnitude_guard(tmp_path):
    # level 4 holds values near 2^(2^65536): refused at once, not built
    proc = _run_child(tmp_path, "horner", "levels", "4", "--unsafe")
    assert proc.returncode == 4
    assert proc.stderr.startswith("guard:")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_forced_goodstein_level_three_is_a_size_guard(tmp_path):
    # level 3 holds 2^256 - 1 expressions: refused at once, not built
    proc = _run_child(tmp_path, "goodstein", "levels", "3", "--unsafe")
    assert proc.returncode == 4
    assert proc.stderr.startswith("guard:") and "2^256 - 1 expressions" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_horner_encode_2_128_minus_1_prints(tmp_path):
    n = 2**128 - 1  # nests 256 levels deep
    proc = _run_child(tmp_path, "horner", "encode", str(n))
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["value"] == str(n)
    assert eval(got["text"].replace("^", "**"), {"x": 2}) == n


def test_graph_guard(capsys):
    code, _, _ = run(capsys, "graph", "10")
    assert code == 4


@pytest.mark.parametrize("argv", [
    ("count", "100000", "--gates", "am"),
    ("sample", "5000", "--gates", "ame"),
    ("shortest", "200000"),
])
def test_size_guards(tmp_path, argv):
    proc = _run_child(tmp_path, *argv)
    assert proc.returncode == 4
    assert proc.stderr.startswith("guard:") and "--unsafe" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ("cache", "save", "P.json", "--warm", "100000"),
    ("rho", "--terms", "5000"),
    ("constant", "--terms", "5000"),
])
def test_warm_and_terms_guards(tmp_path, argv):
    proc = _run_child(tmp_path, *argv)
    assert proc.returncode == 4
    assert proc.stderr.startswith("guard:") and "--unsafe" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not (tmp_path / "P.json").exists()


@pytest.mark.parametrize("argv", [
    ("cache", "save", "P.json", "--warm", "9"),
    ("rho", "--terms", "9"),
    ("constant", "--terms", "9", "--json"),
])
def test_unsafe_overrides_the_warm_and_terms_guards(tmp_path, argv):
    proc = _run_child(tmp_path, *argv, capped=True)
    assert (proc.returncode, proc.stdout) == (4, "") and proc.stderr.startswith("guard:")
    assert not (tmp_path / "P.json").exists()
    proc = _run_child(tmp_path, *argv, "--unsafe", capped=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)
    if argv[0] == "cache":
        assert len(json.loads((tmp_path / "P.json").read_text())["entries"]) == 7 * 9


def test_unsafe_overrides_the_size_guards(capsys, monkeypatch):
    from formula_forge import cli

    for cap in ("MAX_COUNT_VALUE", "MAX_SAMPLE_VALUE", "MAX_SHORTEST_VALUE"):
        monkeypatch.setattr(cli, cap, 5)
    for argv in (["count", "6"], ["sample", "6", "--seed", "1"], ["shortest", "6"],
                 ["shortest", "--upto", "6"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, "") and err.startswith("guard:")
        code, out, _ = run(capsys, *argv, "--unsafe")
        assert code == 0 and out
    assert run(capsys, "count", "5")[0] == 0


_M = str(2**2000 - 1)  # its square takes 4 * 10^6 exponent pairs
_GUARDS = [  # one row per guard: argv, and the cap its guard line quotes
    pytest.param(("count", "100000"), cli.MAX_COUNT_VALUE, id="count"),
    pytest.param(("count", "100000", "--gates", "am"), cli.MAX_COUNT_VALUE, id="count-am"),
    pytest.param(("sample", "5000", "--gates", "ame"), cli.MAX_SAMPLE_VALUE, id="sample"),
    pytest.param(("shortest", "200000"), cli.MAX_SHORTEST_VALUE, id="shortest"),
    pytest.param(("shortest", "--upto", "20000"), cli.MAX_SHORTEST_VALUE, id="shortest-upto"),
    pytest.param(("list", "3000"), enumeration.MAX_STREAM_VALUE, id="list-deep"),
    pytest.param(("list", "400"), cli.DEFAULT_LIST_LIMIT, id="list-long"),
    pytest.param(("goodstein", "mul", _M, _M), canonical.MAX_MUL_PAIRS, id="goodstein-mul"),
    pytest.param(("goodstein", "pow", "3", "3500"), canonical.MAX_MUL_PAIRS,
                 id="goodstein-pow-pairs"),
    pytest.param(("goodstein", "pow", "2", "1100000"), canonical.MAX_POW_BITS,
                 id="goodstein-pow-bits"),
    pytest.param(("goodstein", "levels", "3"), canonical.MAX_GOODSTEIN_LEVEL,
                 id="goodstein-levels"),
    pytest.param(("horner", "levels", "5"), canonical.MAX_HORNER_LEVEL, id="horner-levels"),
    pytest.param(("sieve", "--levels", "20"), sieve.MAX_LEVELS, id="sieve-levels"),
    pytest.param(("sieve", "--levels", "4", "--coarse"), sieve.MAX_LEVELS, id="sieve-coarse"),
    pytest.param(("sieve", "--levels", "3", "--rationals", "--exponent-bound", "3",
                  "--factor-bound", "4"), sieve.MAX_RATIONALS, id="sieve-rationals"),
    pytest.param(("graph", "12"), graph.MAX_GRAPH_VALUE, id="graph"),
    pytest.param(("cache", "save", "P.json", "--warm", "100000"), cli.MAX_WARM_VALUE,
                 id="cache-warm"),
    pytest.param(("rho", "--terms", "5000"), cli.MAX_TERMS, id="rho-terms"),
    pytest.param(("rho", "--iterations", "100000"), cli.MAX_ITERATIONS, id="rho-iterations"),
    pytest.param(("rho", "--precision-bits", "20000"), cli.MAX_PRECISION_BITS,
                 id="rho-bits"),
    pytest.param(("constant", "--terms", "5000"), cli.MAX_TERMS, id="constant-terms"),
    pytest.param(("constant", "--iterations", "100000"), cli.MAX_ITERATIONS,
                 id="constant-iterations"),
    pytest.param(("constant", "--precision-bits", "20000"), cli.MAX_PRECISION_BITS,
                 id="constant-bits"),
]


@pytest.mark.parametrize("argv, cap", _GUARDS)
def test_every_guard_refuses_before_the_work(tmp_path, argv, cap):
    start = time.perf_counter()
    proc = _run_child(tmp_path, *argv)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("guard:") and re.search(rf"> {cap}\b", proc.stderr)
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not (tmp_path / "P.json").exists()
    if argv == ("list", "3000"):
        assert elapsed < 2  # refused by the stream, before any count is filled
    # the recursion limit and the level sets' caps are hard limits, with no override
    hard = argv == ("list", "3000") or argv[1] == "levels"
    assert ("--unsafe" in proc.stderr) != hard


def test_readme_guard_table_matches_each_cap():
    # each row of README's guard table, e.g. | ... | `goodstein mul` | 2^21 | `canonical.X` |
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    table = readme.split("| cap | subcommand | value | where it lives |\n| --- |", 1)[1]
    lines = itertools.takewhile(lambda line: line.startswith("|"), table.splitlines()[1:])
    rows = [line.split("|")[-3:-1] for line in lines]
    assert len(rows) >= 16
    for value, where in rows:
        module, name = re.fullmatch(r" `(\w+)\.([A-Z_]+)` ", where).groups()
        base, _, exponent = value.strip().replace(",", "").partition("^")
        cap = getattr(importlib.import_module(f"formula_forge.{module}"), name)
        assert cap == int(base) ** int(exponent or 1), where


@pytest.mark.parametrize("cap, argv", [
    ("DEFAULT_LIST_LIMIT", ["list", "6", "--gates", "am"]),
    ("MAX_ITERATIONS", ["rho", "--iterations", "30"]),
    ("MAX_PRECISION_BITS", ["constant", "--precision-bits", "120", "--json"]),
    ("MAX_RATIONALS", ["sieve", "--levels", "2", "--rationals", "--factor-bound", "2"]),
])
def test_unsafe_overrides_the_new_caps(capsys, monkeypatch, cap, argv):
    owner = sieve if cap == "MAX_RATIONALS" else cli  # rational_set checks its own cap
    monkeypatch.setattr(owner, cap, 5)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (4, "") and err.startswith("guard:") and "> 5;" in err
    code, out, _ = run(capsys, *argv, "--unsafe")
    assert code == 0 and out


@pytest.mark.parametrize("levels, e, f", [
    (0, 1, 1), (1, 2, 5), (2, 2, 3), (3, 2, 0), (3, 3, 2), (4, 1, 2),
])
def test_rationals_guard_sizes_exactly_what_rational_set_builds(capsys, monkeypatch,
                                                                levels, e, f):
    size = len(sieve.rational_set(sieve.run_sieve(levels), e, f))
    argv = ["sieve", "--levels", str(levels), "--rationals", "--exponent-bound", str(e),
            "--factor-bound", str(f)]
    monkeypatch.setattr(sieve, "MAX_RATIONALS", size - 1)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (4, "") and err.startswith("guard:")
    monkeypatch.setattr(sieve, "MAX_RATIONALS", size)
    assert len(run_json(capsys, *argv)["rationals"]) == size


def _digits(n):
    """str(n) past the interpreter's 4,300-digit limit, which main() lifts."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    getattr(sys, "set_int_max_str_digits", lambda _: None)(0)
    try:
        return str(n)
    finally:
        getattr(sys, "set_int_max_str_digits", lambda _: None)(limit)


@pytest.mark.parametrize("argv, exponent", [
    pytest.param(("goodstein", "pow", "2", "20000"), 20000, id="pow-6021-digits"),
    pytest.param(("goodstein", "mul", str(2**14000), str(2**14000)), 28000, id="mul"),
    pytest.param(("goodstein", "pow", "2", "1100000", "--unsafe"), 1100000,
                 id="pow-past-the-bit-cap"),
])
def test_results_past_the_str_digit_limit_print(tmp_path, argv, exponent):
    proc = _run_child(tmp_path, *argv)
    assert proc.returncode == 0, proc.stderr[-300:]
    assert json.loads(proc.stdout)["value"] == _digits(2**exponent)


def test_horner_levels_with_long_values_print(tmp_path):
    proc = _run_child(tmp_path, "horner", "levels", "3")
    assert proc.returncode == 0, proc.stderr[-300:]
    values = [e["value"] for e in json.loads(proc.stdout)["expressions"]]
    assert len(values) == 80 and max(map(len, values)) > 4300


def test_an_operand_past_the_str_digit_limit_is_a_usage_error(tmp_path):
    proc = _run_child(tmp_path, "goodstein", "encode", "9" * 4301)
    assert proc.returncode == 2
    assert "invalid int value" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no str() digit limit before 3.10.7")
@pytest.mark.parametrize("argv, code", [
    pytest.param(("goodstein", "pow", "2", "1000000"), 0, id="printed"),
    pytest.param(("goodstein", "pow", "2", "1100000"), 4, id="refused"),
])
def test_main_puts_back_the_str_digit_limit(capsys, argv, code):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        assert run(capsys, *argv)[0] == code  # 2**1000000 has 301,030 digits
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(before)


# cache

def test_cache_save_load(capsys, tmp_path):
    path = tmp_path / "counts.json"
    got = run_json(capsys, "cache", "save", str(path), "--warm", "10")
    assert got["saved"] > 0
    got = run_json(capsys, "cache", "load", str(path))
    assert got["loaded"] == json.loads(path.read_text())["entries"].__len__()


def test_cache_load_corrupt(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else"}')
    code, _, err = run(capsys, "cache", "load", str(path))
    assert code == 3
    assert err.startswith("error:")


def test_cache_save_into_a_missing_directory(tmp_path):
    proc = _run_child(tmp_path, "cache", "save", str(tmp_path / "no" / "c.json"))
    assert proc.returncode == 3
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not (tmp_path / "no").exists()


def _count_file(path, count):
    path.write_text(json.dumps({"format": "formula-forge-counts", "version": 1,
                                "entries": [["a", "all", 1, count]]}))


def test_cache_count_with_a_superscript_digit(tmp_path):
    # '²' passes str.isdigit, and int('²') raises ValueError
    path = tmp_path / "counts.json"
    _count_file(path, "\u00b2")
    for proc in (_run_child(tmp_path, "cache", "load", str(path)),
                 _run_child(tmp_path, "count", "3", cache=path)):
        assert proc.returncode == 3
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


@pytest.mark.parametrize("digit", ["\u0663", "\uff11"])
def test_cache_count_with_non_ascii_decimal_digits(capsys, tmp_path, digit):
    # Arabic-Indic three and fullwidth one: int() reads them, the format does not
    path = tmp_path / "counts.json"
    _count_file(path, digit)
    code, out, err = run(capsys, "cache", "load", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("error:")


def _hostile_entries(entries_text):
    return ('{"format": "formula-forge-counts", "version": 1, "entries": '
            f"{entries_text}}}").encode()


@pytest.mark.parametrize("data", [
    b"\xff\xfe",  # not UTF-8
    _hostile_entries("[" * 200_000 + "]" * 200_000),  # past the recursion limit
    _hostile_entries(f'[["a", "all", 3, "{"1" * 1_000_000}"]]'),  # far over 2n digits
], ids=["not-utf8", "nested", "long-count"])
def test_cache_file_the_format_refuses(tmp_path, data):
    path = tmp_path / "counts.json"
    path.write_bytes(data)
    proc = _run_child(tmp_path, "count", "5", cache=path)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert path.read_bytes() == data


def test_cache_with_a_wrong_count_is_rejected(tmp_path):
    # am(2) is 1; with 999 there count 3 --gates am would print 1998
    path = tmp_path / "counts.json"
    rows = [["am", "+", 1, "1"], ["am", "*", 1, "0"], ["am", "+", 2, "999"], ["am", "*", 2, "0"]]
    path.write_text(json.dumps({"format": "formula-forge-counts", "version": 1,
                                "entries": rows}))
    for proc in (_run_child(tmp_path, "cache", "load", str(path)),
                 _run_child(tmp_path, "count", "3", "--gates", "am", cache=path)):
        assert proc.returncode == 3
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
    assert json.loads(path.read_text())["entries"] == rows


def test_cache_with_counts_shifted_between_roots_is_rejected(tmp_path):
    # 1 moved from am's * column to its + column at 6 keeps the total, and
    # count 6 --gates am --root add would print 49 where the count is 48
    path = tmp_path / "counts.json"
    table = formula_forge.CountTable()
    table.count("am", 20)
    save_table(str(path), table)
    data = json.loads(path.read_text())
    for row in data["entries"]:
        if row[0] == "am" and row[2] == 6:
            row[3] = str(int(row[3]) + (1 if row[1] == "+" else -1))
    path.write_text(json.dumps(data))
    saved = path.read_bytes()
    for proc in (_run_child(tmp_path, "count", "6", "--gates", "am", "--root", "add",
                            cache=path),
                 _run_child(tmp_path, "cache", "load", str(path))):
        assert proc.returncode == 3
        assert proc.stderr.startswith("error:")
        assert proc.stdout == ""
    assert path.read_bytes() == saved


def test_env_cache_round_trip(capsys, tmp_path, monkeypatch):
    path = tmp_path / "auto.json"
    monkeypatch.setenv(ENV_VAR, str(path))
    code, _, _ = run(capsys, "count", "12", "--gates", "am")
    assert code == 0
    data = json.loads(path.read_text())
    assert data["format"] == "formula-forge-counts"
    assert any(row[0] == "am" and row[2] == 12 for row in data["entries"])
    # second run loads the file back without complaint
    code, out, _ = run(capsys, "count", "12", "--gates", "am")
    assert code == 0


def test_env_cache_write_failure_is_only_a_warning(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_VAR, str(tmp_path / "missing" / "cache.json"))
    code, out, err = run(capsys, "count", "5")
    assert code == 0
    assert "warning:" in err
    assert json.loads(out)["total"] == "14"


def _warm_cache_file(capsys, tmp_path, monkeypatch):
    """A cache file holding every row of the default table, dated in 2001, so
    a rewrite shows in st_mtime_ns; returns its path and its am watermark."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    path = tmp_path / "warm.json"
    assert run_json(capsys, "cache", "save", str(path), "--warm", "20")["saved"] > 0
    os.utime(path, ns=(10**18, 10**18))
    monkeypatch.setenv(ENV_VAR, str(path))
    rows = json.loads(path.read_text())["entries"]
    return path, max(n for fam, _, n, _ in rows if fam == "am")


def test_env_cache_is_touched_only_by_commands_that_read_counts(capsys, tmp_path,
                                                               monkeypatch):
    others = [("goodstein", "add", "3", "4"), ("list", "5", "--limit", "3"), ("graph", "4")]
    path = tmp_path / "corrupt.json"
    path.write_bytes(b'{"format": "formula-forge-counts", "version": 1, "entries": [[')
    before = path.read_bytes()
    monkeypatch.setenv(ENV_VAR, str(path))
    for argv in others:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out
    code, out, err = run(capsys, "count", "3")
    assert code == 3 and out == "" and err.startswith("error:")
    assert path.read_bytes() == before
    missing = tmp_path / "missing.json"
    monkeypatch.setenv(ENV_VAR, str(missing))
    for argv in others:
        assert run(capsys, *argv)[0] == 0, argv
    assert not missing.exists()
    assert run(capsys, "list", "5")[0] == 0
    assert missing.exists()


def test_env_cache_left_as_is_when_no_row_is_added(capsys, tmp_path, monkeypatch):
    path, _ = _warm_cache_file(capsys, tmp_path, monkeypatch)
    before = path.read_bytes()
    assert run_json(capsys, "count", "12", "--gates", "am")["total"] == "77504"
    assert run_json(capsys, "goodstein", "add", "3", "4")["value"] == "7"
    assert path.read_bytes() == before
    assert path.stat().st_mtime_ns == 10**18


def test_cache_load_reads_the_env_cache_once(capsys, tmp_path, monkeypatch):
    path, _ = _warm_cache_file(capsys, tmp_path, monkeypatch)
    before = path.read_bytes()
    monkeypatch.delenv(ENV_VAR)
    alone = run_json(capsys, "cache", "load", str(path))
    other = tmp_path / "other.json"
    other.write_bytes(before)
    real, reads = cache_module.load_table, []
    monkeypatch.setattr(cache_module, "load_table",
                        lambda p, *rest: reads.append(os.path.basename(p)) or real(p, *rest))
    monkeypatch.setenv(ENV_VAR, str(path))
    assert run_json(capsys, "cache", "load", str(path)) == alone
    monkeypatch.chdir(tmp_path)  # the same file by another name
    assert run_json(capsys, "cache", "load", "warm.json")["loaded"] == alone["loaded"]
    assert reads == ["warm.json"] * 2
    assert path.read_bytes() == before and path.stat().st_mtime_ns == 10**18
    reads.clear()  # a different file is read as well as the env cache
    assert run_json(capsys, "cache", "load", str(other))["loaded"] == alone["loaded"]
    assert reads == ["warm.json", "other.json"]
    assert path.stat().st_mtime_ns == 10**18


def test_env_cache_rewritten_when_rows_are_added(capsys, tmp_path, monkeypatch):
    path, watermark = _warm_cache_file(capsys, tmp_path, monkeypatch)
    run_json(capsys, "count", str(watermark + 3), "--gates", "am")
    assert path.stat().st_mtime_ns != 10**18
    rows = json.loads(path.read_text())["entries"]
    assert ["am", "*", watermark + 3, str(formula_forge.count_am(watermark + 3, "*"))] in rows


# usage plumbing

def test_gates_choices_are_the_gate_sets():
    # the parser keeps its own copy, so that start-up need not import counting
    assert cli._GATE_SETS == GATE_SETS


def test_usage_errors_exit_two(capsys, tmp_path):
    cache = str(tmp_path / "counts.json")
    save_table(cache)  # a file `cache load` reads, so only --warm is wrong
    for argv in (
        [],
        ["list", "3", "--gates", "xyz"],
        ["nope"],
        ["list", "5", "--limit", "-3"],
        ["sample", "5", "--count", "-2"],
        # shortest takes n or --upto, exactly one
        ["shortest"],
        ["shortest", "5", "--upto", "3"],
        # there is no -t: goodstein and horner take the level as an operand
        ["goodstein", "levels", "1", "-t", "2"],
        ["horner", "levels", "1", "-t", "2"],
        # an operand count the mode does not take: too few, then too many
        ["goodstein", "levels", "1", "2"],
        ["goodstein", "encode"],
        ["goodstein", "encode", "5", "7"],
        ["goodstein", "add", "2"],
        ["goodstein", "add", "2", "3", "4"],
        ["goodstein", "mul", "2"],
        ["goodstein", "mul", "2", "3", "4"],
        ["goodstein", "pow"],
        ["goodstein", "pow", "2", "3", "4"],
        ["horner", "levels", "1", "2"],
        ["horner", "encode"],
        ["horner", "encode", "5", "7"],
        # an option that the mode or the flags given do not read
        ["cache", "load", cache, "--warm", "50"],
        ["sieve", "--levels", "3", "--exponent-bound", "3"],
        ["sieve", "--levels", "3", "--factor-bound", "2"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        out, _ = capsys.readouterr()
        assert out == "", argv


@pytest.mark.parametrize("argv", [
    ["goodstein", "encode", "5", "-t", "3"],
    ["horner", "encode", "5", "-t", "3"],
    ["goodstein", "add", "2", "3", "-t", "4"],
])
def test_t_outside_levels_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"unrecognized arguments: -t {argv[-1]}" in err


@pytest.mark.parametrize("argv, message", [
    (["goodstein", "add", "2"], "goodstein add takes 2 operands"),
    (["goodstein", "levels", "1", "2"], "goodstein levels takes at most 1 operand"),
    (["horner", "encode"], "horner encode takes 1 operand"),
    (["goodstein", "levels", "-t", "2"], "unrecognized arguments: -t 2"),
    (["shortest"], "one of the arguments n --upto is required"),
    (["shortest", "5", "--upto", "3"], "argument --upto: not allowed with argument n"),
    (["cache", "load", "counts.json", "--warm", "50"], "cache load takes no --warm"),
    (["sieve", "--factor-bound", "2"], "--factor-bound needs --rationals"),
])
def test_usage_error_messages(capsys, argv, message):
    # the usage printed, and the prefix of the error line, are the subcommand's
    with pytest.raises(SystemExit):
        main(argv)
    err = capsys.readouterr().err
    assert err.startswith(f"usage: formula-forge {argv[0]} [-h]")
    assert f"formula-forge {argv[0]}: error: {message}\n" in err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out, _ = capsys.readouterr()
    assert out.strip() == "0.1.0"
