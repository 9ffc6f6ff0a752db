"""End-to-end command-line checks through main(argv)."""

import json
import os
import subprocess
import sys

import pytest

import formula_forge
from formula_forge import parse_prefix, evaluate, is_strict
from formula_forge.cache import ENV_VAR
from formula_forge.cli import main


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
    assert run_json(capsys, "goodstein", "levels", "-t", "1")["count"] == 7


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
    code, _, _ = run(capsys, "sieve", "--coarse", "--levels", "3")
    assert code == 4


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


def test_graph_guard(capsys):
    code, _, _ = run(capsys, "graph", "10")
    assert code == 4


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


# usage plumbing

def test_usage_errors_exit_two(capsys):
    for argv in (
        [],
        ["list", "3", "--gates", "xyz"],
        ["nope"],
        ["list", "5", "--limit", "-3"],
        ["sample", "5", "--count", "-2"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out, _ = capsys.readouterr()
    assert out.strip() == "0.1.0"
