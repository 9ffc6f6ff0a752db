"""The pair runner's export of the working tree and its summary of perfbench runs
(tools/bench_pairs.py)."""

import argparse
import importlib.util
import os
import subprocess

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py")
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _run(wall, failed=0, attempted=10, correct=True):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"}}}


def test_workload_record():
    seeds = [90917, 1, 2]
    runs = {("parent", 90917): _run(2.0), ("change", 90917): _run(1.0, failed=1),
            ("parent", 1): _run(4.0), ("change", 1): _run(5.0),
            ("parent", 2): _run(3.0), ("change", 2): _run(3.0, correct=False)}
    metrics = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2}]
    got = bench_pairs.workload_record(runs, seeds, {"90917": "parent"}, metrics)
    assert got["pairs"] == 3
    assert got["correct"] == {"parent": True, "change": False}
    assert got["failed_ops"] == {"parent": [0, 30], "change": [1, 30]}
    wall = got["metrics"]["wall_s"]
    assert wall["parent"] == {"median": 3.0, "iqr": [2.5, 3.5]}
    assert wall["change"] == {"median": 3.0, "iqr": [2.0, 4.0]}
    assert wall["median_delta_pct"] == 0.0
    assert wall["pairs_change_lower"] == 1
    assert wall["pair_delta_pct"] == {"90917": -50.0, "1": 25.0, "2": 0.0}
    assert wall["seed_90917"] == [2.0, 1.0]
    assert wall["bound"] == 0.2
    assert wall["within_bound"] is True
    # the parent's quartiles 1.0 apart, over 0.2 times its median 3.0, and
    # the change's 5.0 above the parent's 2.0: within the bound but unresolved
    assert wall["resolved"] is False
    # per-layer metrics have no bound
    layer = [{"name": "wall_s", "unit": "s", "better": "lower"}]
    record = bench_pairs.workload_record(runs, seeds, {}, layer)["metrics"]["wall_s"]
    assert record["bound"] is None and record["within_bound"] is None
    assert record["resolved"] is None
    # every change run under every parent run resolves the same spread
    for s, w in zip(seeds, (1.0, 1.5, 1.9)):
        runs["change", s] = _run(w)
    got = bench_pairs.workload_record(runs, seeds, {}, metrics)["metrics"]["wall_s"]
    assert got["resolved"] is True
    # the change's median 3.5 against the parent's 3.0: worse by 1/6, inside a
    # bound of 0.2 and outside one of 0.1; a bound of 0.4 lets the median move
    # 1.2, more than the parent's quartiles are apart, and so resolves it
    for s, w in zip(seeds, (3.5, 4.0, 3.5)):
        runs["change", s] = _run(w)
    for bound, within, res in ((0.2, True, False), (0.1, False, False), (0.4, True, True)):
        metrics = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": bound}]
        got = bench_pairs.workload_record(runs, seeds, {}, metrics)["metrics"]["wall_s"]
        assert (got["within_bound"], got["resolved"]) == (within, res), bound


def test_parse_pairs():
    assert bench_pairs.parse_pairs("cli-mix=10") == ("cli-mix", 10)
    for bad in ("cli-mix", "cli-mix=1", "cli-mix=x"):
        with pytest.raises(argparse.ArgumentTypeError):
            bench_pairs.parse_pairs(bad)


def test_claim_record():
    seeds = [90917, 1, 2]
    runs = {("parent", s): _run(w) for s, w in zip(seeds, (2.0, 4.0, 3.0))}
    runs.update({("change", s): _run(w) for s, w in zip(seeds, (1.0, 3.0, 3.5))})
    metrics = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2}]
    workloads = {"towers": bench_pairs.workload_record(runs, seeds, {}, metrics)}
    assert bench_pairs.claim_record(workloads, "towers", "wall_s") == {
        "workload": "towers", "metric": "wall_s", "pairs": 3, "pairs_change_lower": 2,
        "median_delta_pct": 0.0, "parent_median": 3.0, "change_median": 3.0,
        "parent_iqr": [2.5, 3.5]}


def test_claim_outside_the_pairs_is_a_usage_error(capsys):
    # refused before any run starts: exit 2, as argparse does
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--label", "x", "--change", "x", "--claim", "growth:wall_s",
                          "towers=2"])
    assert exc.value.code == 2
    assert "--claim workload 'growth' is not among the pairs" in capsys.readouterr().err


def test_claim_on_fewer_than_ten_pairs_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--label", "x", "--change", "x", "--claim", "towers:wall_s",
                          "towers=9", "growth=10", "--traced", "towers=10"])
    assert exc.value.code == 2
    assert "--claim needs at least 10 pairs of 'towers', not 9" in capsys.readouterr().err


def test_export_tree_copies_the_files_git_would_take(tmp_path):
    top, dest = tmp_path / "top", tmp_path / "dest"
    top.mkdir()
    dest.mkdir()

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=top, check=True, capture_output=True)

    git("init", "-q")
    (top / ".gitignore").write_text("__pycache__/\n*.log\n")
    (top / "pkg").mkdir()
    for name in ("pkg/kept.py", "pkg/edited.py", "gone.py"):
        (top / name).write_text("committed\n")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (top / "pkg" / "edited.py").write_text("edited\n")  # tracked, changed
    (top / "gone.py").unlink()  # tracked, deleted from the tree
    (top / "pkg" / "new.py").write_text("new\n")  # untracked, not ignored
    (top / "run.log").write_text("ignored\n")
    (top / "pkg" / "__pycache__").mkdir()
    (top / "pkg" / "__pycache__" / "kept.pyc").write_bytes(b"ignored")

    bench_pairs.export_tree(str(top), str(dest))
    got = {p.relative_to(dest).as_posix(): p.read_text()
           for p in dest.rglob("*") if p.is_file()}
    assert got == {".gitignore": "__pycache__/\n*.log\n", "pkg/kept.py": "committed\n",
                   "pkg/edited.py": "edited\n", "pkg/new.py": "new\n"}
