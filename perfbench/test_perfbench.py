"""Tests of the benchmark itself: its oracles reject wrong answers, failed
operations are counted and make a run incorrect unless declared as known
failures, and every per-layer metric has a workload to measure it on.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import os
import random
import sys
from decimal import Decimal

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracles  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402
from worker import run_ops  # noqa: E402
from workloads import WORKLOADS, CliMix, Combinatorics, Growth, Towers, strata  # noqa: E402


def make(cls):
    w = cls(1, Tracer(False), ROOT, ".")
    w.setup()
    w.prepare_checks()
    return w


# -- counts -----------------------------------------------------------------

def test_count_oracle_matches_pinned_and_catalan():
    o = oracles.CountOracle(12)
    assert o.check("am", 6, 52) is None
    assert o.check("ame", 9, 2076) is None
    assert o.check("a", 10, 4862) is None  # Catalan(9)
    assert o.check("ame", 4, 1, "^") is None


def test_count_oracle_rejects_corrupted_counts():
    o = oracles.CountOracle(12)
    assert o.check("am", 6, 53)
    assert o.check("ame", 9, 2075)
    assert o.check("a", 10, 4863)
    assert o.check("lop", 12, o.expected_mod("lop", 12) + 1)
    assert o.check("am", 13, 1)  # beyond the reference table


def test_fill_check_rejects_a_corrupted_table():
    w = make(Combinatorics)
    value, table = w.run_fill("am", 30)
    assert w.check_fill("am", 30, (value, table)) is None
    assert w.check_fill("am", 30, (value + 1, table))

    class Corrupted:
        def am(self, n, root="all"):
            return 53 if n == 6 else table.am(n, root)

    assert "52" in w.check_fill("am", 30, (value, Corrupted()))


def test_tree_checks_reject_wrong_trees():
    assert oracles.check_tree(("*", ("+", 1, 1), ("+", 1, 1)), 4, "am") is None
    assert oracles.check_tree(("*", 1, ("+", 1, 1)), 2, "am")  # not strict
    assert oracles.check_tree(("^", ("+", 1, 1), ("+", 1, 1)), 4, "am")  # ^ outside am
    assert oracles.check_tree(("+", 1, ("+", 1, 1)), 3, "lop")  # left < right
    assert oracles.check_tree(("+", 1, 1), 3, "a")  # wrong value


def test_shortest_check_rejects_a_longer_witness():
    w = make(Combinatorics)
    entry = w.run_shortest_fill(1000)
    assert w.check_shortest_fill(1000, entry) is None
    witness = ("+", ("+", 1, 1), w.ff.shortest(998).witness)
    longer = dataclasses.replace(entry, size=oracles.tree_size(witness), witness=witness)
    assert longer.size > entry.size
    assert w.check_shortest_fill(1000, longer)


# -- primes and tower forms -------------------------------------------------

def test_boolean_sieve():
    assert oracles.primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_sieve_check_rejects_a_composite_reported_as_prime():
    w = make(Towers)
    state, texts, values = w.run_sieve(3)
    assert w.check_sieve(3, (state, texts, values)) is None
    nine = state.integers[8]
    bad = dataclasses.replace(state, primes=tuple(sorted(state.primes + (nine,),
                                                         key=w.ff.sym_value)))
    assert w.check_sieve(3, (bad, *w._render_values(bad.primes)))


def test_form_and_expression_oracles():
    import formula_forge as ff

    a, b = 123456, 654321
    fa, fb = ff.encode_goodstein(a), ff.encode_goodstein(b)
    assert oracles.check_form(ff.g_add(fa, fb), a + b) is None
    assert oracles.check_form(ff.g_mul(fa, fb), a * b) is None
    assert oracles.check_form(ff.g_mul(fa, fb), a * b + 1)
    unordered = ff.GoodsteinForm(tuple(reversed(ff.encode_goodstein(6).exponents)))
    assert oracles.check_form(unordered, 6)
    e = ff.encode_horner(2**64 - 59)
    assert oracles.SymValue(ff.ONE, ff.X)(e) == 2**64 - 59
    assert oracles.infix_value(ff.render(e)) == 2**64 - 59
    assert oracles.infix_value("x^(x + 1)*x + 1") == 17


# -- growth constants -------------------------------------------------------

def test_growth_references_reject_rho_off_by_1e_15():
    import mpmath

    with mpmath.workprec(200):
        rho = mpmath.mpf(str(oracles.RHO["am"]))
        assert oracles.check_close(rho, oracles.RHO["am"], "rho") is None
        assert oracles.check_close(rho + mpmath.mpf("1e-15"), oracles.RHO["am"], "rho")
    assert oracles.check_close(oracles.CONSTANT + Decimal("1e-15"), oracles.CONSTANT, "C")


# -- failures are counted ---------------------------------------------------

class _Flaky:
    """Four operations: one raises, one gives a wrong answer."""

    ops = [("ok", 1), ("boom", 2), ("ok", 3), ("wrong", 4)]

    def run(self, op):
        if op[0] == "boom":
            raise RuntimeError("failed")
        return op[1]

    def check(self, op, result):
        return "wrong answer" if op[0] == "wrong" else None

    def may_raise(self, op, exc):
        return False


def test_failed_operations_raise_failed_ops_ratio():
    clean = run_ops(type("Clean", (_Flaky,), {"ops": [("ok", 1)] * 4})())
    flaky = run_ops(_Flaky())
    assert (clean["raised"], clean["wrong"]) == (0, 0)
    assert (flaky["raised"], flaky["wrong"]) == (1, 1)
    assert len(flaky["times"]) == 4
    assert run.failed_ops_ratio([clean]) == (4, 0, 0.0)
    assert run.failed_ops_ratio([clean, flaky]) == (8, 2, 0.25)


def test_an_operation_that_raises_makes_the_run_incorrect():
    raises = type("Raises", (_Flaky,), {"ops": [("ok", 1), ("boom", 2)]})
    assert run.all_correct([run_ops(type("Clean", (_Flaky,), {"ops": [("ok", 1)]})())])
    assert not run.all_correct([run_ops(raises())])
    # a declared known failure still counts as failed but keeps the run correct
    known = type("Known", (raises,), {"may_raise": lambda self, op, exc: op[0] == "boom"})
    result = run_ops(known())
    assert run.all_correct([result])
    assert run.failed_ops_ratio([result]) == (2, 1, 0.5)


def test_growth_allows_only_nonconvergence_of_ame_at_300_bits():
    import formula_forge as ff

    w = make(Growth)
    nc = ff.NonConvergence("residual still above threshold")
    assert w.may_raise(("estimate", "ame", 150, 300), nc)
    assert not w.may_raise(("estimate", "ame", 150, 200), nc)
    assert not w.may_raise(("estimate", "am", 60, 300), nc)
    assert not w.may_raise(("estimate", "ame", 150, 300), ValueError("bad"))
    assert all(not cls.may_raise(None, ("count", 6), nc)
               for cls in (CliMix, Combinatorics, Towers))


def test_a_cli_child_that_fails_makes_the_run_incorrect(tmp_path):
    w = CliMix(1, Tracer(False), ROOT, str(tmp_path))
    w.setup()
    w.prepare_checks()
    w.ops = [("count", "am", 6, False), ("shortest", 0, False)]
    result = run_ops(w)
    assert (result["raised"], result["wrong"]) == (1, 0)
    assert not run.all_correct([result])
    assert 10_000 < w.peak_rss_kb() < 1_000_000


def test_cli_check_rejects_a_wrong_count(tmp_path):
    w = CliMix(1, Tracer(False), ROOT, str(tmp_path))
    w.prepare_checks()
    op = ("count", "am", 6, False)
    good = json.dumps({"total": "52", "by_root": {"add": "40", "mul": "12"}})
    assert w.check(op, good + "\n") is None
    assert w.check(op, good.replace('"52"', '"53"') + "\n")


# -- plans, statistics and the benchmark's declaration ----------------------

def test_plans_depend_only_on_the_seed(tmp_path):
    for cls in WORKLOADS.values():
        a = cls(7, Tracer(False), ROOT, str(tmp_path)).ops
        b = cls(7, Tracer(False), ROOT, str(tmp_path)).ops
        c = cls(8, Tracer(False), ROOT, str(tmp_path)).ops
        assert a == b
        assert cls.name == "growth" or a != c


def test_strata_draw_one_value_per_bin():
    xs = sorted(strata(random.Random(3), 100, 1000, 4))
    assert all([100 <= xs[0] < 325, 325 <= xs[1] < 550, 550 <= xs[2] < 775, 775 <= xs[3] <= 1000])


def test_tail_percentile_keeps_ten_operations_beyond():
    assert run.tail_percentile(72) == 75.0
    assert run.tail_percentile(132) == 90.0
    assert run.tail_percentile(462) == 95.0
    assert run.tail_percentile(20) == 50.0
    assert run.percentile([1, 2, 3, 4], 50) == 2.5


def test_every_per_layer_metric_has_a_home_workload():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "layers.json")) as fh:
        homes = {name: m["workload"] for name, m in json.load(fh)["per_layer"].items()}
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in bench["per_layer"]} <= set(homes)
    assert set(homes.values()) - {"the traced workload"} <= set(WORKLOADS)
