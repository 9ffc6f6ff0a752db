"""The package exports its names lazily: importing it or running a CLI
command loads only the modules that are used, and mpmath only for the
growth constants."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import formula_forge
from formula_forge.cache import ENV_VAR

PUBLIC = """
    CacheError ConstantEstimate CountTable DomainError FormulaForgeError GS_ONE
    GoodsteinForm InternalGapError LevelTooLarge MagnitudeError MalformedString
    Neg NegativeRadicand NoMultiplicativeSplit NonConvergence ONE Pow Prod
    RewriteGraph RewriteRule RhoEstimate ShortestEntry ShortestTable SieveState
    SizeGuard Sum SymExpr X ZERO asymptotics build_graph cache canonical
    clear_caches constant_estimate count_add_lop count_add_only count_am
    count_ame counting default_table depth encode_goodstein encode_horner
    enumerate_add enumerate_add_lop enumerate_am enumerate_ame enumeration
    errors evaluate expand_x from_brackets g_add g_mul g_pow goodstein_levels
    graph gs_to_symexpr gs_value horner_levels initial_state is_strict
    leaf_count load_table multi_factor_products neighbors parse_postfix
    parse_prefix prime_power_range rational_set render rho_estimate run_sieve
    sample_add sample_add_lop sample_am sample_ame sampling save_table
    scf_coarse shortest shortest_range sieve size sym_pow sym_prod sym_sum
    sym_value symexpr to_brackets to_postfix to_prefix trees validate zeta_step
"""


def _fresh(code):
    """Run code in a new interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(formula_forge.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop(ENV_VAR, None)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_submodule_and_no_mpmath():
    out = _fresh("""
        import sys
        import formula_forge
        print(sorted(m for m in sys.modules
                     if m == "mpmath" or m.startswith("formula_forge.")))
    """)
    assert out.strip() == "[]"


def test_only_rho_and_constant_load_mpmath(tmp_path):
    cache = tmp_path / "counts.json"
    out = _fresh(f"""
        import contextlib, io, sys
        from formula_forge.cli import main

        def run(*argv):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(list(argv)) == 0, argv
            return "mpmath" in sys.modules

        print(run("cache", "save", {str(cache)!r}, "--warm", "10"),
              run("count", "6", "--gates", "am"),
              run("list", "5", "--gates", "ame", "--limit", "3"),
              run("sample", "9", "--seed", "1"),
              run("shortest", "30"),
              run("goodstein", "add", "3", "4"),
              run("horner", "encode", "99"),
              run("sieve", "--levels", "2"),
              run("graph", "4"),
              run("cache", "load", {str(cache)!r}),
              run("rho", "--terms", "20", "--precision-bits", "53"))
    """)
    assert out.split() == ["False"] * 10 + ["True"]


def test_cli_start_up_loads_only_what_the_parser_needs(tmp_path):
    cache = tmp_path / "counts.json"
    out = _fresh(f"""
        import contextlib, io, sys
        import formula_forge.cli
        print(sorted(m for m in ("dataclasses", "inspect", "formula_forge.enumeration",
                                 "formula_forge.trees", "formula_forge.cache")
                     if m in sys.modules))
        from formula_forge.cli import main

        def run(*argv):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(list(argv)) == 0, argv
            return "dataclasses" in sys.modules

        print(run("cache", "save", {str(cache)!r}, "--warm", "8"),
              run("count", "6", "--gates", "am"),
              run("list", "5", "--gates", "ame"),
              run("list", "5", "--gates", "ame", "--limit", "3"),
              run("sample", "9", "--seed", "1"),
              run("goodstein", "add", "3", "4"),
              run("horner", "encode", "99"),
              run("graph", "4"),
              run("cache", "load", {str(cache)!r}),
              run("shortest", "50"),
              run("sieve", "--levels", "5"))
    """)
    loaded, ran = out.splitlines()
    assert loaded == "[]"
    assert ran.split() == ["False"] * 11


def test_shortest_and_sieve_load_no_dataclasses_until_a_caller_does():
    # dataclasses.replace works on the value records once a caller imports it
    out = _fresh("""
        import sys
        from formula_forge import ShortestTable, rational_set, run_sieve

        entry = ShortestTable().entry(50)
        state = run_sieve(3)
        rational_set(run_sieve(2), 2, 2)
        print(all(m not in sys.modules for m in ("dataclasses", "inspect")))
        import dataclasses
        print(dataclasses.replace(entry, size=0).size, dataclasses.replace(state, level=9).level)
    """)
    assert out.split() == ["True", "0", "9"]


def test_growth_loads_no_dataclasses_or_inspect():
    out = _fresh("""
        import contextlib, io, sys
        from formula_forge import constant_estimate, rho_estimate
        from formula_forge.cli import main

        def unloaded():
            return all(m not in sys.modules for m in ("dataclasses", "inspect"))

        def run(*argv):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(list(argv)) == 0, argv
            return unloaded()

        rho_estimate("ame", 20, 5, 53)
        after_rho = unloaded()
        constant_estimate(20, 5, 53)
        print(after_rho, unloaded(),
              run("rho", "--terms", "20", "--precision-bits", "53"),
              run("constant", "--json", "--terms", "20", "--precision-bits", "53"))
    """)
    assert out.split() == ["True"] * 4


def test_tower_commands_load_no_counting():
    out = _fresh("""
        import contextlib, io, sys
        from formula_forge.cli import main

        def run(*argv):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(list(argv)) == 0, argv
            return "formula_forge.counting" in sys.modules

        print(run("goodstein", "mul", "1000003", "999983"),
              run("goodstein", "levels", "2"),
              run("horner", "encode", "99"),
              run("horner", "levels", "3"),
              run("sieve", "--levels", "3", "--integers", "--rationals"),
              run("sieve", "--levels", "2", "--coarse"))
    """)
    assert out.split() == ["False"] * 6


def test_tower_commands_load_no_fractions():
    # Fraction is needed only for Neg exponents, as in sieve --rationals
    out = _fresh("""
        import contextlib, io, sys
        from formula_forge.cli import main

        def run(*argv):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(list(argv)) == 0, argv
            return "fractions" in sys.modules

        print(run("goodstein", "mul", "1000003", "999983"),
              run("horner", "encode", "99"),
              run("sieve", "--levels", "3"),
              run("sieve", "--levels", "3", "--rationals"))
    """)
    assert out.split() == ["False"] * 3 + ["True"]


def test_every_export_is_its_home_object():
    assert sorted(formula_forge.__all__) == sorted(PUBLIC.split())
    for name in formula_forge.__all__:
        value = getattr(formula_forge, name)
        if inspect.ismodule(value):
            assert value is importlib.import_module(f"formula_forge.{name}")
        else:
            home = importlib.import_module(f"formula_forge.{formula_forge._HOME[name]}")
            assert value is getattr(home, name)
    assert set(formula_forge.__all__) <= set(dir(formula_forge))


def test_star_import():
    namespace = {}
    exec("from formula_forge import *", namespace)
    assert set(formula_forge.__all__) <= set(namespace)
    assert namespace["shortest"](6).size == 9
    assert namespace["counting"].count_am(6) == 52


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(formula_forge, "no_such_name")
    assert not hasattr(formula_forge, "cli_helpers")


def test_shortest_stays_the_function_after_its_module_loads():
    out = _fresh("""
        import formula_forge.shortest
        from formula_forge import shortest
        print(shortest(6).size)
    """)
    assert out.strip() == "9"
    out = _fresh("""
        import formula_forge as ff
        ff.ShortestTable
        from formula_forge.shortest import ShortestEntry
        print(ff.shortest(6).size, list(ff.shortest_range(3))[-1].size)
    """)
    assert out.split() == ["9", "5"]


def _import_time_imports(tree):
    """The import statements of a module that run when it is imported:
    every one outside a function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _imports_dataclasses(source):
    for node in _import_time_imports(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [node.module] if node.level == 0 else []
        else:
            names = [alias.name for alias in node.names]
        if any(name.split(".")[0] == "dataclasses" for name in names):
            return True
    return False


def test_no_module_imports_dataclasses_when_it_loads():
    modules = sorted(Path(formula_forge.__file__).parent.glob("*.py"))
    assert {"errors.py", "shortest.py", "sieve.py"} <= {m.name for m in modules}
    assert [m.name for m in modules if _imports_dataclasses(m.read_text())] == []
    # the check sees both forms, at any depth outside a function
    assert _imports_dataclasses("import dataclasses")
    assert _imports_dataclasses("import os, dataclasses as dc")
    assert _imports_dataclasses("from dataclasses import dataclass")
    assert _imports_dataclasses("class A:\n    from dataclasses import field")
    assert _imports_dataclasses("try:\n    import dataclasses\nexcept ImportError:\n    pass")
    assert not _imports_dataclasses("def f():\n    from dataclasses import make_dataclass")
    assert not _imports_dataclasses("from .dataclasses import x\nimport dataclasses_json")
