"""The four workloads: a seeded operation list, how each operation runs and
is checked, and the per-layer metrics of a traced pass.

A workload object lives for one pass in one fresh interpreter.  The seed
only shapes the generated inputs; sizes are drawn from narrow strata so
that every seed asks for about the same amount of work.
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile

import oracles


def strata(rng: random.Random, lo: int, hi: int, k: int) -> list:
    """k integers, one from each of k equal-width bins of [lo, hi], shuffled."""
    width = (hi - lo + 1) / k
    out = [rng.randint(lo + int(i * width), lo + int((i + 1) * width) - 1) for i in range(k)]
    rng.shuffle(out)
    return out


def near(rng: random.Random, center: int, spread: int) -> int:
    return center + rng.randint(-spread, spread)


def interleave(ops: list) -> list:
    """Round-robin over the operation kinds, in order of first appearance.

    The order is the same for every seed: where an operation falls decides
    which memory it reuses and when the collector runs, and a seeded order
    turns that into run-to-run spread."""
    groups = {}
    for op in ops:
        groups.setdefault(op[0], []).append(op)
    out = []
    while groups:
        for kind in list(groups):
            out.append(groups[kind].pop(0))
            if not groups[kind]:
                del groups[kind]
    return out


def child_env(root: str, cache_path: str | None = None) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
    env.pop("FORMULA_FORGE_CACHE", None)
    if cache_path:
        env["FORMULA_FORGE_CACHE"] = cache_path
    return env


class Workload:
    name = ""

    def __init__(self, seed: int, tracer, root: str, workdir: str):
        self.tr = tracer
        self.root = root
        self.workdir = workdir
        self.ops = self.plan(random.Random(f"{self.name}:{seed}"))

    def plan(self, rng) -> list:
        raise NotImplementedError

    def setup(self):
        """Everything a fresh interpreter does before the first operation."""
        import formula_forge

        self.ff = formula_forge

    def prepare_checks(self):
        """Reference tables for the checks; runs after set-up, untimed."""

    def instrument(self):
        """Traced passes only: route package-internal calls through spans."""

    def run(self, op):
        return getattr(self, "run_" + op[0])(*op[1:])

    def check(self, op, result) -> str | None:
        return getattr(self, "check_" + op[0])(*op[1:], result)

    def may_raise(self, op, exc) -> bool:
        """Whether op raising exc is a known failure of the code under test
        rather than a defect: it still counts as failed, but the run stays
        correct.  Any other exception makes the run incorrect."""
        return False

    def after_ops(self):
        """Traced passes only: extra measurements once the operations end."""

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def layers(self) -> dict:
        return {}

    # helpers for layer metrics ------------------------------------------

    def _rate(self, name):
        calls, items, secs = self.tr.totals().get(name, (0, 0, 0.0))
        return items / secs if secs else 0.0

    def _secs(self, name):
        return self.tr.totals().get(name, (0, 0, 0.0))[2]

    def _per_item_us(self, name):
        calls, items, secs = self.tr.totals().get(name, (0, 0, 0.0))
        return secs / items * 1e6 if items else 0.0

    def _median_ms(self, name):
        d = [end - start for n, start, end, _i in self.tr.spans if n == name]
        return statistics.median(d) * 1e3 if d else 0.0


# -- cli-mix ----------------------------------------------------------------

class CliMix(Workload):
    name = "cli-mix"
    SUBCOMMANDS = ("count", "list", "sample", "shortest", "goodstein",
                   "horner", "sieve", "graph", "cache")
    CACHE_WARM = 300

    def plan(self, rng):
        self.cache_path = os.path.join(self.workdir, "counts.json")
        ops = []
        fams = ["a", "lop", "am", "ame"]
        rng.shuffle(fams)
        for fam, n in zip(fams, strata(rng, 6, self.CACHE_WARM, 4)):
            ops.append(("count", fam, n))
        for i, (n, limit) in enumerate(zip(strata(rng, 6, 9, 4), strata(rng, 50, 500, 4))):
            notation = ("prefix", "postfix", "brackets", "prefix")[i]
            ops.append(("list", ("am", "ame")[i % 2], n, limit, notation))
        for fam, n in zip(fams, strata(rng, 10, 60, 4)):
            ops.append(("sample", fam, n, rng.getrandbits(32)))
        ops += [("shortest", n) for n in strata(rng, 100, 1000, 4)]
        ops += [
            ("goodstein", "add", rng.randint(1, 10**6), rng.randint(1, 10**6)),
            ("goodstein", "mul", rng.randint(1, 10**6), rng.randint(1, 10**6)),
            ("goodstein", "pow", rng.randint(2, 12), rng.randint(2, 12)),
            ("goodstein", "encode", rng.randint(1, 10**6), None),
        ]
        ops += [("horner", rng.getrandbits(64) | 1 << 63) for _ in range(4)]
        ops += [("sieve", levels) for levels in strata(rng, 3, 7, 4)]
        ops += [("graph", n) for n in strata(rng, 4, 7, 4)]
        ops += [("cache",)] * 4
        rng.shuffle(ops)
        use_cache = [True, False] * (len(ops) // 2)
        rng.shuffle(use_cache)
        return [op + (uc,) for op, uc in zip(ops, use_cache)]

    def setup(self):
        self.cli = [sys.executable, "-m", "formula_forge.cli"]
        self.env = child_env(self.root)
        self.env_cached = child_env(self.root, self.cache_path)
        # the children write here; reused, so no operation creates a file
        self.out = tempfile.TemporaryFile("w+", dir=self.workdir)
        self.err = tempfile.TemporaryFile("w+", dir=self.workdir)
        self.peak_kb = 0
        out, _ = self._cli(["cache", "save", self.cache_path, "--warm", str(self.CACHE_WARM)],
                           False)
        if json.loads(out)["saved"] != 7 * self.CACHE_WARM:  # 7 (family, root) columns
            raise RuntimeError(f"cache save wrote {out.strip()}")

    def prepare_checks(self):
        self.counts = oracles.CountOracle(self.CACHE_WARM)

    def _cli(self, args, use_cache):
        """Run one CLI child to its end; return its stdout and its own peak
        RSS in KiB.  A child that hangs is killed with the whole pass."""
        for f in (self.out, self.err):
            f.seek(0)
            f.truncate()
        proc = subprocess.Popen(self.cli + args, env=self.env_cached if use_cache else self.env,
                                cwd=self.root, stdout=self.out, stderr=self.err)
        # wait4 gives this child's own usage; RUSAGE_CHILDREN would pool it
        # with every child waited for before, the set-up child included
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        for f in (self.out, self.err):
            f.seek(0)
        if proc.returncode != 0:
            raise RuntimeError(f"{args[0]} exited {proc.returncode}: "
                               f"{self.err.read().strip()[-300:]}")
        return self.out.read(), usage.ru_maxrss

    def run(self, op):
        sub, use_cache = op[0], op[-1]
        with self.tr.span("cli." + sub):
            out, rss_kb = self._cli(self._args(op), use_cache)
        self.peak_kb = max(self.peak_kb, rss_kb)
        return out

    def _args(self, op):
        sub = op[0]
        if sub == "count":
            fam, n = op[1:3]
            gates = ["--gates", "a", "--lop"] if fam == "lop" else ["--gates", fam]
            return ["count", str(n)] + gates
        if sub == "list":
            fam, n, limit, notation = op[1:5]
            return ["list", str(n), "--gates", fam, "--limit", str(limit), "--notation", notation]
        if sub == "sample":
            fam, n, seed = op[1:4]
            gates = ["--gates", "a", "--lop"] if fam == "lop" else ["--gates", fam]
            return ["sample", str(n), *gates, "--count", "10", "--seed", str(seed),
                    "--notation", "prefix"]
        if sub == "shortest":
            return ["shortest", str(op[1])]
        if sub == "goodstein":
            mode, a, b = op[1:4]
            return ["goodstein", mode, str(a)] + ([] if b is None else [str(b)])
        if sub == "horner":
            return ["horner", "encode", str(op[1])]
        if sub == "sieve":
            return ["sieve", "--levels", str(op[1])]
        if sub == "graph":
            return ["graph", str(op[1])]
        return ["cache", "load", self.cache_path]

    def check(self, op, out):
        sub = op[0]
        lines = out.splitlines()
        if sub in ("list", "sample"):
            return self._check_trees(op, lines)
        obj = json.loads(lines[-1]) if lines else {}
        if sub == "count":
            fam, n = op[1:3]
            total = int(obj["total"])
            if "by_root" in obj and sum(int(v) for v in obj["by_root"].values()) != total:
                return f"count {n}: by_root does not add up to total"
            return self.counts.check(fam, n, total)
        if sub == "shortest":
            n = op[1]
            t = oracles.parse_prefix(obj["witness"])
            if oracles.tree_size(t) != obj["size"]:
                return f"shortest {n}: witness size is not {obj['size']}"
            if oracles.PINNED_SHORTEST.get(n, obj["size"]) != obj["size"]:
                return f"shortest {n}: size {obj['size']} is not minimal"
            return oracles.check_tree(t, n, "ame")
        if sub == "goodstein":
            mode, a, b = op[1:4]
            want = {"add": lambda: a + b, "mul": lambda: a * b,
                    "pow": lambda: a**b, "encode": lambda: a}[mode]()
            return self._check_value_text(obj, want)
        if sub == "horner":
            return self._check_value_text(obj, op[1])
        if sub == "sieve":
            covers = 2 ** (op[1] + 2)
            primes = [int(p["value"]) for p in obj["primes"]]
            if int(obj["covers"]) != covers or primes != oracles.primes_upto(covers):
                return f"sieve {op[1]}: primes differ from the boolean sieve"
            for p in obj["primes"]:
                if oracles.infix_value(p["text"]) != int(p["value"]):
                    return f"sieve {op[1]}: text {p['text']!r} is not {p['value']}"
            return None
        if sub == "graph":
            n = op[1]
            if obj["vertices"] != self.counts.expected_mod("ame", n):
                return f"graph {n}: {obj['vertices']} vertices"
            degrees = sum(int(d) * c for d, c in obj["degree_histogram"].items())
            if degrees != 2 * obj["edges"] or obj["components"] < 1:
                return f"graph {n}: inconsistent edge statistics"
            return None
        with open(self.cache_path) as fh:
            rows = len(json.load(fh)["entries"])
        return None if obj["loaded"] == rows else f"cache load: {obj['loaded']} rows of {rows}"

    def _check_trees(self, op, lines):
        sub, fam, n = op[0], op[1], op[2]
        total = self.counts.expected_mod(fam, n)
        want = min(total, op[3]) if sub == "list" else 10
        if len(lines) != want:
            return f"{sub} {n}: {len(lines)} lines, expected {want}"
        notation = op[4] if sub == "list" else "prefix"
        trees = []
        for line in lines:
            if notation == "brackets":
                t = oracles.from_nested(json.loads(line))
            else:
                t = oracles.parse_prefix(line if notation == "prefix" else line[::-1])
            msg = oracles.check_tree(t, n, fam)
            if msg:
                return f"{sub}: {msg}"
            trees.append(t)
        if sub == "list" and len(set(trees)) != len(trees):
            return f"list {n}: repeated trees"
        return None

    @staticmethod
    def _check_value_text(obj, want):
        if int(obj["value"]) != want or oracles.infix_value(obj["text"]) != want:
            return f"expected {want}, got {obj['value']} / {obj['text']!r}"
        return None

    def after_ops(self):
        for _ in range(5):
            with self.tr.span("cli.startup"):
                subprocess.run([sys.executable, "-c", "pass"], env=self.env, check=True)
            with self.tr.span("cli.import"):
                subprocess.run([sys.executable, "-c", "import formula_forge"], env=self.env,
                               check=True)
        from formula_forge import CountTable, load_table, save_table

        copy = os.path.join(self.workdir, "copy.json")
        for _ in range(5):
            table = CountTable()
            with self.tr.span("cache.load"):
                self.cache_rows = load_table(self.cache_path, table)
            with self.tr.span("cache.save"):
                save_table(copy, table)
        self.cache_bytes = os.path.getsize(self.cache_path)

    def peak_rss_kb(self):
        """The largest operation child; set-up and traced extras are not operations."""
        return self.peak_kb

    def layers(self):
        out = {
            "cli.startup_ms": self._median_ms("cli.startup"),
            "cli.import_ms": self._median_ms("cli.import"),
        }
        for sub in self.SUBCOMMANDS:
            out[f"cli.{sub}_p50_ms"] = self._median_ms("cli." + sub)
        out["cache.load_ms"] = self._median_ms("cache.load")
        out["cache.save_ms"] = self._median_ms("cache.save")
        out["cache.rows"] = self.cache_rows
        out["cache.bytes"] = self.cache_bytes
        return out


# -- combinatorics ----------------------------------------------------------

class Combinatorics(Workload):
    name = "combinatorics"
    WARM = 400  # default count table filled in set-up; lookups stay below
    SHORTEST_WARM = 1000

    def plan(self, rng):
        ops = []
        for fam in ("a", "lop", "am", "ame"):
            ops += [("fill", fam, near(rng, c, 5)) for c in (320, 520, 720)]
        for _ in range(16):
            keys = []
            for _ in range(500):
                fam = rng.choice(("am", "ame"))
                root = rng.choice(("all", "+", "*") + (("^",) if fam == "ame" else ()))
                keys.append((fam, rng.randint(1, self.WARM), root))
            ops.append(("lookup", keys))
        # five equal streams make the p90 operation one of them, not
        # whichever of several unlike operations happens to land there
        ops += [("stream", "am", 11), ("stream", "ame", 9)] + [("stream", "ame", 10)] * 5
        # every sample batch covers all sizes, so the batches of a family
        # cost the same; there are enough am batches that the median
        # operation sits near the middle of them
        ops += [("sample", "am", rng.getrandbits(32)) for _ in range(30)]
        ops += [("sample", "ame", rng.getrandbits(32)) for _ in range(6)]
        ops += [("shortest_fill", near(rng, 1500, 20)), ("shortest_fill", near(rng, 3000, 20))]
        for i in range(4):
            ns = [rng.randint(1, self.SHORTEST_WARM) for _ in range(250)]
            if i == 0:
                ns[0] = 1000
            ops.append(("shortest_lookup", ns))
        ops += [("graph", n) for n in (6, 7, 8, 9)]
        return interleave(ops)

    def setup(self):
        super().setup()
        ff = self.ff
        for count in (ff.count_add_only, ff.count_add_lop, ff.count_am, ff.count_ame):
            count(self.WARM)
        ff.shortest(self.SHORTEST_WARM)

    def prepare_checks(self):
        self.counts = oracles.CountOracle(max(op[2] for op in self.ops if op[0] == "fill"))

    def _count_fn(self, fam):
        ff = self.ff
        return {"a": ff.count_add_only, "lop": ff.count_add_lop,
                "am": ff.count_am, "ame": ff.count_ame}[fam]

    def run_fill(self, fam, n):
        table = self.ff.CountTable()
        with self.tr.span("counting.fill"):
            value = self._count_fn(fam)(n, table=table)
        return value, table

    def check_fill(self, fam, n, result):
        value, table = result
        if self.tr.enabled:
            self.tr.add("counting.rows_filled", len(table.entries()))
        for (pf, pn), pv in oracles.PINNED_COUNTS.items():
            if pf == fam and self._count_fn(fam)(pn, table=table) != pv:
                return f"fill {fam}: count({pn}) is not {pv}"
        return self.counts.check(fam, n, value)

    def run_lookup(self, keys):
        am, ame = self.ff.count_am, self.ff.count_ame
        with self.tr.span("counting.lookup", len(keys)):
            return [(am if fam == "am" else ame)(n, root) for fam, n, root in keys]

    def check_lookup(self, keys, values):
        for (fam, n, root), v in zip(keys, values):
            msg = self.counts.check(fam, n, v, root)
            if msg:
                return msg
        return None

    def run_stream(self, fam, n):
        ff, tr = self.ff, self.tr
        gen = ff.enumerate_am if fam == "am" else ff.enumerate_ame
        with tr.span("enumeration.stream") as s:
            trees = list(gen(n))
            s.items = len(trees)
        with tr.span("trees.prefix", len(trees)):
            texts = [ff.to_prefix(t) for t in trees]
        with tr.span("trees.parse", len(trees)):
            parsed = [ff.parse_prefix(p) for p in texts]
        with tr.span("trees.evaluate", len(trees)):
            values = [ff.evaluate(t) for t in parsed]
        return trees, texts, parsed, values

    def check_stream(self, fam, n, result):
        trees, texts, parsed, values = result
        if len(trees) != self.counts.expected_mod(fam, n) or len(set(trees)) != len(trees):
            return f"stream {fam}({n}): {len(trees)} trees or repeats"
        if parsed != trees or any(v != n for v in values):
            return f"stream {fam}({n}): round trip or evaluate disagrees"
        for t, text in zip(trees, texts):
            msg = oracles.check_tree(t, n, fam)
            if msg or oracles.parse_prefix(text) != t:
                return f"stream {fam}({n}): {msg or 'bad prefix ' + text}"
        return None

    SAMPLE_SIZES = (20, 45, 70, 95, 120) * 4

    def run_sample(self, fam, seed):
        fn = self.ff.sample_am if fam == "am" else self.ff.sample_ame
        rng = random.Random(seed)
        with self.tr.span("sampling.sample", len(self.SAMPLE_SIZES)):
            return [fn(n, rng) for n in self.SAMPLE_SIZES]

    def check_sample(self, fam, seed, trees):
        for n, t in zip(self.SAMPLE_SIZES, trees):
            msg = oracles.check_tree(t, n, fam)
            if msg:
                return f"sample: {msg}"
        return None

    def run_shortest_fill(self, n):
        table = self.ff.ShortestTable()
        with self.tr.span("shortest.fill"):
            return table.entry(n)

    def check_shortest_fill(self, n, entry):
        return self._check_entry(n, entry)

    def run_shortest_lookup(self, ns):
        shortest = self.ff.shortest
        with self.tr.span("shortest.lookup", len(ns)):
            return [shortest(n) for n in ns]

    def check_shortest_lookup(self, ns, entries):
        for n, e in zip(ns, entries):
            msg = self._check_entry(n, e)
            if msg:
                return msg
        return None

    @staticmethod
    def _check_entry(n, entry):
        if entry.n != n or oracles.tree_size(entry.witness) != entry.size:
            return f"shortest {n}: entry {entry.n} or witness size is wrong"
        if oracles.PINNED_SHORTEST.get(n, entry.size) != entry.size:
            return f"shortest {n}: size {entry.size} is not minimal"
        return oracles.check_tree(entry.witness, n, "ame")

    def run_graph(self, n):
        with self.tr.span("graph.build"):
            return self.ff.build_graph(n)

    def check_graph(self, n, g):
        if self.tr.enabled:
            self.tr.add("graph.vertices", len(g.vertices))
            self.tr.add("graph.edges", g.edge_count)
        vset = set(g.vertices)
        if len(vset) != self.counts.expected_mod("ame", n):
            return f"graph {n}: {len(vset)} vertices"
        degrees = 0
        for v in g.vertices:
            msg = oracles.check_tree(v, n, "ame")
            if msg:
                return f"graph {n}: {msg}"
            for u in g.adjacency[v]:
                if u not in vset or v not in g.adjacency[u]:
                    return f"graph {n}: adjacency is not symmetric"
            degrees += len(g.adjacency[v])
        return None if degrees == 2 * g.edge_count else f"graph {n}: edge count"

    def layers(self):
        return {
            "counting.fill_s": self._secs("counting.fill"),
            "counting.rows_filled": self.tr.counters.get("counting.rows_filled", 0),
            "counting.lookup_us": self._per_item_us("counting.lookup"),
            "enumeration.trees_per_s": self._rate("enumeration.stream"),
            "trees.prefix_per_s": self._rate("trees.prefix"),
            "trees.parse_per_s": self._rate("trees.parse"),
            "trees.evaluate_per_s": self._rate("trees.evaluate"),
            "sampling.samples_per_s": self._rate("sampling.sample"),
            "shortest.fill_s": self._secs("shortest.fill"),
            "shortest.lookup_us": self._per_item_us("shortest.lookup"),
            "graph.build_s": self._secs("graph.build"),
            "graph.vertices": self.tr.counters.get("graph.vertices", 0),
            "graph.edges": self.tr.counters.get("graph.edges", 0),
        }


# -- towers -----------------------------------------------------------------

class Towers(Workload):
    name = "towers"
    SIEVE_LEVELS = (9, 10, 11, 12, 13)

    def plan(self, rng):
        # a fixed order of kinds: sym_value's cache keeps every node it has
        # seen, so peak RSS would otherwise depend on where the sieves fall;
        # five pairs to an operation, so that an operation lasts long enough
        # for the speed samples to follow it; about as many operations cost
        # less than a pair operation (pow, single 64-bit Horner) as more
        # (ranges, batched 64-bit Horner, sieves), so the median is a pair
        # operation near the middle of them; the ranges cost alike, so the
        # tail operation is one of them
        ops = [("pairs", [(rng.randint(1, 10**6), rng.randint(1, 10**6)) for _ in range(5)])
               for _ in range(30)]
        ops += [("pow", rng.randint(2, 12), rng.randint(2, 12)) for _ in range(6)]
        starts = sorted(strata(rng, 10_000, 19_800, 10))
        ops += [("horner", list(range(s, s + 200))) for s in starts]
        big = [rng.getrandbits(64) | 1 << 63 for _ in range(50)]
        ops += [("horner", [n]) for n in big[:20]]
        ops += [("horner", big[k:k + 5]) for k in range(20, 50, 5)]
        ops += [("sieve", levels) for levels in self.SIEVE_LEVELS]
        return ops

    def prepare_checks(self):
        self.info0 = self.ff.sym_value.cache_info()

    def _sym(self):
        """A fresh oracle per check: it memoizes by node identity."""
        return oracles.SymValue(self.ff.ONE, self.ff.X)

    def instrument(self):
        import formula_forge.sieve as sieve_module

        self.tr.wrap(sieve_module, "zeta_step", "sieve.step")

    def run_pairs(self, pairs):
        ff, tr = self.ff, self.tr
        with tr.span("canonical.encode", 2 * len(pairs)):
            forms = [(ff.encode_goodstein(a), ff.encode_goodstein(b)) for a, b in pairs]
        with tr.span("canonical.g_add", len(pairs)):
            sums = [ff.g_add(fa, fb) for fa, fb in forms]
        with tr.span("canonical.g_mul", len(pairs)):
            products = [ff.g_mul(fa, fb) for fa, fb in forms]
        return forms, sums, products

    def check_pairs(self, pairs, result):
        for (a, b), (fa, fb), s, p in zip(pairs, *result):
            for form, want in zip((fa, fb, s, p), (a, b, a + b, a * b)):
                msg = oracles.check_form(form, want)
                if msg:
                    return f"pair ({a}, {b}): {msg}"
        return None

    def run_pow(self, a, b):
        ff = self.ff
        fa, fb = ff.encode_goodstein(a), ff.encode_goodstein(b)
        with self.tr.span("canonical.g_pow"):
            return ff.g_pow(fa, fb)

    def check_pow(self, a, b, form):
        return oracles.check_form(form, a**b)

    def _render_values(self, exprs):
        ff, tr = self.ff, self.tr
        with tr.span("symexpr.render", len(exprs)):
            texts = [ff.render(e) for e in exprs]
        with tr.span("symexpr.value", len(exprs)):
            values = [ff.sym_value(e) for e in exprs]
        return texts, values

    def run_horner(self, ns):
        with self.tr.span("canonical.horner", len(ns)):
            exprs = [self.ff.encode_horner(n) for n in ns]
        return (exprs, *self._render_values(exprs))

    def check_horner(self, ns, result):
        sym = self._sym()
        for n, e, text, value in zip(ns, *result):
            if value != n or sym(e) != n or oracles.infix_value(text) != n:
                return f"horner {n}: value {value}, text {text!r}"
        return None

    def run_sieve(self, levels):
        with self.tr.span("sieve.run") as s:
            state = self.ff.run_sieve(levels)
            s.items = state.covers
        return (state, *self._render_values(state.primes))

    def check_sieve(self, levels, result):
        state, texts, values = result
        if self.tr.enabled:
            self.tr.add("sieve.primes", len(state.primes))
        covers = 2 ** (levels + 2)
        sym = self._sym()
        if state.covers != covers:
            return f"sieve {levels}: covers {state.covers}"
        if any(sym(e) != v for v, e in enumerate(state.integers, 1)):
            return f"sieve {levels}: an integer encoding has the wrong value"
        primes = oracles.primes_upto(covers)
        if values != primes or [sym(p) for p in state.primes] != primes:
            return f"sieve {levels}: primes differ from the boolean sieve"
        if any(oracles.infix_value(t) != v for t, v in zip(texts, values)):
            return f"sieve {levels}: a rendered prime has the wrong value"
        return None

    def layers(self):
        info = self.ff.sym_value.cache_info()
        return {
            "symexpr.render_per_s": self._rate("symexpr.render"),
            "symexpr.value_cache_hits": info.hits - self.info0.hits,
            "symexpr.value_cache_misses": info.misses - self.info0.misses,
            "canonical.encode_per_s": self._rate("canonical.encode"),
            "canonical.g_add_per_s": self._rate("canonical.g_add"),
            "canonical.g_mul_per_s": self._rate("canonical.g_mul"),
            "canonical.g_pow_s": self._secs("canonical.g_pow"),
            "canonical.horner_per_s": self._rate("canonical.horner"),
            "sieve.step_s": self._secs("sieve.step"),
            "sieve.values_per_s": self._rate("sieve.run"),
            "sieve.primes": self.tr.counters.get("sieve.primes", 0),
        }


# -- growth -----------------------------------------------------------------

class Growth(Workload):
    name = "growth"
    # (estimate, terms, precision_bits): 13 of the 27 cells of
    # {am, ame, constant} x {60, 100, 150} x {100, 200, 300}, chosen so that a
    # pass takes about 22 s (the whole grid takes about 76 s); every
    # estimate runs at all three precisions and at two or three term
    # counts, terms 150 for am (converges) and ame (does not); an odd count
    # puts the median on one operation
    GRID = (
        ("am", 60, 100), ("am", 60, 200), ("am", 60, 300), ("am", 100, 100), ("am", 150, 100),
        ("ame", 60, 100), ("ame", 60, 200),
        ("ame", 60, 300), ("ame", 100, 300), ("ame", 150, 300),
        ("constant", 60, 200), ("constant", 60, 300), ("constant", 100, 100),
    )
    ITERATIONS = 20

    def plan(self, rng):
        ops = [("estimate",) + cell for cell in self.GRID]
        rng.shuffle(ops)
        return ops

    def run_estimate(self, what, terms, bits):
        ff, tr = self.ff, self.tr
        try:
            if what == "constant":
                with tr.span("asymptotics.constant"):
                    return ff.constant_estimate(terms, self.ITERATIONS, bits)
            with tr.span("asymptotics.rho"):
                return ff.rho_estimate(what, terms, self.ITERATIONS, bits)
        except ff.NonConvergence:
            if tr.enabled:
                tr.add("asymptotics.nonconvergence", 1)
            raise

    def may_raise(self, op, exc):
        # every rho('ame') at 300 bits runs out of its 64 extra iterations at
        # the code this benchmark was written against (256 bits converges)
        _, what, _terms, bits = op
        return isinstance(exc, self.ff.NonConvergence) and what == "ame" and bits == 300

    def check_estimate(self, what, terms, bits, est):
        if what == "constant":
            return (oracles.check_close(est.rho, oracles.RHO["am"], "rho")
                    or oracles.check_close(est.constant, oracles.CONSTANT, "C"))
        if self.tr.enabled:
            self.tr.add("asymptotics.extra_iterations", est.extra_iterations)
        return oracles.check_close(est.rho, oracles.RHO[what], f"rho_{what}")

    def layers(self):
        return {
            "asymptotics.rho_s": self._secs("asymptotics.rho"),
            "asymptotics.constant_s": self._secs("asymptotics.constant"),
            "asymptotics.extra_iterations": self.tr.counters.get("asymptotics.extra_iterations", 0),
            "asymptotics.nonconvergence": self.tr.counters.get("asymptotics.nonconvergence", 0),
        }


WORKLOADS = {w.name: w for w in (CliMix, Combinatorics, Towers, Growth)}
