"""Paired perfbench runs of a base revision against the working tree.

    python3 tools/bench_pairs.py --label NAME --base REV --change TEXT \
        [--traced WORKLOAD=PAIRS] [--claim WORKLOAD:METRIC] \
        cli-mix=10 combinatorics=3 towers=3 growth=3

Run from anywhere inside the repository.  The base revision is exported
with `git archive | tar -x` into a temporary directory (no worktree is
registered, so an interrupted run leaves nothing behind in .git); the
change is the working tree's files as they stand, tracked and untracked
but not ignored, copied into a second one (export_tree).  So both sides
run from fresh copies, and nothing a build, test or earlier run left in
the working tree counts on one side only.  Each WORKLOAD=PAIRS argument
runs that many pairs of

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

one on each side, back to back, for the seeds 90917 (the held-out seed),
1, 2, ...; T is BENCHMARK.json's run_seconds, and the side that runs first
alternates from seed to seed, starting with the base.  The last stdout line
of each run gives its metrics.  --traced WORKLOAD=PAIRS runs that many
pairs the same way with --trace 1 and records every per-layer metric.  The
pairs go to BENCH_<NAME>.json at the top of the working tree, in the
layout of the BENCH_*.json files there: per workload and metric, the median
and inclusive-quartile range of each side, the change's delta per seed and
in the median, how many pairs the change read lower, whether the change's
median is within the metric's BENCHMARK.json bound, and whether the pairs
resolve the metric at that bound (resolved).  With
--claim WORKLOAD:METRIC, "claim" records that end-to-end metric of that
workload's untraced pairs (see claim_record), of which there must be at
least CLAIM_PAIRS (10); without it no gain is claimed ("claim": null).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

HELD_OUT_SEED = 90917
CLAIM_PAIRS = 10  # a claimed gain is judged on at least this many untraced pairs
RUN_TIMEOUT_S = 300  # perfbench stops starting passes at 150 s


def git(*args, cwd):
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True, check=True).stdout


def export_tree(top, dest):
    """Copy the working tree's files into dest: the tracked ones as they
    stand (one deleted from the tree is left out) and the untracked ones
    that .gitignore does not name."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard", cwd=top)
    for name in filter(None, names.decode().split("\0")):
        src, dst = os.path.join(top, name), os.path.join(dest, name)
        if os.path.lexists(src):
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            shutil.copy2(src, dst, follow_symlinks=False)


def run_once(root, workload, seed, seconds, trace):
    """The parsed last stdout line of one perfbench run in root."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload} seed {seed} in {root}: no output\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), 4), "iqr": [round(q1, 4), round(q3, 4)]}


def delta_pct(base, change):
    return round((change - base) / base * 100, 2) if base else None


def within_bound(metric, parent, change):
    """Whether the change's median exceeds the parent's by no more than the
    metric's bound, a fraction of the parent's median; None without a bound.
    Every metric with a bound is an end-to-end one, and lower is better."""
    bound = metric.get("bound")
    return None if bound is None else change - parent <= bound * parent


def resolved(metric, parent, change):
    """Whether the runs can tell the metric at its bound: the parent's
    interquartile width is at most bound times the parent's median, or every
    change run reads lower than every parent run.  Otherwise a median within
    the bound is unresolved, not unchanged.  None without a bound."""
    bound = metric.get("bound")
    if bound is None:
        return None
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    return q3 - q1 <= bound * statistics.median(parent) or max(change) < min(parent)


def workload_record(runs, seeds, first_side, metrics):
    """runs maps (side, seed) to a run's last line; side is parent or change."""
    out = {
        "pairs": len(seeds),
        "seeds": seeds,
        "first_side": first_side,
        "correct": {side: all(runs[side, s]["correct"] for s in seeds)
                    for side in ("parent", "change")},
        "failed_ops": {side: [sum(runs[side, s]["failed"] for s in seeds),
                              sum(runs[side, s]["attempted"] for s in seeds)]
                       for side in ("parent", "change")},
        "metrics": {},
    }
    for m in metrics:
        value = {(side, s): runs[side, s]["metrics"][m["name"]]["value"]
                 for side in ("parent", "change") for s in seeds}
        parent = [value["parent", s] for s in seeds]
        change = [value["change", s] for s in seeds]
        record = {
            "unit": m["unit"],
            "bound": m.get("bound"),
            "within_bound": within_bound(m, statistics.median(parent),
                                         statistics.median(change)),
            "resolved": resolved(m, parent, change),
            "parent": summary(parent),
            "change": summary(change),
            "median_delta_pct": delta_pct(statistics.median(parent), statistics.median(change)),
            "pairs_change_lower": sum(c < p for p, c in zip(parent, change)),
            "pair_delta_pct": {str(s): delta_pct(value["parent", s], value["change", s])
                               for s in seeds},
        }
        if HELD_OUT_SEED in seeds:
            record[f"seed_{HELD_OUT_SEED}"] = [round(value[side, HELD_OUT_SEED], 4)
                                              for side in ("parent", "change")]
        out["metrics"][m["name"]] = record
    return out


def claim_record(workloads, workload, metric):
    """The claimed gain, read from the workload's record of the pairs: the
    metric's pairs with the change lower, its median delta and the parent's
    interquartile range, against which the delta is judged."""
    m = workloads[workload]["metrics"][metric]
    return {
        "workload": workload,
        "metric": metric,
        "pairs": workloads[workload]["pairs"],
        "pairs_change_lower": m["pairs_change_lower"],
        "median_delta_pct": m["median_delta_pct"],
        "parent_median": m["parent"]["median"],
        "change_median": m["change"]["median"],
        "parent_iqr": m["parent"]["iqr"],
    }


def parse_pairs(text):
    workload, _, pairs = text.partition("=")
    if not pairs.isdigit() or int(pairs) < 2:  # quartiles need two runs a side
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=PAIRS, PAIRS >= 2, got {text!r}")
    return workload, int(pairs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--base", default="HEAD", help="base revision (default HEAD)")
    ap.add_argument("--change", required=True, help="what the change does, one line")
    ap.add_argument("--traced", type=parse_pairs, metavar="WORKLOAD=PAIRS",
                    help="also run traced pairs and record the per-layer metrics")
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC",
                    help="record the gain claimed on this end-to-end metric")
    ap.add_argument("pairs", nargs="+", type=parse_pairs, metavar="WORKLOAD=PAIRS")
    args = ap.parse_args(argv)
    claim = args.claim and args.claim.partition(":")[::2]
    requested = dict(args.pairs)
    if claim and claim[0] not in requested:
        ap.error(f"--claim workload {claim[0]!r} is not among the pairs")
    if claim and requested[claim[0]] < CLAIM_PAIRS:
        ap.error(f"--claim needs at least {CLAIM_PAIRS} pairs of {claim[0]!r}, "
                 f"not {requested[claim[0]]}")

    top = git("rev-parse", "--show-toplevel", cwd=os.getcwd()).decode().strip()
    base_sha = git("rev-parse", args.base, cwd=top).decode().strip()
    with open(os.path.join(top, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    names = [w["name"] for w in benchmark["workloads"]]
    for workload, _ in args.pairs + ([args.traced] if args.traced else []):
        if workload not in names:
            ap.error(f"unknown workload {workload!r}; one of {names}")
    if claim and claim[1] not in [m["name"] for m in benchmark["end_to_end"]]:
        ap.error(f"--claim metric {claim[1]!r} is not an end-to-end metric")
    seconds = benchmark["run_seconds"]

    record = {
        "label": args.label,
        "change": args.change,
        "parent": base_sha,
        "claim": None,
        "machine": f"{os.cpu_count()}-CPU {platform.system()} host, Python "
                   f"{platform.python_version()}; times are perfbench's calibrated values",
        "method": (
            f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
            "--trace 0 (--trace 1 under \"traced\"), run from an export of the parent "
            "(git archive) and from a copy of the change's working-tree files (tracked "
            "and untracked but not ignored), each in its own temporary directory; for "
            "each seed one parent run and one change run, back to back, the side that "
            "runs first alternating from seed to seed "
            "(first_side); the last stdout line of each run gives the metrics. Medians and "
            "interquartile ranges (inclusive quartiles) are over the pairs of a workload; "
            "pair_delta_pct is (change - parent) / parent per seed; pairs_change_lower "
            "counts pairs where the change read lower; failed_ops is [failed, attempted] "
            "summed over the runs of a side; within_bound is whether the change's median "
            "is worse than the parent's by at most bound times the parent's median; "
            "resolved is whether the parent's interquartile width is at most bound times "
            "its median, or every change run read lower than every parent run. "
            "Written by tools/bench_pairs.py."),
        "workloads": {},
    }

    # prefixes of one length: the same tree's combinatorics peak_rss_mb read
    # about 0.2 MB higher from a directory path two characters longer
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as base_root, \
            tempfile.TemporaryDirectory(prefix="bench-change-") as change_root:
        archive = subprocess.Popen(["git", "archive", "--format=tar", base_sha],
                                   cwd=top, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", base_root], stdin=archive.stdout, check=True)
        archive.stdout.close()
        if archive.wait():
            raise SystemExit(f"git archive {base_sha} failed")
        export_tree(top, change_root)
        roots = {"parent": base_root, "change": change_root}

        def pairs_record(workload, pairs, trace):
            seeds = [HELD_OUT_SEED, *range(1, pairs)]
            runs, first_side = {}, {}
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                first_side[str(seed)] = order[0]
                for side in order:
                    runs[side, seed] = run_once(roots[side], workload, seed, seconds, trace)
                    print(f"{workload} seed {seed} {side} trace {trace}: "
                          f"{json.dumps(runs[side, seed]['metrics'])}", file=sys.stderr)
            metrics = benchmark["per_layer" if trace else "end_to_end"]
            return workload_record(runs, seeds, first_side, metrics)

        for workload, pairs in args.pairs:
            record["workloads"][workload] = pairs_record(workload, pairs, 0)
        if args.traced:
            workload, pairs = args.traced
            record["traced"] = {workload: pairs_record(workload, pairs, 1)}
    if claim:
        record["claim"] = claim_record(record["workloads"], *claim)

    path = os.path.join(top, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
