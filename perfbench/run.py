"""formula-forge benchmark: seeded closed-loop workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is one of cli-mix, combinatorics,
towers, growth (see layers.json for why each exists).  One client runs the
seeded operation list, the next operation only after the previous one
completes.  Every pass runs in a fresh interpreter, because the package's
process-wide memo tables would otherwise turn later passes into warm-cache
runs; passes repeat while another fits in S seconds (at least two).

With --trace 0 the last stdout line holds the end-to-end metrics (medians
over passes, tracing off, times scaled to a reference machine speed by
samples from calibrate.py, which runs beside the passes).  With --trace 1
it holds the per-layer metrics: each comes from a traced pass of the
workload layers.json ties it to, and trace.overhead_pct compares traced and
untraced passes of NAME.  Names and units come from BENCHMARK.json.  The
line before it records the Python version, CPU count, source revision,
seed, bare interpreter start-up before and after, raw wall time and
slowdown, and the failure ratio.  The run is correct when no output is
wrong and nothing raised except the known failures a workload declares.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calibrate import CAL_REF_S  # noqa: E402
from workloads import WORKLOADS, child_env  # noqa: E402

HARD_LIMIT_S = 150  # stop starting passes so the run ends well inside 180 s
MIN_PASSES = 2
MIN_SETUPS = 7  # set-ups per run, the passes' own included
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
WINDOW_S = 0.1  # calibration samples this close to an operation scale it


class BenchError(Exception):
    pass


def percentile(xs, q):
    """Linear interpolation between closest ranks."""
    s = sorted(xs)
    k = (len(s) - 1) * q / 100
    f = math.floor(k)
    c = min(f + 1, len(s) - 1)
    return s[f] + (s[c] - s[f]) * (k - f)


def tail_percentile(n):
    """Highest ladder percentile with at least 10 of n operations beyond it."""
    return next((q for q in TAIL_LADDER if n * (1 - q / 100) >= 10), TAIL_LADDER[-1])


def failed_ops_ratio(passes):
    attempted = sum(len(p["times"]) for p in passes)
    failed = sum(p["raised"] + p["wrong"] for p in passes)
    return attempted, failed, failed / attempted if attempted else 1.0


def all_correct(passes):
    """No wrong output, and nothing raised that its workload does not
    declare as a known failure (see Workload.may_raise)."""
    return all(p["wrong"] == 0 and p["unexpected"] == 0 for p in passes)


class Calibrator:
    """calibrate.py, running beside the passes for the whole run."""

    def __init__(self, path):
        self.path = path
        self.pos = 0
        self.mid, self.secs = [], []
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "calibrate.py"), path],
                                     stdout=subprocess.DEVNULL, start_new_session=True)

    def _read(self):
        with open(self.path) as fh:
            fh.seek(self.pos)
            text = fh.read()
        text = text[:text.rfind("\n") + 1]  # complete lines only
        self.pos += len(text)
        for line in text.splitlines():
            mid, secs = map(float, line.split())
            self.mid.append(mid)
            self.secs.append(secs)

    def wait_past(self, t):
        """Read samples until one was taken after t."""
        give_up = time.monotonic() + 5
        while True:
            if os.path.exists(self.path):
                self._read()
            if self.mid and self.mid[-1] > t:
                return
            if self.proc.poll() is not None or time.monotonic() > give_up:
                raise BenchError("the calibration process gives no samples")
            time.sleep(0.01)

    def speed(self, t0, t1):
        """Mean of the samples taken within WINDOW_S of [t0, t1], or else
        the one nearest to it."""
        lo = bisect.bisect_left(self.mid, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.mid, t1 + WINDOW_S)
        if hi > lo:
            return statistics.fmean(self.secs[lo:hi])
        k = min(lo, len(self.mid) - 1)
        if k > 0 and t0 - self.mid[k - 1] < self.mid[k] - t1:
            k -= 1
        return self.secs[k]

    def scaled(self, t0, t1):
        """t1 - t0 as it would read at the reference speed."""
        return (t1 - t0) * CAL_REF_S / self.speed(t0, t1)

    def stop(self):
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Runner:
    def __init__(self, root, workdir, seed, deadline, calibrator):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.deadline = deadline
        self.cal = calibrator
        self.env = child_env(root)

    def spawn(self, cmd):
        """Run cmd in its own process group; kill the group on overrun."""
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic() + 20))
        except BaseException as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"{cmd[1:3]} overran the time limit") from exc
            raise
        if proc.returncode != 0:
            raise BenchError(f"{cmd[1:3]} exited {proc.returncode}: {err.strip()[-800:]}")
        return out

    def startup_ms(self):
        """Median bare interpreter start, the control for machine drift."""
        ts = []
        for _ in range(5):
            t = time.perf_counter()
            self.spawn([sys.executable, "-c", "pass"])
            ts.append((time.perf_counter() - t) * 1e3)
        return statistics.median(ts)

    def one_pass(self, workload, trace, setup_only=False):
        workdir = tempfile.mkdtemp(dir=self.workdir)
        try:
            cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
                   "--seed", str(self.seed), "--trace", str(trace), "--workdir", workdir]
            if setup_only:
                cmd.append("--setup-only")
            t = time.monotonic()
            out = self.spawn(cmd + ["--spawned-at", repr(t)])
            duration = time.monotonic() - t
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        try:
            result = json.loads(out.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError) as exc:
            raise BenchError(f"{workload} pass printed no result") from exc
        # every time at the reference machine speed (see calibrate.py)
        self.cal.wait_past((result["times"][-1] if "times" in result else result["setup"])[1]
                           + WINDOW_S)
        result["setup_s"] = self.cal.scaled(*result["setup"])
        if not setup_only:
            result["latencies"] = [t1 - t0 for t0, t1 in result["times"]]
            result["norm"] = [self.cal.scaled(t0, t1) for t0, t1 in result["times"]]
            result["slowdown"] = [self.cal.speed(t0, t1) / CAL_REF_S
                                  for t0, t1 in result["times"]]
            result["wall_s"] = sum(result["norm"])
        result["duration"] = duration
        return result

    def repeat(self, seconds, run_round, min_rounds=MIN_PASSES):
        """Call run_round min_rounds times, then again while another round
        still fits in `seconds`; never start one that could overrun the
        hard limit."""
        start = time.monotonic()
        rounds = []
        while True:
            longest = max((d for d, _ in rounds), default=0.0)
            now = time.monotonic()
            if len(rounds) >= min_rounds and now - start + longest > seconds:
                break
            if rounds and now + longest > self.deadline:
                break
            out = run_round()
            rounds.append((time.monotonic() - now, out))
        return [out for _, out in rounds]


def end_to_end(runner, workload, seconds):
    passes = runner.repeat(seconds, lambda: runner.one_pass(workload, 0))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUPS and time.monotonic() + 10 < runner.deadline:
        setups.append(runner.one_pass(workload, 0, setup_only=True)["setup_s"])
    lat_ms = [x * 1e3 for p in passes for x in p["norm"]]
    q = tail_percentile(len(passes[0]["times"]) * MIN_PASSES)

    def per_op_medians(key):
        # every pass runs the same list, so take each operation's median
        # across passes and add them up: a burst of machine noise then
        # moves only the operations it hit, and only in some passes
        return sum(statistics.median(lat) for lat in zip(*(p[key] for p in passes)))

    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": per_op_medians("norm"),
        "op_p50_ms": percentile(lat_ms, 50),
        "op_tail_ms": percentile(lat_ms, q),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] / 1024 for p in passes),
    }
    info = {
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "raw_wall_s": per_op_medians("latencies"),
        "slowdown": statistics.median(s for p in passes for s in p["slowdown"]),
        "setups": len(setups),
        "ops_per_pass": len(passes[0]["times"]),
        "op_tail_percentile": q,
        "op_tail_beyond": sum(1 for x in lat_ms if x > metrics["op_tail_ms"]),
    }
    return metrics, passes, passes, info


def per_layer(runner, workload, seconds, homes):
    """homes maps each per-layer metric to the workload it is measured on."""
    traced = {}
    checked = []
    for other in WORKLOADS:
        if other != workload:
            traced[other] = [runner.one_pass(other, 1)]
            checked += traced[other]
    pairs = runner.repeat(
        seconds, lambda: (runner.one_pass(workload, 0), runner.one_pass(workload, 1)), 1
    )
    plain = [u for u, _ in pairs]
    traced[workload] = [t for _, t in pairs]
    checked += plain + traced[workload]
    metrics = {}
    for name, home in homes.items():
        if name == "trace.overhead_pct":
            base = statistics.median(p["wall_s"] for p in plain)
            with_trace = statistics.median(p["wall_s"] for p in traced[workload])
            metrics[name] = 100 * (with_trace - base) / base
        else:
            metrics[name] = statistics.median(p["layers"][name] for p in traced[home])
    mine = plain + traced[workload]
    info = {"untraced_passes": len(plain), "traced_passes": len(traced[workload]),
            "spans": [p["spans"] for p in traced[workload]]}
    return metrics, mine, checked, info


def source_revision(root):
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "formula_forge")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        sha = lines[1] if top.returncode == 0 and os.path.samefile(lines[0], root) else None
    except (OSError, subprocess.SubprocessError, IndexError):
        sha = None
    return sha, digest.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    started = time.monotonic()
    # on SIGTERM unwind as on ^C, so every child is stopped and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "formula_forge", "cli.py")):
        print("error: no src/formula_forge here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    with open(os.path.join(HERE, "layers.json")) as fh:
        homes = {name: m["workload"] for name, m in json.load(fh)["per_layer"].items()}
    base = os.path.join(root, ".perfbench-work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=base)
    calibrator = Calibrator(os.path.join(workdir, "speed.txt"))
    runner = Runner(root, workdir, args.seed, started + HARD_LIMIT_S, calibrator)
    try:
        # compile bytecode and warm the file cache before anything is timed
        runner.spawn([sys.executable, "-c", "import formula_forge.cli"])
        startup_before = runner.startup_ms()
        if args.trace:
            metrics, mine, checked, info = per_layer(
                runner, args.workload, args.seconds, {m: homes[m] for m in units})
        else:
            metrics, mine, checked, info = end_to_end(runner, args.workload, args.seconds)
        startup_after = runner.startup_ms()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        calibrator.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass

    attempted, failed, ratio = failed_ops_ratio(mine)
    correct = all_correct(checked)
    sha, src_sha256 = source_revision(root)
    info.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "src_sha256": src_sha256,
        "cli": "PYTHONPATH=src python3 -m formula_forge.cli",
        "startup_ms": {"before": startup_before, "after": startup_after},
        "failed_ops_ratio": ratio,
        "errors": sorted({e for p in checked for e in p["errors"]
                          if p in mine or p["wrong"] or p["unexpected"]})[:10],
        "elapsed_s": time.monotonic() - started,
    })
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
