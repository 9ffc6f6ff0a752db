"""One pass of one workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        --spawned-at T --workdir DIR [--setup-only]

T is the parent's time.monotonic() just before it started this process, so
set-up covers interpreter start, imports and the workload's own set-up.
Prints one JSON object: the monotonic times at which set-up ended and each
operation started and ended, failures, peak RSS and, when traced, the
pass's per-layer metrics.  run.py scales the times to a reference machine
speed with samples from calibrate.py.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from spans import Tracer
from workloads import WORKLOADS


def run_ops(w) -> dict:
    """Run and check every operation; a failure is counted, never fatal.

    An operation that raises fails; it is also `unexpected` unless the
    workload declares that this operation may raise this exception."""
    times, raised, unexpected, wrong, errors = [], 0, 0, 0, []
    for op in w.ops:
        t0 = time.monotonic()
        try:
            result = w.run(op)
        except Exception as exc:  # the operation failed: count it
            times.append((t0, time.monotonic()))
            raised += 1
            if not w.may_raise(op, exc):
                unexpected += 1
            errors.append(f"{op[0]}: {type(exc).__name__}: {exc}"[:300])
        else:
            times.append((t0, time.monotonic()))
            try:
                msg = w.check(op, result)
            except Exception as exc:  # output the oracle cannot read is wrong
                msg = f"unreadable output: {type(exc).__name__}: {exc}"
            if msg:
                wrong += 1
                errors.append(f"{op[0]}: {msg}"[:300])
            del result
    return {"times": times, "raised": raised, "unexpected": unexpected, "wrong": wrong,
            "errors": errors[:10]}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    root = os.getcwd()
    tracer = Tracer(bool(args.trace))
    w = WORKLOADS[args.workload](args.seed, tracer, root, args.workdir)
    w.setup()
    out = {"setup": (args.spawned_at, time.monotonic())}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    w.prepare_checks()
    if tracer.enabled:
        w.instrument()
    out.update(run_ops(w), peak_rss_kb=w.peak_rss_kb())
    if tracer.enabled:
        w.after_ops()
        out["layers"] = w.layers()
        out["spans"] = len(tracer.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
