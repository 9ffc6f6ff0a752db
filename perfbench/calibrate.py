"""Machine-speed samples, taken in a process that never imports the package.

    python3 perfbench/calibrate.py OUT

Until it is sent SIGTERM, the process times a fixed pure-Python loop every
INTERVAL_S and appends one line "midpoint seconds" to OUT, where midpoint is
the time.monotonic() reading at the middle of the sample.  On a shared
machine the speed of every process drifts by tens of percent over seconds;
run.py lines the samples up with the operations' own monotonic timestamps
and expresses each latency at the fixed reference speed CAL_REF_S.  The
loop runs in its own small heap, so what the package allocates or keeps
alive cannot move the scale factor.
"""

from __future__ import annotations

import signal
import sys
import time

CAL_ITEMS = 3_000
INTERVAL_S = 0.05
# about the median sample of this process on an idle 2-vCPU x86-64 VM with
# Python 3.11; latencies are reported as if every sample around them had
# taken this long
CAL_REF_S = 0.00125


def sample() -> float:
    """Shortest of three runs of a fixed loop of small allocations, tuple
    hashing, dict inserts and str conversions, the kind of work the package
    does: the machine's current speed for it."""
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        d = {}
        for i in range(CAL_ITEMS):
            d[(i, i & 7)] = [i, str(i)]
        sum(len(v[1]) for v in d.values())
        best = min(best, time.perf_counter() - t)
    return best


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    with open(sys.argv[1], "a", buffering=1) as out:
        while True:
            t0 = time.monotonic()
            s = sample()
            out.write(f"{(t0 + time.monotonic()) / 2!r} {s!r}\n")
            time.sleep(INTERVAL_S)


if __name__ == "__main__":
    sys.exit(main())
