"""Scaling ladder: the dominant call of each workload at 1x, 2x and 4x size.

    python3 perfbench/ladder.py [--out FILE]

This is not a gated workload.  Each rung records the median wall time of
three untraced repeats and the exact call counts of one traced repeat, and
each ladder reports the log-log slope of time against size between its
first and last rung, so a complexity claim rests on a slope, not a point:

- ``build_chainable_walk`` (chain-circle) on circle samples of 79, 158 and
  315 points, 4 phases (a 79-point circle, pitch 0.080, is too sparse for
  phase 5's gap of 2^-4); size is the number of points;
- ``rearrange_to_limit_set`` (rearrange-circle) onto the 126-point circle
  for 3, 4 and 5 stages; size is the number of partial sums produced;
- ``cauchy_diagnostic`` (exact-cli) on two-lines walks of 4, 5 and 6
  phases; size is the number of partial sums.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import Tracer  # noqa: E402
from workloads import circle, count_at_pitch  # noqa: E402

REPEATS = 3
COUNTED = ("core.gap_chainable", "rearrange.n_threshold", "rearrange.balance",
           "analysis.cauchy")


def _rungs():
    """(ladder, rung label, the call to time, size of the rung from the
    call's result)."""
    from serwalk import analysis, core, rearrange, walks

    for n in (79, 158, 315):
        pts = list(circle(n))
        yield ("build_chainable_walk", f"{n} points",
               lambda pts=pts: walks.build_chainable_walk(pts, 4), lambda _, n=n: n)
    series = rearrange.full_range_series(2, 80000)
    target = core.PointSample(circle(count_at_pitch(0.05)))
    for stages in (3, 4, 5):
        yield ("rearrange_to_limit_set", f"{stages} stages",
               lambda stages=stages: rearrange.rearrange_to_limit_set(
                   series, target, stages=stages, rng=random.Random(0)),
               lambda result: len(result[1].sums))
    for phases in (4, 5, 6):
        walk = walks.gen_two_lines(phases)
        yield ("cauchy_diagnostic", f"two-lines {phases} phases",
               lambda walk=walk: analysis.cauchy_diagnostic(walk),
               lambda _, walk=walk: len(walk.sums))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the rungs and slopes here as JSON")
    args = ap.parse_args()
    rungs = []
    for ladder, label, call, size_of in _rungs():
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            result = call()
            times.append(time.perf_counter() - start)
        size = size_of(result)
        tracer = Tracer()
        tracer.install()
        try:
            call()
        finally:
            tracer.uninstall()
        _, calls = tracer.self_times()
        rung = {"ladder": ladder, "rung": label, "size": size,
                "median_s": statistics.median(times), "times_s": times,
                "calls": {k: calls[k] for k in COUNTED if calls[k]},
                "counts": dict(tracer.counts)}
        rungs.append(rung)
        print(f"{ladder:24} {label:22} size {size:7d} median {rung['median_s']:9.4f} s "
              f"calls {rung['calls']}", flush=True)
    slopes = {}
    for ladder in dict.fromkeys(r["ladder"] for r in rungs):
        same = [r for r in rungs if r["ladder"] == ladder]
        first, last = same[0], same[-1]
        slopes[ladder] = (math.log(last["median_s"] / first["median_s"])
                          / math.log(last["size"] / first["size"]))
        print(f"{ladder:24} log-log slope of time against size: {slopes[ladder]:.2f}")
    if args.out:
        with open(args.out, "w") as fp:
            json.dump({"rungs": rungs, "slopes": slopes}, fp, indent=1)
            fp.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
