"""Steer a full-sum-range series onto the unit circle.

Builds the scaled round-robin series in the plane, runs the staged
rearranger against a 0.05-pitch circle sample, checks every stage
invariant, and measures how close the recurrent part of the walk lands to
the target in Hausdorff distance.  Writes ``circle.svg``.

Run:  python demos/circle_rearrangement.py
"""

import math
import os

from serwalk import (PointSample, RPConstants, check_stage_invariants,
                     estimate_limit_set, full_range_series,
                     hausdorff_distance, rearrange_to_limit_set,
                     write_walk_svg)

here = os.path.dirname(os.path.abspath(__file__))

n = math.ceil(2 * math.pi / 0.05)
circle = PointSample(tuple((math.cos(2 * math.pi * i / n),
                            math.sin(2 * math.pi * i / n))
                           for i in range(n)), "unit circle")
series = full_range_series(2, 80000)
print(f"target: {n}-point circle sample; series prefix: {len(series)} terms")

tau, walk, reports = rearrange_to_limit_set(series, circle, stages=5)
print(f"rearranged {len(tau)} terms into {len(walk.sums) - 1} partial sums")
for r in reports:
    print(f"  stage {r['stage']}: eps={r['eps']:.4f}  "
          f"moves={r['moves']}  end error={r['stage_end_error']:.5f}  "
          f"max excursion={r['prefix_max_excursion']:.4f}")

ok = check_stage_invariants(reports, tau, RPConstants(series))
print("stage invariants:", "all hold" if ok else "VIOLATED")

est = estimate_limit_set(walk, resolution=0.1)
h = hausdorff_distance(est.points, circle)
print(f"limit estimate: {len(est)} points, Hausdorff distance to target "
      f"{h:.4f}")

path = os.path.join(here, "circle.svg")
with open(path, "w") as fp:
    write_walk_svg(walk, fp, marks=circle.points[::6])
print("wrote", path)
