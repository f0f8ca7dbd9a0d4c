"""Finite-prefix surrogates for limit-set statements.

A true limit point is hit infinitely often; the finite shadow used here is
recurrence inside a late window.  All canonical walk generators revisit
their limit sets every phase, so a grid cell is kept when the walk returns
to it in at least ``MIN_HITS`` distinct phases of the window (falling back
to raw hit counts when the window does not span two phases).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PointSample, distance, gap_components, norm, upper_distance_blocks
from .walks import Walk

#: a grid cell is kept when the walk returns to it in this many phases
MIN_HITS = 2

#: the Cauchy diagnostic's tail: this fraction of the walk's sums
TAIL_FRACTION = 0.3


def _snap_key(p, resolution: float):
    if hasattr(p, "entries"):
        key = []
        for i, v in p.entries.items():
            q = math.floor(float(v) / resolution + 0.5)
            if q != 0:
                key.append((i, q))
        return frozenset(key)
    return tuple(math.floor(float(c) / resolution + 0.5) for c in p)


def _modal_point(tagged):
    """Exact point recurring in the most distinct phases (ties: raw count,
    then first seen).  Exact walks revisit their limit points bit-for-bit,
    so the mode shakes off one-shot transients sharing the cell.  Each point
    is hashed once, into one record of its phases and count; the records
    keep first-seen order, and max keeps the first of equal keys."""
    records: dict[object, list] = {}  # point -> [phases, count]
    for p, phase_idx in tagged:
        rec = records.setdefault(p, [set(), 0])
        rec[0].add(phase_idx)
        rec[1] += 1
    best = max(records.items(), key=lambda item: (len(item[1][0]), item[1][1]))
    return best[0]


def _mean_point(points):
    # float walks are dense: SparseVecs hold Fractions, so their walks are exact
    n = len(points)
    return tuple(sum(float(p[j]) for p in points) / n for j in range(len(points[0])))


@dataclass
class LimitEstimate:
    """Recurrent-cell representatives of a walk's late window."""

    points: PointSample
    window_start: int
    resolution: float
    hit_counts: list[int]

    def __len__(self):
        return len(self.points)


def _window_bounds(w: Walk, window_fraction: float) -> tuple[int, list[tuple[int, int]]]:
    """Start index into w.sums plus the phase blocks inside the window.

    The window is the smallest suffix of whole phases covering at least
    window_fraction of the stored sums, and at least two phases when the
    walk has them (recurrence across phases is the limit-point surrogate).
    """
    total = len(w.sums) - 1
    want = max(2, math.ceil(window_fraction * total))
    blocks = w.phase_blocks()
    if len(blocks) < 2:
        start = max(1, len(w.sums) - want)
        return start, [(start, len(w.sums))]
    chosen: list[tuple[int, int]] = []
    covered = 0
    for blk in reversed(blocks):
        chosen.insert(0, blk)
        covered += blk[1] - blk[0]
        if covered >= want and len(chosen) >= 2:
            break
    return chosen[0][0], chosen


def estimate_limit_set(w: Walk, window_fraction: float = 0.3,
                       resolution: float = 0.1) -> LimitEstimate:
    """Grid-based recurrence estimate of LIM from the walk's late window."""
    if window_fraction <= 0 or window_fraction > 1:
        raise ValueError("window_fraction must be in (0, 1]")
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    start, blocks = _window_bounds(w, window_fraction)
    if len(w.sums) - start < 2:
        raise ValueError("window shorter than 2 points")
    cells: dict[object, list] = {}
    phase_sets: dict[object, set[int]] = {}
    for phase_idx, (lo, hi) in enumerate(blocks):
        for p in w.sums[lo:hi]:
            key = _snap_key(p, resolution)
            cells.setdefault(key, []).append((p, phase_idx))
            phase_sets.setdefault(key, set()).add(phase_idx)
    multi_phase = len(blocks) >= 2
    exact = w.mode == "exact"

    def rep_of(tagged):
        if exact:
            return _modal_point(tagged)
        return _mean_point([p for p, _ in tagged])

    kept = []
    for key, pts in cells.items():
        score = len(phase_sets[key]) if multi_phase else len(pts)
        if score >= MIN_HITS:
            kept.append((rep_of(pts), len(pts), pts))
    if not kept:
        return LimitEstimate(PointSample(()), start, resolution, [])
    # merge representatives that landed strictly closer than resolution/2
    groups = gap_components([rep for rep, _, _ in kept],
                            math.nextafter(resolution / 2, 0))
    reps, counts = [], []
    for idx in groups:
        members = [kept[i] for i in idx]
        merged = [t for _, _, tagged in members for t in tagged]
        reps.append(rep_of(merged))
        counts.append(sum(c for _, c, _ in members))
    return LimitEstimate(PointSample(tuple(reps)), start, resolution, counts)


COMPACT_CONNECTED = "compact-connected"
ALL_COMPONENTS_ESCAPE = "all-components-escape"
VIOLATION = "violation"


def verify_dichotomy(est: LimitEstimate, gap: float, bound: float) -> dict:
    """Empirical dichotomy check on a limit estimate.

    A component "escapes" when it reaches within ``gap`` of the radius
    ``bound`` shell (the finite stand-in for unboundedness).
    """
    if not est.points.points:
        raise ValueError("empty estimate")
    comps = gap_components(est.points, gap)
    maxnorms = [max(norm(est.points.points[i]) for i in comp) for comp in comps]
    escaped = [mn >= bound - gap for mn in maxnorms]
    if all(escaped):
        verdict = ALL_COMPONENTS_ESCAPE
    elif len(comps) == 1:
        verdict = COMPACT_CONNECTED
    else:
        verdict = VIOLATION
    return {"verdict": verdict, "components": comps,
            "component_max_norms": maxnorms, "escaped": escaped}


def singleton_convergence_check(w: Walk, tol: float) -> dict:
    """Distinguish convergence from a divergent walk with singleton limit set.

    The limit estimate uses the default window at resolution 0.2.
    """
    if len(w.sums) - 1 < 100:
        raise ValueError("walk too short (need >= 100 sums)")
    est = estimate_limit_set(w, resolution=0.2)
    if len(est) != 1:
        return {"verdict": "not-singleton", "estimate": est}
    p = est.points.points[0]
    quarter = w.sums[len(w.sums) - (len(w.sums) - 1) // 4:]
    if all(distance(s, p) <= tol for s in quarter):
        return {"verdict": "converges-to", "point": p, "estimate": est}
    return {"verdict": "diverges-with-singleton", "point": p, "estimate": est}


def cauchy_diagnostic(w: Walk) -> dict:
    """Largest pairwise distance between late partial sums.

    A convergent walk's tail gap shrinks with the tail; recurring gaps of
    fixed size witness divergence even when the limit set is a singleton.
    ``max_gap`` is the largest distance between two sums of the tail (the
    last TAIL_FRACTION of the walk, at least two points), and
    ``gap_pairs`` holds the first 32 index pairs (i, j), i < j, in (i, j)
    order, whose distance is within 1e-15 of it.
    """
    offset = len(w.sums) - max(2, math.ceil(TAIL_FRACTION * (len(w.sums) - 1)))
    if offset < 0:
        raise ValueError("tail shorter than 2 points")
    # one pass: the running maximum, and for each distance within 1e-15 of
    # it the first 32 pairs at that distance.  A rise of the maximum drops
    # only the distances it leaves behind, so the first 32 pairs tying the
    # final maximum are among those kept, whatever their distances.
    max_gap = 0.0
    levels: dict[float, list[tuple[int, int]]] = {}
    for lo, block in upper_distance_blocks(w.sums[offset:]):
        top = float(block.max())
        max_gap = max(max_gap, top)
        if max_gap - top > 1e-15:
            continue  # no pair of this block is near the maximum
        near = np.abs(block - max_gap) <= 1e-15
        near &= np.arange(block.shape[1]) >= np.arange(len(block))[:, None]
        rows, cols = np.nonzero(near)
        found = block[rows, cols]
        for gap in np.unique(found).tolist():
            level = levels.setdefault(gap, [])
            pick = np.flatnonzero(found == gap)[:32 - len(level)]
            level += zip((offset + lo + rows[pick]).tolist(),
                         (offset + lo + 1 + cols[pick]).tolist())
        levels = {gap: level for gap, level in levels.items()
                  if abs(gap - max_gap) <= 1e-15}
    pairs = sorted(p for level in levels.values() for p in level)[:32]
    return {"max_gap": max_gap, "gap_pairs": pairs}
