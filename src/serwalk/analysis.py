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


def estimate_limit_set(w: Walk, resolution: float,
                       window_fraction: float = 0.3) -> LimitEstimate:
    """Grid-based recurrence estimate of LIM from the walk's late window."""
    if window_fraction <= 0 or window_fraction > 1:
        raise ValueError("window_fraction must be in (0, 1]")
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    start, blocks = _window_bounds(w, window_fraction)
    if len(w.sums) - start < 2:
        raise ValueError("window shorter than 2 points")
    cells: dict[object, list] = {}
    for phase_idx, (lo, hi) in enumerate(blocks):
        for p in w.sums[lo:hi]:
            cells.setdefault(_snap_key(p, resolution), []).append((p, phase_idx))
    multi_phase = len(blocks) >= 2
    exact = w.mode == "exact"

    def rep_of(tagged):
        if exact:
            return _modal_point(tagged)
        return _mean_point([p for p, _ in tagged])

    kept = []
    for tagged in cells.values():
        score = len({phase for _, phase in tagged}) if multi_phase else len(tagged)
        if score >= MIN_HITS:
            kept.append((rep_of(tagged), tagged))
    if not kept:
        return LimitEstimate(PointSample(()), start, resolution, [])
    # merge representatives that landed strictly closer than resolution/2;
    # a group of one cell keeps that cell's representative
    groups = gap_components([rep for rep, _ in kept],
                            math.nextafter(resolution / 2, 0))
    reps, counts = [], []
    for idx in groups:
        if len(idx) == 1:
            rep, merged = kept[idx[0]]
        else:
            merged = [t for i in idx for t in kept[i][1]]
            rep = rep_of(merged)
        reps.append(rep)
        counts.append(len(merged))
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
    ``max_gap`` is the largest distance between two sums of the tail, the
    last TAIL_FRACTION of the walk (at least two points): a running maximum
    from 0.0 over the blocks of the tail's upper triangle.
    """
    offset = len(w.sums) - max(2, math.ceil(TAIL_FRACTION * (len(w.sums) - 1)))
    if offset < 0:
        raise ValueError("tail shorter than 2 points")
    max_gap = 0.0
    for _, block in upper_distance_blocks(w.sums[offset:]):
        max_gap = max(max_gap, float(block.max()))
    return {"max_gap": max_gap}
