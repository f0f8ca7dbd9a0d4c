"""Finite-prefix surrogates for limit-set statements.

A true limit point is hit infinitely often; the finite shadow used here is
recurrence inside a late window.  All canonical walk generators revisit
their limit sets every phase, so a grid cell is kept when the walk returns
to it in at least ``min_hits`` distinct phases of the window (falling back
to raw hit counts when the window does not span two phases).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (EUCLIDEAN, PointSample, distance, distance_blocks, gap_components,
                   norm)
from .walks import Walk


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
    so the mode shakes off one-shot transients sharing the cell."""
    phases: dict[object, set[int]] = {}
    counts: Counter = Counter()
    order: dict[object, int] = {}
    for rank, (p, phase_idx) in enumerate(tagged):
        phases.setdefault(p, set()).add(phase_idx)
        counts[p] += 1
        order.setdefault(p, rank)
    return max(phases, key=lambda p: (len(phases[p]), counts[p], -order[p]))


def _mean_point(points):
    if hasattr(points[0], "entries"):
        from .seqspace import SparseVec
        acc: dict[int, float] = {}
        for p in points:
            for i, v in p.entries.items():
                acc[i] = acc.get(i, 0.0) + float(v)
        n = len(points)
        return SparseVec({i: v / n for i, v in acc.items() if v / n != 0.0})
    n = len(points)
    return tuple(sum(float(p[j]) for p in points) / n for j in range(len(points[0])))


@dataclass
class LimitEstimate:
    """Recurrent-cell representatives of a walk's late window."""

    points: PointSample
    window_start: int
    resolution: float
    hit_counts: list[int]
    kind: str = EUCLIDEAN

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
    if w.phase_lengths is None or len(blocks) < 2:
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
                       resolution: float = 0.1, min_hits: int = 2,
                       kind: Optional[str] = None) -> LimitEstimate:
    """Grid-based recurrence estimate of LIM from the walk's late window."""
    if window_fraction <= 0 or window_fraction > 1:
        raise ValueError("window_fraction must be in (0, 1]")
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    kind = kind or w.kind
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
        if score >= min_hits:
            kept.append((rep_of(pts), len(pts), pts))
    if not kept:
        return LimitEstimate(PointSample(()), start, resolution, [], kind)
    # merge representatives that landed strictly closer than resolution/2
    groups = gap_components([rep for rep, _, _ in kept],
                            math.nextafter(resolution / 2, 0), kind)
    reps, counts = [], []
    for idx in groups:
        members = [kept[i] for i in idx]
        merged = [t for _, _, tagged in members for t in tagged]
        reps.append(rep_of(merged))
        counts.append(sum(c for _, c, _ in members))
    return LimitEstimate(PointSample(tuple(reps)), start, resolution, counts, kind)


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
    comps = gap_components(est.points, gap, kind=est.kind)
    maxnorms = [max(norm(est.points.points[i], est.kind) for i in comp) for comp in comps]
    escaped = [mn >= bound - gap for mn in maxnorms]
    if all(escaped):
        verdict = ALL_COMPONENTS_ESCAPE
    elif len(comps) == 1:
        verdict = COMPACT_CONNECTED
    else:
        verdict = VIOLATION
    return {"verdict": verdict, "components": comps,
            "component_max_norms": maxnorms, "escaped": escaped}


def singleton_convergence_check(w: Walk, tol: float,
                                resolution: float = 0.2,
                                window_fraction: float = 0.3) -> dict:
    """Distinguish convergence from a divergent walk with singleton limit set."""
    if len(w.sums) - 1 < 100:
        raise ValueError("walk too short (need >= 100 sums)")
    est = estimate_limit_set(w, window_fraction=window_fraction,
                             resolution=resolution)
    if len(est) != 1:
        return {"verdict": "not-singleton", "estimate": est}
    p = est.points.points[0]
    quarter = w.sums[len(w.sums) - (len(w.sums) - 1) // 4:]
    if all(distance(s, p, est.kind) <= tol for s in quarter):
        return {"verdict": "converges-to", "point": p, "estimate": est}
    return {"verdict": "diverges-with-singleton", "point": p, "estimate": est}


def cauchy_diagnostic(w: Walk, tail_fraction: float = 0.3) -> dict:
    """Largest pairwise distance between late partial sums.

    A convergent walk's tail gap shrinks with the tail; recurring gaps of
    fixed size witness divergence even when the limit set is a singleton.
    ``max_gap`` is the largest distance between two sums of the tail (the
    last ``tail_fraction`` of the walk, at least two points), and
    ``gap_pairs`` holds the first 32 index pairs (i, j), i < j, in (i, j)
    order, whose distance is within 1e-15 of it.
    """
    if tail_fraction <= 0 or tail_fraction > 1:
        raise ValueError("tail_fraction must be in (0, 1]")
    offset = len(w.sums) - max(2, math.ceil(tail_fraction * (len(w.sums) - 1)))
    if offset < 0:
        raise ValueError("tail shorter than 2 points")
    tail = w.sums[offset:]

    def upper(lo, block):
        # entries of the block's rows lo, lo + 1, ... with column > row
        return np.arange(block.shape[1]) > np.arange(lo, lo + len(block))[:, None]

    block_max = [(lo, float(block[upper(lo, block)].max(initial=0.0)))
                 for lo, block in distance_blocks(tail, tail, w.kind)]
    max_gap = max(m for _, m in block_max)
    # no pair of an earlier block is within 1e-15 of the maximum; the block
    # step depends only on len(tail), so restarting there keeps the blocks
    lo0 = next(lo for lo, m in block_max if max_gap - m <= 1e-15)
    pairs: list[tuple[int, int]] = []
    for lo, block in distance_blocks(tail[lo0:], tail, w.kind):
        lo += lo0
        rows, cols = np.nonzero(upper(lo, block) & (np.abs(block - max_gap) <= 1e-15))
        keep = 32 - len(pairs)
        pairs += [(offset + lo + i, offset + j)
                  for i, j in zip(rows[:keep].tolist(), cols[:keep].tolist())]
        if len(pairs) == 32:
            break
    return {"max_gap": max_gap, "gap_pairs": pairs}
