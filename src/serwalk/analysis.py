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
from typing import Optional, Sequence

from .core import (EUCLIDEAN, PointSample, distance, gap_components, hausdorff_distance,
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


def dense_approx_check(dense: Sequence, approximants: Sequence,
                       epsilons: Sequence[float], target: PointSample,
                       resolution: float = 0.1, kind: str = EUCLIDEAN) -> bool:
    """Do perturbed dense points still cluster onto the target set?

    Requires ||approximants_i - dense_i|| < epsilons_i for every i; the
    cluster estimate of the approximant tail must then be within Hausdorff
    distance (2 * max late epsilon + resolution) of the target sample.
    """
    if not (len(dense) == len(approximants) == len(epsilons)):
        raise ValueError("length mismatch")
    for i, (d, a, eps) in enumerate(zip(dense, approximants, epsilons)):
        if distance(a, d, kind) > eps:
            raise ValueError(f"approximant {i} violates its epsilon bound")
    half = len(approximants) // 2
    late = approximants[half:]
    cells: dict[object, list] = {}
    for p in late:
        cells.setdefault(_snap_key(p, resolution), []).append(p)
    reps = [_mean_point(pts) for pts in cells.values() if len(pts) >= 2]
    if not reps:
        return False
    allowance = 2 * max(epsilons[half:]) + resolution
    return hausdorff_distance(PointSample(tuple(reps)), target, kind) <= allowance


def cauchy_diagnostic(w: Walk, tail_fraction: float = 0.3) -> dict:
    """Largest pairwise distance between late partial sums.

    A convergent walk's tail gap shrinks with the tail; recurring gaps of
    fixed size witness divergence even when the limit set is a singleton.
    """
    total = len(w.sums) - 1
    count = max(2, math.ceil(tail_fraction * total))
    tail = w.sums[len(w.sums) - count:]
    if len(tail) < 2:
        raise ValueError("tail shorter than 2 points")
    offset = len(w.sums) - count
    max_gap, pairs = 0.0, []
    for i in range(len(tail)):
        for j in range(i + 1, len(tail)):
            d = distance(tail[i], tail[j], w.kind)
            if d > max_gap + 1e-15:
                max_gap, pairs = d, [(offset + i, offset + j)]
            elif abs(d - max_gap) <= 1e-15 and len(pairs) < 32:
                pairs.append((offset + i, offset + j))
    return {"max_gap": max_gap, "gap_pairs": pairs}
