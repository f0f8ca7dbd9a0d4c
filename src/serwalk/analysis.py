"""Finite-prefix surrogates for limit-set statements.

A true limit point is hit infinitely often; the finite shadow used here is
recurrence inside a late window.  The window has one fixed rule: the
smallest suffix of whole phases that spans two phases and holds
``WINDOW_FRACTION`` of the sums, and at least two; a one-phase walk's
window is that many last sums.  All canonical walk generators revisit
their limit sets every phase, so a grid cell is kept when the walk returns
to it in at least ``MIN_HITS`` distinct phases of the window (falling back
to raw hit counts when the window does not span two phases).

The estimate works on the window's float rows (``core.float_rows``), one
path for float, exact and c0 walks.  A sum's cell key is
``floor(x / resolution + 0.5)`` per coordinate, in float64.  SparseVec rows
lie over the union of the window's supports, where a coordinate outside a
sum's support keys to 0, so two sums share a cell exactly when their
nonzero keys agree.  Cells are numbered in first-seen order.  A kept cell's
representative is its modal point (:func:`_modal_point`) for an exact walk,
which walks revisit bit for bit, and the mean of its sums for a float walk.
Kept cells whose representatives lie strictly closer than resolution/2
merge, and a merged group's representative is taken by the same rule over
its cells' sums: the cells in index order, each cell's sums in order of
appearance.  A mean adds each coordinate from 0.0 in that order, then
divides by the count.  That is the order in which the builtin ``sum`` adds
floats on Python 3.11, and the estimate keeps those bits on every supported
Python; Python 3.12's ``sum`` compensates its rounding (Neumaier), so a
``sum``-based mean would give other bits there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (PointSample, distance_blocks, float_rows, gap_components, norm,
                   upper_distance_blocks)
from .walks import Walk

#: a grid cell is kept when the walk returns to it in this many phases
MIN_HITS = 2

#: the Cauchy diagnostic's tail: this fraction of the walk's sums
TAIL_FRACTION = 0.3

#: the limit-set estimate's late window: at least this fraction of the sums
WINDOW_FRACTION = 0.3


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


@dataclass
class LimitEstimate:
    """Recurrent-cell representatives of a walk's late window."""

    points: PointSample
    window_start: int
    resolution: float
    hit_counts: list[int]

    def __len__(self):
        return len(self.points)


def _window_bounds(w: Walk) -> tuple[int, list[tuple[int, int]]]:
    """Start index into w.sums plus the phase blocks inside the window,
    by the module docstring's one rule."""
    total = len(w.sums) - 1
    want = max(2, math.ceil(WINDOW_FRACTION * total))
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


def _cells(keys: np.ndarray) -> tuple[np.ndarray, int]:
    """Each key row's cell, the cells numbered in first-seen order, and the
    number of cells: rows with equal keys share a cell.  A stable
    lexicographic sort puts equal rows side by side, the first seen first."""
    order = np.lexsort(keys.T) if keys.shape[1] else np.arange(len(keys))
    ordered = keys[order]
    head = np.ones(len(keys), dtype=bool)
    head[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    firsts = order[head]  # each cell's first row, cells in sort order
    rank = np.empty(len(firsts), dtype=np.intp)
    rank[np.argsort(firsts)] = np.arange(len(firsts))
    cell = np.empty(len(keys), dtype=np.intp)
    cell[order] = rank[np.cumsum(head) - 1]
    return cell, len(firsts)


def _means(ids: np.ndarray, rows: np.ndarray, size: int) -> list[tuple]:
    """The mean row of each id's rows: their coordinates added from 0.0 in
    the given order (``np.bincount``), then divided by their count."""
    totals = np.column_stack([np.bincount(ids, weights=col, minlength=size)
                              for col in rows.T])
    return [tuple(p) for p in (totals / np.bincount(ids, minlength=size)[:, None]).tolist()]


def estimate_limit_set(w: Walk, resolution: float) -> LimitEstimate:
    """Grid-based recurrence estimate of LIM from the walk's late window;
    the comparison refuses a NaN resolution, and a sum with no finite grid
    cell (a NaN or infinite coordinate, or one whose key overflows) raises
    ValueError naming its index in ``w.sums``."""
    if not 0 < resolution < math.inf:
        raise ValueError("resolution must be finite and positive")
    start, blocks = _window_bounds(w)
    window = w.sums[start:]
    if len(window) < 2:
        raise ValueError("window shorter than 2 points")
    _, (rows,) = float_rows(window)
    with np.errstate(over="ignore"):  # a key past the float range is inf
        keys = np.floor(rows / resolution + 0.5)
    bad = np.flatnonzero(~np.isfinite(keys).all(axis=1))
    if bad.size:
        raise ValueError(f"sum {start + bad[0]} has no finite grid cell "
                         f"at resolution {resolution}")
    cell, n_cells = _cells(keys)
    phase = np.repeat(np.arange(len(blocks)), [hi - lo for lo, hi in blocks])
    # the window's rows by cell, each cell's rows in order of appearance
    by_cell = np.argsort(cell, kind="stable")
    cells, phases = cell[by_cell], phase[by_cell]
    hits = np.bincount(cell, minlength=n_cells)
    score = hits
    if len(blocks) >= 2:
        # phases grow along the window: a cell meets each phase in one run
        runs = np.ones(len(cells), dtype=bool)
        runs[1:] = (cells[1:] != cells[:-1]) | (phases[1:] != phases[:-1])
        score = np.bincount(cells[runs], minlength=n_cells)
    is_kept = score >= MIN_HITS
    if not is_kept.any():
        return LimitEstimate(PointSample(()), start, resolution, [])
    kept = np.flatnonzero(is_kept)
    in_kept = is_kept[cells]
    rank = np.cumsum(is_kept) - 1  # a kept cell's index in kept
    kept_of, kept_rows = rank[cells[in_kept]], by_cell[in_kept]
    exact = w.mode == "exact"
    if exact:
        tags = phase.tolist()
        tagged = [[(window[i], tags[i]) for i in part.tolist()]
                  for part in np.split(kept_rows, np.cumsum(hits[kept])[:-1])]
        reps = [_modal_point(t) for t in tagged]
    else:
        reps = _means(kept_of, rows[kept_rows], len(kept))
    # merge representatives that landed strictly closer than resolution/2;
    # a group of one cell keeps that cell's representative
    groups = gap_components(reps, math.nextafter(resolution / 2, 0))
    counts = [int(hits[kept[idx]].sum()) for idx in groups]
    if exact:
        reps = [reps[idx[0]] if len(idx) == 1 else
                _modal_point([t for i in idx for t in tagged[i]]) for idx in groups]
    else:
        group = np.empty(len(kept), dtype=np.intp)
        for g, idx in enumerate(groups):
            group[idx] = g
        reps = _means(group[kept_of], rows[kept_rows], len(groups))
    return LimitEstimate(PointSample(tuple(reps)), start, resolution, counts)


COMPACT_CONNECTED = "compact-connected"
ALL_COMPONENTS_ESCAPE = "all-components-escape"
VIOLATION = "violation"


def verify_dichotomy(est: LimitEstimate, gap: float, bound: float) -> dict:
    """Empirical dichotomy check on a limit estimate.

    A component "escapes" when it reaches within ``gap`` of the radius
    ``bound`` shell (the finite stand-in for unboundedness).  ``gap`` must
    be finite and >= 0 and ``bound`` finite, else ValueError.
    """
    if not 0 <= gap < math.inf:
        raise ValueError(f"gap must be finite and >= 0, not {gap}")
    if not math.isfinite(bound):
        raise ValueError(f"bound must be finite, not {bound}")
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

    The limit estimate is taken at resolution 0.2.  ``tol`` must be finite
    and > 0, else ValueError.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, not {tol}")
    if len(w.sums) - 1 < 100:
        raise ValueError("walk too short (need >= 100 sums)")
    est = estimate_limit_set(w, resolution=0.2)
    if len(est) != 1:
        return {"verdict": "not-singleton", "estimate": est}
    p = est.points.points[0]
    quarter = w.sums[len(w.sums) - (len(w.sums) - 1) // 4:]
    if all(block.max() <= tol for _, block in distance_blocks(quarter, [p])):
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
