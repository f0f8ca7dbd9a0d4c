"""Vector primitives shared by every other module.

Two scalar modes coexist:

* exact mode -- coordinates are ``fractions.Fraction`` (all canonical
  generators only ever produce dyadic rationals, so +, - and halving stay
  exact and equality assertions are bit-for-bit);
* float mode -- plain 64-bit floats for generic analysis.

Points are plain tuples; finite-support sequence-space vectors are
:class:`serwalk.seqspace.SparseVec`.  Norms and distances always come back
as floats regardless of mode.

One norm per space: a dense tuple is a point of R^m and is measured in the
Euclidean norm (every norm on R^m is equivalent, so one serves all of the
paper's R^m statements); a SparseVec is a point of c0 and is measured in
the sup norm, the norm c0 carries.  :func:`norm` reads the space off the
point, and :func:`float_rows` decides it once for every matrix kernel, so
no caller chooses a norm.

:func:`float_rows` is the one place where points become float
coordinates: it returns the samples' space and their float64 matrices
over shared columns, and every matrix kernel works on those.  A dense
sample is one flat ``np.fromiter`` over its coordinates, reshaped, after
one check that every point has the first point's length, except a
``rearrange.FloatSeries``, whose matrix is returned as it is; SparseVecs
are written into zeros over the union of their supports.  Each coordinate
goes through Python's float conversion, as ``np.array(..., dtype=float)``
would convert it.  Its callers: the kernels below
(:func:`distance_blocks`, :func:`upper_distance_blocks`,
:func:`chain_gap`), a tour's legs (:func:`gap_tour`), the rearranger's
balancing pass, term norms (``RPConstants``) and per-stage eps-ball
check, and the limit-set estimate's grid keys and means.  Float64 is
exact for dyadic coordinates of moderate size, which covers every
generator and every trace read from disk, so measuring on the matrix
gives the same answer as the exact points.  :func:`fold_norms` is the one
fold into norms, for ``_block``, :func:`gap_tour`'s legs, ``RPConstants``
and the rearranger's eps-ball check; the balancing pass folds the same
ufuncs step by step in its own buffers.  A square or difference past the
float range is inf, without a numpy warning.

Every all-pairs question is a reduction over one kernel,
:func:`distance_blocks`, which yields the distance matrix between two
samples a block of rows at a time, each block at most ``BLOCK_ENTRIES``
entries, so memory stays bounded however large the samples are:
:func:`hausdorff_distance` keeps running row and column minima and
:func:`gap_graph` thresholds each block.  :func:`upper_distance_blocks`
runs the same kernel over one sample's pairs i < j only, the columns right
of each block's first row: the Cauchy diagnostic takes the maximum of that
upper triangle of a walk's tail.  Every distance-threshold question -- gap
components, epsilon-chains, the merge step of a limit estimate, chain
building, the rearranger's stage tours -- is answered on that one gap
graph: :func:`gap_path` and :func:`gap_components` run one breadth-first
search of it, and :func:`chain_gap` is the smallest gap at which it is
connected.  :func:`gap_tour` strings fewest-hop paths through a list of
stops; a leg between neighbours is the edge itself, measured as the
kernel measures it, and the graph is built only for the other legs, so a
tour of a sample in an order that steps between neighbours costs one
distance per leg, not all pairs.  Chains are built by index: a walk builder
or the rearranger knows the sample index of every point it joins and asks
for the indices between them, never looking a point up by its
coordinates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

#: most entries in one block of :func:`distance_blocks` (2 MB of float64)
BLOCK_ENTRIES = 1 << 18


def is_dyadic(x) -> bool:
    """True when x is an integer or a Fraction with power-of-two denominator."""
    if isinstance(x, int):
        return True
    if isinstance(x, Fraction):
        d = x.denominator
        return d & (d - 1) == 0
    return False


def point_mode(p) -> str:
    """'exact' when every coordinate is int/Fraction, else 'float'."""
    coords = p.entries.values() if hasattr(p, "entries") else p
    return "exact" if all(isinstance(c, (int, Fraction)) for c in coords) else "float"


def norm(v) -> float:
    """Euclidean norm of a dense point, sup norm of a SparseVec, as a float.

    The sup norm of an empty-support SparseVec is 0.  An exact coordinate
    beyond the float range, as the sum of two terms near the largest float
    can be, gives inf, the float it rounds to.
    """
    try:
        if hasattr(v, "entries"):
            return max((abs(float(c)) for c in v.entries.values()), default=0.0)
        return math.sqrt(sum(float(c) * float(c) for c in v))
    except OverflowError:
        return math.inf


def sub(u, v):
    """u - v for dense points or SparseVecs (mode preserved)."""
    if hasattr(u, "entries") or hasattr(v, "entries"):
        return u - v
    return tuple(a - b for a, b in zip(u, v, strict=True))


def add(u, v):
    if hasattr(u, "entries") or hasattr(v, "entries"):
        return u + v
    return tuple(a + b for a, b in zip(u, v, strict=True))


def neg(u):
    if hasattr(u, "entries"):
        return -u
    return tuple(-a for a in u)


def distance(u, v) -> float:
    return norm(sub(u, v))


@dataclass(frozen=True)
class PointSample:
    """A finite list of points standing in for a (possibly infinite) set."""

    points: tuple
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def _points(a) -> tuple:
    points = tuple(a)  # a PointSample or a sequence of points
    if not points:
        raise ValueError("empty sample")
    return points


def float_rows(*samples) -> tuple[bool, list[np.ndarray]]:
    """``(sup, matrices)``: whether the samples lie in c0, measured in the
    sup norm (samples never mix spaces), and each sample as a float64
    matrix, one row per point, all over the same columns: a dense point's
    coordinates, or for SparseVecs the sorted union of every sample's
    supports (zero-support vectors alone give no columns).  Empty samples
    alone are dense, 0x0.  Dense points of different lengths, in one sample
    or across samples, raise ValueError.  A dense sample that holds its
    float64 matrix as ``rows`` (``rearrange.FloatSeries``) gives that
    matrix as it is, read-only."""
    first = next((s[0] for s in samples if len(s)), ())
    if not hasattr(first, "entries"):
        return False, [_dense_rows(s, len(first)) for s in samples]
    support = sorted({i for s in samples for p in s for i in p.entries})
    column = {i: k for k, i in enumerate(support)}
    out = []
    for s in samples:
        rows = np.zeros((len(s), len(support)))
        for r, p in enumerate(s):
            for i, v in p.entries.items():
                rows[r, column[i]] = float(v)
        out.append(rows)
    return True, out


def _dense_rows(sample, dim: int) -> np.ndarray:
    """One dense sample of :func:`float_rows` as a float64 matrix of ``dim``
    columns: the matrix it holds, or one flat conversion of its points."""
    held = getattr(sample, "rows", None)
    if isinstance(held, np.ndarray):
        if len(held) and held.shape[1] != dim:
            raise ValueError("points of different dimensions")
        return held if len(held) else held.reshape(0, dim)
    if not set(map(len, sample)) <= {dim}:
        raise ValueError("points of different dimensions")
    return np.fromiter(itertools.chain.from_iterable(sample), float,
                       count=len(sample) * dim).reshape(len(sample), dim)


def coordinate_ufuncs(sup: bool) -> tuple[np.ufunc, np.ufunc]:
    """``(power, fold)``, the two ufuncs by which a norm folds coordinates:
    abs and maximum for the sup norm, square and add (the squared
    Euclidean norm) otherwise."""
    return (np.abs, np.maximum) if sup else (np.square, np.add)


def fold_norms(coords, shape, sup: bool) -> np.ndarray:
    """Norms of the points whose coordinate arrays ``coords`` yields: zeros
    of ``shape``, each array folded in by :func:`coordinate_ufuncs`, and a
    root for the Euclidean norm.  Overflow, in a lazy ``coords`` too, is inf."""
    power, fold = coordinate_ufuncs(sup)
    acc = np.zeros(shape)
    with np.errstate(over="ignore"):
        for d in coords:
            fold(acc, power(d), out=acc)
    return acc if sup else np.sqrt(acc, out=acc)


def distance_blocks(a, b):
    """Pairwise distances from sample a to sample b as ``(row_offset, block)``
    pairs, in row order: ``block[r, c]`` is the distance from
    ``a[row_offset + r]`` to ``b[c]``.  A block holds at most BLOCK_ENTRIES
    entries, or one row when a row alone is longer.  Distances accumulate
    one coordinate at a time, in the norm of the samples' space, so they
    equal :func:`distance` on dyadic points."""
    sup, (rows_a, rows_b) = float_rows(a, b)
    step = max(1, BLOCK_ENTRIES // max(1, len(rows_b)))
    for lo in range(0, len(rows_a), step):
        yield lo, _block(rows_a[lo:lo + step], rows_b, sup)


def upper_distance_blocks(a):
    """The distances of the pairs i < j of sample a as ``(row_offset,
    block)`` pairs, in row order: ``block[r, c]`` is the distance from
    ``a[row_offset + r]`` to ``a[row_offset + 1 + c]``, so the pairs i < j
    are the entries with c >= r.  The rest are the same block's pairs
    mirrored and zeros (i == j), so a block's maximum is that of its pairs.
    Each block starts at its first row's right neighbour and holds at most
    BLOCK_ENTRIES entries, or one row when a row alone is longer."""
    sup, (rows,) = float_rows(a)
    lo = 0
    while lo < len(rows) - 1:
        step = max(1, BLOCK_ENTRIES // (len(rows) - lo - 1))
        yield lo, _block(rows[lo:lo + step], rows[lo + 1:], sup)
        lo += step


def _block(rows_a: np.ndarray, rows_b: np.ndarray, sup: bool) -> np.ndarray:
    """The distance matrix between two float row matrices, the kernel of
    :func:`distance_blocks` and :func:`upper_distance_blocks`."""
    return fold_norms((rows_a[:, col, None] - rows_b[None, :, col]
                       for col in range(rows_a.shape[1])),
                      (len(rows_a), len(rows_b)), sup)


def hausdorff_distance(a, b) -> float:
    """Symmetric Hausdorff distance between two finite samples."""
    a, b = _points(a), _points(b)
    row_max, col_min = 0.0, np.full(len(b), np.inf)
    for _, block in distance_blocks(a, b):
        row_max = max(row_max, block.min(axis=1).max())
        np.minimum(col_min, block.min(axis=0), out=col_min)
    return float(max(row_max, col_min.max()))


def gap_graph(a, gap: float) -> list[list[int]]:
    """Neighbour lists of the gap graph (edges: distance <= gap): ``nbrs[i]``
    holds, in index order, every other index within ``gap`` of point i."""
    a = _points(a)
    nbrs = []
    for lo, block in distance_blocks(a, a):
        adj = block <= gap
        rows = np.arange(len(adj))
        adj[rows, lo + rows] = False  # no self-edges
        nbrs += [np.flatnonzero(row).tolist() for row in adj]
    return nbrs


def _reach(nbrs: list[list[int]], i: int, stop: Optional[int]) -> dict[int, int]:
    """``{reached index: parent}`` of a breadth-first search from i (its
    own parent), neighbours in index order, ending once ``stop`` (None:
    never) is reached; equal graphs give equal answers."""
    prev = {i: i}
    queue = [i]
    for u in queue:  # the queue grows while it is read
        if stop in prev:
            break
        for v in nbrs[u]:
            if v not in prev:
                prev[v] = u
                queue.append(v)
    return prev


def gap_path(nbrs: list[list[int]], i: int, j: int) -> Optional[list[int]]:
    """Fewest-hop path of indices from i to j in a gap graph, or None."""
    prev = _reach(nbrs, i, j)
    if j not in prev:
        return None
    path = [j]
    while path[-1] != i:
        path.append(prev[path[-1]])
    return path[::-1]


def gap_tour(a, gap: float, stops) -> Optional[list[int]]:
    """Indices of a tour of the sample's gap graph through the stops in
    turn, each leg a fewest-hop :func:`gap_path`, or None when a leg has no
    path.  A stop repeated in place is one zero-length hop, so ``[i, i]``
    tours to ``[i, i]``.

    A leg between neighbours is the edge itself, and :func:`gap_graph` is
    built, once, only when some other leg needs a search.  This is exact:
    every leg i -> j is measured in one :func:`fold_norms` over the
    coordinate differences ``rows[i, c] - rows[j, c]``, the operands of
    ``_block``'s ``a_i - b_j`` in the same order, so ``d <= gap`` is exactly
    "j is in ``gap_graph(a, gap)[i]``"; and a breadth-first search from i
    records ``prev[j] = i`` while it expands i, so the fewest-hop path to a
    neighbour is ``[i, j]``.  A NaN distance is no edge, so its leg goes to
    the search, which finds no edge at that point either.
    """
    a = _points(a)
    sup, (rows,) = float_rows(a)
    ends = np.asarray(stops)
    legs = fold_norms((rows[ends[:-1], c] - rows[ends[1:], c] for c in range(rows.shape[1])),
                      len(ends) - 1, sup)
    nbrs = None
    tour = [stops[0]]
    for i, j, d in zip(stops, stops[1:], legs.tolist()):
        if i == j or d <= gap:
            tour.append(j)
            continue
        if nbrs is None:
            nbrs = gap_graph(a, gap)
        path = gap_path(nbrs, i, j)
        if path is None:
            return None
        tour += path[1:]
    return tour


def chain_gap(a) -> float:
    """The smallest gap at which the sample's gap graph is connected: the
    longest edge of a minimum spanning tree, 0.0 for a single point.

    Prim's algorithm over the kernel of :func:`distance_blocks`, one row of
    distances per point joined, so memory stays linear in the sample and
    every distance equals the one :func:`gap_graph` thresholds.
    """
    sup, (rows,) = float_rows(_points(a))
    rest = np.arange(1, len(rows))  # points not yet in the tree
    near = _block(rows[:1], rows[rest], sup)[0]  # their distance to the tree
    gap = 0.0
    while rest.size:
        k = int(np.argmin(near))
        gap = max(gap, float(near[k]))
        u = rest[k]
        rest, near = np.delete(rest, k), np.delete(near, k)
        np.minimum(near, _block(rows[u:u + 1], rows[rest], sup)[0], out=near)
    return gap


def gap_components(a, gap: float) -> list[list[int]]:
    """Connected components of the gap graph (edges: distance <= gap).

    Returns a partition of ``range(len(a))`` as sorted lists of indices,
    ordered by smallest member.
    """
    nbrs = gap_graph(a, gap)
    blocks, seen = [], set()
    for i in range(len(nbrs)):
        if i not in seen:
            blocks.append(sorted(_reach(nbrs, i, None)))
            seen.update(blocks[-1])
    return blocks


def gap_chainable(a, gap: float, start, end):
    """BFS chain from start to end inside the sample with steps <= gap.

    Returns the chain as a list of points, or None when start and end sit in
    different gap-components.  Raises ValueError when an endpoint is not
    exactly a sample element.  No library code calls it: the walk builders
    and the rearranger join indices with :func:`gap_path`.  It stays only while the benchmark
    traces it by name, and goes with that benchmark change (ROADMAP item 1).
    """
    points = tuple(a)
    try:
        si, ei = points.index(start), points.index(end)
    except ValueError:
        raise ValueError("endpoint not in sample") from None
    path = gap_path(gap_graph(points, gap), si, ei)
    return None if path is None else [points[i] for i in path]
