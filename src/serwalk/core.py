"""Vector primitives shared by every other module.

Two scalar modes coexist:

* exact mode -- coordinates are ``fractions.Fraction`` (all canonical
  generators only ever produce dyadic rationals, so +, - and halving stay
  exact and equality assertions are bit-for-bit);
* float mode -- plain 64-bit floats for generic analysis.

Points are plain tuples; finite-support sequence-space vectors are
:class:`serwalk.seqspace.SparseVec`.  Norms and distances always come back
as floats regardless of mode.

:func:`float_rows` is the one place where points become float
coordinates: it lays samples of either kind out as float64 matrices over
shared columns, and the distance kernel and the greedy balancer both work
on those matrices.  Float64 is exact for dyadic coordinates of moderate
size, which covers every generator and every trace read from disk, so
measuring on the matrix gives the same answer as the exact points.

Every distance-threshold question -- gap components, epsilon-chains, the
merge step of a limit estimate, chain building -- is answered by one gap
graph: :func:`gap_graph` builds its neighbour lists from one distance
matrix and :func:`gap_path` is its breadth-first search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

#: points closer than this are considered the same sample element
MEMBERSHIP_TOL = 1e-12

EUCLIDEAN = "euclidean"
SUP = "sup"


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
    coords = _coords(p)
    return "exact" if all(isinstance(c, (int, Fraction)) for c in coords) else "float"


def _coords(v) -> Sequence:
    # SparseVec exposes .entries; dense points are plain sequences
    if hasattr(v, "entries"):
        return list(v.entries.values())
    return v


def norm(v, kind: str = EUCLIDEAN) -> float:
    """Euclidean or sup norm of a dense point or a SparseVec, as a float.

    The sup norm of an empty-support SparseVec is 0.
    """
    coords = _coords(v)
    if kind == SUP:
        return max((abs(float(c)) for c in coords), default=0.0)
    if kind == EUCLIDEAN:
        return math.sqrt(sum(float(c) * float(c) for c in coords))
    raise ValueError(f"unknown norm kind {kind!r}")


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


def distance(u, v, kind: str = EUCLIDEAN) -> float:
    return norm(sub(u, v), kind)


def same_point(u, v, tol: float = MEMBERSHIP_TOL, kind: str = EUCLIDEAN) -> bool:
    return distance(u, v, kind) <= tol


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

    def index_of(self, p, kind: str = EUCLIDEAN) -> Optional[int]:
        for i, q in enumerate(self.points):
            if same_point(p, q, kind=kind):
                return i
        return None


def _as_sample(a) -> PointSample:
    return a if isinstance(a, PointSample) else PointSample(tuple(a))


def float_rows(*samples) -> list[np.ndarray]:
    """Each sample as a float64 matrix, one row per point, all over the
    same columns: a dense point's coordinates, or for SparseVecs the sorted
    union of every sample's supports (zero-support vectors alone give no
    columns)."""
    first = next((s[0] for s in samples if len(s)), ())
    if not hasattr(first, "entries"):
        return [np.array(s, dtype=float).reshape(len(s), len(first)) for s in samples]
    support = sorted({i for s in samples for p in s for i in p.entries})
    column = {i: k for k, i in enumerate(support)}
    out = []
    for s in samples:
        rows = np.zeros((len(s), len(support)))
        for r, p in enumerate(s):
            for i, v in p.entries.items():
                rows[r, column[i]] = float(v)
        out.append(rows)
    return out


def fold_coordinate(acc: np.ndarray, d: np.ndarray, kind: str) -> None:
    """Fold one coordinate's values d into acc in place: the running max of
    |d| for the sup norm, else the running sum of d*d (the squared norm)."""
    if kind == SUP:
        np.maximum(acc, np.abs(d), out=acc)
    else:
        acc += d * d


def _distance_matrix(pts_a, pts_b, kind: str) -> np.ndarray:
    """Pairwise distances, accumulated one coordinate at a time so that
    memory stays at one len(a) x len(b) matrix."""
    a, b = float_rows(pts_a, pts_b)
    out = np.zeros((len(a), len(b)))
    for col in range(a.shape[1]):
        fold_coordinate(out, a[:, col, None] - b[None, :, col], kind)
    return out if kind == SUP else np.sqrt(out)


def hausdorff_distance(a, b, kind: str = EUCLIDEAN) -> float:
    """Symmetric Hausdorff distance between two finite samples."""
    a, b = _as_sample(a), _as_sample(b)
    if not a.points or not b.points:
        raise ValueError("empty sample")
    d = _distance_matrix(a.points, b.points, kind)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def gap_graph(a, gap: float, kind: str = EUCLIDEAN) -> list[list[int]]:
    """Neighbour lists of the gap graph (edges: distance <= gap): ``nbrs[i]``
    holds, in index order, every other index within ``gap`` of point i."""
    a = _as_sample(a)
    if not a.points:
        raise ValueError("empty sample")
    adj = _distance_matrix(a.points, a.points, kind) <= gap
    np.fill_diagonal(adj, False)
    return [np.flatnonzero(row).tolist() for row in adj]


def gap_path(nbrs: list[list[int]], i: int, j: int) -> Optional[list[int]]:
    """Fewest-hop path of indices from i to j in a gap graph, or None.

    Breadth-first with neighbours in index order, so equal graphs give
    equal paths.
    """
    prev = {i: i}
    queue = [i]
    for u in queue:  # the queue grows while it is read
        if j in prev:
            break
        for v in nbrs[u]:
            if v not in prev:
                prev[v] = u
                queue.append(v)
    if j not in prev:
        return None
    path = [j]
    while path[-1] != i:
        path.append(prev[path[-1]])
    return path[::-1]


def gap_components(a, gap: float, kind: str = EUCLIDEAN) -> list[list[int]]:
    """Connected components of the gap graph (edges: distance <= gap).

    Returns a partition of ``range(len(a))`` as sorted lists of indices,
    ordered by smallest member.
    """
    nbrs = gap_graph(a, gap, kind)
    blocks, seen = [], set()
    for i in range(len(nbrs)):
        if i in seen:
            continue
        seen.add(i)
        block = [i]
        for u in block:  # the block grows while it is read
            for v in nbrs[u]:
                if v not in seen:
                    seen.add(v)
                    block.append(v)
        blocks.append(sorted(block))
    return blocks


def gap_chainable(a, gap: float, start, end, kind: str = EUCLIDEAN):
    """BFS chain from start to end inside the sample with steps <= gap.

    Returns the chain as a list of points, or None when start and end sit in
    different gap-components.  Raises ValueError when an endpoint is not a
    sample element.
    """
    a = _as_sample(a)
    si = a.index_of(start, kind=kind)
    ei = a.index_of(end, kind=kind)
    if si is None or ei is None:
        raise ValueError("endpoint not in sample")
    path = gap_path(gap_graph(a, gap, kind), si, ei)
    return None if path is None else [a.points[i] for i in path]
