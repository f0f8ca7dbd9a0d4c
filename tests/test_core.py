from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from serwalk.core import (EUCLIDEAN, SUP, PointSample, _distance_matrix, distance,
                          float_rows, gap_chainable, gap_components, gap_graph,
                          gap_path, hausdorff_distance, is_dyadic, norm, point_mode,
                          same_point)
from serwalk.seqspace import THETA, SparseVec

coords = st.floats(-50, 50, allow_nan=False, allow_infinity=False)
points2 = st.tuples(coords, coords)
samples = st.lists(points2, min_size=1, max_size=12).map(
    lambda ps: PointSample(tuple(ps)))


def test_is_dyadic():
    assert is_dyadic(3)
    assert is_dyadic(Fraction(5, 8))
    assert not is_dyadic(Fraction(1, 3))
    assert not is_dyadic(0.5)  # floats are float-mode, not exact


def test_point_mode():
    assert point_mode((Fraction(1, 2), 3)) == "exact"
    assert point_mode((0.5, 1)) == "float"


def test_norms_against_numpy():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = tuple(rng.uniform(-5, 5, size=3))
        assert norm(v, EUCLIDEAN) == pytest.approx(np.linalg.norm(v))
        assert norm(v, SUP) == pytest.approx(np.abs(v).max())


def test_norm_unknown_kind():
    with pytest.raises(ValueError):
        norm((1.0,), "manhattan")


def test_distance_exact_is_exact():
    a = (Fraction(1, 2), Fraction(0))
    b = (Fraction(1), Fraction(0))
    assert distance(a, b) == 0.5
    assert same_point(a, a)
    assert not same_point(a, b)


def test_hausdorff_against_scipy():
    from scipy.spatial.distance import cdist
    rng = np.random.default_rng(1)
    for _ in range(25):
        a = rng.uniform(-3, 3, size=(6, 2))
        b = rng.uniform(-3, 3, size=(7, 2))
        d = cdist(a, b)
        want = max(d.min(axis=1).max(), d.min(axis=0).max())
        got = hausdorff_distance(PointSample(tuple(map(tuple, a))),
                                 PointSample(tuple(map(tuple, b))))
        assert got == pytest.approx(want)


def test_hausdorff_empty_raises():
    with pytest.raises(ValueError, match="empty sample"):
        hausdorff_distance(PointSample(()), PointSample(((0.0, 0.0),)))


@settings(max_examples=60, deadline=None)
@given(samples, samples, samples)
def test_hausdorff_triangle_inequality(a, b, c):
    dab = hausdorff_distance(a, b)
    dbc = hausdorff_distance(b, c)
    dac = hausdorff_distance(a, c)
    assert dac <= dab + dbc + 1e-9


def test_hausdorff_identity_and_symmetry():
    a = PointSample(((0.0, 0.0), (1.0, 1.0)))
    b = PointSample(((0.0, 0.5),))
    assert hausdorff_distance(a, a) == 0.0
    assert hausdorff_distance(a, b) == hausdorff_distance(b, a)


def _brute_components(pts, gap):
    # independent oracle: transitive closure by repeated merging
    comp = list(range(len(pts)))
    changed = True
    while changed:
        changed = False
        for i in range(len(pts)):
            for j in range(len(pts)):
                if distance(pts[i], pts[j]) <= gap and comp[i] != comp[j]:
                    lo, hi = sorted((comp[i], comp[j]))
                    comp = [lo if c == hi else c for c in comp]
                    changed = True
    groups = {}
    for i, c in enumerate(comp):
        groups.setdefault(c, []).append(i)
    return sorted(groups.values(), key=lambda g: g[0])


@settings(max_examples=40, deadline=None)
@given(st.lists(points2, min_size=1, max_size=9), st.floats(0.1, 20))
def test_gap_components_matches_brute_force(pts, gap):
    sample = PointSample(tuple(pts))
    assert gap_components(sample, gap) == _brute_components(pts, gap)


@settings(max_examples=40, deadline=None)
@given(st.lists(points2, min_size=2, max_size=9), st.floats(0.1, 20))
def test_chainable_iff_same_component(pts, gap):
    sample = PointSample(tuple(pts))
    comps = gap_components(sample, gap)
    where = {}
    for ci, comp in enumerate(comps):
        for i in comp:
            where[i] = ci
    chain = gap_chainable(sample, gap, pts[0], pts[-1])
    if where[0] == where[sample.index_of(pts[-1])]:
        assert chain is not None
        assert same_point(chain[0], pts[0])
        assert same_point(chain[-1], pts[-1])
        for u, v in zip(chain, chain[1:]):
            assert distance(u, v) <= gap + 1e-12
    else:
        assert chain is None


def _brute_hops(pts, gap, i):
    # independent oracle: hop count from i to each reachable index, found
    # level by level over core.distance
    hops, frontier, depth = {i: 0}, [i], 0
    while frontier:
        depth += 1
        nxt = []
        for u in frontier:
            for v in range(len(pts)):
                if v not in hops and distance(pts[u], pts[v]) <= gap:
                    hops[v] = depth
                    nxt.append(v)
        frontier = nxt
    return hops


# lattice points a few gaps across make many multi-hop chains
lattice = st.lists(st.tuples(st.integers(0, 5).map(float), st.integers(0, 5).map(float)),
                   min_size=1, max_size=16, unique=True)


@settings(max_examples=100, deadline=None)
@given(lattice, st.sampled_from([0.5, 1.0, 1.5, 2.0]), st.data())
def test_gap_path_matches_brute_force(pts, gap, data):
    i = data.draw(st.integers(0, len(pts) - 1))
    j = data.draw(st.integers(0, len(pts) - 1))
    path = gap_path(gap_graph(pts, gap), i, j)
    hops = _brute_hops(pts, gap, i)
    together = any(i in c and j in c for c in _brute_components(pts, gap))
    assert (path is None) == (not together)
    if path is not None:
        assert path[0] == i and path[-1] == j
        assert len(path) - 1 == hops[j]
        for u, v in zip(path, path[1:]):
            assert distance(pts[u], pts[v]) <= gap


def test_gap_path_on_a_cycle():
    # the 5-cycle 0-1-4-3-2-0 reaches 4 and 3 the short way round
    nbrs = [[1, 2], [0, 4], [0, 3], [2, 4], [1, 3]]
    assert gap_path(nbrs, 0, 4) == [0, 1, 4]
    assert gap_path(nbrs, 0, 3) == [0, 2, 3]
    assert gap_path(nbrs, 0, 0) == [0]
    assert gap_path([[], []], 0, 1) is None


def test_gap_chainable_endpoint_not_in_sample():
    sample = PointSample(((0.0, 0.0), (1.0, 0.0)))
    with pytest.raises(ValueError, match="endpoint not in sample"):
        gap_chainable(sample, 1.5, (0.0, 0.0), (2.0, 2.0))


def test_gap_chainable_trivial_chain():
    sample = PointSample(((0.0, 0.0), (5.0, 5.0)))
    assert gap_chainable(sample, 0.1, (0.0, 0.0), (0.0, 0.0)) == [(0.0, 0.0)]


def test_gap_components_line_of_points():
    pts = tuple((0.1 * i, 0.0) for i in range(11))
    assert len(gap_components(PointSample(pts), 0.11)) == 1
    assert len(gap_components(PointSample(pts), 0.09)) == 11


def test_sup_vs_euclidean_components():
    # diagonal neighbours: sup distance 1, euclidean sqrt(2)
    pts = PointSample(((0.0, 0.0), (1.0, 1.0)))
    assert len(gap_components(pts, 1.0, kind=SUP)) == 1
    assert len(gap_components(pts, 1.0, kind=EUCLIDEAN)) == 2


# dyadic points in up to four coordinates, as dense tuples of floats and as
# SparseVecs of Fractions (coordinate i -> index i + 1)
dyadic_rows = st.integers(1, 4).flatmap(lambda d: st.lists(
    st.tuples(*[st.integers(-16, 16)] * d), min_size=1, max_size=8))


def as_dense(rows):
    return [tuple(k / 8 for k in r) for r in rows]


def as_sparse(rows):
    return [SparseVec({i: Fraction(k, 8) for i, k in enumerate(r, start=1)})
            for r in rows]


@settings(max_examples=60, deadline=None)
@given(dyadic_rows, dyadic_rows, st.sampled_from([EUCLIDEAN, SUP]),
       st.sampled_from([0.25, 0.5, 1.0]))
def test_sparse_and_dense_layouts_agree(rows_a, rows_b, kind, gap):
    dense_a, sparse_a = as_dense(rows_a), as_sparse(rows_a)
    sparse_b = as_sparse(rows_b)
    # the pairwise loop the numpy kernel replaced is the oracle
    want = [[distance(u, v, kind) for v in sparse_b] for u in sparse_a]
    assert _distance_matrix(sparse_a, sparse_b, kind).tolist() == want
    if len(rows_a[0]) == len(rows_b[0]):
        dense_b = as_dense(rows_b)
        assert (hausdorff_distance(dense_a, dense_b, kind)
                == hausdorff_distance(sparse_a, sparse_b, kind))
    assert gap_components(dense_a, gap, kind) == gap_components(sparse_a, gap, kind)


def test_zero_support_points_have_no_columns():
    a, b = float_rows([THETA, THETA], [THETA])
    assert a.shape == (2, 0) and b.shape == (1, 0)
    assert _distance_matrix([THETA, THETA], [THETA], SUP).tolist() == [[0.0], [0.0]]
    one = SparseVec({3: Fraction(1, 2)})
    a, b = float_rows([THETA], [one, THETA])
    assert a.tolist() == [[0.0]] and b.tolist() == [[0.5], [0.0]]
    for kind in (EUCLIDEAN, SUP):
        assert _distance_matrix([THETA], [one, THETA], kind).tolist() == [[0.5, 0.0]]
        assert hausdorff_distance([THETA], [THETA], kind) == 0.0
        assert gap_components([THETA, one, THETA], 0.25, kind) == [[0, 2], [1]]
