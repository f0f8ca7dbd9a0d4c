import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from serwalk import core
from serwalk.analysis import cauchy_diagnostic
from serwalk.core import (PointSample, distance, distance_blocks, float_rows,
                          chain_gap, gap_chainable, gap_components, gap_graph,
                          gap_path, gap_tour, hausdorff_distance, is_dyadic,
                          norm, point_mode)
from serwalk.seqspace import THETA, SparseVec
from serwalk.walks import Walk

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
    # one norm per space: Euclidean for dense points, sup for SparseVecs
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = tuple(rng.uniform(-5, 5, size=3))
        assert norm(v) == pytest.approx(np.linalg.norm(v))
        sparse = SparseVec({i: c for i, c in enumerate(v, start=1)})
        assert norm(sparse) == np.abs(v).max()
    assert norm(THETA) == 0.0
    # an exact coordinate past the largest float rounds to inf
    assert norm(SparseVec({1: Fraction(10 ** 400)})) == math.inf
    assert norm((Fraction(10 ** 400), 0)) == math.inf


def test_distance_exact_is_exact():
    a = (Fraction(1, 2), Fraction(0))
    b = (Fraction(1), Fraction(0))
    assert distance(a, b) == 0.5


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
    if where[0] == where[pts.index(pts[-1])]:
        assert chain is not None
        assert chain[0] == pts[0] and chain[-1] == pts[-1]
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


def test_gap_tour_on_a_cycle():
    # legs 0->4, 4->3 and 3->0 of the same 5-cycle, each the short way round
    nbrs = [[1, 2], [0, 4], [0, 3], [2, 4], [1, 3]]
    assert gap_tour(nbrs, [0, 4, 3, 0]) == [0, 1, 4, 3, 2, 0]
    assert gap_tour(nbrs, [2, 2]) == [2, 2]  # a stop repeated in place
    assert gap_tour(nbrs, [3]) == [3]
    assert gap_tour([[1], [0], []], [0, 1, 2]) is None


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
    # diagonal neighbours: euclidean distance sqrt(2) between dense points,
    # sup distance 1 between the same coordinates as SparseVecs
    assert len(gap_components(PointSample(((0.0, 0.0), (1.0, 1.0))), 1.0)) == 2
    assert len(gap_components(PointSample((THETA, SparseVec({1: 1, 2: 1}))), 1.0)) == 1


# dyadic points in up to four coordinates, as dense tuples of floats and as
# SparseVecs of Fractions (coordinate i -> index i + 1)
def dyadic_lists(dim, max_size=8):
    return st.lists(st.tuples(*[st.integers(-16, 16)] * dim), min_size=1,
                    max_size=max_size)


# two samples of one dimension, the second long enough to split into blocks
dyadic_pairs = st.integers(1, 4).flatmap(
    lambda d: st.tuples(dyadic_lists(d), dyadic_lists(d, max_size=14)))


def as_dense(rows):
    return [tuple(k / 8 for k in r) for r in rows]


def as_sparse(rows):
    return [SparseVec({i: Fraction(k, 8) for i, k in enumerate(r, start=1)})
            for r in rows]


def _matrix(a, b):
    # the kernel's blocks stacked back into one matrix, as nested lists
    out = []
    for lo, block in distance_blocks(a, b):
        assert lo == len(out) and block.size <= max(core.BLOCK_ENTRIES, len(b))
        out += block.tolist()
    return out


@settings(max_examples=60, deadline=None)
@given(dyadic_pairs, st.sampled_from([0.25, 0.5, 1.0]))
def test_sparse_and_dense_layouts_agree(rows, gap):
    # the same coordinates as dense tuples and as SparseVecs lay out as the
    # same matrices, less the columns that no SparseVec uses
    dense = [as_dense(r) for r in rows]
    sparse = [as_sparse(r) for r in rows]
    used = sorted({i for r in rows[0] + rows[1] for i, k in enumerate(r) if k})
    dense_sup, dense_rows = float_rows(*dense)
    sparse_sup, sparse_rows = float_rows(*sparse)
    assert not dense_sup and sparse_sup
    for d, s in zip(dense_rows, sparse_rows):
        assert d[:, used].tolist() == s.tolist()
        assert not np.delete(d, used, axis=1).any()
    # on those matrices each layout is measured in its own space's norm,
    # and the numpy oracle is exact on dyadic coordinates
    a, b = (np.array(r, dtype=float) / 8 for r in rows)
    diff = a[:, None, :] - b[None, :, :]
    euclidean = np.sqrt((diff * diff).sum(axis=2)).tolist()
    sup = np.abs(diff).max(axis=2).tolist()
    assert _matrix(*dense) == euclidean
    assert _matrix(*sparse) == sup
    for pts in (dense[1], sparse[1]):
        assert gap_components(pts, gap) == _brute_components(pts, gap)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: dyadic_lists(d, max_size=12)), st.booleans())
def test_chain_gap_is_the_smallest_connecting_gap(rows, sparse):
    # the oracle tries every pairwise distance, 0.0 included, in order
    pts = (as_sparse if sparse else as_dense)(rows)
    gaps = sorted({distance(u, v) for u in pts for v in pts})
    assert chain_gap(pts) == next(g for g in gaps if len(gap_components(pts, g)) == 1)


def test_chain_gap_examples():
    assert chain_gap([(0.3, -1.0)]) == 0.0
    circle = [(math.cos(2 * math.pi * i / 126), math.sin(2 * math.pi * i / 126))
              for i in range(126)]  # acceptance c10's circle
    assert chain_gap(circle) == 0.049861383476146826
    # two radius-0.3 circles centred at (-0.5, 0) and (0.5, 0): the bridge
    # from (-0.2, 0) to (0.2, 0) is the longest spanning-tree edge
    two = [(c + 0.3 * math.cos(2 * math.pi * i / 64), 0.3 * math.sin(2 * math.pi * i / 64))
           for c in (-0.5, 0.5) for i in range(64)]
    assert chain_gap(two) == 0.4
    with pytest.raises(ValueError, match="empty sample"):
        chain_gap([])


def test_zero_support_points_have_no_columns():
    sup, (a, b) = float_rows([THETA, THETA], [THETA])
    assert sup and a.shape == (2, 0) and b.shape == (1, 0)
    assert _matrix([THETA, THETA], [THETA]) == [[0.0], [0.0]]
    one = SparseVec({3: Fraction(1, 2)})
    sup, (a, b) = float_rows([THETA], [one, THETA])
    assert sup and a.tolist() == [[0.0]] and b.tolist() == [[0.5], [0.0]]
    assert _matrix([THETA], [one, THETA]) == [[0.5, 0.0]]
    assert hausdorff_distance([THETA], [THETA]) == 0.0
    assert gap_components([THETA, one, THETA], 0.25) == [[0, 2], [1]]


#: coordinates whose float conversion rounds, keeps a sign or is not finite
AWKWARD = (0.1, -0.0, 0.0, 2 ** 53 + 1, -(2 ** 60) - 3, Fraction(1, 3), Fraction(-7, 2 ** 70),
           math.nan, math.inf, -math.inf, 1e308)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4).flatmap(lambda d: st.lists(st.lists(
    st.lists(st.sampled_from(AWKWARD), min_size=d, max_size=d).map(tuple),
    max_size=5), min_size=1, max_size=3)))
def test_dense_float_rows_are_numpys_conversion(samples):
    sup, rows = float_rows(*samples)
    assert not sup and len(rows) == len(samples)
    dim = next((len(s[0]) for s in samples if s), 0)
    for s, m in zip(samples, rows):
        want = np.array(s, dtype=float).reshape(len(s), dim)
        assert m.dtype == want.dtype and m.shape == want.shape
        assert m.tobytes() == want.tobytes()  # -0.0 and NaN included


@pytest.mark.parametrize("samples", [
    ([(1.0, 2.0), (3.0,)],),           # numpy: "inhomogeneous shape"
    ([(1.0, 2.0), (3.0, 4.0, 5.0)],),
    ([(1.0, 2.0)], [(3.0,)]),         # numpy: "cannot reshape"
    ([(1.0,), (2.0,)], [(3.0, 4.0)]),
    ([(1.0, 2.0)], [], [(3.0, 4.0), ()]),
])
def test_dense_points_of_different_lengths_are_refused(samples):
    with pytest.raises(ValueError, match="^points of different dimensions$"):
        float_rows(*samples)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_distance_past_the_float_range_is_inf_without_a_warning():
    # numpy once printed "overflow encountered in subtract" and "in square"
    acc = core.fold_norms([np.array([1e200, 2.0])], 2, False)
    assert acc.tolist() == [math.inf, 2.0]
    assert hausdorff_distance([(1e308,)], [(-1e308,)]) == math.inf
    assert hausdorff_distance([(1e200, 0.0)], [(0.0, 0.0)]) == math.inf


def _cauchy_oracle(sums):
    # the rule itself, over core.distance: the largest gap in the last 30%
    # of the sums
    offset = len(sums) - max(2, math.ceil(0.3 * (len(sums) - 1)))
    return {"max_gap": max(distance(sums[i], sums[j])
                           for i in range(offset, len(sums))
                           for j in range(i + 1, len(sums)))}


@settings(max_examples=80, deadline=None)
@given(dyadic_pairs, st.booleans(), st.integers(1, 20),
       st.sampled_from([0.25, 0.5, 1.0]))
def test_block_reductions_match_pairwise_oracles(rows, sparse, block_entries, gap):
    # dense points measured in the Euclidean norm, SparseVecs in the sup norm
    layout = as_sparse if sparse else as_dense
    a, b = layout(rows[0]), layout(rows[1])
    with pytest.MonkeyPatch.context() as mp:
        # a few entries per block, so that every sample spans several blocks
        mp.setattr(core, "BLOCK_ENTRIES", block_entries)
        d = [[distance(u, v) for v in b] for u in a]
        assert _matrix(a, b) == d
        assert hausdorff_distance(a, b) == max(
            max(min(row) for row in d), max(min(col) for col in zip(*d)))
        assert gap_graph(b, gap) == [
            [j for j, v in enumerate(b) if j != i and distance(u, v) <= gap]
            for i, u in enumerate(b)]
        sums = [layout([(0,) * len(rows[1][0])])[0]] + b
        assert (cauchy_diagnostic(Walk(sums, [len(sums) - 1]))
                == _cauchy_oracle(sums))


def test_cauchy_max_gap_keeps_a_rise_below_1e_15(monkeypatch):
    # pairs at 1, then at b = 1 + 2^-51, then at c = 1 + 5 * 2^-52, each on
    # its own coordinate so that no cross pair comes near, and each level in
    # later blocks than the one before: the running maximum over the blocks
    # keeps rises of a few ulps
    monkeypatch.setattr(core, "BLOCK_ENTRIES", 200)
    b, c = Fraction(1) + Fraction(1, 2 ** 51), Fraction(1) + Fraction(5, 2 ** 52)
    tail = [SparseVec({axis: s * half}) for axis, half, reps in
            [(1, Fraction(1, 2), 20), (2, b / 2, 10), (3, c / 2, 3)]
            for _ in range(reps) for s in (-1, 1)]
    sums = [THETA] * 155 + tail
    got = cauchy_diagnostic(Walk(sums, [len(sums) - 1]))
    assert got == _cauchy_oracle(sums) == {"max_gap": float(c)}


def test_hausdorff_memory_is_bounded():
    # the full 4,000 x 4,000 float64 matrix alone would take 128 MB
    rng = np.random.default_rng(4)
    a, b = (PointSample(tuple(map(tuple, rng.uniform(-1, 1, size=(4000, 2)))))
            for _ in range(2))
    tracemalloc.start()
    try:
        got = hausdorff_distance(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < got < 0.1
    assert peak < 32 * 2 ** 20
