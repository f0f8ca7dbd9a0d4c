import functools
import math
import operator
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from serwalk import analysis
from serwalk.analysis import (ALL_COMPONENTS_ESCAPE, COMPACT_CONNECTED,
                              VIOLATION, LimitEstimate, _modal_point,
                              cauchy_diagnostic,
                              estimate_limit_set, singleton_convergence_check,
                              verify_dichotomy)
from serwalk.core import PointSample, distance, gap_components
from serwalk.seqspace import (THETA, SparseVec, e, gen_c0_singleton_divergent,
                              gen_c0_two_point)
from serwalk.walks import Walk, build_xwalk, gen_two_lines


def _convergent_walk(p=(1.0, 0.5), n=400):
    sums = [(0.0, 0.0)]
    for k in range(1, n + 1):
        decay = 0.98 ** k
        sums.append((p[0] + decay, p[1] - 0.5 * decay))
    return Walk(sums, [n])


def _noisy_two_point_walk(n_phases=8, reps=20, seed=4):
    rng = random.Random(seed)
    sums = [(0.0, 0.0)]
    lengths = []
    for _ in range(n_phases):
        before = len(sums)
        for _ in range(reps):
            for base in ((1.0, 0.0), (0.0, 0.0)):
                sums.append((base[0] + rng.uniform(-0.01, 0.01),
                             base[1] + rng.uniform(-0.01, 0.01)))
        lengths.append(len(sums) - before)
    return Walk(sums, lengths)


def test_estimate_validation():
    with pytest.raises(ValueError, match="resolution"):
        estimate_limit_set(gen_c0_two_point(3), resolution=-1.0)
    with pytest.raises(ValueError, match="window shorter than 2 points"):
        estimate_limit_set(Walk([(0.0, 0.0), (1.0, 0.0)], [1]), resolution=0.1)


@pytest.mark.parametrize("kw, message", [
    ({"resolution": math.nan}, "resolution must be finite and positive"),
    ({"resolution": math.inf}, "resolution must be finite and positive"),
], ids=["resolution-nan", "resolution-inf"])
def test_estimate_refuses_nan_parameters(kw, message):
    # a NaN once passed the range checks and failed later in math.ceil or
    # math.floor with "cannot convert float NaN to integer"
    with pytest.raises(ValueError, match=message):
        estimate_limit_set(gen_c0_two_point(3), **kw)


def test_estimate_two_point_walk_exact():
    w = gen_c0_two_point(8)
    est = estimate_limit_set(w, resolution=0.2)
    assert set(est.points.points) == {THETA, e(1)}
    assert all(c >= 2 for c in est.hit_counts)


def test_estimate_window_spans_whole_phases():
    w = gen_two_lines(6)
    est = estimate_limit_set(w, resolution=0.1)
    blocks = w.phase_blocks()
    assert est.window_start in {lo for lo, _ in blocks}
    # window covers at least the fixed fraction, in at least two phases
    assert len(w.sums) - est.window_start >= analysis.WINDOW_FRACTION * (len(w.sums) - 1)
    assert sum(lo >= est.window_start for lo, _ in blocks) >= 2


def test_estimate_float_walk_means_shake_off_noise():
    w = _noisy_two_point_walk()
    est = estimate_limit_set(w, resolution=0.2)
    assert len(est) == 2
    for target in ((0.0, 0.0), (1.0, 0.0)):
        assert min(distance(p, target) for p in est.points.points) < 0.02


def test_estimate_merge_is_strictly_below_half_resolution():
    # phases out to 3/8 and back: cells snap 1/8 and 3/8 apart at
    # resolution 1/2, and their modal representatives are 1/4 apart
    origin, near, far = (F(0), F(0)), (F(1, 8), F(0)), (F(3, 8), F(0))
    walk = build_xwalk([[origin, near, far]] * 2)
    est = estimate_limit_set(walk, resolution=0.5)
    assert est.points.points == (near, far)  # exactly resolution / 2 apart
    est = estimate_limit_set(walk, resolution=0.625)
    assert len(est.points) == 1  # 1/4 < 0.625 / 2: the cells merge


def test_modal_point_ranks_phases_then_count_then_first_seen():
    p, q = (F(0),), (F(1, 64),)
    # two phases beat three hits in one
    assert _modal_point([(q, 0), (q, 0), (q, 0), (p, 0), (p, 1)]) == p
    # equal phases: more hits win
    assert _modal_point([(q, 0), (p, 0), (q, 1), (p, 1), (q, 1)]) == q
    # equal phases and hits: the first seen wins
    assert _modal_point([(q, 0), (p, 0), (q, 1), (p, 1)]) == q
    assert _modal_point([(p, 0), (q, 0), (q, 1), (p, 1)]) == p


def test_estimate_finds_each_representative_once(monkeypatch):
    # each kept cell's mode is found once; only a merge group of two or
    # more cells looks for the mode of their union
    calls = []

    def counted(tagged):
        calls.append(tagged)
        return _modal_point(tagged)

    monkeypatch.setattr(analysis, "_modal_point", counted)
    est = estimate_limit_set(gen_two_lines(7), resolution=0.1)
    # 102 kept cells merge into 101 groups, one of them of two cells
    assert len(est) == 101 and len(calls) == 103


def test_verify_dichotomy_two_lines_escape():
    w = gen_two_lines(7)
    est = estimate_limit_set(w, resolution=0.1)
    out = verify_dichotomy(est, gap=0.9, bound=4.0)
    assert out["verdict"] == ALL_COMPONENTS_ESCAPE
    assert len(out["components"]) == 2
    assert all(out["escaped"])
    # a wider gap merges the two lines into one escaping component
    merged = verify_dichotomy(est, gap=1.1, bound=4.0)
    assert len(merged["components"]) == 1


def test_verify_dichotomy_compact_and_violation():
    bounded = LimitEstimate(PointSample(((0.0, 0.0), (0.5, 0.0))), 0, 0.1, [2, 2])
    assert verify_dichotomy(bounded, 1.0, 5.0)["verdict"] == COMPACT_CONNECTED
    mixed = LimitEstimate(PointSample(((0.0, 0.0), (10.0, 0.0))), 0, 0.1, [2, 2])
    assert verify_dichotomy(mixed, 1.0, 5.0)["verdict"] == VIOLATION
    empty = LimitEstimate(PointSample(()), 0, 0.1, [])
    with pytest.raises(ValueError, match="empty estimate"):
        verify_dichotomy(empty, 1.0, 5.0)


@pytest.mark.parametrize("gap, bound, message", [
    (math.nan, 5.0, "gap must be finite and >= 0, not nan"),
    (-1.0, 5.0, "gap must be finite and >= 0, not -1.0"),
    (math.inf, 5.0, "gap must be finite and >= 0, not inf"),
    (1.0, math.nan, "bound must be finite, not nan"),
    (1.0, math.inf, "bound must be finite, not inf"),
], ids=["gap-nan", "gap-negative", "gap-inf", "bound-nan", "bound-inf"])
def test_verify_dichotomy_refuses_bad_parameters(gap, bound, message):
    # each once read as a "violation" of a compact estimate
    est = LimitEstimate(PointSample(((0.0, 0.0), (0.5, 0.0))), 0, 0.1, [2, 2])
    with pytest.raises(ValueError, match=re.escape(message)):
        verify_dichotomy(est, gap, bound)


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
def test_singleton_check_refuses_bad_tol(tol):
    # NaN and -1 once read the divergent c0 walk as "diverges-with-singleton"
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        singleton_convergence_check(gen_c0_singleton_divergent(8), tol)


def test_singleton_check_convergent():
    w = _convergent_walk()
    out = singleton_convergence_check(w, tol=0.05)
    assert out["verdict"] == "converges-to"
    assert distance(out["point"], (1.0, 0.5)) < 0.05


def test_singleton_check_divergent_c0_walk():
    w = gen_c0_singleton_divergent(8)
    out = singleton_convergence_check(w, tol=0.25)
    assert out["verdict"] == "diverges-with-singleton"
    assert out["point"] == THETA


def test_singleton_check_not_singleton():
    w = _noisy_two_point_walk()
    out = singleton_convergence_check(w, tol=0.1)
    assert out["verdict"] == "not-singleton"


def test_singleton_check_too_short():
    w = Walk([(0.0,)] * 50, [49])
    with pytest.raises(ValueError, match="too short"):
        singleton_convergence_check(w, tol=0.1)


def test_cauchy_diagnostic():
    conv = cauchy_diagnostic(_convergent_walk())
    assert conv["max_gap"] < 0.05
    div = cauchy_diagnostic(gen_c0_two_point(6))
    assert div == {"max_gap": 1.0}
    with pytest.raises(ValueError, match="tail shorter than 2 points"):
        cauchy_diagnostic(Walk([(0.0, 0.0)], []))


# -- the estimate before it moved onto core.float_rows, kept as an oracle -----
# A verbatim copy, less docstrings, but for one line: _ref_mean_point adds
# each coordinate from 0 by a left fold, the order in which the builtin sum
# adds floats on Python 3.11 (3.12's sum compensates its rounding).

def _ref_snap_key(p, resolution: float):
    if hasattr(p, "entries"):
        key = []
        for i, v in p.entries.items():
            q = math.floor(float(v) / resolution + 0.5)
            if q != 0:
                key.append((i, q))
        return frozenset(key)
    return tuple(math.floor(float(c) / resolution + 0.5) for c in p)


def _ref_modal_point(tagged):
    records: dict[object, list] = {}  # point -> [phases, count]
    for p, phase_idx in tagged:
        rec = records.setdefault(p, [set(), 0])
        rec[0].add(phase_idx)
        rec[1] += 1
    best = max(records.items(), key=lambda item: (len(item[1][0]), item[1][1]))
    return best[0]


def _ref_mean_point(points):
    n = len(points)
    return tuple(functools.reduce(operator.add, (float(p[j]) for p in points), 0) / n
                 for j in range(len(points[0])))


def _ref_estimate(w, resolution):
    if not 0 < resolution < math.inf:
        raise ValueError("resolution must be finite and positive")
    start, blocks = analysis._window_bounds(w)
    if len(w.sums) - start < 2:
        raise ValueError("window shorter than 2 points")
    cells: dict[object, list] = {}
    for phase_idx, (lo, hi) in enumerate(blocks):
        for p in w.sums[lo:hi]:
            cells.setdefault(_ref_snap_key(p, resolution), []).append((p, phase_idx))
    multi_phase = len(blocks) >= 2
    exact = w.mode == "exact"

    def rep_of(tagged):
        if exact:
            return _ref_modal_point(tagged)
        return _ref_mean_point([p for p, _ in tagged])

    kept = []
    for tagged in cells.values():
        score = len({phase for _, phase in tagged}) if multi_phase else len(tagged)
        if score >= analysis.MIN_HITS:
            kept.append((rep_of(tagged), tagged))
    if not kept:
        return LimitEstimate(PointSample(()), start, resolution, [])
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


def _ref_singleton_verdict(w, tol):
    est = _ref_estimate(w, 0.2)
    if len(est) != 1:
        return "not-singleton"
    p = est.points.points[0]
    quarter = w.sums[len(w.sums) - (len(w.sums) - 1) // 4:]
    if all(distance(s, p) <= tol for s in quarter):
        return "converges-to"
    return "diverges-with-singleton"


@st.composite
def _grid_walks(draw):
    # a few grid points per phase, each phase its points repeated: cells are
    # shared within and across phases, and representatives on a coarse grid
    # merge at resolution/2; decimal steps make float means round
    kind = draw(st.sampled_from(["float", "exact", "sparse"]))
    dim = draw(st.integers(1, 3))
    span = draw(st.sampled_from([1, 2, 4, 16]))
    step = draw(st.sampled_from([F(1, 32), F(1, 16)] + [0.1] * (kind == "float")))
    if kind == "float":
        step = float(step)

    def coord():
        k = draw(st.integers(-span, span))
        if kind == "float" and k == 0 and draw(st.booleans()):
            return -0.0
        return k * step

    def point():
        if kind == "sparse":
            return SparseVec({i: coord() for i in range(1, dim + 1)})
        return tuple(coord() for _ in range(dim))

    # palette points one grid step apart, so that neighbours straddle cell
    # boundaries, both recur and their representatives merge
    palette = [point()]
    for _ in range(draw(st.integers(0, 5))):
        move = draw(st.sampled_from([-step, step]))
        axis = draw(st.integers(0, dim - 1))
        if kind == "sparse":
            palette.append(palette[-1] + SparseVec({axis + 1: move}))
        else:
            palette.append(tuple(c + move * (a == axis) for a, c in enumerate(palette[-1])))
    sums = [THETA if kind == "sparse" else (0.0 if kind == "float" else F(0),) * dim]
    lengths = []
    for _ in range(draw(st.integers(1, 5))):
        # recurring points from the palette, and now and then a transient
        phase = [draw(st.sampled_from(palette)) if draw(st.integers(0, 3)) else point()
                 for _ in range(draw(st.integers(1, 6)))]
        phase *= draw(st.sampled_from([1, 3, 9]))
        sums += phase
        lengths.append(len(phase))
    return Walk(sums, lengths)


_TWO_CELL_FLOATS = Walk([(0.0,)] + [(0.1,), (0.2,), (0.1,), (0.2,), (0.3,), (0.1,)] * 2, [6, 6])


@settings(max_examples=300, deadline=None)
@given(_grid_walks(), st.sampled_from([0.125, 0.2, 0.25, 0.5, 1.0]),
       st.sampled_from([0.05, 0.0625, 0.3]))
# two cells that merge: their float mean adds cell by cell, the six 0.1s
# and then the 0.2s and 0.3s, which rounds to another float than adding the
# sums in walk order; and an exact and a c0 pair across a boundary
@example(_TWO_CELL_FLOATS, 0.3, 0.3)
@example(Walk([(F(0),)] + [(F(3, 32),), (F(5, 32),)] * 2, [2, 2]), 0.25, 0.3)
@example(Walk([THETA] + [e(1, F(3, 32)), e(1, F(5, 32))] * 2, [2, 2]), 0.25, 0.3)
# a singleton whose last quarter lies exactly tol from its point: converges
@example(Walk([(F(0),)] + [(F(0),), (F(0),), (F(1, 16),)] * 40, [60, 60]), 0.2, 0.0625)
# a one-block window with -0.0 coordinates
@example(Walk([(0.0, 0.0)] + [(-0.0, 0.1), (0.0, -0.0), (-0.0, 0.1)] * 3, [9]), 0.2, 0.3)
def test_estimate_matches_the_per_point_estimate(w, resolution, tol):
    try:
        want = _ref_estimate(w, resolution)
    except ValueError as err:
        with pytest.raises(ValueError, match=re.escape(str(err))):
            estimate_limit_set(w, resolution)
        return
    got = estimate_limit_set(w, resolution)
    assert repr(got.points.points) == repr(want.points.points)
    assert got.hit_counts == want.hit_counts
    assert got.window_start == want.window_start
    if len(w.sums) - 1 >= 100:
        verdict = singleton_convergence_check(w, tol)["verdict"]
        assert verdict == _ref_singleton_verdict(w, tol)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad, resolution", [
    (math.inf, 0.1), (-math.inf, 0.1), (math.nan, 0.1), (1e308, 0.01)],
    ids=["inf", "-inf", "nan", "key-overflow"])
def test_estimate_names_a_sum_with_no_grid_cell(bad, resolution):
    # once an OverflowError or "cannot convert float NaN to integer" from
    # math.floor; 1e308 is finite, but 1e308 / 0.01 is not
    sums = [(0.0, 0.0)] + [(0.5, 0.0), (0.0, 0.5)] * 4
    sums[6] = (0.5, bad)
    with pytest.raises(ValueError, match=re.escape(
            f"sum 6 has no finite grid cell at resolution {resolution}")):
        estimate_limit_set(Walk(sums, [4, 4]), resolution)


def test_merged_float_cells_add_cell_by_cell():
    # cell 0 holds the six 0.1s, cell 1 the 0.2s and 0.3s in order of
    # appearance; adding all twelve in walk order gives another float
    est = estimate_limit_set(_TWO_CELL_FLOATS, 0.3)
    by_cell = 0.1 + 0.1 + 0.1 + 0.1 + 0.1 + 0.1 + 0.2 + 0.2 + 0.3 + 0.2 + 0.2 + 0.3
    by_walk = 0.1 + 0.2 + 0.1 + 0.2 + 0.3 + 0.1 + 0.1 + 0.2 + 0.1 + 0.2 + 0.3 + 0.1
    assert est.hit_counts == [12]
    assert est.points.points == ((by_cell / 12,),)
    assert by_walk / 12 != by_cell / 12
