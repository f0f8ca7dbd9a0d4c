import hashlib
import math
import random
from fractions import Fraction as F

import pytest

from serwalk.core import PointSample, distance, norm
from serwalk.walks import (PartialPermutation, build_chainable_walk,
                           build_unbounded_components_walk, build_xwalk,
                           gen_halflines, gen_two_lines, series_to_walk,
                           walk_to_series)


def test_partial_permutation_basics():
    tau = PartialPermutation([3, 1, 2])
    assert len(tau) == 3 and tau(1) == 3
    assert tau.covers_initial_segment(3)
    assert not tau.covers_initial_segment(4)


def test_partial_permutation_rejects_repeats():
    with pytest.raises(ValueError, match="not injective"):
        PartialPermutation([1, 2, 2])


def test_build_xwalk_requires_anchored_phases():
    with pytest.raises(ValueError, match="empty schedule"):
        build_xwalk([])
    with pytest.raises(ValueError, match="phase not anchored"):
        build_xwalk([[(F(0), F(0)), (F(1), F(0))], [(F(1), F(0)), (F(0), F(0))]])


def test_two_lines_first_phase_exact():
    w = gen_two_lines(1)
    assert w.mode == "exact"
    assert w.sums == [(F(0), F(0)), (F(1, 2), F(0)), (F(1), F(0)),
                      (F(1, 2), F(0)), (F(0), F(0))]
    assert w.is_palindromic()
    assert w.check_step_bounds()


def test_two_lines_phase_structure():
    w = gen_two_lines(3)
    # phase k+1 climbs to height k and crosses at the top
    blocks = w.phase_blocks()
    for k, (lo, hi) in enumerate(blocks[1:], start=1):
        heights = [p[1] for p in w.sums[lo:hi]]
        assert max(heights) == k
        xs = {p[0] for p in w.sums[lo:hi]}
        assert F(0) in xs and F(1) in xs
    assert w.is_palindromic()
    assert w.check_step_bounds()


def test_two_lines_rejects_zero_phases():
    with pytest.raises(ValueError, match="phases must be >= 1"):
        gen_two_lines(0)


def test_two_lines_steps_shrink():
    w = gen_two_lines(4)
    assert w.step_bounds == [0.5, 0.25, 0.125, 0.0625]
    assert w.check_step_bounds()


def test_halflines_exact_and_palindromic():
    w = gen_halflines([0, 1, 2, F(7, 2)], 3)
    assert w.mode == "exact"
    assert w.is_palindromic()
    assert w.check_step_bounds()
    # every abscissa is touched at ground level in the last phase
    lo, hi = w.phase_blocks()[-1]
    ground = {p[0] for p in w.sums[lo:hi] if p[1] == 0}
    assert {F(0), F(1), F(2), F(7, 2)} <= ground


def test_halflines_validation():
    with pytest.raises(ValueError, match="duplicate"):
        gen_halflines([0, 0, 1], 1)
    with pytest.raises(ValueError, match="phases\\+1"):
        gen_halflines([0, 1], 2)


def test_halflines_float_mode():
    w = gen_halflines([0.0, 1.5], 1)
    assert w.mode == "float"
    assert w.is_palindromic()


def test_walk_to_series_is_alternating_and_invertible():
    w = gen_two_lines(3)
    series, sigma = walk_to_series(w)
    assert series.alternating and series.check_alternating()
    assert sorted(sigma.images) == list(range(1, len(series.terms) + 1))
    assert series_to_walk(series, sigma, w.anchor) == w.sums


def test_walk_to_series_rejects_non_palindromic():
    from serwalk.walks import Walk
    w = Walk([(F(0),), (F(1),), (F(2),)], [2])
    with pytest.raises(ValueError, match="not an X-walk"):
        walk_to_series(w)


def test_random_palindromic_round_trips():
    rng = random.Random(7)

    def rand_pt(dim):
        return tuple(F(rng.randint(-8, 8), 8) for _ in range(dim))

    for _ in range(100):
        dim = rng.randint(1, 3)
        anchor = rand_pt(dim)
        schedule = [[anchor] + [rand_pt(dim) for _ in range(rng.randint(1, 4))]
                    for _ in range(rng.randint(1, 3))]
        w = build_xwalk(schedule)
        assert w.is_palindromic()
        series, sigma = walk_to_series(w)
        assert series.check_alternating()
        assert series_to_walk(series, sigma, w.anchor) == w.sums


def test_build_chainable_walk_visits_all_points():
    pts = [(0.1 * i, 0.0) for i in range(11)]
    w = build_chainable_walk(pts, 3)
    for lo, hi in w.phase_blocks():
        visited = set(w.sums[lo:hi])
        assert all(p in visited for p in pts[1:])
    assert w.is_palindromic()
    assert w.check_step_bounds()


def test_build_chainable_walk_circle_sums_pinned():
    # acceptance c08's 315-point circle: its walk must stay byte-identical
    n = math.ceil(2 * math.pi / 0.02)
    pts = [(math.cos(2 * math.pi * i / n), math.sin(2 * math.pi * i / n))
           for i in range(n)]
    w = build_chainable_walk(pts, 5)
    assert hashlib.sha256(repr(w.sums).encode()).hexdigest() == (
        "ffa5bcc8918d69f40f8740162465b3195ce477f96167ef085b9605ccc8be8410")


def test_build_chainable_walk_sparse_sample_fails():
    pts = [(0.0, 0.0), (3.0, 0.0)]  # gap 3 > 2^(1-1)
    with pytest.raises(ValueError, match="too sparse .* phase 1"):
        build_chainable_walk(pts, 1)


def test_build_chainable_walk_singleton():
    w = build_chainable_walk([(1.0, 2.0)], 2)
    assert all(p == (1.0, 2.0) for p in w.sums)


def test_unbounded_components_walk_validation():
    seg = PointSample(tuple((0.0, 0.1 * i) for i in range(60)))
    with pytest.raises(ValueError, match="dimension >= 2"):
        build_unbounded_components_walk([PointSample(((1.0,),))], [1.0], 1)
    with pytest.raises(ValueError, match="radii"):
        build_unbounded_components_walk([seg], [3.0, 2.0], 2)
    short = PointSample(tuple((0.0, 0.1 * i) for i in range(5)), "short")
    with pytest.raises(ValueError, match="does not reach"):
        build_unbounded_components_walk([short], [2.0], 1)


def test_unbounded_components_walk_touches_radii():
    left = PointSample(tuple((-1.0, 0.1 * i) for i in range(42)), "left")
    right = PointSample(tuple((1.0, 0.1 * i) for i in range(42)), "right")
    w = build_unbounded_components_walk([left, right], [2.0, 3.0], 2)
    assert w.is_palindromic()
    for (lo, hi), radius in zip(w.phase_blocks(), [2.0, 3.0]):
        top = max(norm(p) for p in w.sums[lo:hi])
        assert abs(top - radius) < 0.2
    # both components appear in phase 2
    lo, hi = w.phase_blocks()[1]
    xs = {round(float(p[0])) for p in w.sums[lo:hi] if abs(abs(p[0]) - 1) < 1e-9}
    assert xs == {-1, 1}


def test_steps_match_sum_differences():
    w = gen_two_lines(2)
    acc = w.anchor
    for step, expect in zip(w.steps(), w.sums[1:]):
        acc = tuple(a + s for a, s in zip(acc, step))
        assert acc == expect
        assert distance(acc, expect) == 0
