import hashlib
import io
import math
import random
from fractions import Fraction as F

import pytest

from serwalk.core import PointSample, distance, norm
from serwalk.rearrange import full_range_series, rearrange_to_limit_set
from serwalk.seqspace import gen_c0_two_point
from serwalk.traceio import read_walk_csv, read_walk_jsonl
from serwalk.walks import (PartialPermutation, Walk, build_chainable_walk,
                           build_unbounded_components_walk, build_xwalk,
                           gen_halflines, gen_two_lines, series_to_walk,
                           walk_to_series)


def test_partial_permutation_basics():
    tau = PartialPermutation([3, 1, 2])
    assert len(tau) == 3 and tau.images[0] == 3
    assert tau.covers_initial_segment(3)
    assert not tau.covers_initial_segment(4)


def test_partial_permutation_rejects_repeats():
    with pytest.raises(ValueError, match="not injective"):
        PartialPermutation([1, 2, 2])


def test_build_xwalk_requires_anchored_phases():
    with pytest.raises(ValueError, match="phases must be >= 1"):
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


@pytest.mark.parametrize("phases", [0, -1])
@pytest.mark.parametrize("gen", [
    gen_two_lines,
    lambda phases: gen_halflines([0, 1], phases),
    lambda phases: build_chainable_walk([(0.0, 0.0), (0.5, 0.0)], phases),
    lambda phases: build_unbounded_components_walk(
        [PointSample(((0.0, 0.0), (0.0, 1.0))), PointSample(((1.0, 0.0), (1.0, 1.0)))],
        [0.5], phases),
], ids=["two-lines", "halflines", "chainable", "unbounded"])
def test_generators_need_a_phase(gen, phases):
    # build_xwalk states the rule once, for every generator
    with pytest.raises(ValueError, match="phases must be >= 1"):
        gen(phases)


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


@pytest.mark.parametrize("abscissae", [[0.0, 1.5], [0, math.nan, 1], [0, 1, math.inf]],
                         ids=["floats", "nan", "inf"])
def test_halflines_refuses_float_abscissae(abscissae):
    # the walk is exact; NaN once wrote nan cells and inf raised OverflowError
    with pytest.raises(ValueError, match="abscissae must be ints or Fractions"):
        gen_halflines(abscissae, 1)


def test_walk_to_series_is_alternating_and_invertible():
    w = gen_two_lines(3)
    series, sigma = walk_to_series(w)
    assert series.check_alternating()
    assert sorted(sigma.images) == list(range(1, len(series.terms) + 1))
    assert series_to_walk(series, sigma, w.anchor) == w.sums


def test_walk_to_series_rejects_non_palindromic():
    w = Walk([(F(0),), (F(1),), (F(2),)], [2])
    with pytest.raises(ValueError, match="not an X-walk"):
        walk_to_series(w)


@pytest.mark.parametrize("lengths, message", [
    ([3, -1], "nonnegative ints"),
    ([2.0], "nonnegative ints"),
    ([1], "sum to 1, not to the 2 sums"),
    ([2, 1], "sum to 3, not to the 2 sums"),
    ([], "sum to 0, not to the 2 sums"),
], ids=["negative", "float", "short", "long", "none"])
def test_walk_rejects_phase_lengths_that_do_not_cover_its_sums(lengths, message):
    with pytest.raises(ValueError, match=message):
        Walk([(F(0),), (F(1),), (F(0),)], lengths)


@pytest.mark.parametrize("bounds", [[0.1], [0.1, 0.1, 0.1], []], ids=["short", "long", "none"])
def test_walk_rejects_a_step_bound_count_other_than_its_phases(bounds):
    # a short list once left the phases past its end unchecked: this walk's
    # 4.95 step in phase 2 passed check_step_bounds
    with pytest.raises(ValueError, match=f"{len(bounds)} step bounds for 2 phases"):
        Walk([(0.0,), (0.05,), (5.0,)], [1, 1], step_bounds=bounds)
    assert not Walk([(0.0,), (0.05,), (5.0,)], [1, 1], step_bounds=[0.1, 0.1]).check_step_bounds()


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
    with pytest.raises(ValueError, match="dimension 1, not 2"):
        build_unbounded_components_walk([PointSample(((1.0,),))], [1.0], 1)
    with pytest.raises(ValueError, match="radii"):
        build_unbounded_components_walk([seg], [3.0, 2.0], 2)
    short = PointSample(tuple((0.0, 0.1 * i) for i in range(5)), "short")
    with pytest.raises(ValueError, match="does not reach"):
        build_unbounded_components_walk([short], [2.0], 1)
    # every component is checked, not only the first
    for components in ([seg, PointSample((), "empty")], [PointSample((), "empty"), seg]):
        with pytest.raises(ValueError, match="component 'empty' is empty"):
            build_unbounded_components_walk(components, [2.0], 1)


def test_unbounded_components_walk_refuses_3d_rails():
    # its arcs lie in the first two coordinates: on rails at z = 0.5 the
    # hops on and off the sphere once broke the declared step bounds
    # (0.65 against 0.57 in phase 1) and check_step_bounds() was False
    rails = [PointSample(tuple((x, 0.1 * i, 0.5) for i in range(42)), label)
             for x, label in ((-1.0, "left"), (1.0, "right"))]
    with pytest.raises(ValueError, match="requires planar components: dimension 3, not 2"):
        build_unbounded_components_walk(rails, [2.0, 3.0, 4.0], 3)


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


@pytest.mark.parametrize("components, radii, phases, digest", [
    (2, [2.0, 3.0, 4.0], 3,
     "34d6d10f779ae552bf917ecb7eaeba2d614d4cb2490c09740b024b6e1b2ca4e0"),
    (2, [2.0, 3.0], 2,
     "789166a1d3514eaff21028bf9ae248af4d715a7901b5d43281f1f0ac60c14979"),
    (1, [2.0, 3.0, 4.0], 3,
     "52c9b013efb345e068e81f4b3fab2fe28c499b1e8e74f2a8ed20a9fcd2a2076a"),
], ids=["c09", "c11", "one-component"])
def test_unbounded_components_walk_pinned(components, radii, phases, digest):
    # acceptance c09's and c11's half-line walks and a one-component walk
    # must stay byte-identical, step bounds and phase lengths included
    left = PointSample(tuple((-1.0, 0.1 * i) for i in range(42)), "left")
    right = PointSample(tuple((1.0, 0.1 * i) for i in range(42)), "right")
    seg = PointSample(tuple((0.0, 0.1 * i) for i in range(60)), "seg")
    w = build_unbounded_components_walk([left, right] if components == 2 else [seg],
                                        radii, phases)
    state = repr((w.sums, w.phase_lengths, w.step_bounds))
    assert hashlib.sha256(state.encode()).hexdigest() == digest


@pytest.mark.parametrize("component, digest", [
    (PointSample(tuple((3.0, 0.1 * i) for i in range(42)), "rail"),
     "02882a67aca46b865e24a3a57cf5763b4181a167fd9400010606f65026c9d496"),
    (PointSample(((0.0, 5.0),), "point"),
     "ec648ba9e234408d9f820f6e16d6bf6b3a7b84f8ee17d47d3052240f4c4dc076"),
], ids=["rail-at-3", "point"])
def test_unbounded_components_walk_whose_base_is_its_top_pinned(component, digest):
    # the point nearest the origin is also the one nearest each radius, so
    # every leg is empty; the other pins' rails all start at the origin
    w = build_unbounded_components_walk([component], [2.0, 3.0], 2)
    state = repr((w.sums, w.phase_lengths, w.step_bounds))
    assert hashlib.sha256(state.encode()).hexdigest() == digest


def test_unbounded_components_walk_sparse_component_fails():
    # steps of 0.3 chain at phase 1's gap 0.5 but not at phase 2's 0.25
    sparse = PointSample(tuple((0.0, 0.3 * i) for i in range(20)), "sparse")
    build_unbounded_components_walk([sparse], [2.0], 1)
    with pytest.raises(ValueError, match="too sparse for gap 0.25 at phase 2"):
        build_unbounded_components_walk([sparse], [2.0, 3.0], 2)


@pytest.mark.parametrize("make, mode", [
    (lambda: gen_two_lines(3), "exact"),
    (lambda: gen_halflines([0, 1, F(7, 2)], 2), "exact"),
    (lambda: build_chainable_walk([(F(0), F(0)), (F(1, 2), F(0))], 2), "exact"),
    # integer components still give a float walk
    (lambda: build_unbounded_components_walk(
        [PointSample(((0, 3), (0, 4))), PointSample(((3, 0), (4, 0)))], [2.0, 2.5], 2),
     "float"),
    (lambda: rearrange_to_limit_set(full_range_series(2, 20000),
                                    PointSample(((0.25, 0.0),)), 1)[1], "float"),
    (lambda: read_walk_csv(io.StringIO("index,phase,coord_0\n1,1,0.5\n2,1,0.1\n")),
     "float"),
    (lambda: read_walk_csv(io.StringIO("index,phase,coord_0\n1,1,0.5\n2,1,0.25\n")),
     "exact"),
    (lambda: read_walk_jsonl(io.StringIO(
        '{"index": 1, "phase": 1, "entries": {"1": 0.5}}\n')), "exact"),
    (lambda: gen_c0_two_point(2), "exact"),
], ids=["two-lines", "halflines-rational", "chainable",
        "unbounded-int", "rearrange", "csv-nondyadic", "csv-dyadic", "jsonl", "c0"])
def test_walk_mode_is_read_off_the_points(make, mode):
    # the mode each generator and reader stored before it became a property
    w = make()
    assert w.mode == mode
    if not hasattr(w.anchor, "entries"):
        # and every point agrees with the start point
        types = {type(c) for p in w.sums for c in p}
        assert types <= ({float} if mode == "float" else {int, F})


def test_steps_match_sum_differences():
    w = gen_two_lines(2)
    acc = w.anchor
    for step, expect in zip(w.steps(), w.sums[1:]):
        acc = tuple(a + s for a, s in zip(acc, step))
        assert acc == expect
        assert distance(acc, expect) == 0
