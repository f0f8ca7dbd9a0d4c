import math
import random
import re
from fractions import Fraction as F

import pytest

from serwalk import analysis
from serwalk.analysis import (ALL_COMPONENTS_ESCAPE, COMPACT_CONNECTED,
                              VIOLATION, LimitEstimate, _modal_point,
                              cauchy_diagnostic,
                              estimate_limit_set, singleton_convergence_check,
                              verify_dichotomy)
from serwalk.core import PointSample, distance
from serwalk.seqspace import THETA, e, gen_c0_singleton_divergent, gen_c0_two_point
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
    w = gen_c0_two_point(3)
    with pytest.raises(ValueError, match="window_fraction"):
        estimate_limit_set(w, resolution=0.1, window_fraction=0.0)
    with pytest.raises(ValueError, match="resolution"):
        estimate_limit_set(w, resolution=-1.0)
    with pytest.raises(ValueError, match="window shorter than 2 points"):
        estimate_limit_set(Walk([(0.0, 0.0), (1.0, 0.0)], [1]), resolution=0.1)


@pytest.mark.parametrize("kw, message", [
    ({"resolution": math.nan}, "resolution must be finite and positive"),
    ({"resolution": math.inf}, "resolution must be finite and positive"),
    ({"resolution": 0.1, "window_fraction": math.nan}, r"window_fraction must be in \(0, 1\]"),
], ids=["resolution-nan", "resolution-inf", "window-nan"])
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
    est = estimate_limit_set(w, window_fraction=0.3, resolution=0.1)
    blocks = w.phase_blocks()
    assert est.window_start in {lo for lo, _ in blocks}
    # window covers at least the requested fraction
    assert len(w.sums) - est.window_start >= 0.3 * (len(w.sums) - 1)


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

