import functools
import hashlib
import inspect
import math
import random
import re
from collections import defaultdict
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from serwalk import rearrange
from serwalk.analysis import estimate_limit_set
from serwalk.core import (PointSample, chain_gap, distance, float_rows, hausdorff_distance,
                          norm)
from serwalk.rearrange import (HOP_FACTOR, FloatSeries, PrefixTooShort, RPConstants,
                               _chain_tour, _dfs_balance, _eta, _refined_tour,
                               _riemann_order, _stage_fault, alternating_harmonic,
                               certify_rp_family, check_stage_invariants,
                               find_balanced_permutation, full_range_series,
                               rearrange_to_limit_set)
from serwalk.seqspace import THETA, SparseVec, block_vectors
from serwalk.walks import PartialPermutation


def _prefix_norms(terms, order):
    cur = None
    out = []
    for i in order:
        t = terms[i - 1]
        cur = t if cur is None else tuple(a + b for a, b in zip(cur, t))
        out.append(norm(cur))
    return out


def test_full_range_series_shape():
    s = full_range_series(2, 12)
    assert s[0] == (8.0, 0.0) and s[1] == (-8.0, 0.0)
    assert s[2] == (0.0, 8.0) and s[3] == (0.0, -8.0)
    assert s[4] == (4.0, 0.0)
    norms = [norm(t) for t in s]
    assert norms == sorted(norms, reverse=True)


def test_alternating_harmonic_converges_to_ln2():
    s = alternating_harmonic(20000)
    total = sum(t[0] for t in s)
    assert total == pytest.approx(math.log(2), abs=1e-4)


def _full_range_tuples(dim, count):
    # full_range_series as a list of tuples, as it was built before the
    # series became one float64 matrix, kept as an oracle
    out = []
    t = 1
    while len(out) < count:
        for axis in range(dim):
            for sign in (1.0, -1.0):
                coords = [0.0] * dim
                coords[axis] = sign * 8.0 / t
                out.append(tuple(coords))
        t += 1
    return out[:count]


def _alternating_harmonic_tuples(count):
    # alternating_harmonic's tuples, kept as an oracle
    return [((1.0 if n % 2 else -1.0) / n,) for n in range(1, count + 1)]


def _hex(terms):
    return [tuple(map(float.hex, t)) for t in terms]


@pytest.mark.parametrize("dim", range(1, 9))
def test_full_range_series_is_the_tuple_loop(dim):
    # bit for bit, read by index, by iteration and through a slice; every
    # coordinate a Python float, the zeros +0.0
    count = 20001
    series, want = full_range_series(dim, count), _hex(_full_range_tuples(dim, count))
    assert len(series) == count
    assert _hex(series) == want
    assert _hex(series[i] for i in range(count)) == want
    assert _hex(series[-3:]) == want[-3:] and _hex([series[-1]]) == want[-1:]
    assert all(type(c) is float for t in series[:4 * dim] for c in t)
    assert not series.rows.flags.writeable


def test_a_float_series_holds_one_float64_matrix():
    # an int matrix is converted, a float64 one kept and made read-only
    ints = FloatSeries(np.array([[1, 0], [0, -2]]))
    assert list(ints) == [(1.0, 0.0), (0.0, -2.0)]
    assert all(type(c) is float for t in ints for c in t)
    rows = np.zeros((3, 2))
    assert FloatSeries(rows).rows is rows and not rows.flags.writeable
    with pytest.raises(ValueError, match=r"not shape \(3,\)"):
        FloatSeries(np.zeros(3))


def test_full_range_series_needs_a_dimension():
    # the tuple loop never ended for dim 0
    with pytest.raises(ValueError, match="dimension >= 1, not 0"):
        full_range_series(0, 4)


def test_alternating_harmonic_is_the_tuple_loop():
    count = 20001
    assert _hex(alternating_harmonic(count)) == _hex(_alternating_harmonic_tuples(count))
    assert len(alternating_harmonic(0)) == len(full_range_series(2, 0)) == 0


def test_find_balanced_permutation_exhaustive_matches_brute_force():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 5)
        terms = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
        total = tuple(map(sum, zip(*terms)))
        bound = norm(total) + rng.uniform(0.2, 1.5)
        got = find_balanced_permutation(terms, bound)
        brute = None
        for sigma in permutations(range(1, n + 1)):
            if max(_prefix_norms(terms, sigma)) < bound:
                brute = sigma
                break
        assert (got is None) == (brute is None)
        if got is not None:
            assert max(_prefix_norms(terms, got)) < bound


def test_find_balanced_permutation_greedy_respects_bound():
    rng = random.Random(11)
    terms = []
    for _ in range(15):
        v = rng.choice([0.3, -0.3, 0.2, -0.2])
        terms.append((v, 0.0))
    total = abs(sum(t[0] for t in terms))
    order = find_balanced_permutation(terms, total + 0.4)
    assert order is not None
    assert max(_prefix_norms(terms, order)) < total + 0.4


def test_find_balanced_permutation_edge_cases():
    assert find_balanced_permutation([], 1.0) == []
    # past the complete search's size limit an impossible bound is a
    # failed greedy pass, not an error
    assert find_balanced_permutation([(1.0,)] * 11, 1.0) is None


@pytest.mark.parametrize("terms, bound, expected", [
    # greedy takes 0, -1, 2 and then has only 3 or -4 to add to 1
    ([(-1,), (3,), (0,), (-4,), (2,)], 2.5, [1, 2, 3, 4, 5]),
    # greedy takes (2, 1) first, and either term after it reaches norm 5 or more
    ([(4, -3), (-2, 4), (2, 1)], 4.5, [2, 1, 3]),
], ids=["1-d", "2-d"])
def test_complete_search_finds_what_greedy_misses(monkeypatch, terms, bound, expected):
    searched = []

    def search(terms, bound):
        searched.append(len(terms))
        return _dfs_balance(terms, bound)

    monkeypatch.setattr(rearrange, "_dfs_balance", search)
    assert find_balanced_permutation(terms, bound) == expected
    assert searched == [len(terms)]
    assert max(_prefix_norms(terms, expected)) < bound


@pytest.mark.parametrize("terms", [
    [(math.nan, 0.0), (1.0, 0.0)],  # the complete search decides
    [(math.nan,)] + [(0.0,)] * 10,  # the greedy pass alone decides
], ids=["searched", "greedy"])
def test_nan_prefix_is_never_inside_the_bound(terms):
    assert find_balanced_permutation(terms, 2.5) is None


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_exact_prefix_past_the_float_range_is_not_inside_the_bound():
    # the greedy pass scores the float sum, inf; the complete search sums
    # the SparseVecs exactly, to 2e308, whose norm is inf as well
    terms = [SparseVec({1: 1e308}), SparseVec({1: 1e308})]
    assert find_balanced_permutation(terms, 1.7e308) is None


def _greedy_oracle(rows, bound, sup):
    # the balancing rule over exact prefix sums of integer rows (terms are
    # rows / 4): take the unused term with the lowest prefix score, the first
    # in index order; past the bound, the first order in lexicographic order
    # whose every prefix stays below it, or None
    def score(p):
        return max(map(abs, p), default=0) if sup else sum(c * c for c in p)

    limit = 4 * bound if sup else (4 * bound) ** 2
    cur, left, order = [0] * len(rows[0]), list(range(len(rows))), []
    while left:
        i = min(left, key=lambda i: (score([c + r for c, r in zip(cur, rows[i])]), i))
        cur = [c + r for c, r in zip(cur, rows[i])]
        if score(cur) >= limit:
            break
        order.append(i + 1)
        left.remove(i)
    else:
        return order
    for sigma in permutations(range(len(rows))):
        prefixes = [[sum(rows[i][c] for i in sigma[:k]) for c in range(len(rows[0]))]
                    for k in range(1, len(rows) + 1)]
        if all(score(p) < limit for p in prefixes):
            return [i + 1 for i in sigma]
    return None


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.lists(
           st.tuples(*[st.integers(-8, 8)] * d), min_size=1, max_size=6)),
       st.sampled_from([0.5, 1.0, 1.5, 2.5]))
# terms whose greedy orders differ between the two norms
@example([(-5, -3), (1, -5), (2, 8), (5, 8)], 2.5)
def test_balancing_is_the_same_for_dense_and_sparse_terms(rows, bound):
    # dyadic terms as float tuples, balanced in the Euclidean norm, and as
    # Fraction SparseVecs, balanced in the sup norm: one code path, each
    # matching the rule written out over exact integer prefix sums
    dense = [tuple(k / 4 for k in r) for r in rows]
    sparse = [SparseVec({i: Fraction(k, 4) for i, k in enumerate(r, start=1)})
              for r in rows]
    assert find_balanced_permutation(dense, bound) == _greedy_oracle(rows, bound, False)
    assert find_balanced_permutation(sparse, bound) == _greedy_oracle(rows, bound, True)


def test_balancing_zero_support_terms():
    assert find_balanced_permutation([THETA, THETA], 1.0) == [1, 2]
    assert find_balanced_permutation([THETA, THETA], 0.0) is None


def _balance_reference(terms, bound):
    # the greedy pass in its plainest numpy form, a fresh score array and a
    # boolean-mask write per step, with the coordinate fold written out,
    # which the buffered pass must match
    if len(terms) == 1:
        return [1] if norm(terms[0]) < bound else None
    sup, (rows,) = float_rows(terms)
    n = len(rows)
    cur = np.zeros(rows.shape[1])
    used = np.zeros(n, dtype=bool)
    order = []
    for _ in range(n):
        score = np.zeros(n)
        with np.errstate(over="ignore", invalid="ignore"):
            for col in range(rows.shape[1]):
                d = cur[col] + rows[:, col]
                if sup:
                    np.maximum(score, np.abs(d), out=score)
                else:
                    score += d * d
        score[used] = np.inf
        i = int(np.argmin(score))
        value = score[i] if sup else math.sqrt(score[i])
        if not value < bound:  # a NaN prefix is never inside the bound
            return _dfs_balance(terms, bound) if n <= 10 else None
        order.append(i + 1)
        used[i] = True
        cur += rows[i]
    return order


#: entries that tie, overflow or poison a score; SparseVecs hold Fractions,
#: so they take only the finite ones (and drop -0.0 as a zero entry)
SPECIALS = (-0.0, 1e200, -1e200, 1e308, -1e308, math.nan, math.inf, -math.inf)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(st.booleans(), st.integers(1, 8), st.one_of(st.integers(1, 8), st.integers(11, 300)),
       st.integers(0, 2 ** 32 - 1), st.booleans(), st.sampled_from([0, 0, 1, 3]),
       st.sampled_from([0.0, 1.0, 2.0, 4.0, 8.0, 1e300, math.inf, math.nan]))
# the complete search at 9 and 10 terms can take seconds to prove that no
# order exists, so those sizes are these cheap examples: an order found
# after the greedy pass fails, and two proofs that there is none
@example(True, 2, 10, 0, True, 0, 1.0)
@example(False, 2, 10, 0, False, 0, 1.0)
@example(False, 3, 9, 0, True, 1, 1.0)
def test_balancing_matches_the_reference_pass(sparse, dim, n, seed, cancel, specials, bound):
    # quarter-integer entries tie exactly and share magnitudes; a cancelling
    # batch (rows, then their negatives, shuffled) keeps the greedy pass
    # inside the bound for many steps over rows already used
    rng = np.random.default_rng(seed)
    rows = rng.integers(-4, 5, size=(n, dim)) / 4
    if cancel:
        half = rows[:n // 2]
        rows = rng.permutation(np.concatenate([half, -half, rows[2 * (n // 2):]]))
    pool = [v for v in SPECIALS if not sparse or math.isfinite(v)]
    for _ in range(specials):
        rows[rng.integers(n), rng.integers(dim)] = pool[rng.integers(len(pool))]
    if sparse:
        terms = [SparseVec({i: v for i, v in enumerate(r, start=1)}) for r in rows.tolist()]
    else:
        terms = [tuple(r) for r in rows.tolist()]
    assert find_balanced_permutation(terms, bound) == _balance_reference(terms, bound)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_balancing_matches_the_reference_pass_on_axis_aligned_terms(sparse):
    # one nonzero entry per row and the rest +0.0 or -0.0, entries that a
    # pick leaves out of the rescoring; 200 rows that cancel keep the pass
    # inside the bound to its last pick
    rng = random.Random(26)
    half = []
    for _ in range(100):
        row = [rng.choice((0.0, -0.0)) for _ in range(3)]
        row[rng.randrange(3)] = rng.choice((1, -1)) * rng.randint(1, 16) / 16
        half.append(tuple(row))
    terms = half + [tuple(-c for c in t) for t in half]
    rng.shuffle(terms)
    if sparse:
        terms = [SparseVec({i: v for i, v in enumerate(t, start=1)}) for t in terms]
    order = find_balanced_permutation(terms, 2.0)
    assert sorted(order) == list(range(1, 201))
    assert order == _balance_reference(terms, 2.0)


def test_balancing_pinned_on_a_large_cancelling_batch():
    # 1,200 dyadic terms in R^3 that cancel: the greedy pass keeps each
    # used row, marked inf, to its last pick, and the order is pinned
    rng = random.Random(21)
    half = [tuple(rng.randint(-16, 16) / 16 for _ in range(3)) for _ in range(600)]
    terms = half + [tuple(-c for c in t) for t in half]
    rng.shuffle(terms)
    order = find_balanced_permutation(terms, 2.0)
    assert sorted(order) == list(range(1, 1201))
    assert max(_prefix_norms(terms, order)) < 2.0
    assert (hashlib.sha256(repr(order).encode()).hexdigest()
            == "89278e6043a449568c0694020223f9c6f72a6b8e2f853e80db7bc4fb63cdbbed")


def test_no_rp_block_defeats_balancing():
    # the k=1 block's four vectors: any two of them already reach sup 1
    ys = [v for v in block_vectors(1)]
    order = find_balanced_permutation(ys, 1.0)
    assert order is None
    # relaxing the bound by the block's own scale admits an order
    assert find_balanced_permutation(ys, 2.0 + 1e-9)


def test_rp_constants_thresholds():
    series = alternating_harmonic(100)
    c = RPConstants(series)
    assert c.delta(1.0) == 0.5
    assert c.n_threshold(1.0) == 4   # first 1/n <= 1/4
    assert c.n_threshold(0.5) == 8
    with pytest.raises(ValueError, match="too short"):
        c.n_threshold(0.001)


def test_rp_constants_reject_increasing_norms():
    # N(eps) is the first index below eps/4 only when norms never grow
    series = [(1.0,), (-0.5,), (0.5,), (0.75,), (0.25,)]
    with pytest.raises(ValueError, match="term 4 is longer than term 3"):
        RPConstants(series)



def test_rp_constants_reject_non_finite_norms():
    # a NaN norm would make N(eps) depend on how the norms are searched
    for series, term in [([(1.0,), (math.nan,), (0.1,), (0.05,)], 2),
                         ([(math.inf, 0.0), (1.0, 0.0)], 1),
                         ([(1.0,), (0.5,), (-math.inf,)], 3),
                         ([(0.5, 0.5), (0.25, math.nan)], 2)]:
        with pytest.raises(ValueError, match=f"finite: term {term} "):
            RPConstants(series)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_score_past_the_float_range_is_inf_without_a_warning():
    # numpy once printed "overflow encountered in square" for each of these
    assert find_balanced_permutation([(1e200, 0.0), (-1e200, 0.0), (0.1, 0.0)], 1.0) is None
    with pytest.raises(ValueError, match="finite: term 1 "):
        RPConstants([(1e200, 0.0), (1.0, 0.0)])


def _scan_threshold(norms, eps):
    return next((i for i, v in enumerate(norms, start=1) if v <= eps / 4), None)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.lists(
    st.tuples(*[st.integers(-8, 8)] * d), max_size=12)))
@example([])
@example([(4, 3), (5, 0), (0, -5), (3, 0), (0, 0)])
def test_n_threshold_matches_linear_scan(rows):
    # dyadic terms sorted by norm, with ties ((4, 3) and (5, 0) both have
    # norm 5/8); every eps/4 equal to a norm, between two norms, above the
    # largest, and below or beside every norm
    series = sorted((tuple(c / 8 for c in r) for r in rows), key=norm, reverse=True)
    norms = [norm(t) for t in series]
    constants = RPConstants(series)
    levels = sorted(set(norms))
    epsilons = ([4 * v for v in levels]
                + [2 * (a + b) for a, b in zip(levels, levels[1:])]
                + [4 * max(norms, default=0.0) + 1.0, 0.0, -1.0, math.nan])
    for eps in epsilons:
        expected = _scan_threshold(norms, eps)
        if expected is None:
            with pytest.raises(ValueError, match="too short"):
                constants.n_threshold(eps)
        else:
            assert constants.n_threshold(eps) == expected


@pytest.mark.parametrize("dim", range(1, 13))
def test_rp_constants_norms_equal_core_norm(dim):
    # term by term and bit for bit: from 8 coordinates up a pairwise sum
    # would round differently from core.norm's left-to-right sum
    rng = random.Random(dim)
    terms = [tuple(rng.uniform(-1, 1) * 2.0 ** rng.randint(-20, 20) for _ in range(dim))
             for _ in range(300)]
    series = sorted(terms, key=norm, reverse=True)
    assert list(RPConstants(series)._norms) == [norm(t) for t in series]


def test_rp_constants_sparse_norms_equal_core_norm():
    # a SparseVec series is laid out over the union of its supports
    series = [SparseVec({3: Fraction(-3, 4), 7: Fraction(1, 3)}),
              SparseVec({1: Fraction(1, 10), 2: Fraction(-2, 3)}),
              SparseVec({9: Fraction(2, 3)}),
              SparseVec({2: Fraction(1, 7), 5: Fraction(-1, 9)}),
              SparseVec({})]
    constants = RPConstants(series)
    assert list(constants._norms) == [norm(t) for t in series]
    assert constants.n_threshold(4 * 2 / 3) == 2
    assert constants.n_threshold(0.0) == 5

def test_certify_rp_witness_fields():
    series = alternating_harmonic(2000)
    [wit] = certify_rp_family(series, [1.0], instance_budget=100,
                              rng=random.Random(5))
    assert wit.n_threshold == 4 and wit.delta == 0.5
    assert wit.evidence["instances"] == 100
    assert wit.evidence["max_prefix_norm"] < 1.0


def test_certify_rp_family_is_monotone():
    series = full_range_series(2, 5000)
    fam = certify_rp_family(series, [1.0, 0.5, 0.25], instance_budget=50,
                            rng=random.Random(5))
    deltas = [w.delta for w in fam]
    thresholds = [w.n_threshold for w in fam]
    assert deltas == sorted(deltas, reverse=True)
    assert thresholds == sorted(thresholds)


@pytest.mark.parametrize("series, digest", [
    (alternating_harmonic(2000),
     "22de1b4af129ae57fd377b4961d23fafc8d2fe7bead753bf0ed6a88d642005e4"),
    (full_range_series(2, 5000),
     "0debadd546c27f91b9b89d6a3ee544bc0e3f8cfa034b00466955758592b7cd1a"),
], ids=["harmonic", "planar"])
def test_certify_rp_family_pinned(series, digest):
    # acceptance c12's witnesses: certify_rp_family draws its batches from rng, so
    # any change to how much of the stream it consumes changes the digest
    fam = certify_rp_family(series, [1.0, 0.5, 0.25], instance_budget=500,
                            rng=random.Random(20240817))
    witnesses = [(w.epsilon, w.n_threshold, w.delta, w.evidence) for w in fam]
    assert hashlib.sha256(repr(witnesses).encode()).hexdigest() == digest


def test_certify_rp_short_prefix_raises():
    with pytest.raises(ValueError, match="too short"):
        certify_rp_family(alternating_harmonic(12), [1.0], instance_budget=500,
                          rng=random.Random(20240817))


def test_certify_rp_reports_failed_balancing(monkeypatch):
    monkeypatch.setattr("serwalk.rearrange.find_balanced_permutation",
                        lambda terms, bound: None)
    with pytest.raises(ValueError, match="RP certification failed at eps=1.0"):
        certify_rp_family(alternating_harmonic(2000), [1.0], instance_budget=10,
                          rng=random.Random(5))


@pytest.mark.parametrize("eps", [0.0, -0.5, math.nan, math.inf])
def test_certify_rp_family_refuses_an_epsilon_that_is_not_finite_and_positive(eps):
    # 0, -0.5 and NaN raised PrefixTooShort, which says a longer prefix
    # might serve, and inf returned a witness; verify rp-instance refuses
    # the same epsilons with the same message
    with pytest.raises(ValueError, match=re.escape(
            f"epsilon must be a finite positive number, not {eps}")) as info:
        certify_rp_family(alternating_harmonic(2000), [1.0, eps], instance_budget=10,
                          rng=random.Random(5))
    assert not isinstance(info.value, PrefixTooShort)


def test_rearrange_small_segment_target():
    series = full_range_series(2, 60000)
    target = PointSample(tuple((0.1 * i, 0.0) for i in range(6)))
    constants = RPConstants(series)
    tau, walk, reports = rearrange_to_limit_set(series, target, stages=3)
    assert check_stage_invariants(reports, tau, constants)
    assert sorted(set(tau.images)) == sorted(tau.images)
    # the walk is the permuted series' partial-sum trajectory
    acc = (0.0, 0.0)
    for n, img in enumerate(tau.images[:50], start=1):
        acc = tuple(x + y for x, y in zip(acc, series[img - 1]))
        assert walk.sums[n] == acc


def test_an_exact_series_gives_the_float_series_sums():
    # the sums start from the float origin, and a float plus a Fraction adds
    # the Fraction's float, so the exact copy is steered and summed to the
    # bit as the float series is, and every sum coordinate is a float
    series = full_range_series(2, 20000)
    exact = [tuple(Fraction(c) if c else 0 for c in t) for t in series]
    target = PointSample(tuple((0.1 * i, 0.0) for i in range(6)))
    tau, walk, reports = rearrange_to_limit_set(series, target, stages=3)
    tau_x, walk_x, reports_x = rearrange_to_limit_set(exact, target, stages=3)
    assert tau_x.images == tau.images
    assert walk_x.sums == walk.sums
    assert reports_x == reports
    assert all(type(c) is float for s in walk_x.sums for c in s)


def test_extension_step_conclusions():
    series = full_range_series(2, 60000)
    target = PointSample(tuple((0.1 * i, 0.0) for i in range(6)))
    constants = RPConstants(series)
    runs = [rearrange_to_limit_set(series, target, stages=j) for j in (1, 2, 3)]
    tau, walk, _ = runs[-1]
    # each stage step's postconditions, read off the artifacts: a later
    # stage only extends the permutation; stage j's sums stay within eps_j
    # of the refined tour, whose points are within pitch/2 of the sample;
    # each hand-off parks within eps_{j+1}/12 of the tour's start; a
    # j-stage permutation covers [1, N(eps_{j+1}/2)]
    for j, (tau_j, _, _) in enumerate(runs, start=1):
        assert tau.images[:len(tau_j)] == tau_j.images
        assert tau_j.covers_initial_segment(constants.n_threshold(2.0 ** -(j + 1) / 2))
    blocks = walk.phase_blocks()
    for j in (1, 2, 3):
        start, end = blocks[j]
        for s in walk.sums[start:end]:
            assert min(distance(s, p) for p in target.points) <= 2.0 ** -j + 0.05
        assert distance(walk.sums[end - 1], target.points[0]) <= 2.0 ** -(j + 1) / 12


C10_CIRCLE = tuple((math.cos(2 * math.pi * i / 126), math.sin(2 * math.pi * i / 126))
                   for i in range(126))  # acceptance c10's 0.05-pitch circle
SEMICIRCLE = tuple((math.cos(math.pi * i / 63), math.sin(math.pi * i / 63))
                   for i in range(64))  # an arc whose closing chord is its diameter


@pytest.mark.parametrize("target, digest", [
    (C10_CIRCLE, "aa0a766533dc2070637bf24c43aad639225dbc49633fa5607738837d303c45cc"),
    # its stage hand-offs order batches of thousands of terms
    (((-0.4, -0.1),), "5e50efcbf3a9089fee0329ee06e8d3619d4fc9ba3ca3ff865cde3f3d94a1171d"),
    (SEMICIRCLE, "8f4065943d25acfc079806de77635f2b1bc452e8bd8c317cfb562a4c0e73395f"),
], ids=["circle", "point", "semicircle"])
def test_rearrange_c10_pinned(target, digest):
    series = full_range_series(2, 80000)
    tau, walk, _ = rearrange_to_limit_set(series, PointSample(target), stages=5)
    assert hashlib.sha256(repr((tau.images, walk.sums)).encode()).hexdigest() == digest



def test_rearrange_semicircle_follows_the_arc():
    # a tour closed by the chord would put the diameter in the limit set,
    # at Hausdorff distance ~1 from the arc
    series = full_range_series(2, 80000)
    tau, walk, reports = rearrange_to_limit_set(series, PointSample(SEMICIRCLE), stages=5)
    assert check_stage_invariants(reports, tau, RPConstants(series))
    est = estimate_limit_set(walk, resolution=0.1)
    assert hausdorff_distance(est.points, SEMICIRCLE) <= 0.15


def test_tour_joins_near_bottleneck_neighbours_directly():
    # on c10's circle the edge from point 88 to 89 is longer than the
    # spanning tree's longest edge by float jitter alone (0.049861383476146874
    # against ...826); the slack keeps it a direct hop
    assert distance(C10_CIRCLE[88], C10_CIRCLE[89]) > chain_gap(C10_CIRCLE)
    assert _chain_tour(C10_CIRCLE) == [*range(126), 0]
    # the segment's closing leg retraces the segment
    segment = [(0.1 * i, 0.0) for i in range(6)]
    assert _chain_tour(segment) == [0, 1, 2, 3, 4, 5, 4, 3, 2, 1, 0]
    assert _chain_tour([(0.5, 0.5)]) == [0, 0]


def _segment_distances(points, a, b):
    # distance from each point to each segment [a_k, b_k]
    p, a, b = points[:, None, :], a[None, :, :], b[None, :, :]
    ab = b - a
    length2 = (ab * ab).sum(axis=2)
    t = ((p - a) * ab).sum(axis=2) / np.where(length2 > 0, length2, 1.0)
    return np.linalg.norm(p - (a + np.clip(t, 0.0, 1.0)[..., None] * ab), axis=2)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)), min_size=1, max_size=10),
       st.integers(1, 3))
def test_stage_tour_hops_follow_the_gap_graph(rows, j):
    # the tour visits every sample point and returns to the first along
    # edges of the gap graph at the slackened chain gap; stage j refines it
    # to hops of at most HOP_FACTOR * eta_j without leaving those edges
    pts = [(x / 8, y / 8) for x, y in rows]
    tour = _chain_tour(pts)
    assert tour[0] == tour[-1] == 0 and set(tour) == set(range(len(pts)))
    gap = chain_gap(pts) * (1 + 1e-9)
    assert all(distance(pts[u], pts[v]) <= gap for u, v in zip(tour, tour[1:]))
    hop = HOP_FACTOR * _eta(2.0 ** -j)
    refined = np.array(_refined_tour(pts, tour, hop))
    assert (np.linalg.norm(np.diff(refined, axis=0), axis=1) <= hop + 1e-12).all()
    ends = np.array([pts[u] for u in tour])
    near = _segment_distances(refined, ends[:-1], ends[1:]).min(axis=1)
    assert (near <= 1e-12).all()


def test_rearrange_3d_pinned():
    # three axes give six reservoir queues, where the c10 pins have four;
    # a change to the order in which the reservoir hands out its indices
    # changes the digest
    series = full_range_series(3, 30000)
    target = tuple((0.5 * math.cos(2 * math.pi * i / 20),
                    0.5 * math.sin(2 * math.pi * i / 20), 0.25) for i in range(20))
    tau, walk, _ = rearrange_to_limit_set(series, PointSample(target), stages=3)
    assert len(tau.images) == 6661
    assert (hashlib.sha256(repr((tau.images, walk.sums)).encode()).hexdigest()
            == "519bb6785874697286b5aa9ccd3149f662968cbff9e2247f9aeee7201cd055e4")

def test_rearrange_6d_point_pinned():
    # each stage's hand-off orders one large batch over six axes, each axis
    # by its own running sum
    series = full_range_series(6, 160000)
    tau, walk, reports = rearrange_to_limit_set(series, PointSample(((0.25,) * 6,)), stages=5)
    assert (hashlib.sha256(repr((tau.images, walk.sums, reports)).encode()).hexdigest()
            == "77a7e9ce8cb29d7fadd6f62d70f3d3d759821ee28334676fb94dfb8c2da24fdb")


@functools.cache
def _union_series(dim):
    return full_range_series(dim, 80000)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.lists(
    st.tuples(*[st.integers(-8, 8)] * d), min_size=1, max_size=8, unique=True)),
    st.integers(2, 3))
def test_a_run_is_an_increasing_union_of_its_stages(rows, stages):
    # the paper builds tau stage by stage, each stage extending the last: an
    # s-stage run is a prefix of the (s + 1)-stage run, bit for bit
    series = _union_series(len(rows[0]))
    target = PointSample(tuple(tuple(c / 16 for c in r) for r in rows))
    tau, walk, reports = rearrange_to_limit_set(series, target, stages)
    tau_next, walk_next, reports_next = rearrange_to_limit_set(series, target, stages + 1)
    assert tau_next.images[:len(tau.images)] == tau.images
    assert walk_next.sums[:len(walk.sums)] == walk.sums
    assert walk_next.phase_lengths[:stages + 1] == walk.phase_lengths
    assert reports_next[:stages] == reports


def test_rearrange_singleton_converges():
    series = full_range_series(2, 60000)
    p = (-0.5, 0.25)
    tau, walk, reports = rearrange_to_limit_set(series, PointSample((p,)), stages=4)
    quarter = walk.sums[len(walk.sums) - (len(walk.sums) - 1) // 4:]
    assert max(distance(s, p) for s in quarter) < 2.0 ** -4


def test_rearrange_validation():
    series = full_range_series(2, 1000)
    with pytest.raises(ValueError, match="stages"):
        rearrange_to_limit_set(series, PointSample(((0.0, 0.0),)), 0)
    with pytest.raises(ValueError, match="empty sample"):
        rearrange_to_limit_set(series, PointSample(()), 1)


def test_tail_sum_select_rejects_diagonal_terms():
    # tail-sum selection steers one coordinate per term
    diagonal = [((-1) ** t * 8.0 / t,) * 2 for t in range(1, 2001)]
    with pytest.raises(ValueError, match="axis-aligned"):
        rearrange_to_limit_set(diagonal, PointSample(((1.0, -1.0),)), 1)


def test_rearrange_exhausts_short_prefix():
    series = full_range_series(2, 800)
    with pytest.raises(ValueError, match="too short"):
        rearrange_to_limit_set(series, PointSample(((1.0, 1.0),)), 3)


@pytest.mark.parametrize("target, name", [
    (((math.nan, 0.0),), r"target point 0 is not finite: \(nan, 0.0\)"),
    (((0.5, 0.0), (math.nan, 0.25), (0.0, 0.5)),
     r"target point 1 is not finite: \(nan, 0.25\)"),
    (((math.inf, 0.0),), r"target point 0 is not finite: \(inf, 0.0\)"),
    # past the float range, float() raises OverflowError, not inf
    (((0.0, 10 ** 400),), r"target point 0 is not finite: \(0.0, 1000000000000000"),
    (((0.0, 0.0), (Fraction(10 ** 400), 0.5)),
     r"target point 1 is not finite: \(Fraction\(1000000000000000"),
], ids=["nan", "nan-among-finite", "inf", "int-past-float", "fraction-past-float"])
def test_rearrange_rejects_a_non_finite_target_point(target, name):
    series = full_range_series(2, 1000)
    with pytest.raises(ValueError, match=name):
        rearrange_to_limit_set(series, PointSample(target), 1)


@pytest.mark.parametrize("dim, count, target, point", [
    (2, 1000, ((0.0, 0.0, 0.0),), 0),
    (2, 1000, ((0.25,),), 0),
    (3, 1000, ((0.0, 0.0, 0.0), (0.5, 0.0)), 1),
    (2, 0, ((0.0, 0.0),), 0),
], ids=["3d-target", "1d-target", "short-second-point", "empty-series"])
def test_rearrange_rejects_a_target_of_another_dimension(dim, count, target, point):
    # a 3-D target once raised "zip() argument 2 is longer than argument 1",
    # a 1-D target and an empty series IndexError; an empty series has
    # dimension 0
    series = full_range_series(dim, count)
    message = (f"target point {point} has dimension {len(target[point])}, "
               f"the series has dimension {dim if count else 0}$")
    with pytest.raises(ValueError, match=message):
        rearrange_to_limit_set(series, PointSample(target), 1)


@pytest.fixture(scope="module")
def two_stage_run():
    series = full_range_series(2, 60000)
    target = PointSample(tuple((0.1 * i, 0.0) for i in range(6)))
    tau, _, reports = rearrange_to_limit_set(series, target, stages=2)
    constants = RPConstants(series)
    assert check_stage_invariants(reports, tau, constants)
    return series, target, tau, reports, constants


@pytest.mark.parametrize("field, value, message", [
    ("eps", lambda c: 2.0 ** -3, "stage tolerances off the eps_j = 2^-j schedule"),
    ("prefix_max_excursion", lambda c: math.nextafter(2.0 ** -2, math.inf),
     "prefix escaped its eps-ball"),
    ("covered_through", lambda c: c.n_threshold(2.0 ** -3 / 2) - 1,
     "stage handoff left an early index uncovered"),
    ("stage_end_error", lambda c: 4 * _eta(2.0 ** -3), "stage ended off its anchor"),
], ids=["eps-off-schedule", "excursion-above-eps", "covered-one-short", "end-at-4-eta"])
def test_a_stage_fault_is_raised_and_rejected(two_stage_run, monkeypatch, field, value,
                                              message):
    # the last stage's report with one field just past its invariant: the
    # verifier rejects it, and the rearranger raises the same message when
    # its own report reads so
    series, target, tau, reports, constants = two_stage_run
    broken = {**reports[-1], field: value(constants)}
    assert _stage_fault(broken, constants) == message
    assert not check_stage_invariants([*reports[:-1], broken], tau, constants)
    checked = _stage_fault
    monkeypatch.setattr(
        "serwalk.rearrange._stage_fault",
        lambda rep, c: checked({**rep, field: value(c)} if rep["stage"] == 2 else rep, c))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        rearrange_to_limit_set(series, target, stages=2)


@pytest.mark.parametrize("broken", [
    lambda reports, tau: ([{**reports[0], "k_i": reports[1]["k_i"]}, reports[1]], tau),
    lambda reports, tau: (reports, PartialPermutation(tau.images[:-1])),
], ids=["k_i-does-not-grow", "tau-one-image-short"])
def test_check_stage_invariants_rejects_a_broken_run(two_stage_run, broken):
    _, _, tau, reports, constants = two_stage_run
    assert not check_stage_invariants(*broken(reports, tau), constants)


def test_rearrange_reports_failed_balancing(monkeypatch):
    monkeypatch.setattr("serwalk.rearrange._riemann_order",
                        lambda batch, keys, rows, delta: None)
    with pytest.raises(ValueError, match="balancing failed"):
        rearrange_to_limit_set(full_range_series(2, 80000),
                               PointSample(((-0.4, -0.1),)), 5)


def test_rearrange_reports_a_step_that_lands_off_its_anchor(monkeypatch):
    # a balancing that drops each batch's last term leaves the step short
    def drop_last(batch, keys, rows, delta):
        return _riemann_order(batch, keys, rows, delta)[:-1]

    monkeypatch.setattr("serwalk.rearrange._riemann_order", drop_last)
    with pytest.raises(ValueError, match="terminal sum off target"):
        rearrange_to_limit_set(full_range_series(2, 80000),
                               PointSample(((-0.4, -0.1),)), 5)


def test_rearrange_reports_an_exhausted_prefix():
    # no prefix of 3000 terms reaches (100, 100): its positive x terms sum to 57.6
    with pytest.raises(ValueError, match="series prefix exhausted before target reached"):
        rearrange_to_limit_set(full_range_series(2, 3000), PointSample(((100.0, 100.0),)), 1)


def test_every_short_prefix_failure_is_prefix_too_short():
    # the failures a longer prefix could mend share one type, a ValueError
    cases = [
        (lambda: RPConstants(alternating_harmonic(100)).n_threshold(0.001),
         "series prefix too short: no term below eps/4"),
        (lambda: rearrange_to_limit_set(full_range_series(2, 3000),
                                        PointSample(((100.0, 100.0),)), 1),
         "series prefix exhausted before target reached"),
        # 6 terms past N(1.0) = 4, and a batch draws up to 12
        (lambda: certify_rp_family(alternating_harmonic(10), [1.0], 1, random.Random(0)),
         "series prefix too short beyond N(eps)"),
    ]
    for call, message in cases:
        with pytest.raises(PrefixTooShort, match=f"^{re.escape(message)}$"):
            call()
    assert issubclass(PrefixTooShort, ValueError)


def test_a_prefix_short_of_the_last_threshold_fails_before_any_stage(monkeypatch):
    # 10,000 terms hold N(2^-6) = 8,189, which stage 5's moves use, but not
    # N(2^-7) = 16,381, which its hand-off needs; the run asks for it up
    # front, so no stage balances a batch first
    def refuse(batch, keys, rows, delta):
        raise AssertionError("balancing called")

    monkeypatch.setattr("serwalk.rearrange._riemann_order", refuse)
    series = full_range_series(2, 10000)
    assert RPConstants(series).n_threshold(2.0 ** -6) == 8189
    with pytest.raises(PrefixTooShort, match="^series prefix too short: no term below eps/4$"):
        rearrange_to_limit_set(series, PointSample(((0.25, -0.5),)), 5)


def test_a_run_is_the_same_at_any_prefix_length_that_holds_its_frontier():
    # a run reads nothing past its frontier, and N(eps) is the first index
    # below eps/4 at any length
    target = PointSample(((0.25, -0.5), (-0.25, 0.0)))
    runs = [rearrange_to_limit_set(full_range_series(2, count), target, 3)
            for count in (20000, 50000)]
    (tau, walk, reports), (tau_long, walk_long, reports_long) = runs
    assert max(tau.images) < 20000
    assert tau.images == tau_long.images
    assert walk.sums == walk_long.sums and walk.phase_lengths == walk_long.phase_lengths
    assert reports == reports_long


@pytest.mark.parametrize("target, stages", [
    (((0.1, 0.2, 0.3, 0.4, 0.5), (-0.1, -0.2, 0.0, 0.1, 0.2)), 4),
    (((0.3, 0.25, -0.7, -0.25, -0.5, 0.25),), 3),
], ids=["5d-two-points", "6d-point"])
def test_rearrange_lands_in_higher_dimensions(target, stages):
    # selection stops each axis within land / (2 max(1, sqrt(dim/3))), so the
    # Euclidean error left is at most sqrt(3)/2 of the landing tolerance; a
    # stop of land/2 per axis left up to sqrt(dim)/2 of it, and these runs
    # ended with "terminal sum off target"
    series = full_range_series(len(target[0]), 80000)
    tau, walk, reports = rearrange_to_limit_set(series, PointSample(target), stages)
    assert check_stage_invariants(reports, tau, RPConstants(series))
    assert distance(walk.sums[-1], target[0]) < 2.0 ** -(stages + 1) / 12


def test_rearrange_checks_every_sum_against_its_eps_ball(monkeypatch):
    # a batch summed with its positive-x terms first runs far right of the
    # anchor before the rest pull it back
    def positive_x_first(batch, keys, rows, delta):
        return sorted(batch, key=lambda i: not rows.item(i - 1, 0) > 0)

    monkeypatch.setattr("serwalk.rearrange._riemann_order", positive_x_first)
    with pytest.raises(ValueError, match="prefix escaped its eps-ball"):
        rearrange_to_limit_set(full_range_series(2, 80000),
                               PointSample(((-0.4, -0.1),)), 5)


def _within_the_riemann_bound(rows, batch, order):
    # every prefix of the order, summed exactly (dyadic entries), lies within
    # max(|s_a|, M_a) on each axis a and within sqrt(sum_a (|s_a| + M_a)^2),
    # with s_a the batch's sum on axis a and M_a its largest magnitude there
    picked = rows[[i - 1 for i in batch]]
    s, m = np.abs(picked.sum(axis=0)), np.abs(picked).max(axis=0, initial=0.0)
    prefixes = np.cumsum(rows[[i - 1 for i in order]], axis=0)
    return bool((np.abs(prefixes) <= np.maximum(s, m)).all()
                and ((prefixes ** 2).sum(axis=1) <= ((s + m) ** 2).sum()).all())


def _riemann_order_reference(batch, keys, rows, delta):
    # the ordering as first written: defaultdict buckets, axes sorted
    signs = defaultdict(lambda: ([], []))
    for i in reversed(batch):
        axis, positive = divmod(keys[i - 1], 2)
        signs[axis][positive].append(i)
    order, prefix = [], [0.0] * rows.shape[1]
    for axis in sorted(signs):
        neg, pos = signs[axis]
        total = peak = 0.0
        while neg or pos:
            i = neg.pop() if neg and (total >= 0.0 or not pos) else pos.pop()
            order.append(i)
            total += rows.item(i - 1, axis)
            peak = max(peak, abs(total))
        prefix[axis] = peak
        if not norm(prefix) < delta:
            return None
        prefix[axis] = total
    return order


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda dim: st.tuples(
           # per axis: both signs (0), or positive (1) or negative (-1) terms only
           st.lists(st.sampled_from([0, 1, -1]), min_size=dim, max_size=dim),
           st.lists(st.tuples(st.integers(0, dim - 1), st.integers(1, 64), st.booleans()),
                    min_size=1, max_size=40))),
       st.randoms(use_true_random=False))
def test_riemann_order_keeps_every_prefix_within_its_bound(axes, rnd):
    # axis-aligned batches in R^1..R^8 with entries k/16, so every float sum
    # is exact, the other coordinates +0.0 or -0.0 at random, and the batch
    # in a random order: the order is a permutation of the batch, every
    # prefix lies within the per-axis bound, and the float check returns
    # None exactly when the largest prefix norm is not below delta, each as
    # the reference ordering returns it
    signs, terms = axes
    rows = np.array([[rnd.choice((0.0, -0.0)) for _ in signs] for _ in terms])
    for r, (axis, k, negative) in enumerate(terms):
        sign = signs[axis] or (-1 if negative else 1)
        rows[r, axis] = sign * k / 16
    keys = [2 * axis + bool(rows[r, axis] > 0) for r, (axis, _, _) in enumerate(terms)]
    batch = rnd.sample(range(1, len(terms) + 1), len(terms))
    order = _riemann_order(batch, keys, rows, math.inf)
    assert sorted(order) == list(range(1, len(terms) + 1))
    assert _within_the_riemann_bound(rows, batch, order)
    worst = max(_prefix_norms([tuple(r) for r in rows.tolist()], order))
    assert _riemann_order(batch, keys, rows, worst) is None
    assert _riemann_order(batch, keys, rows, math.nextafter(worst, math.inf)) == order
    for delta in (math.inf, worst, math.nextafter(worst, math.inf), worst / 2):
        assert (_riemann_order(batch, keys, rows, delta)
                == _riemann_order_reference(batch, keys, rows, delta))


def test_the_riemann_bound_fails_the_inverted_rule():
    # the mutant takes a positive term while the sum is >= 0: on an axis
    # with both signs its prefixes run past max(|s_a|, M_a), and the bound
    # that the hypothesis test checks fails it
    source = inspect.getsource(_riemann_order)
    assert source.count("total >= 0.0") == 1
    scope = dict(vars(rearrange))
    exec(source.replace("total >= 0.0", "total < 0.0"), scope)
    rows = np.array([[0.5, 0.0], [0.5, -0.0], [-0.5, 0.0], [-0.5, 0.0], [0.0, 0.25]])
    keys, batch = [1, 1, 0, 0, 3], [1, 2, 3, 4, 5]
    assert _within_the_riemann_bound(rows, batch, _riemann_order(batch, keys, rows, math.inf))
    mutant = scope["_riemann_order"](batch, keys, rows, math.inf)
    assert sorted(mutant) == batch and not _within_the_riemann_bound(rows, batch, mutant)


@pytest.mark.parametrize("term, bound, expected", [
    ((3.0, 4.0), 5.0, None),  # a norm exactly at the bound
    ((3.0, 4.0), 5.0 + 2 ** -50, [1]),
    ((math.nan, 0.0), 5.0, None),
    ((0.0, 0.0), 2 ** -1074, [1]),  # no mass: inside every positive bound
    ((0.0, 0.0), 0.0, None),
    (SparseVec({2: Fraction(-3, 4), 5: Fraction(1, 2)}), 0.75, None),
    (SparseVec({2: Fraction(-3, 4), 5: Fraction(1, 2)}), 0.75 + 2 ** -50, [1]),
    (SparseVec({2: Fraction(-3, 4)}), math.nan, None),  # a SparseVec holds no NaN
    (THETA, 2 ** -1074, [1]),  # zero support: no columns at all
    (THETA, 0.0, None),
], ids=["dense-at-bound", "dense-inside", "dense-nan", "dense-zero",
        "dense-zero-at-zero", "sparse-at-bound", "sparse-inside", "sparse-nan-bound",
        "sparse-zero-support", "sparse-zero-support-at-zero"])
def test_one_term_balancing(term, bound, expected):
    assert find_balanced_permutation([term], bound) == expected


def _run_hex(run):
    tau, walk, reports = run
    return tau.images, _hex(walk.sums), walk.phase_lengths, reports


@pytest.mark.parametrize("target", [
    *[(tuple((0.3, -0.2, 0.1)[a % 3] for a in range(dim)),) for dim in range(1, 9)],
    C10_CIRCLE,
], ids=[*(f"point-{dim}d" for dim in range(1, 9)), "c10-circle"])
def test_a_list_series_rearranges_as_its_float_series(target):
    # the rearranger reads a FloatSeries' matrix and converts a list of the
    # same tuples once: the same tau, sums to the bit, and reports
    series = full_range_series(len(target[0]), 20000)
    got = rearrange_to_limit_set(series, PointSample(target), 3)
    assert _run_hex(got) == _run_hex(rearrange_to_limit_set(list(series), PointSample(target), 3))


def _sequential_sums(series, images):
    # the walk's sums as tuple adds, one term at a time from the float origin
    acc = (0.0,) * len(series[0])
    out = [acc]
    for i in images:
        acc = tuple(a + b for a, b in zip(acc, series[i - 1]))
        out.append(acc)
    return out


#: coordinates that float adds treat with care: signed zeros, subnormals,
#: the smallest normal, ints and dyadic Fractions (a float plus either adds
#: its float)
_AWKWARD = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, 0, 1, -2,
                     Fraction(-3, 4), Fraction(5, 1024)]),
    st.floats(-2.0, 2.0, allow_subnormal=True),
    st.builds(Fraction, st.integers(-2 ** 20, 2 ** 20), st.sampled_from([1, 2 ** 10, 2 ** 60])))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.floats(0.5, 2.0), st.floats(-2.0, -0.5)), _AWKWARD,
                          st.booleans()), min_size=1, max_size=8),
       st.integers(0, 2 ** 32 - 1))
def test_range_pushes_are_sequential_tuple_adds(head, seed):
    # a head of terms of norm >= 0.5, each followed by its negative so that
    # the head sums to about 0, lies inside the opening prefix, which is one
    # range push: the head's terms need not be axis-aligned there.  A tail
    # of full_range_series's terms over 32 (norms from 1/4 down), each zero
    # off its axis drawn from +0.0 and -0.0, lets a one-stage run land; its
    # picks are pushed one axis entry at a time and its hand-off is another
    # range push.  Every sum is the sequential tuple add, bit for bit
    terms = [(big, other) if first else (other, big) for big, other, first in head]
    pairs = [u for t in terms for u in (t, tuple(-c for c in t))]
    rnd = random.Random(seed)
    series = [*sorted(pairs, key=norm, reverse=True),
              *(tuple(c / 32 if c else rnd.choice((0.0, -0.0)) for c in t)
                for t in full_range_series(2, 6000))]
    tau, walk, _ = rearrange_to_limit_set(series, PointSample(((0.125, -0.25),)), 1)
    n1 = RPConstants(series).n_threshold(0.25)
    assert tau.images[:n1] == list(range(1, n1 + 1)) and n1 > len(pairs)
    assert _hex(walk.sums) == _hex(_sequential_sums(series, tau.images))


def test_a_term_off_the_axes_is_taken_in_a_range_and_refused_by_the_scan():
    series = list(full_range_series(2, 20000))
    # (3, 4) has norm 5, between the t = 1 and t = 2 terms: inside the
    # opening prefix, which takes it as it takes any term
    inside = [*series[:4], (3.0, 4.0), *series[4:]]
    tau, walk, reports = rearrange_to_limit_set(inside, PointSample(((0.25, -0.5),)), 2)
    assert 5 in tau.images[:RPConstants(inside).n_threshold(0.25)]
    assert check_stage_invariants(reports, tau, RPConstants(inside))
    assert _hex(walk.sums) == _hex(_sequential_sums(inside, tau.images))
    # (3/128, 4/128) has norm 5/128, after the t = 204 terms: past the
    # opening prefix, and the scan towards (4, 0) reaches it
    past = [*series[:816], (3 / 128, 4 / 128), *series[816:]]
    assert RPConstants(past).n_threshold(0.25) < 817
    with pytest.raises(ValueError, match="^tail selection needs axis-aligned terms$"):
        rearrange_to_limit_set(past, PointSample(((4.0, 0.0),)), 1)
