import math
from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from serwalk.seqspace import (THETA, SparseVec, _vector_family, block_vectors,
                              coordinate_offsets, e,
                              gen_c0_singleton_divergent, gen_c0_two_point,
                              gen_no_rp_series, gen_vector_family,
                              per_coordinate_profile, sign_patterns)


def test_sparsevec_algebra():
    v = e(1) + e(3, F(1, 2))
    assert v.entries == {1: 1, 3: F(1, 2)}
    assert v - v == THETA
    assert (-v).entries == {1: -1, 3: F(-1, 2)}
    assert v.sup_norm() == 1.0
    assert THETA.sup_norm() == 0.0


def test_sparsevec_never_stores_zero():
    v = SparseVec({1: F(1), 2: F(0)})
    assert v.entries == {1: F(1)}
    assert (e(1) - e(1)) == THETA


def test_sparsevec_stores_floats_exactly():
    v = SparseVec({1: 0.1, 2: 0.0, 3: 2})
    assert v.entries == {1: F(0.1), 3: F(2)}
    assert all(type(x) is F for x in v.entries.values())


def test_sparsevec_rejects_bad_index():
    with pytest.raises(ValueError):
        SparseVec({0: 1})


def test_sparsevec_not_iterable():
    with pytest.raises(TypeError):
        iter(e(1))


def test_sparsevec_hash_and_eq():
    assert e(2) == SparseVec({2: 1})
    assert hash(e(2)) == hash(SparseVec({2: 1}))
    assert e(2) != e(3)


def test_c0_two_point_first_six_sums():
    w = gen_c0_two_point(1)
    want = [e(2), e(2) + e(1), e(1), e(1) + e(2), e(2), THETA]
    assert w.sums[1:7] == want
    assert w.is_palindromic()


def test_c0_two_point_anchors_recur():
    w = gen_c0_two_point(4)
    ends = [w.sums[hi - 1] for _, hi in w.phase_blocks()]
    assert all(p == THETA for p in ends)
    # e_1 appears in every phase
    for lo, hi in w.phase_blocks():
        assert e(1) in w.sums[lo:hi]


def test_c0_two_point_step_bounds_shrink():
    w = gen_c0_two_point(4)
    assert w.step_bounds == [1.0, 0.5, 0.25, 0.125]
    assert w.check_step_bounds()


def test_c0_singleton_divergent_block_landmarks():
    w = gen_c0_singleton_divergent(6)
    for k in range(1, 7):
        assert w.sums[2 ** (k + 1) - 2] == THETA
        assert w.sums[2 ** k + 2 ** (k - 1) - 2] == e(k)
    assert len(w.sums) - 1 == 2 ** 7 - 2


def test_c0_generators_reject_zero_phases():
    for gen in (gen_c0_two_point, gen_c0_singleton_divergent):
        with pytest.raises(ValueError, match="phases must be >= 1"):
            gen(0)


def test_sign_patterns_shape():
    pats = sign_patterns(2)
    assert len(pats) == math.comb(4, 2)
    assert pats[0] == (1, 1, -1, -1)
    assert pats[-1] == (-1, -1, 1, 1)
    assert all(sum(p) == 0 for p in pats)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_vector_family_properties(k):
    fam = gen_vector_family(k)
    assert fam.dim == math.comb(2 * k, k)
    assert len(fam.vectors) == 2 * k
    assert fam.check_unit_norms()
    assert fam.check_zero_sum()
    assert fam.check_prefix_lower_bound()


def test_vector_family_prefix_bound_brute_force_oracle():
    # independent re-derivation for k=2: every 2-of-4 selection sums to
    # sup norm >= 2 because some coordinate's pattern gives both picks +1
    fam = gen_vector_family(2)
    for sigma in permutations(range(4), 2):
        s = [fam.vectors[sigma[0]][j] + fam.vectors[sigma[1]][j]
             for j in range(fam.dim)]
        assert max(abs(c) for c in s) >= 2


def test_vector_family_budget():
    with pytest.raises(ValueError, match="dimension budget"):
        gen_vector_family(6)
    with pytest.raises(ValueError):
        gen_vector_family(0)


def test_coordinate_offsets():
    assert coordinate_offsets(3) == [0, 6, 76, 12946]


def test_block_vectors_scaled_and_shifted():
    ys = block_vectors(2)
    assert len(ys) == 8
    offsets = coordinate_offsets(2)
    for y in ys:
        assert y.sup_norm() == 0.25
        assert all(offsets[1] < i <= offsets[2] for i in y.entries)
    total = ys[0]
    for y in ys[1:]:
        total = total + y
    assert total == THETA


def _validated(a, b, op):
    # the result the validating public constructor builds, coordinate by
    # coordinate
    return SparseVec({i: op(a.entries.get(i, 0), b.entries.get(i, 0))
                      for i in {*a.entries, *b.entries}})


def _is_clean(v):
    return (all(type(x) is F and x != 0 for x in v.entries.values())
            and list(v.entries) == sorted(v.entries))


# small indices and values, so that keys collide and sums cancel to zero
sparse_dicts = st.dictionaries(st.integers(1, 12),
                               st.builds(F, st.integers(-3, 3), st.integers(1, 4)),
                               max_size=8)


@settings(max_examples=200, deadline=None)
@given(sparse_dicts, sparse_dicts)
def test_trusted_arithmetic_matches_the_validating_constructor(da, db):
    a, b = SparseVec(da), SparseVec(db)
    for got, want in [(a + b, _validated(a, b, lambda x, y: x + y)),
                      (a - b, _validated(a, b, lambda x, y: x - y)),
                      (-a, _validated(a, THETA, lambda x, _: -x))]:
        assert list(got.entries.items()) == list(want.entries.items())
        assert _is_clean(got)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_block_vectors_match_the_multiplied_formula(k):
    offsets = coordinate_offsets(k)
    scale = F(1, 2 ** k)
    want = [SparseVec({offsets[k - 1] + j: scale * c for j, c in enumerate(vec, start=1)})
            for vec in _vector_family(2 ** k).vectors]
    got = block_vectors(k)
    assert [list(y.entries.items()) for y in got] == [list(y.entries.items()) for y in want]
    assert all(_is_clean(y) for y in got)


def test_no_rp_series_alternates_and_cancels():
    series, witness = gen_no_rp_series(2)
    assert series.check_alternating()
    profile = per_coordinate_profile(series)
    assert all(total == 0 for _, total in profile.values())
    # witness fronts the positive copies of each block
    k1 = 2 ** 2  # four vectors in block 1
    fronted = [series.terms[i - 1] for i in witness.images[:k1]]
    assert fronted == series.terms[0:2 * k1:2]


def test_no_rp_series_kmax_bounds():
    with pytest.raises(ValueError):
        gen_no_rp_series(0)
    with pytest.raises(ValueError, match="<= 3"):
        gen_no_rp_series(4)
