"""Finite-support sequence-space (c0) constructions.

Everything here is exact: coordinates are Fractions, zero entries are never
stored, and equality with the zero vector is a bit-exact test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from types import MappingProxyType
from typing import Mapping

from .core import norm
from .walks import PartialPermutation, SignedSeries, Walk, build_xwalk


class SparseVec:
    """Finite map index -> nonzero Fraction, modelling an element of c0.

    Immutable and hashable; supports +, - and unary -.  Indices are 1-based
    positive integers.  A ``Fraction`` entry is kept as it is and any other
    is converted with ``Fraction(v)``, so a float entry is stored exactly and
    a SparseVec walk is always exact.  Arithmetic, the no-RP generator and
    the sparse trace readers build their vectors through the trusted
    constructor ``_clean``, which skips these checks: each establishes them
    itself.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[int, object] = MappingProxyType({})):
        clean = {}
        for i, v in entries.items():
            if i < 1:
                raise ValueError("indices are 1-based positive integers")
            if type(v) is not Fraction:
                v = Fraction(v)
            if v != 0:
                clean[int(i)] = v
        self.entries = dict(sorted(clean.items()))

    @classmethod
    def _clean(cls, entries: dict) -> SparseVec:
        """A SparseVec holding entries as they are: nonzero Fractions under
        sorted int keys, as the arithmetic below builds them."""
        vec = object.__new__(cls)
        vec.entries = entries
        return vec

    def __eq__(self, other):
        return isinstance(other, SparseVec) and self.entries == other.entries

    def __hash__(self):
        return hash(tuple(self.entries.items()))

    def __repr__(self):
        if not self.entries:
            return "SparseVec(0)"
        return "SparseVec({%s})" % ", ".join(f"{i}: {v}" for i, v in self.entries.items())

    def __add__(self, other):
        out = dict(self.entries)
        for i, v in other.entries.items():
            out[i] = out[i] + v if i in out else v
        return SparseVec._clean({i: v for i, v in sorted(out.items()) if v})

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return SparseVec._clean({i: -v for i, v in self.entries.items()})

    def sup_norm(self) -> float:
        return norm(self)


THETA = SparseVec()


def e(i: int, value=1) -> SparseVec:
    """Scaled standard basis vector value * e_i."""
    return SparseVec({i: Fraction(value)})


def _updown_chain(anchor: SparseVec, legs: list[tuple[SparseVec, int]]) -> list[SparseVec]:
    """Chain from anchor applying each (step, count) leg in turn."""
    chain = [anchor]
    for step, count in legs:
        for _ in range(count):
            chain.append(chain[-1] + step)
    return chain


def gen_c0_two_point(phases: int) -> Walk:
    """The c0 walk whose limit set is the two-point set {theta, e_1}.

    Phase p (using basis direction e_{p+1} and step 2^(1-p)) climbs to
    e_{p+1}, slides to e_{p+1}+e_1, descends to e_1, then retraces to theta.
    theta and e_1 recur every phase; every other coordinate dies out.
    """
    if phases < 1:
        raise ValueError("phases must be >= 1")
    schedule = []
    bounds = []
    for p in range(1, phases + 1):
        step = Fraction(1, 2 ** (p - 1))
        count = 2 ** (p - 1)
        legs = [(e(p + 1, step), count), (e(1, step), count), (-e(p + 1, step), count)]
        schedule.append(_updown_chain(THETA, legs))
        bounds.append(float(step))
    return build_xwalk(schedule, step_bounds=bounds)


def gen_c0_singleton_divergent(phases: int) -> Walk:
    """The rearranged c0 walk with limit set {theta} that still diverges.

    Block k climbs to e_k in 2^(k-1) steps of size 2^(1-k) and descends the
    same way, so s at index 2^k + 2^(k-1) - 2 equals e_k while the block
    ends back at theta at index 2^(k+1) - 2: sup-norm gaps of 1 recur and
    the partial sums are not Cauchy.
    """
    if phases < 1:
        raise ValueError("phases must be >= 1")
    schedule = []
    bounds = []
    for k in range(1, phases + 1):
        step = Fraction(1, 2 ** (k - 1))
        schedule.append(_updown_chain(THETA, [(e(k, step), 2 ** (k - 1))]))
        bounds.append(float(step))
    return build_xwalk(schedule, step_bounds=bounds)


@dataclass
class VectorFamily:
    """2k sup-norm-one vectors summing to zero whose every k-term prefix,
    under any permutation, has sup norm >= k."""

    k: int
    dim: int
    vectors: list[tuple[int, ...]]

    def check_unit_norms(self) -> bool:
        return all(max(abs(c) for c in v) == 1 for v in self.vectors)

    def check_zero_sum(self) -> bool:
        return all(sum(col) == 0 for col in zip(*self.vectors))

    def check_prefix_lower_bound(self) -> bool:
        """Exhaustively verify the >= k prefix bound over all (2k)! orders,
        for families of at most 6 vectors (k <= 3)."""
        if self.k > 3:
            raise ValueError("family too large for exhaustive check")
        for sigma in permutations(range(2 * self.k)):
            prefix = [0] * self.dim
            for i in sigma[: self.k]:
                prefix = [p + c for p, c in zip(prefix, self.vectors[i])]
            if max(abs(p) for p in prefix) < self.k:
                return False
        return True


def sign_patterns(k: int) -> list[tuple[int, ...]]:
    """All length-2k patterns with k entries +1 and k entries -1, in
    lexicographic order with +1 sorting before -1: the order in which
    ``combinations`` yields the positions of the +1s."""
    n = 2 * k
    out = []
    for plus_positions in combinations(range(n), k):
        pat = [-1] * n
        for i in plus_positions:
            pat[i] = 1
        out.append(tuple(pat))
    return out


def _vector_family(k: int) -> VectorFamily:
    patterns = sign_patterns(k)
    dim = math.comb(2 * k, k)
    if len(patterns) != dim:
        raise RuntimeError(f"{len(patterns)} sign patterns for k={k}, expected {dim}")
    vectors = list(zip(*patterns))  # x_i(j) = t_j(i)
    return VectorFamily(k=k, dim=dim, vectors=vectors)


def gen_vector_family(k: int) -> VectorFamily:
    """Family x_i(j) = t_j(i) over the sign patterns t_1..t_n, n = C(2k,k)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > 5:
        raise ValueError("dimension budget exceeded")
    return _vector_family(k)


def coordinate_offsets(kmax: int) -> list[int]:
    """Cumulative block offsets n_0=0, n_k = C(2^(k+1), 2^k) + n_(k-1)."""
    offsets = [0]
    for k in range(1, kmax + 1):
        offsets.append(math.comb(2 ** (k + 1), 2 ** k) + offsets[-1])
    return offsets


def _block_pairs(k: int) -> list[tuple[SparseVec, SparseVec]]:
    """Each block-k vector y_i^(k) with its negative, both built through the
    trusted ``SparseVec._clean`` from the family's signs.  That is safe: the
    keys n_(k-1)+1, n_(k-1)+2, ... rise, and every value is one of the two
    shared nonzero Fractions +-2^-k, looked up by sign, so no entry is
    converted, checked or negated."""
    offsets = coordinate_offsets(k)
    keys = range(offsets[k - 1] + 1, offsets[k] + 1)
    scaled = {1: Fraction(1, 2 ** k), -1: Fraction(-1, 2 ** k)}
    flipped = {c: scaled[-c] for c in scaled}
    return [(SparseVec._clean(dict(zip(keys, map(scaled.__getitem__, vec)))),
             SparseVec._clean(dict(zip(keys, map(flipped.__getitem__, vec)))))
            for vec in _vector_family(2 ** k).vectors]


def block_vectors(k: int) -> list[SparseVec]:
    """The scaled, coordinate-shifted block-k vectors y_i^(k): 2^(k+1)
    vectors of sup norm 2^-k supported on coordinates n_(k-1)+1..n_k,
    built through the trusted constructor as :func:`_block_pairs` says."""
    return [y for y, _ in _block_pairs(k)]


def gen_no_rp_series(kmax: int) -> tuple[SignedSeries, PartialPermutation]:
    """The alternating c0 series with singleton sum range but no
    rearrangement property, through block kmax.

    Returns the series z (z_{2n} = -z_{2n-1} exactly) and the witness
    rearrangement that fronts each block's positive copies before its
    negative copies -- the order on which prefix balancing provably fails
    at bound 1.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    if kmax > 3:
        raise ValueError("kmax must be <= 3")
    terms: list[SparseVec] = []
    images: list[int] = []
    for k in range(1, kmax + 1):
        pairs = _block_pairs(k)
        offset = len(terms)
        for pair in pairs:
            terms.extend(pair)
        images.extend(offset + 2 * i + 1 for i in range(len(pairs)))
        images.extend(offset + 2 * i + 2 for i in range(len(pairs)))
    return SignedSeries(terms), PartialPermutation(images)


def per_coordinate_profile(series: SignedSeries) -> dict[int, tuple[int, Fraction]]:
    """Per coordinate: (number of nonzero terms, total sum).  A singleton
    sum range witness needs every total to be zero and every count finite."""
    profile: dict[int, list] = {}
    for t in series.terms:
        for i, v in t.entries.items():
            cnt, tot = profile.get(i, (0, Fraction(0)))
            profile[i] = (cnt + 1, tot + v)
    return profile
