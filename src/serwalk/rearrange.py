"""Prefix balancing and limit-set-targeting rearrangement.

``rearrange_to_limit_set`` mirrors the inductive construction behind
rearranging a series so its partial sums cluster exactly on a prescribed
chainable set.  Stage j walks a refined tour of the target, the same
closed tour over the target's gap graph every stage, and each hop from
anchor a to anchor b is one stage step (the ``move`` closure):
(1) at the stage hand-off only, append the untouched indices through
N(eps_{j+1}/2) in order and gather every index skipped so far (stage j's
other moves need the prefix through N(eps_j/2) = N(2^-(j+1)), which stage
j-1's hand-off, or for j = 1 the opening prefix, already pushed through);
(2) select tail indices until each of the m coordinates of the error to b is within
``_landing_tol`` (eps_{j+1}/12) over 2 max(1, sqrt(m/3)), which leaves a
Euclidean error of at most sqrt(m) times that, sqrt(3)/2 of the tolerance,
parking scanned-but-unused indices in a reservoir; (3) order the batch
by Riemann's per-axis rule (``_riemann_order``) so that no prefix leaves
the eps_j-ball around a.  A step that lands off b raises ValueError, and
so does a stage whose report breaks an invariant of ``_stage_fault``,
which ``check_stage_invariants`` runs too: a run that returns passes it.

The series is read once, as the float64 matrix ``RPConstants`` keeps: a
``FloatSeries`` (what ``full_range_series`` and ``alternating_harmonic``
return) hands over the matrix it holds, and any other sequence of tuples
is converted once.  Every term is read from that matrix.  Before the first
stage, one pass over its columns gives each term's (axis, sign) key.  A
stage step costs Python work per move and per index it picks, on one axis
at a time: ``push`` records each picked index with its partial sum, adding
the term's one axis entry to a running copy of the last sum.  That is the
last sum plus the term's row, bit for bit: every picked term is
axis-aligned, its other entries are +0.0 or -0.0, and no sum coordinate is
ever -0.0 (sums start at +0.0, and a round-to-nearest add returns -0.0
only for two -0.0 operands), so adding them changes nothing.  That one
running total steers selection and the landing checks; a move's landing
check is ``core.norm`` of the differences ``x - float(y)`` from the sum to
its anchor, the float arithmetic of ``core.distance``.  The opening
prefix and each hand-off's run of consecutive indices are folded onto the
last sum by one ``np.add.accumulate``.  It adds left to right, so every
sum has the bits of the same adds in Python; a float plus an int or a
Fraction adds that number's float, which is the row's entry, so a list of
exact terms gives the same sums too.  The eps-ball check runs once per
stage, in numpy: ``core.float_rows`` converts the stage's sums, as it
converts every point, and one pass measures each against its move's start
anchor.

The reservoir keeps one queue per key (axis and sign).  A pick takes the
first queued index whose magnitude is below twice the error left on that
axis, and the indices queued before it move, in their order, to the back
of the queue (one rotate); a queue with no such index is left as it was.
Later picks depend on this order.  A term scanned at the frontier, when
the reservoir cannot serve, is picked whenever its axis is still off and
the error there has its sign, whatever its magnitude: a pick of 2|err| or
more leaves that axis's error no smaller than it was.  The error cannot
change until a pick, so once the reservoir cannot serve, the wanted keys
are found once and the frontier is scanned on, one stored key per term,
until a term of one of them appears, each term before it parked in order
with the magnitude read from its row.  A zero term is skipped, and a term
with two nonzero coordinates raises ValueError when the scan reaches it;
the opening prefix and the hand-offs push rows without reading keys, so
they take such a term.  Each queue's magnitudes are also kept sorted,
largest first (negated), so a queue that cannot serve a pick is known from
its last, smallest magnitude, without a scan; a scan meets ever smaller
magnitudes, so a park appends, and a pick deletes near the end.  A
hand-off empties the queues in the order of their keys' first park in the
run, so each axis's two queues are summed in that order.

N(eps) is a bisection over the term norms, which ``RPConstants`` computes
once, in one pass over the series' float64 rows, and checks to be finite
and nonincreasing; "norm <= eps/4" is then monotone in the index.  A run
asks for it once up front, at the smallest eps it will need, once for the
opening prefix, and then twice a stage: at the hand-off and in the stage
check.

A prefix that is too short for the run raises ``PrefixTooShort``, a
ValueError: N(eps) past its end, a scan past its last term, or too few
terms past N(eps) to certify.  A run's result depends on nothing past its
frontier, and N(eps) is the first qualifying index at any length, so a
longer prefix of the same series gives the same result, bit for bit, once
it holds the frontier; ``serwalk rearrange`` relies on this to choose the
length.

Balancing.  Every batch the rearranger forms is axis-aligned (selection
refuses other terms), and ``_riemann_order`` orders it with no search, by
Riemann's rule on each axis: while both signs remain, an axis's sum stays
within M_a, its largest magnitude, and the rest move it monotonically to
s_a, its sum, so every prefix lies within sqrt(sum_a (|s_a| + M_a)^2), and
within sqrt(sum_a max(|s_a|, M_a)^2), of the batch's start: a bound proven
per batch.  In a stage-j move other than the hand-off, the batch starts
within eps_j/12 of anchor a and ends within eps_j/12 of b, at most
HOP_FACTOR eta_j = eps_j/16 from a, so |s| < 11 eps_j/48; its terms lie past
N(eps_j/2), where the stage's frontier starts and the hand-off before it
emptied the reservoir, so each M_a <= eps_j/8.  Then sum_a max(|s_a|,
M_a)^2 <= |s|^2 + m eps_j^2/64 < eps_j^2/4 = delta(eps_j)^2 for every
dimension m <= 12.  A hand-off's batch starts where its range push left the
sum, which depends on the series.  A batch whose float prefix norm reaches
delta raises "balancing failed"; there is no other path.

``find_balanced_permutation`` orders terms in any direction, dense tuples
and SparseVecs alike, for ``certify_rp_family`` and ``serwalk verify
rp-instance``: one deterministic greedy pass over the terms' float64 rows
(``core.float_rows``), with a complete search for batches of at most 10
terms, so that None is then a proof that no order exists.  For such terms
the constants are certified empirically, not proven: for a series with
nonincreasing term norms N(eps) is the first index whose term norm is
<= eps/4 and delta(eps) = eps/2, and ``certify_rp_family`` stress-tests
the pair with random small-sum batches.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import random
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

import numpy as np

from .core import (PointSample, _points, add, chain_gap, coordinate_ufuncs, distance,
                   float_rows, fold_norms, gap_tour, norm)
from .walks import PartialPermutation, Walk, segment

class PrefixTooShort(ValueError):
    """The series prefix ends before the computation does; a longer prefix
    of the same series might serve."""

# ---------------------------------------------------------------------------
# test series with full sum range

class FloatSeries(Sequence):
    """A series held as one read-only float64 matrix, one row per term.

    ``s[i]`` builds term i as a tuple of Python floats when it is asked
    for, and a slice is a FloatSeries over the same rows; no tuple is kept
    beside the matrix.  :func:`core.float_rows` returns ``rows`` as they
    are, so ``RPConstants`` and the rearranger read the matrix and convert
    nothing.  A float64 matrix given is made read-only and kept, not
    copied; any other array is converted to one, and an array that is not
    two-dimensional raises ValueError.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: np.ndarray):
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2:
            raise ValueError(f"a series matrix has one row per term, not shape {rows.shape}")
        rows.flags.writeable = False
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return FloatSeries(self.rows[i])
        return tuple(self.rows[i].tolist())

    def __iter__(self):
        return (tuple(row.tolist()) for row in self.rows)

def full_range_series(dim: int, count: int) -> FloatSeries:
    """Round-robin signed harmonic-type terms: for t = 1, 2, ... emit
    +8/t and -8/t along each axis in turn.

    Every coordinate has divergent positive and negative parts with terms
    tending to zero, so the sum range is all of R^dim.  The scale 8 leaves a
    desk-scale prefix with enough mass for multi-stage rearrangements.
    Term k (from 0) is 8/t on axis k // 2 mod dim, negated for odd k, with
    t = k // (2 dim) + 1: numpy divides as Python does, so every term has
    the bits of Python's ``sign * 8.0 / t``, and every other coordinate is
    +0.0.  A dimension below 1 raises ValueError.
    """
    if dim < 1:
        raise ValueError(f"a full-range series needs dimension >= 1, not {dim}")
    k = np.arange(count)
    value = 8.0 / (k // (2 * dim) + 1)
    rows = np.zeros((len(k), dim))
    rows[k, k // 2 % dim] = np.where(k % 2, -value, value)
    return FloatSeries(rows)

def alternating_harmonic(count: int) -> FloatSeries:
    """(-1)^(n+1)/n as 1-D points; partial sums converge to ln 2."""
    n = np.arange(1, count + 1)
    return FloatSeries((np.where(n % 2, 1.0, -1.0) / n)[:, None])

# ---------------------------------------------------------------------------
# prefix balancing

def _dfs_balance(terms: Sequence, bound: float) -> Optional[list[int]]:
    """Complete search with prefix pruning; equivalent to trying all n!
    orders but abandons a branch as soon as a prefix reaches the bound."""
    n = len(terms)
    order: list[int] = []
    used = [False] * n

    def rec(cur) -> bool:
        if len(order) == n:
            return True
        for idx in range(1, n + 1):
            if used[idx - 1]:
                continue
            cand = add(cur, terms[idx - 1]) if cur is not None else terms[idx - 1]
            if norm(cand) < bound:
                used[idx - 1] = True
                order.append(idx)
                if rec(cand):
                    return True
                order.pop()
                used[idx - 1] = False
        return False

    return order if rec(None) else None

def find_balanced_permutation(terms: Sequence, bound: float) -> Optional[list[int]]:
    """Permutation of [1, n] keeping every prefix-sum norm strictly below
    ``bound``, or None.

    One deterministic greedy pass over the terms' float rows appends, at
    each step, the unused term whose prefix scores lowest (the squared
    Euclidean norm of dense terms, the sup norm of SparseVecs), the first
    such in index order.  When the chosen prefix reaches the bound (or its
    norm is NaN) and n <= 10, a complete prefix-pruned search decides, so
    that None is then a proof that no such order exists.  For n > 10, None
    only means that the greedy pass failed.

    Dense tuples and SparseVecs take the same path.  The greedy pass scores
    prefixes in float64, which is exact for dyadic terms (every
    generator's, and every trace read from disk); the complete search sums
    the terms in their own arithmetic.  A batch of one term is decided by
    ``core.norm``, the pass's first score bit for bit: ``[1]`` when it is
    below the bound, else None.

    The rows are copied once into one column per coordinate (a batch with no
    coordinates gets one zero column, which scores every prefix 0, as the
    empty fold does); ``cur`` holds the prefix's float64 sums, one Python
    float per column.  Each coordinate keeps its part ``power(col + cur[c])``
    (``core.coordinate_ufuncs``) across steps, and a step folds the parts
    left to right through one buffer: ``core.fold_norms``'s fold before its
    root, bit for bit, since its first step onto 0.0 changes nothing.  A
    pick rebuilds only the coordinates where its entry is ``!= 0.0`` (a NaN
    entry is): adding +0.0 or -0.0 changes ``cur[c]`` at most in the sign
    of a zero, which ``square`` and ``abs`` erase.

    A used row is marked inf in its coordinate-0 column and part, so it
    scores exactly inf: its other parts are powers of sums of finite floats
    (every accepted prefix scored finite, so every accepted row is finite),
    which may overflow to inf but are never NaN.  A used row ties an unused
    one only at inf, where the step fails either way; an unused row that
    scores NaN is still ``argmin``'s first minimum, and a tie goes to the
    first index.
    """
    if len(terms) == 1:
        return [1] if norm(terms[0]) < bound else None
    sup, (rows,) = float_rows(terms)
    n = len(rows)
    cols = list(rows.T.copy()) or [np.zeros(n)]
    cur = [0.0] * len(cols)
    power, fold = coordinate_ufuncs(sup)
    buf = np.empty(n)
    order = []
    # a score past the float range is inf, and inf or NaN fails the step
    with np.errstate(over="ignore", invalid="ignore"):
        parts = [power(col) for col in cols]
        for _ in range(n):
            score = parts[0]
            for part in parts[1:]:
                score = fold(score, part, out=buf)
            i = int(score.argmin())
            value = score.item(i) if sup else math.sqrt(score.item(i))
            if not value < bound:  # a NaN prefix is never inside the bound
                return _dfs_balance(terms, bound) if n <= 10 else None
            order.append(i + 1)
            if len(order) == n:
                break
            for c, x in enumerate(rows[i].tolist()):
                if x != 0.0:
                    cur[c] += x
                    power(np.add(cols[c], cur[c], out=parts[c]), out=parts[c])
            cols[0][i] = parts[0][i] = np.inf
    return order

# ---------------------------------------------------------------------------
# RP certification

@dataclass
class RPWitness:
    """Empirically certified balancing constants for one epsilon."""

    epsilon: float
    n_threshold: int
    delta: float
    evidence: dict

class RPConstants:
    """The balancing-constant family used by the rearranger:
    N(eps) = first index with term norm <= eps/4, delta(eps) = eps/2.

    Requires finite, nonincreasing term norms so that the family is
    monotone (delta nonincreasing and N nondecreasing as eps decreases) and
    N(eps) can be found by bisection over the stored norms; raises
    ValueError naming the first term whose norm is NaN or infinite, else
    the first whose norm exceeds its predecessor's.  Terms are numbered
    from 1, as N(eps) is.

    The series is read once, as the float64 matrix ``core.float_rows``
    gives (for SparseVecs, over the union of their supports): a
    ``FloatSeries`` hands over the matrix it holds, and any other sequence
    is converted here, once.  The matrix is kept, and the rearranger reads
    every term from it.  The norms are one ``core.fold_norms`` over its
    columns, in the order :func:`core.norm` sums, so each equals
    ``norm(term)``.
    """

    def __init__(self, series: Sequence):
        sup, (rows,) = float_rows(series)
        norms = fold_norms(rows.T, len(rows), sup)
        bad = np.flatnonzero(~np.isfinite(norms))
        if bad.size:
            raise ValueError(f"term norms must be finite: term {bad[0] + 1} "
                             f"has norm {norms[bad[0]]}")
        bad = np.flatnonzero(norms[1:] > norms[:-1])
        if bad.size:
            raise ValueError(f"term norms must be nonincreasing: term {bad[0] + 2} "
                             f"is longer than term {bad[0] + 1}")
        self._rows, self._norms = rows, norms

    def delta(self, eps: float) -> float:
        return eps / 2

    def n_threshold(self, eps: float) -> int:
        target = eps / 4
        i = bisect.bisect_left(self._norms, -target, key=operator.neg)
        # a NaN eps qualifies no term, as a scan would find
        if i == len(self._norms) or not self._norms[i] <= target:
            raise PrefixTooShort("series prefix too short: no term below eps/4")
        return i + 1

def certify_rp_family(series_prefix: Sequence, epsilons: Sequence[float],
                      instance_budget: int, rng: random.Random) -> list[RPWitness]:
    """Stress-test the empirical constants N(eps), delta(eps) over an
    epsilon family, largest eps first.

    For each eps, samples ``instance_budget`` random small-sum batches of
    terms past N(eps) and demands a balanced permutation below eps for each;
    raises ValueError otherwise.  The witnesses are monotone by construction
    (delta(eps) = eps/2; N(eps) bisects nonincreasing norms), as c12 checks.
    An epsilon that is not finite and positive raises ValueError first.
    """
    for epsilon in epsilons:
        if not 0 < epsilon < math.inf:
            raise ValueError(f"epsilon must be a finite positive number, not {epsilon}")
    constants = RPConstants(series_prefix)
    out = []
    for epsilon in sorted(epsilons, reverse=True):
        n_thr = constants.n_threshold(epsilon)
        delta = constants.delta(epsilon)
        pool = list(range(n_thr, len(series_prefix)))
        if len(pool) < 12:
            raise PrefixTooShort("series prefix too short beyond N(eps)")
        worst, checked = 0.0, 0
        for _ in range(instance_budget):
            for _ in range(500):
                size = rng.randint(2, 12)
                instance = [series_prefix[i] for i in rng.sample(pool, size)]
                if norm(functools.reduce(add, instance)) < delta:
                    break
            else:
                continue
            order = find_balanced_permutation(instance, epsilon)
            if order is None:
                raise ValueError(f"RP certification failed at eps={epsilon}")
            # every prefix's norm, summed in the terms' own arithmetic
            worst = max(worst, *map(norm, accumulate((instance[p - 1] for p in order), add)))
            checked += 1
        out.append(RPWitness(epsilon, n_thr, delta,
                             {"instances": checked, "max_prefix_norm": worst}))
    return out

# ---------------------------------------------------------------------------
# the staged rearrangement

def _riemann_order(batch: Sequence[int], keys: Sequence[int], rows: np.ndarray,
                   delta: float) -> Optional[list[int]]:
    """The batch's indices in Riemann's order, or None when a prefix of it,
    summed from zero in float, has a norm that is not below ``delta``.

    Each term is axis-aligned, ``keys[i - 1]`` being 2 axis + (value > 0).
    Each axis, in increasing order, is ordered alone, each sign in batch
    order: a negative term while its running sum is >= 0, else a positive
    one, then the rest.  With s_a the batch's sum on axis a and M_a its
    largest magnitude there, the sum stays in [-M_a, M_a] while both signs
    remain, and the rest share a sign and move it monotonically to s_a, so
    every prefix on axis a is within max(|s_a|, M_a) <= |s_a| + M_a; a term
    moves its own axis only, so every prefix lies within sqrt(sum_a (|s_a|
    + M_a)^2).  The check is of the float prefixes: per axis, the earlier
    axes' sums with this axis's largest |running sum| give its largest
    prefix norm (``core.norm``, Euclidean for these dense rows).
    """
    # one list per key, last first: pop() takes each key's indices in order
    signs = [[] for _ in range(2 * rows.shape[1])]
    for i in reversed(batch):
        signs[keys[i - 1]].append(i)
    order, prefix = [], [0.0] * rows.shape[1]
    for axis in range(rows.shape[1]):
        neg, pos = signs[2 * axis], signs[2 * axis + 1]
        if not (neg or pos):
            continue
        total = peak = 0.0
        while neg or pos:
            i = neg.pop() if neg and (total >= 0.0 or not pos) else pos.pop()
            order.append(i)
            total += rows.item(i - 1, axis)
            if abs(total) > peak:
                peak = abs(total)
        prefix[axis] = peak
        if not norm(prefix) < delta:
            return None
        prefix[axis] = total
    return order

#: the key of a zero term, which selection skips, and of a term with two
#: nonzero coordinates, which it refuses
_ZERO, _SKEW = -1, -2

def _chain_tour(points: Sequence) -> list[int]:
    """Indices of the closed tour 0, 1, ..., n-1, 0 of the sample over its
    gap graph (see :func:`rearrange_to_limit_set`)."""
    # at the exact bottleneck, float jitter can drop an edge between
    # neighbours: on c10's circle one is 5e-17 longer than the spanning
    # tree's longest edge, and the tour would go the long way round
    gap = chain_gap(points) * (1 + 1e-9)
    return gap_tour(points, gap, [*range(len(points)), 0])

def _refined_tour(points: Sequence, tour: Sequence[int], hop: float) -> list:
    """The tour's points, each edge refined linearly to steps <= hop."""
    out = [points[tour[0]]]
    for a, b in zip(tour, tour[1:]):
        a, b = points[a], points[b]
        out.extend(segment(a, b, max(1, math.ceil(distance(a, b) / hop))))
    return out

#: anchor hops of a stage's tour are at most HOP_FACTOR * eta_j; a factor
#: below 4 keeps consecutive anchors closer than eps_j/12, as the inductive
#: step assumes
HOP_FACTOR = 3.0

def _eta(eps: float) -> float:
    """Stage scale eta = eps/48 of the eps stage."""
    return eps / 48

def _landing_tol(eps_next: float) -> float:
    """The landing rule: a step ends strictly within eps_next/12 of its anchor."""
    return eps_next / 12

def _stage_fault(report: dict, constants: RPConstants) -> Optional[str]:
    """The message of the first invariant a stage report breaks, or None:
    (1) eps_j = 2^-j and eta_j = eps_j/48; (2) every sum lies within eps_j
    of its move's start anchor; (3) the hand-off covered the indices
    through N(eps_{j+1}/2); (4) the stage ended within _landing_tol(eps_{j+1})
    of its last anchor.  A NaN measure breaks (2) or (4)."""
    j, eps = report["stage"], report["eps"]
    if eps != 2.0 ** -j or report["eta"] != _eta(eps):
        return "stage tolerances off the eps_j = 2^-j schedule"
    # from here eps = 2^-j exactly, so eps / 2 is eps_{j+1}
    if not report["prefix_max_excursion"] <= eps:
        return "prefix escaped its eps-ball"
    if report["covered_through"] < constants.n_threshold(eps / 4):
        return "stage handoff left an early index uncovered"
    if not report["stage_end_error"] < _landing_tol(eps / 2):
        return "stage ended off its anchor"
    return None

def rearrange_to_limit_set(series_prefix: Sequence, target: PointSample,
                           stages: int, rng: Optional[random.Random] = None):
    """Run the staged induction so the partial sums cluster on the target.

    Stage j uses eps_j = 2^-j and eta_j = eps_j/48, sweeping a refined
    cyclic tour of the target sample with anchor hops of at most
    HOP_FACTOR * eta_j, and each step lands within eps_next/12 of its
    anchor.  The induction states these as min(eps/48, delta(eps/2)/12)
    and min(eps/12, delta(eps/2)/3); with delta(eps) = eps/2 the two terms
    of each min are equal, and for eps = 2^-j, j = 1..59, the plain
    formulas give bit-identical floats.

    The tour, computed once per call, visits the sample points in order
    and returns to the first, each leg a fewest-hop path (``core.gap_tour``)
    on the gap graph at the sample's ``core.chain_gap`` times 1 + 1e-9: a
    leg between neighbours is that edge, and the graph is built only for
    the other legs.
    The slack rule: an edge longer than the spanning tree's longest by less
    than a relative 1e-9, as float jitter makes some edges of a uniform
    sample, stays a direct hop.  Stage j refines each tour edge of length d
    linearly into ceil(d / (HOP_FACTOR * eta_j)) equal hops.  Every tour
    edge is at most the slackened chain gap, so every tour point lies
    within about chain_gap/2 of the sample, and the partial sums cluster on
    the tour.  A small chain gap is the sample-level form of the paper's
    requirement that the target be eps-chainable for every eps > 0; on two
    disjoint circles it is the bridge between them, which the tour crosses.

    The rearrangement is deterministic: ``rng`` is accepted for callers
    that pass one and is unused.

    The walk's sums are the running total from the float origin, so they
    are tuples of Python floats for any numeric series: each is the
    left-to-right fold of the terms onto 0.0, and a float plus an int or a
    Fraction adds that number's float, so an exact series and its float
    copy give the same sums to the bit.  An empty target ("empty sample"),
    or a target point with a NaN or infinite coordinate (or an exact one
    past the float range, which ``core.norm`` reads as inf) or a dimension
    other than the series' terms (an empty series has dimension 0), raises
    ValueError.

    Every sum is checked against the eps_j-ball around its move's start
    anchor, but once per stage, by ``_stage_fault`` after the stage's last
    move: within one stage another failure ("balancing failed", "terminal
    sum off target", an exhausted prefix) may be reported before an escape
    ("prefix escaped its eps-ball") of an earlier move.

    Before the opening prefix the run asks for N(2^-(stages+2)), the
    smallest threshold it needs (the last hand-off's and stage check's);
    norms are nonincreasing, so a prefix that holds it holds every earlier
    one, and a prefix too short for the last stage raises
    ``PrefixTooShort`` before any stage runs.

    Returns (tau, walk, stage_reports).
    """
    if stages < 1:
        raise ValueError("stages must be >= 1")
    points = _points(target)
    constants = RPConstants(series_prefix)
    dim = len(series_prefix[0]) if series_prefix else 0
    for i, p in enumerate(points):
        if len(p) != dim:
            raise ValueError(f"target point {i} has dimension {len(p)}, "
                             f"the series has dimension {dim}")
        try:
            finite = all(math.isfinite(float(c)) for c in p)
        except OverflowError:  # an int or Fraction past the float range
            finite = False
        if not finite:
            raise ValueError(f"target point {i} is not finite: {p}")
    constants.n_threshold(2.0 ** -(stages + 2))  # the run's smallest threshold
    tour = _chain_tour(points)

    # every term is read from the constants' float64 rows, and each term's
    # key once, a column at a time: 2 axis + (value > 0) for a term whose
    # one nonzero coordinate is on that axis, _ZERO for a zero term and
    # _SKEW for one with two nonzero coordinates (no NaN: norms are finite)
    rows = constants._rows
    keys, count = np.full(len(rows), _ZERO), np.zeros(len(rows), int)
    for a, col in enumerate(rows.T):
        on = col != 0.0
        count += on
        keys[on] = 2 * a + (col[on] > 0.0)
    keys[count > 1] = _SKEW
    keys, n = keys.tolist(), len(rows)
    images: list[int] = []
    sums = [tuple([0.0] * dim)]
    frontier = 0
    per_axis = 2 * max(1.0, math.sqrt(dim / 3))  # select's divisor, 2 for dim <= 3
    # scanned-but-unused indices wait here, one queue per key, until the
    # walk swings back their way; sweeping them at every extension instead
    # would feed each move's displacement back into the next one and
    # exhaust the prefix
    reservoir = [deque() for _ in range(2 * dim)]
    # each queue's magnitudes, negated and sorted (largest first): a take
    # that no queued index can serve reads the last and scans nothing
    mags: list[list] = [[] for _ in range(2 * dim)]
    # the keys in the order of their first park in the run: the hand-off
    # sums each axis's two queues in this order
    parked: list[int] = []
    # (first image, start anchor) of each move of the current stage
    marks: list = []

    def push(picked):
        # picked indices, each its axis entry added to a running copy of the
        # last sum: its other entries are ±0.0, which add nothing to a sum
        # that is never -0.0
        total = list(sums[-1])
        for i in picked:
            axis = keys[i - 1] >> 1
            total[axis] += rows.item(i - 1, axis)
            images.append(i)
            sums.append(tuple(total))

    def push_range(lo, hi):
        # the indices lo+1..hi in order, folded onto the last sum by one
        # accumulate, which adds left to right: the same adds, the same bits
        block = np.vstack([sums[-1], rows[lo:hi]])
        with np.errstate(over="ignore", invalid="ignore"):  # as float adds overflow
            np.add.accumulate(block, axis=0, out=block)
        images.extend(range(lo + 1, hi + 1))
        sums.extend(map(tuple, block[1:].tolist()))

    def max_excursion(stage_sums):
        # the largest distance from a sum of the stage to its move's start
        # anchor, accumulated as core.distance accumulates it
        sup, (block, starts) = float_rows(stage_sums, [a for _, a in marks])
        anchors = np.repeat(starts, np.diff([m for m, _ in marks] + [len(images)]), axis=0)
        return float(fold_norms(block.T - anchors.T, len(block), sup).max(initial=0.0))

    def take(key, err_abs):
        sorted_mags, bound = mags[key], 2 * err_abs
        if not sorted_mags or not -sorted_mags[-1] < bound:
            return None
        q = reservoir[key]
        for k, got in enumerate(q):
            if got[0] < bound:
                break
        q.rotate(-k)
        q.popleft()
        del sorted_mags[bisect.bisect_left(sorted_mags, -got[0])]
        return got

    def select(err, land):
        # greedy Riemann selection until each axis is within land/per_axis,
        # which leaves sqrt(dim)/per_axis <= sqrt(3)/2 of land: drain the
        # reservoir first, scan past the frontier when it runs dry; mutates err
        nonlocal frontier
        tol = land / per_axis
        selected: list[int] = []
        while True:
            for axis in range(dim):
                if abs(err[axis]) > tol:
                    break
            else:
                return selected
            positive = err[axis] > 0
            got = take(2 * axis + positive, abs(err[axis]))
            if got is not None:
                mag, idx = got
                value = mag if positive else -mag
            else:
                # err cannot change until a pick, and a scanned term that is
                # not picked is parked under its own key, which is not
                # wanted, so never the key take just missed: take would miss
                # again after every park, so the wanted keys are found once
                # and the frontier is scanned until one appears
                wanted = {2 * a + (err[a] > 0) for a in range(dim) if abs(err[a]) > tol}
                while True:
                    frontier += 1
                    if frontier > n:
                        raise PrefixTooShort("series prefix exhausted before target reached")
                    key = keys[frontier - 1]
                    if key in wanted:
                        break
                    if key >= 0:
                        mag = abs(rows.item(frontier - 1, key // 2))
                        q = reservoir[key]
                        if not q and key not in parked:
                            parked.append(key)
                        q.append((mag, frontier))
                        bisect.insort(mags[key], -mag)
                    elif key == _SKEW:
                        raise ValueError("tail selection needs axis-aligned terms")
                idx = frontier
                axis = key // 2
                value = rows.item(idx - 1, axis)
            selected.append(idx)
            err[axis] -= value

    # straight prefix through N(eps_1 / 2), then steer onto the first anchor
    n1 = constants.n_threshold(0.25)
    push_range(0, n1)
    frontier = n1
    d1 = tuple(float(c) for c in points[0])
    push(select([a - b for a, b in zip(d1, sums[-1])], _landing_tol(0.5)))

    def move(a, b, eps, eps_next):
        nonlocal frontier
        marks.append((len(images), a))
        batch: list[int] = []
        z = [0.0] * dim
        if eps_next < eps:  # the hand-off, the only move that needs step (1)
            # untouched indices through N(eps_next/2) are consecutive signed
            # pairs; in ascending order their prefixes cancel pairwise, so
            # they need no balancing pass
            n_next = constants.n_threshold(eps_next / 2)
            push_range(frontier, n_next)
            frontier = max(frontier, n_next)
            # a parked term is zero off its axis, and ±0.0 adds nothing to z (never -0.0)
            for key in parked:
                axis, positive = divmod(key, 2)
                for mag, idx in reservoir[key]:
                    batch.append(idx)
                    z[axis] += mag if positive else -mag
                reservoir[key].clear()
                mags[key].clear()
        err = [float(bc) - cc - zc for bc, cc, zc in zip(b, sums[-1], z)]
        land = _landing_tol(eps_next)
        batch.extend(select(err, land))
        order = _riemann_order(batch, keys, rows, constants.delta(eps))
        if order is None:
            raise ValueError("RP bound violated at stage: balancing failed")
        push(order)
        # core.distance's float arithmetic, without its point-type checks
        if not norm([x - float(y) for x, y in zip(sums[-1], b)]) < land:
            raise ValueError("terminal sum off target")

    phase_lengths = [len(images)]
    reports = []
    prev_anchor = d1
    for j in range(1, stages + 1):
        eps, eps_next = 2.0 ** -j, 2.0 ** -(j + 1)
        eta = _eta(eps)
        loop = _refined_tour(points, tour, HOP_FACTOR * eta)
        start = len(images)
        marks.clear()
        for d in loop[1:]:
            move(prev_anchor, d, eps, eps)
            prev_anchor = d
        # stage handoff: extend the prefix and sweep the reservoir so the
        # permutation covers an initial segment, landing within the next
        # stage's tolerance
        move(prev_anchor, prev_anchor, eps, eps_next)
        pending = [idx for key in parked for _, idx in reservoir[key]]
        report = {
            "stage": j,
            "k_i": len(images),
            "eps": eps,
            "eta": eta,
            "anchor": prev_anchor,
            "stage_end_error": distance(sums[-1], prev_anchor),
            "prefix_max_excursion": max_excursion(sums[start + 1:]),
            "moves": len(loop),
            "uncovered": len(pending),
            "covered_through": min(pending) - 1 if pending else frontier,
        }
        if fault := _stage_fault(report, constants):
            raise ValueError(fault)
        phase_lengths.append(len(images) - start)
        reports.append(report)

    tau = PartialPermutation(images)
    walk = Walk(sums, phase_lengths)
    return tau, walk, reports

def check_stage_invariants(reports: Sequence[dict], tau: PartialPermutation,
                           constants: RPConstants) -> bool:
    """Re-verify the staged induction's invariants from its artifacts:
    (i) every report passes :func:`_stage_fault`, as in the rearranger, so
    a run that returns passes here; (ii) the k_i grow; (iii) ``len(tau)``
    is the last k_i; (iv) tau covers the indices through N(eps/2) of the
    stage after the last.  The rearranger's per-move landing check is the
    only check of the intermediate anchors; no artifact records them.
    """
    prev_k = 0
    for rep in reports:
        if _stage_fault(rep, constants) or rep["k_i"] <= prev_k:
            return False
        prev_k = rep["k_i"]
    if len(tau) != prev_k:
        return False
    return tau.covers_initial_segment(
        constants.n_threshold(2.0 ** -(len(reports) + 1) / 2))
