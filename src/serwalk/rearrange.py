"""Prefix balancing and limit-set-targeting rearrangement.

``rearrange_to_limit_set`` mirrors the inductive construction behind
rearranging a series so its partial sums cluster exactly on a prescribed
chainable set.  Stage j walks a refined tour of the target, the same
closed tour over the target's gap graph every stage, and each hop from
anchor a to anchor b is one stage step (the ``move`` closure):
(1) append the untouched indices through N(eps_j/2) in order, and at the
stage hand-off also gather every index skipped so far; (2) select tail
indices whose sum steers the running total to within the next stage's
slack of b, parking scanned-but-unused indices in a reservoir; (3) order
the batch with ``find_balanced_permutation`` so that no prefix leaves the
eps_j-ball around a.  The step checks its postconditions and raises
ValueError when one fails.

A stage step costs Python work per move and per index it picks, and numpy
work per stage: ``push`` only records indices and keeps the running total
in Python floats, and at the end of a stage one ``np.cumsum`` over the
series' float64 rows (``RPConstants.rows``) gives the stage's partial
sums, in the order and to the bit of that running total.  The eps-ball
check then measures every sum of the stage against its move's start anchor
in one pass.

The reservoir keeps one queue per axis and sign.  A pick takes the first
queued index whose magnitude is below twice the error left on that axis,
and the indices queued before it move, in their order, to the back of the
queue (one rotate); a queue with no such index is left as it was.  Later
picks depend on this order.  Each queue's magnitudes are also kept sorted,
so a queue that cannot serve a pick is known from its smallest magnitude,
without a scan.

N(eps) is a bisection over the term norms, which ``RPConstants`` computes
once, in one pass over the series' float64 rows, and checks to be finite
and nonincreasing; "norm <= eps/4" is then monotone in the index.  The
stage loop asks for it twice a stage: once for the stage's moves, which
all use N(eps_j/2), and once for the hand-off.

Balancing orders the batch by one deterministic greedy pass over the
terms' float64 rows (``core.float_rows``), the same code for dense tuples
and SparseVecs, and falls back to a complete search for batches of at most
10 terms; a one-term batch is decided by its norm alone.  No randomized
pass breaks ties, so a batch of more than 10 terms with exactly tied
scores, where only a tie-broken greedy order stays inside the bound, fails
with "balancing failed".  No workload, test or demo has such a batch; a
Steinitz-lemma construction with a proven bound is the planned answer for
it.

Balancing constants are certified empirically, not proven: for a series
with nonincreasing term norms we take N(eps) = first index whose term norm
is <= eps/4 and delta(eps) = eps/2, and stress-test the pair with random
small-sum batches.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import random
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (PointSample, add, chain_gap, distance, float_rows,
                   fold_coordinate, gap_graph, gap_tour, norm)
from .walks import PartialPermutation, Walk

# ---------------------------------------------------------------------------
# test series with full sum range

def full_range_series(dim: int, count: int) -> list[tuple]:
    """Round-robin signed harmonic-type terms: for t = 1, 2, ... emit
    +8/t and -8/t along each axis in turn.

    Every coordinate has divergent positive and negative parts with terms
    tending to zero, so the sum range is all of R^dim.  The scale 8 leaves a
    desk-scale prefix with enough mass for multi-stage rearrangements.
    """
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

def alternating_harmonic(count: int) -> list[tuple]:
    """(-1)^(n+1)/n as 1-D points; partial sums converge to ln 2."""
    return [((1.0 if n % 2 else -1.0) / n,) for n in range(1, count + 1)]

# ---------------------------------------------------------------------------
# prefix balancing

def _max_prefix_norm(terms: Sequence, order: Sequence[int]) -> float:
    cur = None
    worst = 0.0
    for idx in order:
        cur = terms[idx - 1] if cur is None else add(cur, terms[idx - 1])
        worst = max(worst, norm(cur))
    return worst

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
    the terms in their own arithmetic.

    A batch of one term is decided by ``core.norm``, which is the greedy
    pass's first score bit for bit (and the complete search's answer when
    that score is not below the bound): ``[1]`` when the norm is below the
    bound, else None.  Most of the rearranger's batches have one term.
    """
    if not terms:
        return []
    if len(terms) == 1:
        return [1] if norm(terms[0]) < bound else None
    rows = float_rows(terms)[0]
    sup = hasattr(terms[0], "entries")
    n = len(rows)
    cur = np.zeros(rows.shape[1])
    used = np.zeros(n, dtype=bool)
    order = []
    for _ in range(n):
        score = np.zeros(n)
        for col in range(rows.shape[1]):
            fold_coordinate(score, cur[col] + rows[:, col], sup)
        score[used] = np.inf
        i = int(np.argmin(score))
        value = score[i] if sup else math.sqrt(score[i])
        if not value < bound:  # a NaN prefix is never inside the bound
            return _dfs_balance(terms, bound) if n <= 10 else None
        order.append(i + 1)
        used[i] = True
        cur += rows[i]
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

    The norms accumulate one coordinate at a time over ``core.float_rows``,
    in the order :func:`core.norm` sums, so each equals ``norm(term)`` bit
    for bit.  A SparseVec series is laid out over the union of its supports.
    That float64 matrix stays as ``rows``, one row per term, so that the
    rearranger converts its series once: it adds the stage's partial sums
    from these rows.
    """

    def __init__(self, series: Sequence):
        self.rows = rows = float_rows(series)[0]
        sup = bool(len(series)) and hasattr(series[0], "entries")
        norms = np.zeros(len(rows))
        for col in range(rows.shape[1]):
            fold_coordinate(norms, rows[:, col], sup)
        if not sup:
            np.sqrt(norms, out=norms)
        bad = np.flatnonzero(~np.isfinite(norms))
        if bad.size:
            raise ValueError(f"term norms must be finite: term {bad[0] + 1} "
                             f"has norm {norms[bad[0]]}")
        bad = np.flatnonzero(norms[1:] > norms[:-1])
        if bad.size:
            raise ValueError(f"term norms must be nonincreasing: term {bad[0] + 2} "
                             f"is longer than term {bad[0] + 1}")
        self._norms = norms

    def delta(self, eps: float) -> float:
        return eps / 2

    def n_threshold(self, eps: float) -> int:
        target = eps / 4
        i = bisect.bisect_left(self._norms, -target, key=operator.neg)
        # a NaN eps qualifies no term, as a scan would find
        if i == len(self._norms) or not self._norms[i] <= target:
            raise ValueError("series prefix too short: no term below eps/4")
        return i + 1

def certify_rp_family(series_prefix: Sequence, epsilons: Sequence[float],
                      instance_budget: int, rng: random.Random) -> list[RPWitness]:
    """Stress-test the empirical constants N(eps), delta(eps) over an
    epsilon family, largest eps first.

    For each eps, samples ``instance_budget`` random small-sum batches of
    terms past N(eps) and demands a balanced permutation below eps for each;
    raises ValueError otherwise, or when the witnesses are not monotone.
    """
    constants = RPConstants(series_prefix)
    out = []
    for epsilon in sorted(epsilons, reverse=True):
        n_thr = constants.n_threshold(epsilon)
        delta = constants.delta(epsilon)
        pool = list(range(n_thr, len(series_prefix)))
        if len(pool) < 12:
            raise ValueError("series prefix too short beyond N(eps)")
        worst = 0.0
        checked = 0
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
            worst = max(worst, _max_prefix_norm(instance, order))
            checked += 1
        out.append(RPWitness(epsilon, n_thr, delta,
                             {"instances": checked, "max_prefix_norm": worst}))
    for w1, w2 in zip(out, out[1:]):
        if w1.delta < w2.delta or w1.n_threshold > w2.n_threshold:
            raise ValueError(
                f"witnesses not monotone between eps={w1.epsilon} and eps={w2.epsilon}")
    return out

# ---------------------------------------------------------------------------
# the staged rearrangement

def _axis_of(term) -> tuple[int, float]:
    nz = [(a, float(v)) for a, v in enumerate(term) if float(v) != 0.0]
    if len(nz) > 1:
        raise ValueError("tail selection needs axis-aligned terms")
    return nz[0] if nz else (-1, 0.0)

def _chain_tour(points: Sequence) -> list[int]:
    """Indices of the closed tour 0, 1, ..., n-1, 0 of the sample over its
    gap graph (see :func:`rearrange_to_limit_set`)."""
    # at the exact bottleneck, float jitter can drop an edge between
    # neighbours: on c10's circle one is 5e-17 longer than the spanning
    # tree's longest edge, and the tour would go the long way round
    gap = chain_gap(points) * (1 + 1e-9)
    return gap_tour(gap_graph(points, gap), [*range(len(points)), 0])

def _refined_tour(points: Sequence, tour: Sequence[int], hop: float) -> list:
    """The tour's points, each edge refined linearly to steps <= hop."""
    out = [points[tour[0]]]
    for a, b in zip(tour, tour[1:]):
        a, b = points[a], points[b]
        n = max(1, math.ceil(distance(a, b) / hop))
        for i in range(1, n + 1):
            out.append(tuple(ca + (cb - ca) * i / n for ca, cb in zip(a, b)))
    return out

#: anchor hops of a stage's tour are at most HOP_FACTOR * eta_j; a factor
#: below 4 keeps consecutive anchors closer than eps_j/12, as the inductive
#: step assumes
HOP_FACTOR = 3.0

def _eta(eps: float) -> float:
    """Stage scale eta = eps/48 of the eps stage."""
    return eps / 48

def _landing_tol(eps_next: float) -> float:
    """How far from its anchor a stage step may end when the next stage
    uses eps_next: eps_next/12."""
    return eps_next / 12

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
    on the gap graph at the sample's ``core.chain_gap`` times 1 + 1e-9.
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

    The walk's sums are float64 partial sums, tuples of Python floats, as
    every caller's series is float: each is the left-to-right fold of the
    float64 terms, ``core.add`` bit for bit on a float series.  A target
    point with a NaN or infinite coordinate raises ValueError naming it.

    Every sum is checked against the eps_j-ball around its move's start
    anchor, but once per stage, after the stage's last move: within one
    stage another failure ("balancing failed", "terminal sum off target",
    an exhausted prefix) may now be reported before an escape ("prefix
    escaped its eps-ball") of an earlier move.

    Returns (tau, walk, stage_reports).
    """
    if stages < 1:
        raise ValueError("stages must be >= 1")
    target = target if isinstance(target, PointSample) else PointSample(tuple(target))
    if not target.points:
        raise ValueError("empty target")
    for i, p in enumerate(target.points):
        if not all(math.isfinite(float(c)) for c in p):
            raise ValueError(f"target point {i} is not finite: {p}")
    tour = _chain_tour(target.points)
    terms = series_prefix
    constants = RPConstants(terms)
    rows = constants.rows
    dim = len(terms[0])

    images: list[int] = []
    sums = [tuple([0.0] * dim)]
    frontier = 0
    cur = [0.0] * dim  # the running total: flush's last sum, bit for bit
    # scanned-but-unused indices wait here until the walk swings back their
    # way; sweeping them at every extension instead would feed each move's
    # displacement back into the next one and exhaust the prefix
    reservoir: dict[tuple[int, bool], deque] = {}
    # each queue's magnitudes, sorted: a take that no queued index can serve
    # reads the smallest and scans nothing
    mags: dict[tuple[int, bool], list] = {}
    # (first image, start anchor) of each move of the current stage
    marks: list = []

    def push(order):
        for i in order:
            images.append(i)
            t = terms[i - 1]
            for ax in range(dim):
                cur[ax] += t[ax]

    def flush(start):
        # the partial sums of images[start:], appended to sums and returned
        # as a matrix: np.cumsum adds in order, so each is the left-to-right
        # fold from the last sum, and the final one equals cur
        picked = rows[np.array(images[start:], dtype=np.intp) - 1]
        block = np.cumsum(np.vstack([sums[-1], picked]), axis=0)[1:]
        sums.extend(map(tuple, block.tolist()))
        return block

    def max_excursion(block):
        # the largest distance from a sum of the stage's block to its move's
        # start anchor, accumulated as core.distance accumulates it
        firsts = [m for m, _ in marks] + [len(images)]
        anchors = np.repeat(np.array([a for _, a in marks], dtype=float),
                            np.diff(firsts), axis=0)
        score = np.zeros(len(block))
        for col in range(dim):
            fold_coordinate(score, block[:, col] - anchors[:, col], False)
        return float(np.sqrt(score).max(initial=0.0))

    def take(axis, positive, err_abs):
        key = (axis, positive)
        if not mags.get(key) or not mags[key][0] < 2 * err_abs:
            return None
        q = reservoir[key]
        k = next(k for k, (mag, _) in enumerate(q) if mag < 2 * err_abs)
        q.rotate(-k)
        got = q.popleft()
        del mags[key][bisect.bisect_left(mags[key], got[0])]
        return got

    def select(err, tol):
        # greedy Riemann selection: drain the reservoir first, scan past
        # the frontier when it runs dry; mutates err in place
        nonlocal frontier
        selected: list[int] = []
        while True:
            axis = next((a for a in range(dim) if abs(err[a]) > tol), None)
            if axis is None:
                return selected
            positive = err[axis] > 0
            got = take(axis, positive, abs(err[axis]))
            if got is not None:
                mag, idx = got
                selected.append(idx)
                err[axis] -= mag if positive else -mag
                continue
            frontier += 1
            if frontier > len(terms):
                raise ValueError("series prefix exhausted before target reached")
            ax, value = _axis_of(terms[frontier - 1])
            if ax >= 0 and abs(err[ax]) > tol and (value > 0) == (err[ax] > 0):
                selected.append(frontier)
                err[ax] -= value
            elif ax >= 0:
                key = (ax, value > 0)
                reservoir.setdefault(key, deque()).append((abs(value), frontier))
                bisect.insort(mags.setdefault(key, []), abs(value))

    # straight prefix through N(eps_1 / 2), then steer onto the first anchor
    n1 = constants.n_threshold(0.25)
    push(range(1, n1 + 1))
    frontier = n1
    d1 = tuple(float(c) for c in target.points[0])
    base_err = [float(a) - float(b) for a, b in zip(d1, cur)]
    push(select(base_err, _landing_tol(0.5) / 2))
    flush(0)

    def move(a, b, k0, eps, eps_next, sweep=False):
        # k0 is max(N(eps/2), N(eps_next/2)), the same for every move of a
        # stage but its hand-off
        nonlocal frontier
        marks.append((len(images), a))
        if k0 > frontier:
            # untouched indices up to k0 are consecutive signed pairs; in
            # ascending order their prefixes cancel pairwise, so they need
            # no balancing pass
            push(range(frontier + 1, k0 + 1))
            frontier = k0
        batch: list[int] = []
        z = [0.0] * dim
        if sweep:
            for q in reservoir.values():
                for _, idx in q:
                    batch.append(idx)
                    t = terms[idx - 1]
                    for ax in range(dim):
                        z[ax] += float(t[ax])
                q.clear()
            mags.clear()
        err = [float(bc) - float(cc) - zc for bc, cc, zc in zip(b, cur, z)]
        tol = _landing_tol(eps_next) / 2
        batch.extend(select(err, tol))
        if batch:
            bterms = [terms[i - 1] for i in batch]
            order = find_balanced_permutation(bterms, eps / 2)
            if order is None:
                raise ValueError("RP bound violated at stage: balancing failed")
            push(batch[p - 1] for p in order)
        if distance(cur, b) > _landing_tol(eps_next) + 1e-9:
            raise ValueError("terminal sum off target")

    phase_lengths = [len(images)]
    reports = []
    prev_anchor = d1
    for j in range(1, stages + 1):
        eps, eps_next = 2.0 ** -j, 2.0 ** -(j + 1)
        eta = _eta(eps)
        loop = _refined_tour(target.points, tour, HOP_FACTOR * eta)
        start = len(images)
        marks.clear()
        k0 = constants.n_threshold(eps / 2)
        for d in loop[1:]:
            move(prev_anchor, d, k0, eps, eps)
            prev_anchor = d
        # stage handoff: sweep the reservoir so the permutation covers an
        # initial segment, landing within the next stage's tolerance
        n_next = constants.n_threshold(eps_next / 2)
        move(prev_anchor, prev_anchor, max(k0, n_next), eps, eps_next, sweep=True)
        excursion = max_excursion(flush(start))
        if excursion > eps + 1e-9:
            raise ValueError("prefix escaped its eps-ball")
        pending = [idx for q in reservoir.values() for _, idx in q]
        covered_through = min(pending) - 1 if pending else frontier
        if covered_through < n_next:
            raise ValueError("stage handoff left an early index uncovered")
        phase_lengths.append(len(images) - start)
        reports.append({
            "stage": j,
            "k_i": len(images),
            "eps": eps,
            "eta": eta,
            "anchor": prev_anchor,
            "stage_end_error": distance(cur, prev_anchor),
            "prefix_max_excursion": excursion,
            "moves": len(loop),
            "uncovered": sum(len(q) for q in reservoir.values()),
            "covered_through": covered_through,
        })

    tau = PartialPermutation(images)
    walk = Walk(sums, phase_lengths)
    return tau, walk, reports

def check_stage_invariants(reports: Sequence[dict], tau: PartialPermutation,
                           constants: RPConstants) -> bool:
    """Re-verify the staged induction's invariants from its artifacts:

    (i) the tolerances halve: eps_j = 2^-j and eta_j = eps_j/48, which
    equals min(eps/48, delta(eps/2)/12) bit for bit at every eps = 2^-j,
    j = 1..59 (see :func:`rearrange_to_limit_set`); (ii) the permutation
    only ever grew, and ends at the last stage's k_i; (iii) each stage
    handoff left an initial segment through N(eps_{j+1}/2) covered, and
    the whole permutation covers N(eps/2) of the stage after the last;
    (iv) every stage parked within 4 eta_{j+1} of its final anchor, with
    prefix excursions inside the eps_j ball.  Nothing here checks that
    each anchor along a stage was hit; (iv) sees only the stage's end.
    """
    prev_k = 0
    for rep in reports:
        j, eps, eta = rep["stage"], rep["eps"], rep["eta"]
        if eps != 2.0 ** -j or eta != _eta(eps):
            return False
        if rep["k_i"] <= prev_k:
            return False
        prev_k = rep["k_i"]
        if rep["covered_through"] < constants.n_threshold(2.0 ** -(j + 1) / 2):
            return False
        eta_next = _eta(2.0 ** -(j + 1))
        if rep["stage_end_error"] >= 4 * eta_next:
            return False
        if rep["prefix_max_excursion"] > eps:
            return False
    if len(tau) != prev_k:
        return False
    return tau.covers_initial_segment(
        constants.n_threshold(2.0 ** -(len(reports) + 1) / 2))
