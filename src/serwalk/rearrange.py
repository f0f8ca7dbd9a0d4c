"""Prefix balancing and limit-set-targeting rearrangement.

``rearrange_to_limit_set`` mirrors the inductive construction behind
rearranging a series so its partial sums cluster exactly on a prescribed
chainable set.  Stage j walks a refined tour of the target, and each hop
from anchor a to anchor b is one stage step (the ``move`` closure):
(1) append the untouched indices through N(eps_j/2) in order, and at the
stage hand-off also gather every index skipped so far; (2) select tail
indices whose sum steers the running total to within the next stage's
slack of b, parking scanned-but-unused indices in a reservoir; (3) order
the batch with ``find_balanced_permutation`` so that no prefix leaves the
eps_j-ball around a.  The step checks its postconditions and raises
ValueError when one fails.

The reservoir keeps one queue per axis and sign.  A pick takes the first
queued index whose magnitude is below twice the error left on that axis,
and the indices queued before it move, in their order, to the back of the
queue (one rotate); a queue with no such index is left as it was.  Later
picks depend on this order.

N(eps) is a bisection over the term norms, which ``RPConstants`` computes
once, in one pass over the series' float64 rows, and checks to be finite
and nonincreasing; "norm <= eps/4" is then monotone in the index.

Balancing orders the batch by one deterministic greedy pass over the
terms' float64 rows (``core.float_rows``), the same code for dense tuples
and SparseVecs, and falls back to a complete search for batches of at most
10 terms.  No randomized pass breaks ties, so a batch of more than 10
terms with exactly tied scores, where only a tie-broken greedy order stays
inside the bound, fails with "balancing failed".  No workload, test or
demo has such a batch; a Steinitz-lemma construction with a proven bound
is the planned answer for it.

Balancing constants are certified empirically, not proven: for a series
with nonincreasing term norms we take N(eps) = first index whose term norm
is <= eps/4 and delta(eps) = eps/2, and stress-test the pair with random
small-sum batches.
"""

from __future__ import annotations

import bisect
import math
import operator
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import PointSample, add, distance, float_rows, fold_coordinate, norm
from .walks import PartialPermutation, Walk

# ---------------------------------------------------------------------------
# test series with full sum range

def full_range_series(dim: int, count: int, scale: float = 8.0) -> list[tuple]:
    """Round-robin signed harmonic-type terms: for t = 1, 2, ... emit
    +scale/t and -scale/t along each axis in turn.

    Every coordinate has divergent positive and negative parts with terms
    tending to zero, so the sum range is all of R^dim.  The scale leaves a
    desk-scale prefix with enough mass for multi-stage rearrangements.
    """
    out = []
    t = 1
    while len(out) < count:
        for axis in range(dim):
            for sign in (1.0, -1.0):
                coords = [0.0] * dim
                coords[axis] = sign * scale / t
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
    such in index order.  When the chosen
    prefix reaches the bound and n <= 10, a complete prefix-pruned search
    decides, so that None is then a proof that no such order exists.  For
    n > 10, None only means that the greedy pass failed.

    Dense tuples and SparseVecs take the same path.  The greedy pass scores
    prefixes in float64, which is exact for dyadic terms (every
    generator's, and every trace read from disk); the complete search sums
    the terms in their own arithmetic.
    """
    if not terms:
        return []
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
        if value >= bound:
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
    evidence: dict = field(default_factory=dict)

class RPCertificationError(ValueError):
    def __init__(self, message: str, instance=None):
        super().__init__(message)
        self.instance = instance

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
    """

    def __init__(self, series: Sequence):
        rows = float_rows(series)[0]
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

def certify_rp(series_prefix: Sequence, epsilon: float,
               instance_budget: int = 500,
               rng: Optional[random.Random] = None) -> RPWitness:
    """Stress-test the empirical constants N(eps), delta(eps).

    Samples random small-sum batches of terms past N(eps) and demands a
    balanced permutation below eps for each; raises RPCertificationError
    with the counterexample batch otherwise.
    """
    rng = rng or random.Random(20240817)
    constants = RPConstants(series_prefix)
    n_thr = constants.n_threshold(epsilon)
    delta = constants.delta(epsilon)
    pool = list(range(n_thr, len(series_prefix)))
    if len(pool) < 12:
        raise ValueError("series prefix too short beyond N(eps)")
    worst = 0.0
    checked = 0
    for _ in range(instance_budget):
        instance = None
        for _ in range(500):
            size = rng.randint(2, 12)
            idxs = rng.sample(pool, min(size, len(pool)))
            terms = [series_prefix[i] for i in idxs]
            total = terms[0]
            for t in terms[1:]:
                total = add(total, t)
            if norm(total) < delta:
                instance = terms
                break
        if instance is None:
            continue
        order = find_balanced_permutation(instance, epsilon)
        if order is None:
            raise RPCertificationError(
                f"RP certification failed at eps={epsilon}", instance)
        worst = max(worst, _max_prefix_norm(instance, order))
        checked += 1
    return RPWitness(epsilon, n_thr, delta,
                     {"instances": checked, "max_prefix_norm": worst})

def certify_rp_family(series_prefix: Sequence, epsilons: Sequence[float],
                      instance_budget: int = 200,
                      rng: Optional[random.Random] = None) -> list[RPWitness]:
    """Witnesses for a decreasing epsilon family; monotone by construction."""
    out = [certify_rp(series_prefix, eps, instance_budget, rng)
           for eps in sorted(epsilons, reverse=True)]
    for w1, w2 in zip(out, out[1:]):
        if w1.delta < w2.delta or w1.n_threshold > w2.n_threshold:
            raise RPCertificationError(
                f"witnesses not monotone between eps={w1.epsilon} and eps={w2.epsilon}")
    return out

# ---------------------------------------------------------------------------
# the staged rearrangement

def _axis_of(term) -> tuple[int, float]:
    nz = [(a, float(v)) for a, v in enumerate(term) if float(v) != 0.0]
    if len(nz) > 1:
        raise ValueError("tail selection needs axis-aligned terms")
    return nz[0] if nz else (-1, 0.0)

def _refined_loop(points: Sequence, hop: float) -> list:
    """Cyclic tour of the points with linear refinement to steps <= hop."""
    pts = list(points)
    if len(pts) == 1:
        return [pts[0], pts[0]]
    loop = pts + [pts[0]]
    out = [loop[0]]
    for a, b in zip(loop, loop[1:]):
        d = distance(a, b)
        n = max(1, math.ceil(d / hop))
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
    formulas give bit-identical floats.  Chain refinement interpolates
    linearly between consecutive sample points, so targets should be
    samples of sets that are near-convex between neighbours (pitch^2-scale
    refinement error).

    The rearrangement is deterministic: ``rng`` is accepted for callers
    that pass one and is unused.

    Returns (tau, walk, stage_reports).
    """
    if stages < 1:
        raise ValueError("stages must be >= 1")
    target = target if isinstance(target, PointSample) else PointSample(tuple(target))
    if not target.points:
        raise ValueError("empty target")
    terms = series_prefix
    constants = RPConstants(terms)
    dim = len(terms[0])

    images: list[int] = []
    buf: list = []
    frontier = 0
    cur = tuple([0.0] * dim)
    # scanned-but-unused indices wait here until the walk swings back their
    # way; sweeping them at every extension instead would feed each move's
    # displacement back into the next one and exhaust the prefix
    reservoir: dict[tuple[int, bool], deque] = {}

    def push(order):
        nonlocal cur
        for i in order:
            cur = add(cur, terms[i - 1])
            images.append(i)
            buf.append(cur)

    def take(axis, positive, err_abs):
        q = reservoir.get((axis, positive), ())
        k = next((k for k, (mag, _) in enumerate(q) if mag < 2 * err_abs), None)
        if k is None:
            return None
        q.rotate(-k)
        return q.popleft()

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
                reservoir.setdefault((ax, value > 0), deque()).append(
                    (abs(value), frontier))

    # straight prefix through N(eps_1 / 2), then steer onto the first anchor
    n1 = constants.n_threshold(0.25)
    push(range(1, n1 + 1))
    frontier = n1
    d1 = tuple(float(c) for c in target.points[0])
    base_err = [float(a) - float(b) for a, b in zip(d1, cur)]
    push(select(base_err, _landing_tol(0.5) / 2))

    def move(a, b, eps, eps_next, sweep=False):
        nonlocal frontier
        start = len(buf)
        k0 = max(constants.n_threshold(eps / 2), constants.n_threshold(eps_next / 2))
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
        err = [float(bc) - float(cc) - zc for bc, cc, zc in zip(b, cur, z)]
        tol = _landing_tol(eps_next) / 2
        batch.extend(select(err, tol))
        if batch:
            bterms = [terms[i - 1] for i in batch]
            order = find_balanced_permutation(bterms, eps / 2)
            if order is None:
                raise ValueError("RP bound violated at stage: balancing failed")
            push(batch[p - 1] for p in order)
        excursion = 0.0
        for s in buf[start:]:
            d = distance(s, a)
            excursion = max(excursion, d)
        if excursion > eps + 1e-9:
            raise ValueError("prefix escaped its eps-ball")
        if distance(cur, b) > _landing_tol(eps_next) + 1e-9:
            raise ValueError("terminal sum off target")
        return excursion

    phase_lengths = [len(buf)]
    reports = []
    prev_anchor = d1
    for j in range(1, stages + 1):
        eps = 2.0 ** -j
        eta = _eta(eps)
        loop = _refined_loop(target.points, HOP_FACTOR * eta)
        start_len = len(buf)
        excursion = 0.0
        for d in loop[1:]:
            excursion = max(excursion, move(prev_anchor, d, eps, eps))
            prev_anchor = d
        # stage handoff: sweep the reservoir so the permutation covers an
        # initial segment, landing within the next stage's tolerance
        excursion = max(excursion, move(prev_anchor, prev_anchor, eps,
                                        2.0 ** -(j + 1), sweep=True))
        pending = [idx for q in reservoir.values() for _, idx in q]
        covered_through = min(pending) - 1 if pending else frontier
        if covered_through < constants.n_threshold(2.0 ** -(j + 1) / 2):
            raise ValueError("stage handoff left an early index uncovered")
        phase_lengths.append(len(buf) - start_len)
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
    start_pt = tuple([0.0] * dim)
    walk = Walk([start_pt] + buf, phase_lengths)
    return tau, walk, reports

def check_stage_invariants(reports: Sequence[dict], tau: PartialPermutation,
                           constants: RPConstants) -> bool:
    """Re-verify the staged induction's invariants from its artifacts:

    (i) the permutation only ever grew; (ii)+(iii) each stage handoff left
    an initial segment through N(eps_{j+1}/2) covered; (iv) anchors were
    hit exactly (sum range is all of R^m, so no anchor adjustment occurs);
    (v) every stage parked within 4 eta of its final anchor with prefix
    excursions inside the eps_j ball; (vi) the tolerances halve.  eta is
    eps/48, which equals min(eps/48, delta(eps/2)/12) bit for bit at every
    eps = 2^-j, j = 1..59 (see :func:`rearrange_to_limit_set`).
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
