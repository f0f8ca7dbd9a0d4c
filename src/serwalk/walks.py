"""Walk construction: out-and-back partial-sum trajectories.

A Walk stores the start point (``sums[0]``, the anchor, usually the origin)
followed by the partial sums s_1, s_2, ...  Every phase leaves the anchor,
traverses a chain of points, and retraces the same points back to the
anchor, so each phase block read together with the preceding anchor is a
palindrome.  That structure is exactly what lets the steps be re-paired into
an alternating series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import core
from .core import PointSample, add, distance, neg, norm, point_mode, sub


@dataclass
class PartialPermutation:
    """Injective map [1,k] -> N, stored as the 1-based image list."""

    images: list[int]

    def __post_init__(self):
        self._range = set(self.images)
        if len(self._range) != len(self.images):
            raise ValueError("images not injective")

    def __len__(self):
        return len(self.images)

    def covers_initial_segment(self, m: int) -> bool:
        return all(i in self._range for i in range(1, m + 1))


@dataclass
class SignedSeries:
    """A finite series prefix; it is alternating when y_{2n} = -y_{2n-1}
    exactly."""

    terms: list

    def check_alternating(self) -> bool:
        it = iter(self.terms)
        for odd, even in zip(it, it):
            if even != neg(odd):
                return False
        return True


@dataclass
class Walk:
    """Prefix of a partial-sum trajectory.

    sums[0] is the start point; sums[1:] are s_1..s_P.  phase_lengths[k]
    counts the entries of sums[1:] that belong to phase k+1: nonnegative
    ints summing to P, else ValueError.  step_bounds, when present, gives
    the declared per-phase maximum step norm, one per phase, else
    ValueError.  Steps are measured in the norm of the points' space (see
    :mod:`serwalk.core`).
    """

    sums: list
    phase_lengths: list[int]
    step_bounds: Optional[list[float]] = None

    def __post_init__(self):
        if not all(isinstance(n, int) and n >= 0 for n in self.phase_lengths):
            raise ValueError(f"phase lengths must be nonnegative ints: "
                             f"{self.phase_lengths}")
        if sum(self.phase_lengths) != len(self.sums) - 1:
            raise ValueError(f"phase lengths sum to {sum(self.phase_lengths)}, "
                             f"not to the {len(self.sums) - 1} sums after the start")
        if self.step_bounds is not None and len(self.step_bounds) != len(self.phase_lengths):
            raise ValueError(f"{len(self.step_bounds)} step bounds for "
                             f"{len(self.phase_lengths)} phases")

    @property
    def mode(self) -> str:
        """'exact' or 'float', read off the start point."""
        return point_mode(self.sums[0])

    @property
    def anchor(self):
        return self.sums[0]

    def __len__(self):
        return len(self.sums) - 1

    def steps(self) -> list:
        return [sub(self.sums[i + 1], self.sums[i]) for i in range(len(self.sums) - 1)]

    def phase_blocks(self) -> list[tuple[int, int]]:
        """(start, end) slices into ``sums`` per phase; block k spans
        sums[start:end] with sums[start-1] its anchor."""
        blocks, pos = [], 1
        for n in self.phase_lengths:
            blocks.append((pos, pos + n))
            pos += n
        return blocks

    def is_palindromic(self) -> bool:
        """Each phase block, read with its anchor, equals its own reversal."""
        for start, end in self.phase_blocks():
            block = self.sums[start - 1:end]
            if block != block[::-1]:
                return False
        return True

    def check_step_bounds(self) -> bool:
        if self.step_bounds is None:
            return True
        steps = self.steps()
        for (start, end), bound in zip(self.phase_blocks(), self.step_bounds):
            for st in steps[start - 1:end - 1]:
                if norm(st) > bound + 1e-12:
                    return False
        return True


def build_xwalk(schedule: Sequence[Sequence], step_bounds=None) -> Walk:
    """Assemble an out-and-back walk from per-phase chains.

    Each chain must start at the walk's anchor (the first point of the first
    chain).  A phase traverses its chain forward and then backward through
    the same points, ending at the anchor again.  An empty schedule has no
    phases, so it raises the generators' "phases must be >= 1".
    """
    if not schedule:
        raise ValueError("phases must be >= 1")
    anchor = schedule[0][0]
    sums = [anchor]
    phase_lengths = []
    for chain in schedule:
        if not chain or chain[0] != anchor:
            raise ValueError("phase not anchored")
        out = list(chain[1:])
        back = list(chain[-2::-1])
        sums.extend(out + back)
        phase_lengths.append(len(out) + len(back))
    return Walk(sums, phase_lengths, step_bounds=step_bounds)


def walk_to_series(w: Walk) -> tuple[SignedSeries, PartialPermutation]:
    """Steps of the walk re-paired into an alternating series.

    Returns (series, sigma) where series.terms is the alternating order
    x_1, x_2, ... and sigma maps alternating position n to the walk-order
    step index, i.e. x_n = y_{sigma(n)} with y_p = sums[p] - sums[p-1].
    Walk order is recovered by placing x_n at position sigma(n); prefix sums
    of the recovered y reproduce w.sums exactly.
    """
    if not w.is_palindromic():
        raise ValueError("not an X-walk")
    steps = w.steps()
    terms = []
    images = []
    for start, end in w.phase_blocks():
        # the r-th step out of the anchor pairs with the r-th step back
        for r in range(1, (end - start) // 2 + 1):
            for p in (start - 1 + r, end - r):
                terms.append(steps[p - 1])
                images.append(p)
    return SignedSeries(terms), PartialPermutation(images)


def series_to_walk(series: SignedSeries, sigma: PartialPermutation, start) -> list:
    """Re-accumulate the walk-order steps; inverse of walk_to_series."""
    y = [None] * len(series.terms)
    for n, p in enumerate(sigma.images, start=1):
        y[p - 1] = series.terms[n - 1]
    sums = [start]
    for t in y:
        sums.append(add(sums[-1], t))
    return sums


def segment(a, b, n: int) -> list:
    """The n points a + d*i/n, i = 1..n, with d = b - a: the one segment
    formula of the walk builders and the rearranger's tours.  It is exact
    on Fractions; on floats ``_polyline_chain``'s n is a power of two, so
    (d*i)/n equals d*(i/n), the product with the exact fraction i/n.  A
    Fraction coordinate the segment leaves unchanged is reused as it is; a
    float or int one stays on the formula, whose value there differs in
    sign or type (-0.0 + 0.0 is 0.0, an int plus 0 * i / n a float)."""
    columns = []
    for ca, cb in zip(a, b):
        dc = cb - ca
        if dc == 0 and type(ca) is Fraction and type(dc) is Fraction:
            columns.append([ca] * n)
        else:
            columns.append([ca + dc * i / n for i in range(1, n + 1)])
    return list(zip(*columns)) or [()] * n  # a point in R^0 is ()


def _polyline_chain(points: Sequence, bound) -> list:
    """Chain through the given corner points with steps <= bound."""
    chain = [points[0]]
    for a, b in zip(points, points[1:]):
        length = distance(a, b)
        if length == 0:
            continue
        n = 1
        while length / n > float(bound) + 1e-12:
            n *= 2
        chain.extend(segment(a, b, n))
    return chain


def gen_two_lines(phases: int) -> Walk:
    """The two-vertical-lines counterexample walk, in exact mode.

    Phase k+1 climbs x=0 to height k, crosses to x=1 and descends, all in
    steps of 2^-(k+1), then retraces; phase 1 only crosses, in steps of 1/2.
    Its limit set is {0,1} x [0, inf).
    """
    F = Fraction
    schedule = []
    bounds = []
    for k in range(phases):
        step = F(1, 2 ** (k + 1))
        corners = [(F(0), F(0)), (F(0), F(k)), (F(1), F(k)), (F(1), F(0))]
        schedule.append(_polyline_chain(corners, step))
        bounds.append(float(step))
    return build_xwalk(schedule, step_bounds=bounds)


def gen_halflines(abscissae: Sequence, phases: int) -> Walk:
    """Walk whose limit set is the closure of given half-lines {a_i} x [0,inf).

    Phase k involves (a_1,0)..(a_{k+1},0), transfers horizontally along
    y = k-1 and uses steps <= 2^(1-k).  Needs len(abscissae) >= phases+1.
    The walk is exact: every abscissa must be an int or a Fraction.
    """
    if not all(isinstance(a, (int, Fraction)) for a in abscissae):
        raise ValueError("abscissae must be ints or Fractions")
    if len(set(abscissae)) != len(abscissae):
        raise ValueError("duplicate abscissae")
    if len(abscissae) < phases + 1:
        raise ValueError("need at least phases+1 abscissae")
    pts = [(Fraction(a), Fraction(0)) for a in abscissae]
    schedule = []
    bounds = []
    for k in range(1, phases + 1):
        bound = Fraction(1, 2 ** (k - 1))
        h = Fraction(k - 1)
        corners = [pts[0]]
        for j in range(k):
            a_cur, a_next = pts[j], pts[j + 1]
            corners.extend([(a_cur[0], h), (a_next[0], h), a_next])
        schedule.append(_polyline_chain(corners, bound))
        bounds.append(float(bound))
    return build_xwalk(schedule, step_bounds=bounds)


def build_chainable_walk(dense: Sequence, phases: int) -> Walk:
    """Walk converging (in limit-set terms) to the closure of a chainable set.

    Phase i is a 2^(1-i)-chain out-and-back from d_1; so that a finite
    prefix already revisits the whole target every phase, the phase-i chain
    threads through every dense point (one :func:`core.gap_tour` through
    them in sample order) rather than stopping at d_{i+1}.  A leg between
    neighbours at the phase's gap is that edge, and the gap graph is built
    only for the other legs, so a sample listed in an order that steps
    between neighbours costs one distance per point and phase.
    """
    pts = tuple(dict.fromkeys(dense))  # dedupe, keep order
    stops = range(len(pts)) if len(pts) > 1 else (0, 0)  # a point stays put
    bounds = []
    schedule = []
    for i in range(1, phases + 1):
        gap = 2.0 ** (1 - i)
        tour = core.gap_tour(pts, gap, stops)
        if tour is None:
            raise ValueError(f"sample too sparse for gap {gap} at phase {i}")
        schedule.append([pts[k] for k in tour])
        bounds.append(gap)
    return build_xwalk(schedule, step_bounds=bounds)


def _sphere_arc(a, b, radius: float, pitch: float) -> list:
    """Points along the circle of given radius from direction a to b, at
    angular pitch <= pitch/radius."""
    ta = math.atan2(float(a[1]), float(a[0]))
    tb = math.atan2(float(b[1]), float(b[0]))
    dt = tb - ta
    while dt > math.pi:
        dt -= 2 * math.pi
    while dt < -math.pi:
        dt += 2 * math.pi
    n = max(1, math.ceil(abs(dt) * radius / pitch))
    out = []
    for i in range(1, n + 1):
        t = ta + dt * i / n
        out.append((radius * math.cos(t), radius * math.sin(t)))
    return out


def build_unbounded_components_walk(components: Sequence[PointSample],
                                    radii: Sequence[float],
                                    phases: int) -> Walk:
    """Walk whose limit set is a union of unbounded components.

    Phase k joins representatives d_1..d_{k+1}, drawn round-robin from the
    components, by 2^-k-chains routed via the circle S(0,R_k): up the source
    component to its point nearest the circle, along a discretized arc of
    it, and down the target component; then the whole phase
    retraces back to d_1.  Each d_i is the first minimum-norm point of its
    component, and the chains join sample indices on one gap graph per
    component and phase, as :func:`build_chainable_walk` does.  The walk is
    planar: every point must have dimension 2.  It is a float walk:
    component coordinates are converted to float on entry.
    """
    components = [PointSample(tuple(tuple(float(x) for x in p) for p in c),
                              getattr(c, "label", "")) for c in components]
    if not components:
        raise ValueError("empty sample")
    for c in components:
        if not c.points:
            raise ValueError(f"component {c.label!r} is empty")
    dim = next((len(p) for c in components for p in c.points if len(p) != 2), 2)
    if dim != 2:
        raise ValueError(f"requires planar components: dimension {dim}, not 2")
    if list(radii) != sorted(set(radii)) or len(radii) < phases:
        raise ValueError("radii must be strictly increasing, one per phase")
    norms = [[norm(p) for p in c.points] for c in components]
    for radius in radii[:phases]:
        for c, ns in zip(components, norms):
            if max(ns) < radius:
                raise ValueError(f"component {c.label!r} does not reach radius {radius}")

    n = len(components)
    pts = [c.points for c in components]
    base = [ns.index(min(ns)) for ns in norms]
    schedule = []
    bounds = []
    for k in range(1, phases + 1):
        gap = 2.0 ** -k
        radius = float(radii[k - 1])
        visited = range(min(k + 1, n))  # the components of d_1..d_{k+1}
        nbrs = [core.gap_graph(pts[c], gap) for c in visited]
        # ties go to the first point, as for base
        misses = [[abs(x - radius) for x in norms[c]] for c in visited]
        top = [m.index(min(m)) for m in misses]

        def leg(c, i, j):
            path = core.gap_path(nbrs[c], i, j)
            if path is None:
                raise ValueError(f"sample too sparse for gap {gap} at phase {k}")
            return [pts[c][m] for m in path[1:]]

        chain = [pts[0][base[0]]]
        for i in range(k):
            src, dst = i % n, (i + 1) % n
            chain.extend(leg(src, base[src], top[src]))
            if src != dst:
                chain.extend(_sphere_arc(pts[src][top[src]], pts[dst][top[dst]],
                                         radius, gap))
                chain.append(pts[dst][top[dst]])
            chain.extend(leg(dst, top[dst], base[dst]))
        schedule.append(chain)
        # the hop on/off the sphere can add the radius mismatch of a top point
        slack = max(map(min, misses))
        bounds.append(gap + 2 * slack)
    return build_xwalk(schedule, step_bounds=bounds)
