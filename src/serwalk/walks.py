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
    the declared per-phase maximum step norm.  Steps are measured in the
    norm of the points' space (see :mod:`serwalk.core`).
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
        pos = 0
        for n, bound in zip(self.phase_lengths, self.step_bounds):
            for st in steps[pos:pos + n]:
                if norm(st) > bound + 1e-12:
                    return False
            pos += n
        return True


def build_xwalk(schedule: Sequence[Sequence], step_bounds=None) -> Walk:
    """Assemble an out-and-back walk from per-phase chains.

    Each chain must start at the walk's anchor (the first point of the first
    chain).  A phase traverses its chain forward and then backward through
    the same points, ending at the anchor again.
    """
    if not schedule:
        raise ValueError("empty schedule")
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
    pos = 0
    for n in w.phase_lengths:
        half = n // 2
        for r in range(1, half + 1):
            terms.append(steps[pos + r - 1])
            images.append(pos + r)
            terms.append(steps[pos + n - r])
            images.append(pos + n - r + 1)
        pos += n
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


def _segment(a, b, n_steps: int) -> list:
    """n_steps equal steps from a to b, excluding a (exact when inputs are)."""
    out = []
    for i in range(1, n_steps + 1):
        # a float times Fraction(i, n_steps) is the float product with
        # i / n_steps, so one expression serves both modes
        t = Fraction(i, n_steps)
        out.append(tuple(ca + (cb - ca) * t for ca, cb in zip(a, b)))
    return out


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
        chain.extend(_segment(a, b, n))
    return chain


def gen_two_lines(phases: int) -> Walk:
    """The two-vertical-lines counterexample walk, in exact mode.

    Phase 1 goes from the origin to (1,0) in steps of 1/2 and back.  Phase
    k+1 climbs x=0 to height k, crosses to x=1 and descends, all in steps of
    2^-(k+1), then retraces.  Its limit set is {0,1} x [0, inf).
    """
    if phases < 1:
        raise ValueError("phases must be >= 1")
    F = Fraction
    schedule = []
    bounds = []
    origin = (F(0), F(0))
    schedule.append(_polyline_chain([origin, (F(1), F(0))], F(1, 2)))
    bounds.append(0.5)
    for k in range(1, phases):
        step = F(1, 2 ** (k + 1))
        corners = [origin, (F(0), F(k)), (F(1), F(k)), (F(1), F(0))]
        schedule.append(_polyline_chain(corners, step))
        bounds.append(float(step))
    return build_xwalk(schedule, step_bounds=bounds)


def gen_halflines(abscissae: Sequence, phases: int) -> Walk:
    """Walk whose limit set is the closure of given half-lines {a_i} x [0,inf).

    Phase k involves (a_1,0)..(a_{k+1},0), transfers horizontally along
    y = k-1 and uses steps <= 2^(1-k).  Needs len(abscissae) >= phases+1.
    Exact mode when every abscissa is rational (int/Fraction), float mode
    otherwise.
    """
    if len(set(abscissae)) != len(abscissae):
        raise ValueError("duplicate abscissae")
    if phases < 1:
        raise ValueError("phases must be >= 1")
    if len(abscissae) < phases + 1:
        raise ValueError("need at least phases+1 abscissae")
    exact_mode = all(isinstance(a, (int, Fraction)) for a in abscissae)
    zero = Fraction(0) if exact_mode else 0.0
    one = (lambda v: Fraction(v)) if exact_mode else float
    pts = [(one(a) + zero, zero) for a in abscissae]
    schedule = []
    bounds = []
    for k in range(1, phases + 1):
        bound = Fraction(1, 2 ** (k - 1)) if exact_mode else 2.0 ** (1 - k)
        h = one(k - 1)
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
    them in sample order) rather than stopping at d_{i+1}.
    """
    if phases < 1:
        raise ValueError("phases must be >= 1")
    pts = tuple(dict.fromkeys(dense))  # dedupe, keep order
    stops = range(len(pts)) if len(pts) > 1 else (0, 0)  # a point stays put
    bounds = []
    schedule = []
    for i in range(1, phases + 1):
        gap = 2.0 ** (1 - i)
        tour = core.gap_tour(core.gap_graph(pts, gap), stops)
        if tour is None:
            raise ValueError(f"sample too sparse for gap {gap} at phase {i}")
        schedule.append([pts[k] for k in tour])
        bounds.append(gap)
    return build_xwalk(schedule, step_bounds=bounds)


def _nearest_to_radius(points: Sequence, radius: float) -> int:
    return min(range(len(points)), key=lambda i: abs(norm(points[i]) - radius))


def _sphere_arc(a, b, radius: float, pitch: float) -> list:
    """Points along the circle of given radius from direction a to b (2-D
    equatorial arc in higher dimensions), at angular pitch <= pitch/radius."""
    ta = math.atan2(float(a[1]), float(a[0]))
    tb = math.atan2(float(b[1]), float(b[0]))
    dt = tb - ta
    while dt > math.pi:
        dt -= 2 * math.pi
    while dt < -math.pi:
        dt += 2 * math.pi
    n = max(1, math.ceil(abs(dt) * radius / pitch))
    rest = [0.0] * (len(a) - 2)
    out = []
    for i in range(1, n + 1):
        t = ta + dt * i / n
        out.append((radius * math.cos(t), radius * math.sin(t), *rest))
    return out


def build_unbounded_components_walk(components: Sequence[PointSample],
                                    radii: Sequence[float],
                                    phases: int) -> Walk:
    """Walk whose limit set is a union of unbounded components.

    Phase k joins representatives d_1..d_{k+1}, drawn round-robin from the
    components, by 2^-k-chains routed via the sphere S(0,R_k): up the source
    component to its point nearest the sphere, along a discretized
    equatorial arc, and down the target component; then the whole phase
    retraces back to d_1.  Each d_i is the first minimum-norm point of its
    component, and the chains join sample indices on one gap graph per
    component and phase, as :func:`build_chainable_walk` does.  Requires
    ambient dimension >= 2.  The walk is a float walk: component
    coordinates are converted to float on entry.
    """
    components = [PointSample(tuple(tuple(float(x) for x in p) for p in c),
                              getattr(c, "label", "")) for c in components]
    if phases < 1:
        raise ValueError("phases must be >= 1")
    if not components:
        raise ValueError("empty sample")
    for c in components:
        if not c.points:
            raise ValueError(f"component {c.label!r} is empty")
    dim = len(components[0].points[0])
    if dim < 2:
        raise ValueError("requires dimension >= 2")
    if list(radii) != sorted(set(radii)) or len(radii) < phases:
        raise ValueError("radii must be strictly increasing, one per phase")
    for radius in radii[:phases]:
        for c in components:
            if max(norm(p) for p in c.points) < radius:
                raise ValueError(f"component {c.label!r} does not reach radius {radius}")

    n = len(components)
    pts = [c.points for c in components]
    base = [min(range(len(p)), key=lambda i: norm(p[i])) for p in pts]
    schedule = []
    bounds = []
    for k in range(1, phases + 1):
        gap = 2.0 ** -k
        radius = float(radii[k - 1])
        visited = range(min(k + 1, n))  # the components of d_1..d_{k+1}
        nbrs = [core.gap_graph(pts[c], gap) for c in visited]
        top = [_nearest_to_radius(pts[c], radius) for c in visited]

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
        slack = max(abs(norm(pts[c][top[c]]) - radius) for c in visited)
        bounds.append(gap + 2 * slack)
    return build_xwalk(schedule, step_bounds=bounds)
