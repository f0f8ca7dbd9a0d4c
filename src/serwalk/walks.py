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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from . import core
from .core import EUCLIDEAN, PointSample, add, distance, neg, norm, point_mode, sub


@dataclass
class PartialPermutation:
    """Injective map [1,k] -> N, stored as the 1-based image list."""

    images: list[int] = field(default_factory=list)

    def __post_init__(self):
        self._range = set(self.images)
        if len(self._range) != len(self.images):
            raise ValueError("images not injective")

    def __len__(self):
        return len(self.images)

    def __call__(self, n: int) -> int:
        return self.images[n - 1]

    def covers_initial_segment(self, m: int) -> bool:
        return all(i in self._range for i in range(1, m + 1))


@dataclass
class SignedSeries:
    """A finite series prefix; alternating means y_{2n} = -y_{2n-1} exactly."""

    terms: list
    alternating: bool = False

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
    counts the entries of sums[1:] that belong to phase k+1.  step_bounds,
    when present, gives the declared per-phase maximum step norm.
    """

    sums: list
    phase_lengths: Optional[list[int]] = None
    mode: str = "exact"
    step_bounds: Optional[list[float]] = None
    kind: str = EUCLIDEAN

    @property
    def partial_sums(self) -> list:
        return self.sums[1:]

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
        if self.phase_lengths is None:
            return [(1, len(self.sums))]
        blocks, pos = [], 1
        for n in self.phase_lengths:
            blocks.append((pos, pos + n))
            pos += n
        return blocks

    def is_palindromic(self) -> bool:
        """Each phase block, read with its anchor, equals its own reversal."""
        if self.phase_lengths is None:
            return False
        if sum(self.phase_lengths) != len(self.sums) - 1:
            return False
        for start, end in self.phase_blocks():
            block = self.sums[start - 1:end]
            if block != block[::-1]:
                return False
        return True

    def check_step_bounds(self) -> bool:
        if self.step_bounds is None or self.phase_lengths is None:
            return True
        steps = self.steps()
        pos = 0
        for n, bound in zip(self.phase_lengths, self.step_bounds):
            for st in steps[pos:pos + n]:
                if norm(st, self.kind) > bound + 1e-12:
                    return False
            pos += n
        return True


def build_xwalk(schedule: Sequence[Sequence], step_bounds=None, kind: str = EUCLIDEAN) -> Walk:
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
    mode = point_mode(anchor)
    return Walk(sums, phase_lengths, mode=mode, step_bounds=step_bounds, kind=kind)


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
    return SignedSeries(terms, alternating=True), PartialPermutation(images)


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
        out.append(tuple(ca + (cb - ca) * Fraction(i, n_steps) if isinstance(ca, (int, Fraction))
                         else ca + (cb - ca) * (i / n_steps)
                         for ca, cb in zip(a, b)))
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


def _chain_between(sample: PointSample, gap: float, a, b, kind: str):
    chain = core.gap_chainable(sample, gap, a, b, kind=kind)
    if chain is None:
        raise ValueError(f"sample too sparse for gap {gap}")
    return chain


def build_chainable_walk(dense: Sequence, phases: int, kind: str = EUCLIDEAN) -> Walk:
    """Walk converging (in limit-set terms) to the closure of a chainable set.

    Phase i is a 2^(1-i)-chain out-and-back from d_1; so that a finite
    prefix already revisits the whole target every phase, the phase-i chain
    threads through every dense point (BFS chains between consecutive ones)
    rather than stopping at d_{i+1}.
    """
    if phases < 1:
        raise ValueError("phases must be >= 1")
    pts = tuple(dict.fromkeys(dense))  # dedupe, keep order
    bounds = []
    schedule = []
    for i in range(1, phases + 1):
        gap = 2.0 ** (1 - i)
        nbrs = core.gap_graph(pts, gap, kind)
        chain = [pts[0]]
        if len(pts) == 1:
            chain.append(pts[0])
        for j in range(len(pts) - 1):
            path = core.gap_path(nbrs, j, j + 1)
            if path is None:
                raise ValueError(f"sample too sparse for gap {gap} at phase {i}")
            chain.extend(pts[k] for k in path[1:])
        schedule.append(chain)
        bounds.append(gap)
    return build_xwalk(schedule, step_bounds=bounds, kind=kind)


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
    retraces back to d_1.  Requires ambient dimension >= 2.
    """
    components = [c if isinstance(c, PointSample) else PointSample(tuple(c)) for c in components]
    if phases < 1:
        raise ValueError("phases must be >= 1")
    if not components or not components[0].points:
        raise ValueError("empty sample")
    dim = len(components[0].points[0])
    if dim < 2:
        raise ValueError("requires dimension >= 2")
    if list(radii) != sorted(set(radii)) or len(radii) < phases:
        raise ValueError("radii must be strictly increasing, one per phase")
    for radius in radii[:phases]:
        for c in components:
            if max(norm(p) for p in c.points) < radius:
                raise ValueError(f"component {c.label!r} does not reach radius {radius}")

    reps = [components[i % len(components)] for i in range(phases + 1)]
    base = [min(c.points, key=norm) for c in reps]
    schedule = []
    bounds = []
    for k in range(1, phases + 1):
        gap = 2.0 ** -k
        radius = float(radii[k - 1])
        chain = [base[0]]
        for i in range(k):
            src, dst = reps[i], reps[i + 1]
            a_s = src.points[_nearest_to_radius(src.points, radius)]
            a_t = dst.points[_nearest_to_radius(dst.points, radius)]
            up = _chain_between(src, gap, chain[-1], a_s, EUCLIDEAN)
            chain.extend(up[1:])
            if src is not dst:
                chain.extend(_sphere_arc(a_s, a_t, radius, gap))
                chain.append(a_t)
            down = _chain_between(dst, gap, a_t, base[i + 1], EUCLIDEAN)
            chain.extend(down[1:])
        schedule.append(chain)
        # the hop on/off the sphere can add the radius mismatch of a_s/a_t
        slack = max(abs(norm(a) - radius) for c in (reps[:k + 1]) for a in
                    [c.points[_nearest_to_radius(c.points, radius)]])
        bounds.append(gap + 2 * slack)
    walk = build_xwalk(schedule, step_bounds=bounds)
    walk.mode = "float"
    return walk
