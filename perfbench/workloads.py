"""The benchmark's workloads: seeded inputs, timed items and their checks.

A workload is built by :func:`setup`, which imports serwalk and makes the
inputs; that is what ``setup_s`` measures.  It returns a list of items.  An
item's ``run`` is the timed call into serwalk; its ``check`` runs after the
timer stops and returns the item's output digest and the problems it found.

Every call goes through serwalk's submodules (``serwalk.walks.f``, not
``serwalk.f``) so that the span wrappers of a traced run see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

#: largest Hausdorff distance an estimate may have from its target
LIMIT_TOL = 0.15


@dataclass
class Outcome:
    digest: str
    problems: list
    limit_error: Optional[float] = None


@dataclass
class Item:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    expected_exit: Optional[int] = None


def seed_angle(seed: int) -> float:
    """Rotation of chain-circle's circle sample for a seed; seed 0 leaves it
    as the acceptance gate has it."""
    return 0.0 if seed == 0 else random.Random(seed).uniform(0.0, 2 * math.pi)


#: single-point targets of rearrange-circle, the same for every seed: the
#: acceptance gate's point, and one whose stage hand-offs leave large
#: batches for greedy balancing (about 4x the gate point's time).  Points
#: drawn from the seed differed up to 25x in time over seeds 0-10, too wide
#: a spread for a gated median over seeds.  For the same reason the circle
#: is not rotated by the seed: some angles leave a 3,600-term hand-off batch
#: (1,700-1,900 at others) and take about 40% longer.
POINTS = ((0.25, -0.5), (-0.4, -0.1))


def circle(count: int, angle: float = 0.0) -> tuple:
    """``count`` points evenly spaced on the unit circle, rotated by
    ``angle``; angle 0 reproduces the acceptance gate's circles."""
    return tuple((math.cos(2 * math.pi * i / count + angle),
                  math.sin(2 * math.pi * i / count + angle)) for i in range(count))


def count_at_pitch(pitch: float) -> int:
    """Points the acceptance gate puts on the unit circle at this pitch."""
    return math.ceil(2 * math.pi / pitch)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
        h.update(b"\0")
    return h.hexdigest()


def _require(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


# ---------------------------------------------------------------------------
# rearrange-circle: the acceptance gate's c10

def _rearrange_circle(seed: int, workdir: Path) -> list[Item]:
    from serwalk import analysis, core, rearrange

    # the inputs do not depend on the seed; see POINTS
    series = rearrange.full_range_series(2, 80000)
    target = core.PointSample(circle(count_at_pitch(0.05)))

    def run_circle():
        tau, walk, reports = rearrange.rearrange_to_limit_set(
            series, target, stages=5, rng=random.Random(0))
        invariants = rearrange.check_stage_invariants(
            reports, tau, rearrange.RPConstants(series))
        est = analysis.estimate_limit_set(walk, resolution=0.1)
        return tau, walk, invariants, core.hausdorff_distance(est.points, target)

    def check_circle(out):
        tau, walk, invariants, h = out
        problems: list = []
        _require(problems, invariants, "stage invariants do not hold")
        _require(problems, h <= LIMIT_TOL, f"circle Hausdorff {h} > {LIMIT_TOL}")
        return Outcome(_digest(tau.images, walk.sums, h), problems, h)

    def point_item(point):
        point_target = core.PointSample((point,))

        def run():
            _, walk, _ = rearrange.rearrange_to_limit_set(
                series, point_target, stages=5, rng=random.Random(0))
            return walk, analysis.singleton_convergence_check(walk, 2.0 ** -5)

        def check(out):
            walk, res = out
            problems: list = []
            _require(problems, res["verdict"] == "converges-to",
                     f"point target verdict {res['verdict']}")
            quarter = walk.sums[len(walk.sums) - (len(walk.sums) - 1) // 4:]
            worst = max(core.distance(s, point) for s in quarter)
            _require(problems, worst <= 2.0 ** -5, f"last quarter strays {worst} > 2^-5")
            h = None
            if res["verdict"] != "not-singleton":
                h = core.hausdorff_distance(res["estimate"].points, point_target)
            return Outcome(_digest(walk.sums, res["verdict"]), problems, h)

        return Item(f"rearrange-point{point}", run, check)

    return [Item("rearrange-circle", run_circle, check_circle),
            *(point_item(p) for p in POINTS)]


# ---------------------------------------------------------------------------
# chain-circle: the acceptance gate's c08 and c09

def _chain_circle(seed: int, workdir: Path) -> list[Item]:
    from serwalk import analysis, core, walks

    pts = circle(count_at_pitch(0.02), seed_angle(seed))
    sample = core.PointSample(pts)
    left = core.PointSample(tuple((-1.0, 0.1 * i) for i in range(42)), "left")
    right = core.PointSample(tuple((1.0, 0.1 * i) for i in range(42)), "right")
    truncated = core.PointSample(tuple(
        p for p in left.points + right.points if core.norm(p) <= 3.0))

    def run_chain():
        walk = walks.build_chainable_walk(list(pts), 5)
        est = analysis.estimate_limit_set(walk, resolution=0.05)
        h = core.hausdorff_distance(est.points, sample)
        return walk, est, h, analysis.verify_dichotomy(est, 0.3, 10.0)["verdict"]

    def check_chain(out):
        walk, est, h, verdict = out
        problems: list = []
        _require(problems, h <= LIMIT_TOL, f"circle Hausdorff {h} > {LIMIT_TOL}")
        _require(problems, verdict == "compact-connected", f"dichotomy verdict {verdict}")
        _require(problems, walk.is_palindromic(), "chainable walk is not palindromic")
        _require(problems, walk.check_step_bounds(), "chainable walk breaks its step bounds")
        return Outcome(_digest(walk.sums, est.points.points, verdict), problems, h)

    def run_unbounded():
        walk = walks.build_unbounded_components_walk([left, right], [2.0, 3.0, 4.0], 3)
        est = analysis.estimate_limit_set(walk, resolution=0.25)
        return walk, est, core.hausdorff_distance(est.points, truncated)

    def check_unbounded(out):
        walk, est, h = out
        problems: list = []
        _require(problems, h <= LIMIT_TOL, f"half-line Hausdorff {h} > {LIMIT_TOL}")
        return Outcome(_digest(walk.sums, est.points.points), problems, h)

    return [Item("chain-circle", run_chain, check_chain),
            Item("unbounded", run_unbounded, check_unbounded)]


# ---------------------------------------------------------------------------
# exact-cli: serwalk.cli.main on files in a scratch directory

def _call_cli(cli, argv: list) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _exact_cli(seed: int, workdir: Path) -> list[Item]:
    # exact-cli inputs are closed-form: the seed does not change them
    from serwalk import cli, seqspace, traceio, walks

    workdir.mkdir(parents=True, exist_ok=True)
    # output digest -> limit error, for outputs whose content was checked in
    # full; a repeat with the same digest needs no second read-back
    verified: dict = {}
    no_rp_head: list = []  # the generator's first ten no-rp terms

    def path(name):
        return str(workdir / name)

    def cli_item(name, argv, expected, check_output):
        def check(out):
            rc, stdout, stderr = out
            problems: list = []
            _require(problems, rc == expected,
                     f"exit {rc}, expected {expected}: {stderr.strip()[:200]}")
            files = [a for a in argv if a.startswith(str(workdir))]
            blobs = [Path(f).read_bytes() if Path(f).exists() else b"" for f in files]
            digest = _digest(rc, stdout, *blobs)
            if not problems and digest not in verified:
                limit_error = check_output(stdout, problems)
                if not problems:
                    verified[digest] = limit_error
            return Outcome(digest, problems, verified.get(digest))
        return Item(name, lambda: _call_cli(cli, argv), check, expected)

    def same_walk(file, make, reader):
        def check_output(stdout, problems):
            # digests, so that the two walks are never held at once
            want = make()
            want = (_digest(*want.sums), want.phase_lengths)
            with open(file) as fp:
                got = reader(fp)
            got = (_digest(*got.sums), got.phase_lengths)
            _require(problems, got == want,
                     f"{file} does not read back as the generator's exact sums")
        return check_output

    def svg_ok(stdout, problems):
        text = Path(path("tl7.svg")).read_text()
        _require(problems, text.startswith("<svg") and text.endswith("</svg>\n"),
                 "plot did not write a complete SVG")

    def escapes(stdout, problems):
        _require(problems, stdout.strip() == "all-components-escape",
                 f"two-lines dichotomy verdict {stdout.strip()!r}")
        return _two_lines_limit_error(path("tl7.report.json"))

    def max_gap(value):
        def check_output(stdout, problems):
            got = json.loads(stdout)["max_gap"]
            _require(problems, got == value, f"max_gap {got}, expected {value}")
        return check_output

    def two_point(stdout, problems):
        _require(problems, stdout.strip() == "violation",
                 f"c0 two-point dichotomy verdict {stdout.strip()!r}")
        with open(path("ctp9.report.json")) as fp:
            points = json.load(fp)["points"]
        got = sorted(sorted(p.items()) for p in points)
        _require(problems, got == [[], [("1", 1.0)]],
                 f"c0 two-point estimate {got} is not {{theta, e_1}}")

    def no_rp_terms(stdout, problems):
        want = seqspace.gen_no_rp_series(3)[0].terms
        no_rp_head[:] = want[:10]
        want = _digest(*want)
        with open(path("norp.json")) as fp:
            got = _digest(*traceio.read_terms_json(fp))
        _require(problems, got == want, "no-rp terms do not read back exactly")

    def balanced(stdout, problems):
        order = json.loads(stdout)["order"]
        _require(problems, sorted(order) == list(range(1, 11)),
                 f"rp-instance order {order} is not a permutation of 1..10")
        if problems:
            return
        if not no_rp_head:
            no_rp_head[:] = seqspace.gen_no_rp_series(3)[0].terms[:10]
        cur = seqspace.SparseVec()
        for i in order:
            cur = cur + no_rp_head[i - 1]
            _require(problems, cur.sup_norm() < 1.0, "rp-instance prefix reaches 1.0")

    tl7, tl6 = path("tl7.csv"), path("tl6.csv")
    cs9, ctp9, norp = path("cs9.jsonl"), path("ctp9.jsonl"), path("norp.json")
    return [
        cli_item("generate-two-lines-7",
                 ["generate", "two-lines", "--phases", "7", "--out", tl7], 0,
                 same_walk(tl7, lambda: walks.gen_two_lines(7), traceio.read_walk_csv)),
        cli_item("dichotomy-two-lines-7",
                 ["verify", "dichotomy", "--input", tl7, "--gap", "0.9", "--bound", "4",
                  "--out", path("tl7.report.json")], 0, escapes),
        cli_item("plot-two-lines-7", ["plot", "--input", tl7, "--out", path("tl7.svg")],
                 0, svg_ok),
        cli_item("generate-two-lines-6",
                 ["generate", "two-lines", "--phases", "6", "--out", tl6], 0,
                 same_walk(tl6, lambda: walks.gen_two_lines(6), traceio.read_walk_csv)),
        cli_item("cauchy-two-lines-6", ["verify", "cauchy", "--input", tl6], 0,
                 max_gap(math.sqrt(26))),
        cli_item("generate-c0-singleton-9",
                 ["generate", "c0-singleton", "--phases", "9", "--out", cs9], 0,
                 same_walk(cs9, lambda: seqspace.gen_c0_singleton_divergent(9),
                           traceio.read_walk_jsonl)),
        cli_item("cauchy-c0-singleton-9", ["verify", "cauchy", "--input", cs9], 0,
                 max_gap(1.0)),
        cli_item("generate-c0-two-point-9",
                 ["generate", "c0-two-point", "--phases", "9", "--out", ctp9], 0,
                 same_walk(ctp9, lambda: seqspace.gen_c0_two_point(9),
                           traceio.read_walk_jsonl)),
        cli_item("dichotomy-c0-two-point-9",
                 ["verify", "dichotomy", "--input", ctp9, "--gap", "0.9", "--bound", "3",
                  "--out", path("ctp9.report.json")], 1, two_point),
        cli_item("generate-no-rp-3", ["generate", "no-rp", "--kmax", "3", "--out", norp],
                 0, no_rp_terms),
        cli_item("rp-instance-no-rp-3",
                 ["verify", "rp-instance", "--input", norp, "--epsilon", "1.0"], 0,
                 balanced),
    ]


def _two_lines_limit_error(report_path: str) -> float:
    """Hausdorff distance from the two-lines(7) estimate to its closed-form
    limit set {0, 1} x [0, inf), cut at height 5: the highest level that
    phases 6 and 7, the estimate's window, both revisit."""
    from serwalk import core

    with open(report_path) as fp:
        points = [tuple(p) for p in json.load(fp)["points"]]
    top, pitch = 5, 2.0 ** -8
    target = tuple((x, pitch * i) for x in (0.0, 1.0) for i in range(int(top / pitch) + 1))
    return core.hausdorff_distance(points, target)


_BUILDERS = {"rearrange-circle": _rearrange_circle,
             "chain-circle": _chain_circle,
             "exact-cli": _exact_cli}
NAMES = tuple(_BUILDERS)


def setup(name: str, seed: int, workdir: Path) -> tuple[list[Item], float]:
    """Import serwalk and build the workload's inputs; returns the items and
    the seconds that took."""
    start = time.perf_counter()
    import serwalk  # noqa: F401  (its import time is part of set-up)
    items = _BUILDERS[name](seed, workdir)
    return items, time.perf_counter() - start
