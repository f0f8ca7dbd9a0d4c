"""serwalk command line: generate walks, rearrange, verify, plot.

Exit codes: 0 success, 1 property failure (or stdout closed early by its
reader), 2 usage or input error.
Outputs are deterministic for a fixed argument list, and no subcommand
draws random numbers, so none takes a seed; no timestamps or machine state
leak into any artifact.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from contextlib import contextmanager

from . import analysis, rearrange, seqspace, traceio, walks
from .core import PointSample, norm

log = logging.getLogger("serwalk")

PASS, FAIL, USAGE = 0, 1, 2


class UsageError(Exception):
    pass


def _setup_logging():
    level = {"info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("SERWALK_LOG"), logging.ERROR)
    logging.basicConfig(level=level, format="%(levelname)s %(message)s")


@contextmanager
def _out_stream(path):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w") as fp:
            yield fp


def _write_json(path, obj, **kw):
    with _out_stream(path) as fp:
        json.dump(obj, fp, **kw)
        fp.write("\n")


def _write_manifest(path, args):
    if path in (None, "-"):
        return
    manifest = {k: v for k, v in sorted(vars(args).items())
                if k != "func" and v is not None}
    _write_json(path + ".manifest.json", manifest, indent=1, sort_keys=True)


def _read(path, what, reader):
    """reader(fp) on the opened path; any failure is a usage error naming
    what the input is (trace, sample or terms) and its path."""
    try:
        with open(path) as fp:
            return reader(fp)
    except (OSError, ValueError) as err:
        raise UsageError(f"cannot read {what} {path}: {err}") from err


def _read_trace(fp):
    # a JSONL trace (sparse sums) opens with a record, a CSV trace with its header
    head = fp.read(1)
    fp.seek(0)
    return (traceio.read_walk_jsonl if head == "{" else traceio.read_walk_csv)(fp)


def _parse_floats(text):
    return [float(x) for x in text.split(",") if x.strip()]


# ---------------------------------------------------------------------------
# generate

def cmd_generate(args) -> int:
    name = args.generator
    walk = None
    terms = None
    if name == "two-lines":
        walk = walks.gen_two_lines(args.phases)
    elif name == "halflines":
        abscissae = (_parse_floats(args.abscissae) if args.abscissae
                     else list(range(args.phases + 1)))
        walk = walks.gen_halflines(abscissae, args.phases)
    elif name == "chainable":
        if not args.target:
            raise UsageError("chainable needs --target")
        target = _read(args.target, "sample", traceio.read_sample_csv)
        walk = walks.build_chainable_walk(list(target), args.phases)
    elif name == "unbounded":
        radii = _parse_floats(args.radii) if args.radii else [2.0, 3.0, 4.0]
        comps = _demo_components(max(radii))
        walk = walks.build_unbounded_components_walk(comps, radii, args.phases)
    elif name == "c0-two-point":
        walk = seqspace.gen_c0_two_point(args.phases)
    elif name == "c0-singleton":
        walk = seqspace.gen_c0_singleton_divergent(args.phases)
    else:  # no-rp; argparse admits no other name
        series, _ = seqspace.gen_no_rp_series(args.kmax)
        terms = series.terms

    with _out_stream(args.out) as fp:
        if terms is not None:
            traceio.write_terms_json(terms, fp)
        elif hasattr(walk.sums[0], "entries"):
            traceio.write_walk_jsonl(walk, fp)
        else:
            traceio.write_walk_csv(walk, fp)
    _write_manifest(args.out, args)
    log.info("generated %s (%d sums)", name, 0 if walk is None else len(walk))
    return PASS


def _demo_components(top):
    seg = [(-1.0, 0.1 * i) for i in range(int(top * 10) + 1)]
    seg2 = [(1.0, 0.1 * i) for i in range(int(top * 10) + 1)]
    return [PointSample(tuple(seg), "left"), PointSample(tuple(seg2), "right")]


# ---------------------------------------------------------------------------
# rearrange

def cmd_rearrange(args) -> int:
    if args.stages < 1:
        raise UsageError("stages must be >= 1")
    if args.terms < 1:
        raise UsageError("terms must be >= 1")
    if not args.target:
        raise UsageError("rearrange needs --target")
    target = _read(args.target, "sample", traceio.read_sample_csv)
    dim = len(target.points[0])
    series = rearrange.full_range_series(dim, args.terms)
    try:
        tau, walk, reports = rearrange.rearrange_to_limit_set(
            series, target, args.stages)
    except ValueError as err:
        print(f"rearrangement failed: {err}", file=sys.stderr)
        return FAIL
    base = args.out or "rearranged"
    with open(base + ".csv", "w") as fp:
        traceio.write_walk_csv(walk, fp)
    _write_json(base + ".perm.json", {"images": tau.images})
    report = {"stages": reports}
    if len(target.points) == 1:
        check = analysis.singleton_convergence_check(walk, 2.0 ** -args.stages)
        report["convergence"] = check["verdict"]
    _write_json(base + ".report.json", report, indent=1)
    _write_manifest(base, args)
    return PASS


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    what = args.check
    if what == "vector-family":
        fam = seqspace.gen_vector_family(args.k)
        ok = (fam.check_unit_norms() and fam.check_zero_sum()
              and fam.check_prefix_lower_bound())
        print("pass" if ok else "fail")
        return PASS if ok else FAIL
    if not args.input:
        raise UsageError(f"verify {what} needs --input")
    if what == "rp-instance":
        if args.prefix < 1:
            raise UsageError("prefix must be >= 1")
        terms = _read(args.input, "terms", traceio.read_terms_json)
        order = rearrange.find_balanced_permutation(terms[:args.prefix], args.epsilon)
        if order is None:
            print("no balanced permutation")
            return FAIL
        print(json.dumps({"order": order}))
        return PASS
    walk = _read(args.input, "trace", _read_trace)
    if what == "singleton":
        res = analysis.singleton_convergence_check(walk, args.tol)
        print(res["verdict"])
        return PASS if res["verdict"] != "not-singleton" else FAIL
    if what == "cauchy":
        print(json.dumps(analysis.cauchy_diagnostic(walk)))
        return PASS
    est = analysis.estimate_limit_set(walk, resolution=args.resolution,
                                      window_fraction=args.window)
    if what == "estimate":
        _write_json(args.out, traceio.estimate_report(est), indent=1)
        return PASS
    # dichotomy
    bound = args.bound
    if bound is None:
        # an empty estimate is reported by verify_dichotomy
        bound = max((norm(p) for p in est.points), default=0.0)
    report = analysis.verify_dichotomy(est, args.gap, bound)
    _write_json(args.out, traceio.estimate_report(est, {"dichotomy": report["verdict"]}),
                indent=1)
    print(report["verdict"])
    return FAIL if report["verdict"] == analysis.VIOLATION else PASS


# ---------------------------------------------------------------------------
# plot

def cmd_plot(args) -> int:
    walk = _read(args.input, "trace", _read_trace)
    if hasattr(walk.sums[0], "entries") or len(walk.sums[0]) != 2:
        raise UsageError("plotting needs a 2-D dense trace")
    marks = (list(_read(args.marks, "sample", traceio.read_sample_csv))
             if args.marks else None)
    with _out_stream(args.out) as fp:
        traceio.write_walk_svg(walk, fp, marks=marks)
    return PASS


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="serwalk",
                                 description="rearranged-series walk toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit a canonical walk trace")
    g.add_argument("generator", choices=["two-lines", "halflines", "chainable",
                                         "unbounded", "c0-two-point",
                                         "c0-singleton", "no-rp"])
    g.add_argument("--phases", type=int, default=3)
    g.add_argument("--kmax", type=int, default=1)
    g.add_argument("--abscissae")
    g.add_argument("--radii")
    g.add_argument("--target")
    g.add_argument("--out")
    g.set_defaults(func=cmd_generate)

    r = sub.add_parser("rearrange", help="steer a full-sum-range series onto a target")
    r.add_argument("--target", required=True)
    r.add_argument("--stages", type=int, default=5)
    r.add_argument("--terms", type=int, default=80000)
    r.add_argument("--out")
    r.set_defaults(func=cmd_rearrange)

    v = sub.add_parser("verify", help="run a property verifier")
    v.add_argument("check", choices=["estimate", "dichotomy", "singleton",
                                     "cauchy", "vector-family", "rp-instance"])
    v.add_argument("--input")
    v.add_argument("--epsilon", type=float, default=1.0)
    v.add_argument("--resolution", type=float, default=0.1)
    v.add_argument("--window", type=float, default=0.3)
    v.add_argument("--gap", type=float, default=0.9)
    v.add_argument("--bound", type=float)
    v.add_argument("--tol", type=float, default=0.1)
    v.add_argument("--k", type=int, default=2)
    v.add_argument("--prefix", type=int, default=10)
    v.add_argument("--out")
    v.set_defaults(func=cmd_verify)

    p = sub.add_parser("plot", help="render a 2-D trace as SVG")
    p.add_argument("--input", required=True)
    p.add_argument("--marks")
    p.add_argument("--out")
    p.set_defaults(func=cmd_plot)
    return ap


def main(argv=None) -> int:
    _setup_logging()
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        rc = args.func(args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # the reader closed stdout (e.g. `| head`): point stdout at devnull
        # so the flush at exit cannot fail again, as the Python docs advise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return FAIL
    except (UsageError, ValueError) as err:
        print(str(err), file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
