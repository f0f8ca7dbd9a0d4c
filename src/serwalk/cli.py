"""serwalk command line: generate walks, rearrange, verify, plot.

Exit codes: 0 success, 1 property failure (or stdout closed early by its
reader), 2 usage or input error.
Outputs are deterministic for a fixed argument list, and no subcommand
draws random numbers, so none takes a seed; no timestamps or machine state
leak into any artifact.
"""

from __future__ import annotations

import argparse
import errno
import io
import json
import logging
import math
import os
import sys
from contextlib import contextmanager

from . import analysis, rearrange, seqspace, traceio, walks
from .core import PointSample, norm

log = logging.getLogger("serwalk")

PASS, FAIL, USAGE = 0, 1, 2


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


def _outputs(args) -> list:
    """Every file the command writes: rearrange's four under its base name;
    else --out when it names a file, and generate's manifest of it.  A
    manifest comes last."""
    if args.command == "rearrange":
        base = args.out or "rearranged"
        return [base + ext for ext in (".csv", ".perm.json", ".report.json",
                                       ".manifest.json")]
    out = getattr(args, "out", None)  # not every check takes --out
    if out in (None, "-"):
        return []
    return [out] + ([out + ".manifest.json"] if args.command == "generate" else [])


def _write_manifest(args):
    outputs = _outputs(args)
    if not outputs:
        return
    manifest = {k: v for k, v in sorted(vars(args).items())
                if k != "func" and v is not None}
    _write_json(outputs[-1], manifest, indent=1, sort_keys=True)


def _refuse_overwriting_inputs(args):
    inputs = {os.path.realpath(path): path
              for path in (getattr(args, k, None) for k in ("input", "target", "marks"))
              if path}
    for path in _outputs(args):
        if source := inputs.get(os.path.realpath(path)):
            raise ValueError(f"output {path} would overwrite input {source}")


def _read(path, what, reader):
    """reader(fp) on the opened path; any failure is a usage error naming
    what the input is (trace, sample or terms) and its path."""
    try:
        with open(path) as fp:
            return reader(fp)
    except (OSError, ValueError) as err:
        raise ValueError(f"cannot read {what} {path}: {err}") from err


def _read_trace(fp):
    # a JSONL trace (sparse sums) opens with a record, a CSV trace with its header
    head = fp.read(1)
    fp.seek(0)
    return (traceio.read_walk_jsonl if head == "{" else traceio.read_walk_csv)(fp)


# ---------------------------------------------------------------------------
# generate

def _unbounded(args):
    """The unbounded generator's walk, one phase per radius 2, 3 and 4, on
    two components: the vertical segments at x = -1 and x = 1 up to height
    4, the largest radius, at pitch 0.1."""
    rails = [PointSample(tuple((x, 0.1 * i) for i in range(41)), label)
             for x, label in ((-1.0, "left"), (1.0, "right"))]
    return walks.build_unbounded_components_walk(rails, [2, 3, 4], args.phases)


#: each generator's flags (besides --out), the call that builds its walk
#: (for no-rp, its series terms) and its most phases, or None.  Walks that
#: grow as 2^phases stop at the most phases with at most 2^20 sums:
#: c0-singleton has 2^(P+1) - 2 sums and c0-two-point 6 (2^P - 1);
#: two-lines has 1,047,372 at 13 phases and halflines 474,994 at 10, counted
#: from their chain-step rule.  unbounded has three radii, and chainable
#: grows with its target, one tour of it per phase.
GENERATORS = {
    "two-lines": (["phases"], lambda a: walks.gen_two_lines(a.phases), 13),
    "halflines": (["phases"],
                  lambda a: walks.gen_halflines(range(a.phases + 1), a.phases), 10),
    "chainable": (["phases", "target"], lambda a: walks.build_chainable_walk(
        list(_read(a.target, "sample", traceio.read_sample_csv)), a.phases), None),
    "unbounded": (["phases"], _unbounded, 3),
    "c0-two-point": (["phases"], lambda a: seqspace.gen_c0_two_point(a.phases), 17),
    "c0-singleton": (["phases"],
                     lambda a: seqspace.gen_c0_singleton_divergent(a.phases), 19),
    "no-rp": (["kmax"], lambda a: seqspace.gen_no_rp_series(a.kmax)[0].terms, None),
}


def cmd_generate(args) -> int:
    _, build, most = GENERATORS[args.generator]
    if most is not None and args.phases > most:
        raise ValueError(f"generate {args.generator} takes at most {most} phases")
    made = build(args)
    walk = made if isinstance(made, walks.Walk) else None
    with _out_stream(args.out) as fp:
        if walk is None:
            traceio.write_terms_json(made, fp)
        elif hasattr(walk.anchor, "entries"):
            traceio.write_walk_jsonl(walk, fp)
        else:
            traceio.write_walk_csv(walk, fp)
    _write_manifest(args)
    log.info("generated %s (%d sums)", args.generator, 0 if walk is None else len(walk))
    return PASS


# ---------------------------------------------------------------------------
# rearrange

#: the series prefix lengths rearrange tries, in order, each twice the last.
#: A run reads nothing past its frontier, so every length that holds it
#: gives the same bytes, and the first length that does is as good as any.
PREFIX_LENGTHS = [80000 * 2 ** k for k in range(5)]


def _rearrange(target, stages):
    """rearrange_to_limit_set on full_range_series of the target's dimension,
    at each length of PREFIX_LENGTHS until one is long enough; a failure
    other than PrefixTooShort, or at the last length, is raised."""
    dim = len(target.points[0])
    for count in PREFIX_LENGTHS:
        log.info("rearrange: trying a %d-term prefix", count)
        try:
            return rearrange.rearrange_to_limit_set(
                rearrange.full_range_series(dim, count), target, stages)
        except rearrange.PrefixTooShort as err:
            if count == PREFIX_LENGTHS[-1]:
                raise
            log.info("rearrange: %d terms are too short: %s", count, err)


def cmd_rearrange(args) -> int:
    if args.stages < 1:
        raise ValueError("stages must be >= 1")
    if args.out == "-":
        raise ValueError("rearrange writes files under a base name: --out - is not one")
    # refuse, as open would, outputs that cannot be written before the run
    outputs = _outputs(args)
    folder = os.path.dirname(outputs[0]) or os.curdir
    if not os.path.isdir(folder):
        code = errno.ENOTDIR if os.path.exists(folder) else errno.ENOENT
        raise OSError(code, os.strerror(code), outputs[0])
    for path in outputs:
        if os.path.isdir(path):
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    target = _read(args.target, "sample", traceio.read_sample_csv)
    try:
        tau, walk, reports = _rearrange(target, args.stages)
    except ValueError as err:
        print(f"rearrangement failed: {err}", file=sys.stderr)
        return FAIL
    trace, perm, report_path, _ = outputs
    with open(trace, "w") as fp:
        traceio.write_walk_csv(walk, fp)
    _write_json(perm, {"images": tau.images})
    report = {"stages": reports}
    if len(target.points) == 1:
        check = analysis.singleton_convergence_check(walk, 2.0 ** -args.stages)
        report["convergence"] = check["verdict"]
    _write_json(report_path, report, indent=1)
    _write_manifest(args)
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
    if what == "rp-instance":
        if args.prefix < 1:
            raise ValueError("prefix must be >= 1")
        if not 0 < args.epsilon < math.inf:
            raise ValueError(f"epsilon must be a finite positive number, not {args.epsilon}")
        terms = _read(args.input, "terms", traceio.read_terms_json)
        if args.prefix > len(terms):
            raise ValueError(f"prefix {args.prefix} is longer than the "
                             f"{len(terms)} terms of {args.input}")
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
    est = analysis.estimate_limit_set(walk, resolution=args.resolution)
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
    marks = (list(_read(args.marks, "sample", traceio.read_sample_csv))
             if args.marks else None)
    svg = io.StringIO()  # a refused plot leaves no half-written file
    traceio.write_walk_svg(walk, svg, marks=marks)
    with _out_stream(args.out) as fp:
        fp.write(svg.getvalue())
    return PASS


# ---------------------------------------------------------------------------

#: every flag's argparse spec; each command takes only the flags it reads
FLAGS = {
    "phases": dict(type=int, default=3),
    "kmax": dict(type=int, default=1),
    "target": dict(required=True),
    "input": dict(required=True),
    "marks": {},
    "stages": dict(type=int, default=5),
    "epsilon": dict(type=float, default=1.0),
    "resolution": dict(type=float, default=0.1),
    "gap": dict(type=float, default=0.9),
    "bound": dict(type=float),
    "tol": dict(type=float, default=0.1),
    "k": dict(type=int, default=2),
    "prefix": dict(type=int, default=10),
    "out": {},
}

#: each check's flags
CHECKS = {
    "estimate": ["input", "resolution", "out"],
    "dichotomy": ["input", "resolution", "gap", "bound", "out"],
    "singleton": ["input", "tol"],
    "cauchy": ["input"],
    "vector-family": ["k"],
    "rp-instance": ["input", "epsilon", "prefix"],
}


def _add_command(sub, name, flags, func, **kw):
    p = sub.add_parser(name, **kw)
    for flag in flags:
        p.add_argument(f"--{flag}", **FLAGS[flag])
    p.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="serwalk",
                                 description="rearranged-series walk toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    gens = sub.add_parser("generate", help="emit a canonical walk trace"
                          ).add_subparsers(dest="generator", required=True)
    for name, (flags, _, _) in GENERATORS.items():
        _add_command(gens, name, flags + ["out"], cmd_generate)
    _add_command(sub, "rearrange", ["target", "stages", "out"], cmd_rearrange,
                 help="steer a full-sum-range series onto a target")
    checks = sub.add_parser("verify", help="run a property verifier"
                            ).add_subparsers(dest="check", required=True)
    for name, flags in CHECKS.items():
        _add_command(checks, name, flags, cmd_verify)
    _add_command(sub, "plot", ["input", "marks", "out"], cmd_plot,
                 help="render a 2-D trace as SVG")
    return ap


def main(argv=None) -> int:
    _setup_logging()
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _refuse_overwriting_inputs(args)
        rc = args.func(args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # the reader closed stdout (e.g. `| head`): point stdout at devnull
        # so the flush at exit cannot fail again, as the Python docs advise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return FAIL
    except OSError as err:  # inputs are read through _read, so an output failed
        print(f"cannot write: {err}", file=sys.stderr)
        return USAGE
    except ValueError as err:
        print(str(err), file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
